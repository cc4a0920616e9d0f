import tracemalloc

import numpy as np
import pytest

from lowbit.calib import SyntheticSpec, generate_synthetic
from lowbit.linalg import HessianState

# one line per acceptance criterion, echoed in the terminal summary so the
# measured values survive pytest's output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def token_hessian(d_in, n_tokens, rho=0.9, seed=0):
    """Hessian accumulated from one synthetic activation stream."""
    X = generate_synthetic(SyntheticSpec(d_in, n_tokens, rho, seed))
    return HessianState(d_in).accumulate(X)


def random_spd(dim, seed, shift=None):
    """Well-conditioned random SPD matrix."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim))
    return A @ A.T + (dim if shift is None else shift) * np.eye(dim)


def count_calls(monkeypatch, module, name):
    """Replace ``module.<name>`` with a wrapper that records each call's
    positional arguments; returns the list it appends to."""
    calls = []
    fn = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def traced_peak(fn):
    """Call ``fn()``; return its result and the peak bytes allocated above
    the level at entry, as tracemalloc counts them (numpy reports its
    array buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
