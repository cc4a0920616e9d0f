"""Calibration data and gradient diagnostics.

Synthetic activations emulate the correlated channel statistics of real
layer inputs: a seed-fixed mixing matrix with geometrically decaying
singular values is applied to i.i.d. Gaussian tokens, so the population
covariance of the generated stream is known in closed form.

The diagnostics compare the cheap drift-proportional gradient estimate
beta * (W - W_orig) against the true gradient of the layer-wise proxy
loss, 2 * (W - W_orig) @ H. Over a whole row the two have a positive
inner product for any positive-definite H. That does not make the estimate
a descent direction where foem applies it: on the still-latent columns of
a gptq run the exact gradient is -2 * damping * (W - W_orig), the exact
opposite of the estimate, as ``gradient_alignment`` with ``col_start`` set
to the first latent column shows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .linalg import HessianState
from .tensorio import TensorFile

__all__ = [
    "SyntheticSpec",
    "mixing_matrix",
    "generate_synthetic",
    "approx_gradient",
    "exact_proxy_gradient",
    "GradientDiagnostics",
    "gradient_alignment",
]

SINGULAR_FLOOR = 1e-3


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic activation stream.

    ``rho`` in [0, 1) sets the decay rate of the mixing matrix's singular
    values (1, rho, rho^2, ...); smaller values give a more degenerate,
    more correlated stream. Singular values are floored at 1e-3 so the
    stream always has full row rank (with probability 1 for
    n_tokens >= d_in).
    """

    d_in: int
    n_tokens: int
    rho: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.d_in < 1:
            raise ValueError("d_in must be >= 1")
        if self.n_tokens < 1:
            raise ValueError("n_tokens must be >= 1")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {self.rho}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _draw_mixing(rng: np.random.Generator, d: int, rho: float) -> np.ndarray:
    u, _ = np.linalg.qr(rng.standard_normal((d, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)))
    s = np.maximum(rho ** np.arange(d), SINGULAR_FLOOR)
    return (u * s) @ v.T


def mixing_matrix(spec: SyntheticSpec) -> np.ndarray:
    """Seed-fixed square mixing matrix with decaying singular spectrum.

    The sample covariance of the generated stream converges to A A^T for
    this A as n_tokens grows.
    """
    return _draw_mixing(np.random.default_rng(spec.seed), spec.d_in, spec.rho)


def generate_synthetic(spec: SyntheticSpec) -> np.ndarray:
    """Generate a (d_in x n_tokens) correlated activation matrix.

    Deterministic in the seed: the same spec reproduces the same matrix
    bit for bit.
    """
    rng = np.random.default_rng(spec.seed)
    mix = _draw_mixing(rng, spec.d_in, spec.rho)
    return mix @ rng.standard_normal((spec.d_in, spec.n_tokens))


def approx_gradient(bundle, beta: float) -> np.ndarray:
    """Drift-proportional gradient estimate: beta * (W - W_orig)."""
    return beta * (bundle.weights - bundle.original)


def exact_proxy_gradient(bundle, hessian: HessianState) -> np.ndarray:
    """Gradient of the proxy loss ||(W - W_orig) X||_F^2: 2 (W - W_orig) H.

    Uses the undamped covariance; the loss is defined by the data, not by
    the factorization regularizer.
    """
    if hessian.damped:
        raise NumericalError("proxy gradient must use the undamped Hessian")
    if hessian.dim != bundle.weights.shape[1]:
        raise NumericalError(
            f"Hessian dim {hessian.dim} does not match layer d_in "
            f"{bundle.weights.shape[1]}"
        )
    return 2.0 * (bundle.weights - bundle.original) @ hessian.matrix


@dataclass
class GradientDiagnostics:
    """Row-wise comparison of the cheap and exact proxy gradients.

    Rows where either gradient vanishes have no defined direction; their
    cosine and magnitude ratio are NaN and they are excluded from the
    aggregates.
    """

    cosines: np.ndarray
    magnitude_ratio: np.ndarray
    defined: np.ndarray
    col_start: int
    col_stop: int

    @property
    def n_defined(self) -> int:
        return int(self.defined.sum())

    def defined_cosines(self) -> np.ndarray:
        return self.cosines[self.defined]

    def min_cosine(self) -> float:
        vals = self.defined_cosines()
        return float(vals.min()) if vals.size else float("nan")

    def mean_cosine(self) -> float:
        vals = self.defined_cosines()
        return float(vals.mean()) if vals.size else float("nan")


def gradient_alignment(
    bundle,
    hessian: HessianState,
    beta: float,
    col_start: int = 0,
    col_stop: int | None = None,
) -> GradientDiagnostics:
    """Per-row cosine between the drift estimate and the exact gradient.

    ``col_start``/``col_stop`` restrict the inspected column range, e.g. to
    look only at the still-unquantized tail of a mid-calibration layer.
    """
    if col_stop is None:
        col_stop = bundle.weights.shape[1]
    ga = approx_gradient(bundle, beta)[:, col_start:col_stop]
    ge = exact_proxy_gradient(bundle, hessian)[:, col_start:col_stop]
    na = np.linalg.norm(ga, axis=1)
    ne = np.linalg.norm(ge, axis=1)
    defined = (na > 0) & (ne > 0)
    cos = np.full(na.shape, np.nan)
    ratio = np.full(na.shape, np.nan)
    if defined.any():
        cos[defined] = np.sum(ga[defined] * ge[defined], axis=1) / (
            na[defined] * ne[defined]
        )
        ratio[defined] = na[defined] / ne[defined]
    return GradientDiagnostics(
        cosines=cos,
        magnitude_ratio=ratio,
        defined=defined,
        col_start=col_start,
        col_stop=col_stop,
    )


_SHARD_SUFFIX = re.compile(r"^(?P<layer>.+)\.input(?:\.(?P<shard>\d+))?$")


def activation_entries(files: list[TensorFile], layer: str) -> list[tuple[TensorFile, str]]:
    """Locate activation shards for ``layer`` across tensor files.

    Matches entries named ``<layer>.input`` or ``<layer>.input.<n>``;
    shards are ordered by file position then numeric shard index.
    """
    found: list[tuple[int, int, TensorFile, str]] = []
    for fidx, tf in enumerate(files):
        for name in tf.names:
            m = _SHARD_SUFFIX.match(name)
            if m and m.group("layer") == layer:
                shard = int(m.group("shard")) if m.group("shard") else -1
                found.append((fidx, shard, tf, name))
    found.sort(key=lambda item: (item[0], item[1]))
    return [(tf, name) for _, _, tf, name in found]

