"""Self-contained numerical verification checks.

Each check regenerates its own small random instances, measures an error
against an independent route (dense inverse, finite differences, explicit
activations, a KKT linear solve), and compares against a fixed threshold.
``lowbit verify`` runs all of them and fails loudly if any measured error
exceeds its threshold.

A check's threshold scales exactly when the check takes ``scale``: the
CLI's tolerance override multiplies it there. The other checks (code
mismatch counts, the quantizer's exact bounds, the gradient alignment and
the synthetic covariance) keep their thresholds whatever the override.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calib import SyntheticSpec, generate_synthetic, gradient_alignment, exact_proxy_gradient
from .engines import LayerBundle, first_order_quant_step, gptq_column_step, run_engine
from .linalg import (
    HessianState,
    inverse_cholesky,
    iterative_inverse_update,
    recover_inverse_submatrix,
)
from .quantizer import EngineConfig, QuantGrid, ScaleBook, fit_scales, quantize_values
from .report import proxy_loss

__all__ = ["CheckResult", "run_checks"]


@dataclass
class CheckResult:
    name: str
    measured: float
    threshold: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.name}: measured={self.measured:.3e} "
            f"threshold={self.threshold:.3e}  {self.detail}"
        )


def _check(name, measured, threshold, detail=""):
    return CheckResult(name, float(measured), float(threshold), float(measured) <= float(threshold), detail)


def _hessian_from_tokens(d, n_tokens, rho, seed) -> HessianState:
    X = generate_synthetic(SyntheticSpec(d, n_tokens, rho, seed))
    return HessianState(d).accumulate(X)


def _rel_fro(a, b):
    denom = np.linalg.norm(b)
    return np.linalg.norm(a - b) / denom if denom else np.linalg.norm(a - b)


def check_inverse_factor(seed=0, dim=64, scale=1.0) -> CheckResult:
    worst = 0.0
    for s in range(3):
        damped = _hessian_from_tokens(dim, 4 * dim, 0.9, seed + s).dampen(0.01)
        T = inverse_cholesky(damped).matrix
        resid = np.linalg.norm(T.T @ T @ damped.matrix - np.eye(dim)) / np.sqrt(dim)
        worst = max(worst, resid)
    return _check("inverse_factor_identity", worst, 1e-8 * scale, f"dim={dim}, 3 seeds")


def check_cholesky_factor(seed=0, dim=1100, scale=1.0) -> CheckResult:
    # 1100 columns are three of the factor's 512-row bands, the last one
    # ragged, so the check reads U across band edges
    worst = 0.0
    for s in range(3):
        damped = _hessian_from_tokens(dim, 4 * dim, 0.9, seed + s).dampen(0.01)
        U = inverse_cholesky(damped).upper
        worst = max(worst, _rel_fro(U @ U.T, damped.matrix))
    return _check("cholesky_factor_identity", worst, 1e-13 * scale, f"dim={dim}, 3 seeds")


def check_submatrix_recovery(seed=0, dim=64, scale=1.0) -> CheckResult:
    damped = _hessian_from_tokens(dim, 4 * dim, 0.9, seed).dampen(0.01)
    T = inverse_cholesky(damped)
    H = damped.matrix
    worst = 0.0
    for q in range(dim - 1):
        M = recover_inverse_submatrix(T, q)
        r = dim - q - 1
        resid = np.linalg.norm(M @ H[q + 1 :, q + 1 :] - np.eye(r)) / np.sqrt(r)
        worst = max(worst, resid)
    return _check("trailing_inverse_recovery", worst, 1e-8 * scale, f"dim={dim}, all q")


def check_iterative_route(seed=0, dim=32, scale=1.0) -> CheckResult:
    damped = _hessian_from_tokens(dim, 4 * dim, 0.9, seed).dampen(0.01)
    T = inverse_cholesky(damped)
    hinv = np.linalg.inv(damped.matrix)
    worst = 0.0
    for q in range(dim - 1):
        hinv = iterative_inverse_update(hinv, 0)
        worst = max(worst, _rel_fro(hinv, recover_inverse_submatrix(T, q)))
    return _check("iterative_vs_factor_route", worst, 1e-7 * scale, f"dim={dim}")


def check_kkt_optimality(seed=0, dim=8, n_seeds=50, scale=1.0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_seeds):
        A = rng.standard_normal((dim, dim))
        H = A @ A.T + dim * np.eye(dim)
        hinv = np.linalg.inv(H)
        q = int(rng.integers(dim))
        g = 3e-4 * rng.standard_normal(dim)
        err = float(rng.standard_normal())
        dw = first_order_quant_step(err, g, hinv, q, exact_multiplier=True)
        K = np.zeros((dim + 1, dim + 1))
        K[:dim, :dim] = H
        K[dim, q] = K[q, dim] = 1.0
        rhs = np.concatenate([-g, [-err]])
        dw_kkt = np.linalg.solve(K, rhs)[:dim]
        worst = max(worst, np.abs(dw - dw_kkt).max() / max(np.abs(dw_kkt).max(), 1e-30))
    return _check("constrained_step_kkt", worst, 1e-8 * scale, f"dim={dim}, {n_seeds} seeds")


def check_gradient_alignment(seed=0, n_seeds=100) -> CheckResult:
    worst = np.inf
    for s in range(n_seeds):
        d_in, d_out = 16, 8
        hess = _hessian_from_tokens(d_in, 64, 0.8, seed + s)
        rng = np.random.default_rng(10_000 + seed + s)
        bundle = LayerBundle(rng.standard_normal((d_out, d_in)))
        factor = inverse_cholesky(hess.dampen(0.01))
        grid = QuantGrid(4, None, True)
        book = ScaleBook(grid, d_out, d_in)
        for j in range(d_in // 2):
            gptq_column_step(bundle, factor, grid, j, book)
        # positivity holds for full-row cosines: row . (row @ H) is a
        # positive quadratic form; column-restricted cosines need not be > 0
        diag = gradient_alignment(bundle, hess, 3e-4)
        if diag.n_defined:
            worst = min(worst, diag.min_cosine())
    passed = worst > 0.0
    return CheckResult(
        "gradient_alignment_positive",
        float(worst),
        0.0,
        passed,
        f"min defined cosine over {n_seeds} mid-calibration states (must be > 0)",
    )


def check_finite_difference_gradient(seed=0, scale=1.0) -> CheckResult:
    d_in = d_out = 8
    hess = _hessian_from_tokens(d_in, 32, 0.8, seed)
    rng = np.random.default_rng(seed + 1)
    bundle = LayerBundle(rng.standard_normal((d_out, d_in)))
    bundle.weights += 0.01 * rng.standard_normal((d_out, d_in))
    analytic = exact_proxy_gradient(bundle, hess)
    step = 1e-5
    fd = np.zeros_like(analytic)
    base = bundle.weights.copy()
    for i in range(d_out):
        for j in range(d_in):
            w_hi = base.copy()
            w_hi[i, j] += step
            w_lo = base.copy()
            w_lo[i, j] -= step
            fd[i, j] = (
                proxy_loss(w_hi, bundle.original, hess)
                - proxy_loss(w_lo, bundle.original, hess)
            ) / (2 * step)
    rel = np.abs(fd - analytic).max() / np.abs(analytic).max()
    return _check("proxy_gradient_finite_difference", rel, 1e-6 * scale, "8x8, central differences")


def check_proxy_loss_two_route(seed=0, scale=1.0) -> CheckResult:
    d = 8
    X = generate_synthetic(SyntheticSpec(d, 32, 0.8, seed))
    hess = HessianState(d).accumulate(X)
    rng = np.random.default_rng(seed + 2)
    w0 = rng.standard_normal((d, d))
    w1 = w0 + 0.05 * rng.standard_normal((d, d))
    trace_route = proxy_loss(w1, w0, hess)
    direct = float(np.linalg.norm((w1 - w0) @ X) ** 2)
    rel = abs(trace_route - direct) / direct
    return _check("proxy_loss_two_route", rel, 1e-10 * scale, "trace form vs explicit activations")


def check_oracle_equivalence(seed=0) -> CheckResult:
    d = 32
    hess = _hessian_from_tokens(d, 128, 0.9, seed)
    rng = np.random.default_rng(seed + 3)
    W = rng.standard_normal((d, d))
    q_a, _ = run_engine(LayerBundle(W), hess, EngineConfig(engine="gptq", bits=4))
    q_b, _ = run_engine(LayerBundle(W), hess, EngineConfig(engine="obs_oracle", bits=4))
    mismatches = int((q_a.codes != q_b.codes).sum())
    return _check("factor_vs_dense_oracle_codes", mismatches, 0, f"dim={d}")


def check_reduction_identity(seed=0) -> CheckResult:
    d = 32
    hess = _hessian_from_tokens(d, 128, 0.9, seed)
    rng = np.random.default_rng(seed + 4)
    W = rng.standard_normal((d, d))
    ref, _ = run_engine(LayerBundle(W), hess, EngineConfig(engine="gptq", bits=4, block_size=16))
    mismatches = 0
    for B in (1, 8, 16):
        fo, _ = run_engine(
            LayerBundle(W),
            hess,
            EngineConfig(engine="foem", bits=4, beta=0.0, block_size=B),
        )
        mismatches += int((fo.codes != ref.codes).sum())
    return _check("foem_beta0_equals_gptq", mismatches, 0, "B in {1, 8, 16}")


def check_identity_hessian_decoupling(seed=0) -> CheckResult:
    d = 24
    hess = HessianState(d).accumulate(np.eye(d))
    rng = np.random.default_rng(seed + 5)
    W = rng.standard_normal((8, d))
    q_g, _ = run_engine(LayerBundle(W), hess, EngineConfig(engine="gptq", bits=4))
    q_r, _ = run_engine(LayerBundle(W), hess, EngineConfig(engine="rtn", bits=4))
    mismatches = int((q_g.codes != q_r.codes).sum())
    return _check("identity_hessian_gptq_equals_rtn", mismatches, 0, f"dim={d}")


def check_quantizer_bounds(seed=0, n=100_000) -> CheckResult:
    rng = np.random.default_rng(seed + 6)
    worst = 0.0
    for bits in (3, 4, 8):
        grid = QuantGrid(bits, None, True)
        group = rng.standard_normal((64,))
        gs = fit_scales(group, grid)
        span = float(gs.scale) * grid.q_max
        w = rng.uniform(-span, span, size=n)
        _, deq = quantize_values(w, gs, grid)
        worst = max(worst, float(np.abs(deq - w).max() / (float(gs.scale) / 2)))
    return _check("quantizer_half_step_bound", worst, 1.0 + 1e-12, "unclamped values, bits in {3,4,8}")


def check_sign_equivariance(seed=0, n=100_000) -> CheckResult:
    rng = np.random.default_rng(seed + 7)
    grid = QuantGrid(4, None, True)
    half = rng.standard_normal((32,))
    gs = fit_scales(np.concatenate([half, -half]), grid)
    w = rng.uniform(-1, 1, size=n) * np.abs(half).max()
    _, deq_pos = quantize_values(w, gs, grid)
    _, deq_neg = quantize_values(-w, gs, grid)
    worst = float(np.abs(deq_neg + deq_pos).max())
    return _check("quantizer_sign_equivariance", worst, 0.0, "sign-symmetric group")


def check_covariance_convergence(seed=0) -> CheckResult:
    from .calib import mixing_matrix

    d = 16
    spec = SyntheticSpec(d, 100 * d, 0.9, seed)
    X = generate_synthetic(spec)
    A = mixing_matrix(spec)
    rel = _rel_fro(X @ X.T / spec.n_tokens, A @ A.T)
    return _check("synthetic_covariance_convergence", rel, 0.15, f"n = 100*d, d={d}")


def run_checks(tol_scale: float = 1.0, seed: int = 0) -> list[CheckResult]:
    """Run every verification check, with ``tol_scale`` multiplying the
    threshold of each check that takes ``scale``."""
    return [
        check_inverse_factor(seed, scale=tol_scale),
        check_cholesky_factor(seed, scale=tol_scale),
        check_submatrix_recovery(seed, scale=tol_scale),
        check_iterative_route(seed, scale=tol_scale),
        check_kkt_optimality(seed, scale=tol_scale),
        check_gradient_alignment(seed),
        check_finite_difference_gradient(seed, scale=tol_scale),
        check_proxy_loss_two_route(seed, scale=tol_scale),
        check_oracle_equivalence(seed),
        check_reduction_identity(seed),
        check_identity_hessian_decoupling(seed),
        check_quantizer_bounds(seed),
        check_sign_equivariance(seed),
        check_covariance_convergence(seed),
    ]
