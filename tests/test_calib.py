import numpy as np
import pytest

from conftest import token_hessian
from lowbit.calib import (
    SINGULAR_FLOOR,
    SyntheticSpec,
    activation_entries,
    approx_gradient,
    exact_proxy_gradient,
    generate_synthetic,
    gradient_alignment,
    mixing_matrix,
)
from lowbit.engines import LayerBundle, gptq_column_step
from lowbit.errors import NumericalError
from lowbit.linalg import HessianState, inverse_cholesky
from lowbit.quantizer import QuantGrid, ScaleBook
from lowbit.report import proxy_loss
from lowbit.tensorio import TensorFile, save_tensors


def mid_quantization_bundle(d_out, d_in, seed, n_cols=None):
    """A drifted bundle produced by quantizing the first columns with
    factor-route compensation."""
    hess = token_hessian(d_in, 4 * d_in, 0.8, seed)
    factor = inverse_cholesky(hess.dampen(0.01))
    rng = np.random.default_rng(seed + 999)
    bundle = LayerBundle(rng.standard_normal((d_out, d_in)))
    grid = QuantGrid(4, None, True)
    book = ScaleBook(grid, d_out, d_in)
    for j in range(n_cols if n_cols is not None else d_in // 2):
        gptq_column_step(bundle, factor, grid, j, book)
    return bundle, hess


class TestGenerateSynthetic:
    def test_deterministic_in_seed(self):
        spec = SyntheticSpec(8, 20, 0.7, 42)
        assert np.array_equal(generate_synthetic(spec), generate_synthetic(spec))

    def test_different_seeds_differ(self):
        a = generate_synthetic(SyntheticSpec(8, 20, 0.7, 1))
        b = generate_synthetic(SyntheticSpec(8, 20, 0.7, 2))
        assert not np.array_equal(a, b)

    def test_rho_zero_hits_singular_floor(self):
        A = mixing_matrix(SyntheticSpec(6, 10, 0.0, 0))
        sv = np.linalg.svd(A, compute_uv=False)
        np.testing.assert_allclose(sv[0], 1.0, rtol=1e-10)
        np.testing.assert_allclose(sv[1:], SINGULAR_FLOOR, rtol=1e-10)

    def test_floor_applies_to_deep_tail(self):
        A = mixing_matrix(SyntheticSpec(64, 10, 0.5, 0))
        sv = np.sort(np.linalg.svd(A, compute_uv=False))
        assert sv[0] >= SINGULAR_FLOOR * (1 - 1e-12)

    def test_full_row_rank(self):
        X = generate_synthetic(SyntheticSpec(16, 16, 0.9, 3))
        assert np.linalg.matrix_rank(X) == 16

    def test_sample_covariance_converges(self):
        spec = SyntheticSpec(16, 1600, 0.9, 5)
        X = generate_synthetic(spec)
        A = mixing_matrix(spec)
        target = A @ A.T
        rel = np.linalg.norm(X @ X.T / spec.n_tokens - target) / np.linalg.norm(target)
        assert rel < 0.15

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(0, 10)
        with pytest.raises(ValueError):
            SyntheticSpec(4, 0)
        with pytest.raises(ValueError):
            SyntheticSpec(4, 10, rho=1.0)
        with pytest.raises(ValueError):
            SyntheticSpec(4, 10, seed=-1)


class TestGradients:
    def test_approx_gradient_zero_at_origin(self, rng):
        bundle = LayerBundle(rng.standard_normal((3, 4)))
        assert np.array_equal(approx_gradient(bundle, 3e-4), np.zeros((3, 4)))

    def test_approx_gradient_zero_beta(self, rng):
        bundle = LayerBundle(rng.standard_normal((3, 4)))
        bundle.weights += 1.0
        assert np.array_equal(approx_gradient(bundle, 0.0), np.zeros((3, 4)))

    def test_approx_gradient_is_scaled_drift(self, rng):
        bundle = LayerBundle(rng.standard_normal((3, 4)))
        delta = rng.standard_normal((3, 4))
        bundle.weights += delta
        np.testing.assert_allclose(approx_gradient(bundle, 3e-4), 3e-4 * delta, rtol=1e-15)

    def test_exact_gradient_zero_at_origin(self, rng):
        hess = token_hessian(4, 16, 0.8, 0)
        bundle = LayerBundle(rng.standard_normal((2, 4)))
        assert np.array_equal(exact_proxy_gradient(bundle, hess), np.zeros((2, 4)))

    def test_exact_gradient_identity_hessian(self, rng):
        hess = HessianState(4).accumulate(np.eye(4))
        bundle = LayerBundle(rng.standard_normal((2, 4)))
        delta = rng.standard_normal((2, 4))
        bundle.weights += delta
        np.testing.assert_allclose(exact_proxy_gradient(bundle, hess), 2 * delta, rtol=1e-14)

    def test_exact_gradient_matches_finite_differences(self, rng):
        d = 8
        hess = token_hessian(d, 32, 0.8, 7)
        bundle = LayerBundle(rng.standard_normal((d, d)))
        bundle.weights += 0.02 * rng.standard_normal((d, d))
        analytic = exact_proxy_gradient(bundle, hess)
        H = hess.matrix
        step = 1e-5
        fd = np.zeros_like(analytic)
        base = bundle.weights.copy()
        for i in range(d):
            for j in range(d):
                hi, lo = base.copy(), base.copy()
                hi[i, j] += step
                lo[i, j] -= step
                fd[i, j] = (
                    proxy_loss(hi, bundle.original, H)
                    - proxy_loss(lo, bundle.original, H)
                ) / (2 * step)
        assert np.abs(fd - analytic).max() / np.abs(analytic).max() <= 1e-6

    def test_trailing_gradient_is_minus_damping_times_drift(self):
        # gptq leaves the trailing columns at the damped optimum, D (H + lam I)[:, k:] = 0,
        # so the exact gradient there is the damping artifact -2 lam D[:, k:]
        d = 48
        grid = QuantGrid(3, None, True)
        for seed in range(5):
            hess = token_hessian(d, 2 * d, 0.9, seed)
            damped = hess.dampen(0.01)
            factor = inverse_cholesky(damped)
            bundle = LayerBundle(np.random.default_rng(seed).standard_normal((16, d)))
            book = ScaleBook(grid, 16, d)
            for k in range(1, d):
                gptq_column_step(bundle, factor, grid, k - 1, book)
                grad = exact_proxy_gradient(bundle, hess)[:, k:]
                expected = -2 * damped.damping * (bundle.weights - bundle.original)[:, k:]
                assert np.linalg.norm(grad - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_damped_hessian_rejected(self, rng):
        hess = token_hessian(4, 16, 0.8, 8).dampen(0.01)
        with pytest.raises(NumericalError, match="undamped"):
            exact_proxy_gradient(LayerBundle(rng.standard_normal((2, 4))), hess)


class TestGradientAlignment:
    def test_no_drift_means_no_defined_rows(self, rng):
        hess = token_hessian(4, 16, 0.8, 9)
        bundle = LayerBundle(rng.standard_normal((3, 4)))
        diag = gradient_alignment(bundle, hess, 3e-4)
        assert diag.n_defined == 0
        assert np.isnan(diag.cosines).all()
        assert np.isnan(diag.min_cosine())

    def test_identity_hessian_gives_parallel_gradients(self, rng):
        hess = HessianState(6).accumulate(np.eye(6))
        bundle = LayerBundle(rng.standard_normal((4, 6)))
        bundle.weights += rng.standard_normal((4, 6))
        diag = gradient_alignment(bundle, hess, 3e-4)
        assert diag.n_defined == 4
        np.testing.assert_allclose(diag.defined_cosines(), 1.0, rtol=1e-12)

    def test_cosines_positive_for_spd_hessian(self):
        worst = np.inf
        for seed in range(100):
            bundle, hess = mid_quantization_bundle(6, 12, seed)
            diag = gradient_alignment(bundle, hess, 3e-4)
            if diag.n_defined:
                worst = min(worst, diag.min_cosine())
        assert worst > 0.0

    def test_magnitude_ratio_defined_rows_only(self, rng):
        bundle, hess = mid_quantization_bundle(4, 8, 3)
        diag = gradient_alignment(bundle, hess, 3e-4)
        assert np.isfinite(diag.magnitude_ratio[diag.defined]).all()

    def test_column_range_restriction(self):
        bundle, hess = mid_quantization_bundle(4, 8, 4, n_cols=4)
        diag = gradient_alignment(bundle, hess, 3e-4, col_start=4)
        assert diag.col_start == 4 and diag.col_stop == 8
        # restricted cosines exist but carry no positivity guarantee
        assert diag.cosines.shape == (4,)


class TestActivationShards:
    def _write(self, path, name, arr):
        save_tensors(path, {name: arr})

    def test_sharded_accumulation_matches_concatenated(self, tmp_path, rng):
        x1 = rng.standard_normal((4, 10))
        x2 = rng.standard_normal((4, 6))
        self._write(tmp_path / "s1.st", "fc.input.0", x1)
        self._write(tmp_path / "s2.st", "fc.input.1", x2)
        files = [TensorFile.open(tmp_path / "s1.st"), TensorFile.open(tmp_path / "s2.st")]
        entries = activation_entries(files, "fc")
        assert entries == [(files[0], "fc.input.0"), (files[1], "fc.input.1")]
        sharded = HessianState(4)
        for tf, name in entries:
            sharded.accumulate(tf.load(name))
        whole = HessianState(4).accumulate(np.hstack([x1, x2]))
        np.testing.assert_allclose(sharded.matrix, whole.matrix, rtol=1e-12, atol=1e-12)
        assert sharded.n_samples == whole.n_samples == 16

    def test_unsharded_name_accepted(self, tmp_path, rng):
        self._write(tmp_path / "a.st", "proj.input", rng.standard_normal((3, 5)))
        entries = activation_entries([TensorFile.open(tmp_path / "a.st")], "proj")
        assert [name for _, name in entries] == ["proj.input"]

    def test_shards_ordered_numerically(self, tmp_path, rng):
        # 10 sorts after 2 as a number, before it as text
        xs = {n: rng.standard_normal((2, 3)) for n in (10, 2, 0, 1)}
        save_tensors(tmp_path / "a.st", {f"fc.input.{n}": x for n, x in xs.items()})
        entries = activation_entries([TensorFile.open(tmp_path / "a.st")], "fc")
        assert [name for _, name in entries] == [
            "fc.input.0", "fc.input.1", "fc.input.2", "fc.input.10"
        ]

    def test_missing_layer_has_no_entries(self, tmp_path, rng):
        self._write(tmp_path / "a.st", "other.input", rng.standard_normal((2, 3)))
        assert activation_entries([TensorFile.open(tmp_path / "a.st")], "fc") == []

    def test_layer_name_with_dots_not_confused(self, tmp_path, rng):
        save_tensors(
            tmp_path / "a.st",
            {
                "blk.0.fc.input": rng.standard_normal((2, 3)),
                "blk.0.fc.input.3": rng.standard_normal((2, 3)),
                "blk.10.fc.input": rng.standard_normal((2, 3)),
                "0.fc.input": rng.standard_normal((2, 3)),
            },
        )
        files = [TensorFile.open(tmp_path / "a.st")]
        assert [name for _, name in activation_entries(files, "blk.0.fc")] == [
            "blk.0.fc.input", "blk.0.fc.input.3"
        ]
        assert [name for _, name in activation_entries(files, "fc")] == []
