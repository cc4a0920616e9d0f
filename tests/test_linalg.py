import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import lowbit
from conftest import token_hessian, traced_peak
from lowbit.engines import EngineConfig, LayerBundle, PreparedLayer, _run_oracle, run_engine
from lowbit.errors import FactorizationError, NumericalError
from lowbit.linalg import (
    _BASE_DIM,
    HessianState,
    _solve_into,
    inverse_cholesky,
    iterative_inverse_update,
    recover_inverse_submatrix,
)
from lowbit.quantizer import rtn_quantize


class TestAccumulate:
    def test_identity_block(self):
        state = HessianState(2).accumulate(np.eye(2))
        assert np.array_equal(state.matrix, np.eye(2))
        assert state.n_samples == 2

    def test_single_column_outer_product(self):
        state = HessianState(2).accumulate(np.array([[1.0], [2.0]]))
        assert np.array_equal(state.matrix, [[1.0, 2.0], [2.0, 4.0]])
        assert state.n_samples == 1

    def test_two_single_columns_equal_one_two_column_block(self, rng):
        x1 = rng.standard_normal((4, 1))
        x2 = rng.standard_normal((4, 1))
        a = HessianState(4).accumulate(x1).accumulate(x2)
        b = HessianState(4).accumulate(np.hstack([x1, x2]))
        np.testing.assert_allclose(a.matrix, b.matrix, rtol=1e-15, atol=1e-15)
        assert a.n_samples == b.n_samples == 2

    def test_token_order_invariance_exact_on_integer_data(self, rng):
        # integer-valued tokens make every partial sum exact, so the
        # mathematical permutation invariance is visible bit for bit
        X = rng.integers(-8, 9, size=(6, 40)).astype(np.float64)
        perm = rng.permutation(40)
        a = HessianState(6).accumulate(X)
        b = HessianState(6).accumulate(X[:, perm])
        assert np.array_equal(a.matrix, b.matrix)

    def test_token_order_invariance_float_data(self, rng):
        X = rng.standard_normal((6, 200))
        perm = rng.permutation(200)
        a = HessianState(6).accumulate(X).matrix
        b = HessianState(6).accumulate(X[:, perm]).matrix
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_matrix_is_exactly_symmetric(self, rng):
        m = HessianState(16).accumulate(rng.standard_normal((16, 64))).matrix
        assert np.array_equal(m, m.T)

    def test_matrix_is_read_only_and_mirrors_upper_triangle(self, rng):
        A = rng.standard_normal((6, 6))  # deliberately not symmetric
        m = HessianState.from_matrix(A, 1).matrix
        assert np.array_equal(m, m.T)
        assert np.array_equal(m, np.triu(A) + np.triu(A, 1).T)
        with pytest.raises(ValueError, match="read-only"):
            m[0, 1] = 1.0
        acc = HessianState(6).accumulate(rng.standard_normal((6, 10)))
        with pytest.raises(ValueError, match="read-only"):
            acc.matrix[2, 2] += 1.0

    def test_matrix_read_keeps_its_values_across_accumulate(self, rng):
        state = HessianState(6).accumulate(rng.standard_normal((6, 10)))
        view = state.matrix
        before = view.copy()
        state.accumulate(rng.standard_normal((6, 4)))
        assert np.array_equal(view, before)
        assert not np.array_equal(state.matrix, before)

    def test_later_accumulate_holds_old_sum_and_one_product(self, rng):
        # the old sum is allocated before tracing starts, so the peak above
        # entry is the new product plus block-sized temporaries
        d, n = 512, 64
        state = HessianState(d).accumulate(rng.standard_normal((d, n)))
        X = rng.standard_normal((d, n))
        _, peak = traced_peak(lambda: state.accumulate(X))
        assert peak <= 1.25 * 8 * d * d

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_activations_rejected(self, rng, bad):
        X = rng.standard_normal((4, 5))
        X[1, 2] = bad
        state = HessianState(4)
        with pytest.raises(NumericalError, match="non-finite"):
            state.accumulate(X)
        assert state.n_samples == 0
        assert np.array_equal(state.matrix, np.zeros((4, 4)))

    def test_overflowing_sum_rejected_and_state_kept(self, rng):
        # finite activations whose products pass the float64 range
        state = HessianState(4).accumulate(rng.standard_normal((4, 5)))
        before = state.matrix.copy()
        with pytest.raises(NumericalError, match="overflow"):
            state.accumulate(np.full((4, 3), 1e160))
        assert state.n_samples == 5
        assert np.array_equal(state.matrix, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        H = np.eye(3)
        H[2, 0] = bad  # outside the trusted upper triangle, still refused
        with pytest.raises(NumericalError, match="non-finite"):
            HessianState.from_matrix(H, 1)

    def test_empty_activation_block_adds_nothing(self, rng):
        state = HessianState(4).accumulate(rng.standard_normal((4, 5)))
        before = state.matrix.copy()
        assert state.accumulate(np.zeros((4, 0))) is state
        assert state.n_samples == 5
        assert np.array_equal(state.matrix, before)
        assert np.array_equal(HessianState(0).accumulate(np.zeros((0, 3))).matrix, np.zeros((0, 0)))
        assert HessianState.from_matrix(np.zeros((0, 0)), 0).dim == 0

    def test_dimension_mismatch(self):
        with pytest.raises(NumericalError, match="n_tokens"):
            HessianState(3).accumulate(np.zeros((2, 5)))

    def test_accumulate_after_damping_refused(self):
        damped = HessianState(2).accumulate(np.eye(2)).dampen(0.01)
        with pytest.raises(NumericalError, match="damped"):
            damped.accumulate(np.eye(2))


class TestBandedState:
    """H is held as 512-row bands of its upper triangle; d = 1100 is three
    bands, the last one ragged."""

    def test_state_holds_its_bands_not_a_dense_matrix(self, rng):
        # the bands are about d^2 / 2 + 256 d entries, 0.625 d^2 at d = 2048
        d = 2048
        X = rng.standard_normal((d, 64))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            state = HessianState(d).accumulate(X)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert state.dim == d
        assert held <= 0.63 * 8 * d * d

    def test_matrix_mirrors_the_upper_triangle_across_bands(self, rng):
        d = 1100
        A = rng.standard_normal((d, d))  # deliberately not symmetric
        m = HessianState.from_matrix(A, 1).matrix
        assert np.array_equal(m, m.T)
        assert np.array_equal(m, np.triu(A) + np.triu(A, 1).T)
        assert not m.flags.writeable

    def test_three_blocks_equal_from_matrix_of_summed_products(self, rng):
        # integer-valued tokens make every product and sum exact, so the
        # bands must hold exactly the mirrored sum
        d = 1100
        blocks = [rng.integers(-8, 9, size=(d, n)).astype(np.float64) for n in (40, 1, 70)]
        state = HessianState(d)
        for X in blocks:
            state.accumulate(X)
        want = HessianState.from_matrix(sum(X @ X.T for X in blocks), 111)
        assert state.n_samples == want.n_samples == 111
        assert all(np.array_equal(a, b) for a, b in zip(state._bands, want._bands, strict=True))
        assert np.array_equal(state.matrix, want.matrix)

    def test_band_view_reads_rows_in_place(self, rng):
        d = 1100
        state = HessianState(d).accumulate(rng.standard_normal((d, 40)))
        H = state.matrix
        view = state.band_view(512 + 256, 1024, 900)
        assert np.array_equal(view, H[768:1024, 900:])
        assert np.shares_memory(view, state._bands[1]) and not view.flags.writeable


class TestDampen:
    def test_identity_scaling(self):
        state = HessianState(2).accumulate(np.eye(2))
        damped = state.dampen(0.01)
        lam = 0.01 * 1.0
        assert damped.damping == lam
        assert np.array_equal(damped.matrix, np.eye(2) * (1.0 + lam))
        assert damped.damped and not state.damped

    def test_uses_mean_diagonal(self):
        state = HessianState(2).accumulate(np.diag([1.0, np.sqrt(3.0)]))
        lam = 0.01 * float(np.diagonal(state.matrix).mean())
        damped = state.dampen(0.01)
        assert damped.damping == pytest.approx(0.02, rel=1e-12)
        assert np.array_equal(damped.matrix, state.matrix + lam * np.eye(2))

    def test_zero_ratio_sets_flag_only(self):
        state = HessianState(2).accumulate(np.eye(2))
        damped = state.dampen(0.0)
        assert np.array_equal(damped.matrix, state.matrix)
        assert damped.damped and damped.damping == 0.0

    def test_all_zero_diagonal_warns(self):
        state = HessianState(2).accumulate(np.zeros((2, 3)))
        with pytest.warns(RuntimeWarning, match="singular"):
            damped = state.dampen(0.01)
        assert damped.damping == 0.0

    def test_requires_samples(self):
        with pytest.raises(NumericalError, match="samples"):
            HessianState(2).dampen(0.01)

    @pytest.mark.parametrize("ratio", [-0.1, np.nan, np.inf])
    def test_negative_or_non_finite_ratio_rejected(self, ratio):
        state = HessianState(2).accumulate(np.eye(2))
        with pytest.raises(ValueError, match="finite and non-negative"):
            state.dampen(ratio)

    def test_overflowing_damping_rejected(self):
        # 1e308 x mean(diag(H)) = 1e308 x 2 is past the float64 range
        state = HessianState(2).accumulate(np.sqrt(2.0) * np.eye(2))
        with pytest.raises(NumericalError, match="not finite"):
            state.dampen(1e308)

    @pytest.mark.parametrize("ratio", [0.0, 0.01])
    def test_damped_state_refused(self, ratio):
        # the damping is final: a second one would compound into the first
        damped = HessianState(2).accumulate(np.eye(2)).dampen(ratio)
        with pytest.raises(NumericalError, match="damped"):
            damped.dampen(0.01)
        assert damped.damping == ratio


def _damped_from_matrix(H, ratio=0.0):
    state = HessianState.from_matrix(H, n_samples=1)
    return state.dampen(ratio)


class TestInverseCholesky:
    def test_identity(self):
        factor = inverse_cholesky(_damped_from_matrix(np.eye(3)))
        assert np.array_equal(factor.matrix, np.eye(3))

    def test_diagonal(self):
        factor = inverse_cholesky(_damped_from_matrix(np.diag([4.0, 1.0])))
        assert np.array_equal(factor.matrix, np.diag([0.5, 1.0]))
        assert np.array_equal(factor.matrix.T @ factor.matrix, np.diag([0.25, 1.0]))

    def test_against_dense_inverse_factorization_oracle(self):
        H = np.array([[2.0, 1.0], [1.0, 2.0]])
        factor = inverse_cholesky(_damped_from_matrix(H))
        # oracle route: invert densely, then factor the inverse
        expected = scipy.linalg.cholesky(np.linalg.inv(H), lower=False)
        np.testing.assert_allclose(factor.matrix, expected, rtol=1e-12, atol=1e-14)

    def test_upper_triangular_positive_diagonal(self):
        damped = token_hessian(24, 96, 0.9, 5).dampen(0.01)
        T = inverse_cholesky(damped).matrix
        assert np.array_equal(T, np.triu(T))
        assert (np.diagonal(T) > 0).all()
        assert T.flags.c_contiguous

    def test_factor_identity_invariant(self):
        for seed in range(4):
            damped = token_hessian(64, 256, 0.9, seed).dampen(0.01)
            T = inverse_cholesky(damped).matrix
            resid = np.linalg.norm(T.T @ T @ damped.matrix - np.eye(64)) / np.sqrt(64)
            assert resid <= 1e-8

    def test_requires_damped_state(self):
        state = HessianState(2).accumulate(np.eye(2))
        with pytest.raises(NumericalError, match="damped"):
            inverse_cholesky(state)

    def test_breakdown_names_pivot(self):
        # rank-1 matrix is not PD; undamped factorization must fail with a
        # pivot index inside the matrix
        x = np.array([[1.0], [2.0], [3.0]])
        state = HessianState(3).accumulate(x)
        with pytest.raises(FactorizationError) as excinfo:
            inverse_cholesky(state.dampen(0.0))
        assert 0 <= excinfo.value.pivot < 3

    @pytest.mark.parametrize(
        "bad, pivot",
        [({150: 0.0}, 150), ({30: -1.0}, 30), ({30: -1.0, 150: 0.0}, 150)],
    )
    def test_breakdown_names_exact_pivot_across_recursion(self, bad, pivot):
        # d = 200 splits at 64: a bad entry at 150 fails in the trailing
        # part, one at 30 only in the Schur complement of the leading part
        H = np.eye(200)
        for k, value in bad.items():
            H[k, k] = value
        with pytest.raises(FactorizationError) as excinfo:
            inverse_cholesky(_damped_from_matrix(H))
        assert excinfo.value.pivot == pivot

    # several levels of recursion, each with a ragged last base block (1
    # and 12 columns wide)
    @pytest.mark.parametrize("d", [513, 1100])
    def test_split_products_against_oracle(self, rng, d):
        A = rng.standard_normal((d, 2 * d))
        damped = HessianState(d).accumulate(A).dampen(0.01)
        T = inverse_cholesky(damped).matrix
        assert np.array_equal(T, np.triu(T))
        assert (np.diagonal(T) > 0).all()
        assert T.flags.c_contiguous
        H = damped.matrix
        expected = scipy.linalg.cholesky(np.linalg.inv(H), lower=False)
        assert np.linalg.norm(T - expected) <= 1e-12 * np.linalg.norm(T)
        resid = np.linalg.norm(T.T @ T @ H - np.eye(d)) / np.sqrt(d)
        assert resid <= 1e-8

    @pytest.mark.parametrize("d", [513, 1100])
    @pytest.mark.parametrize("where", [0.1, 0.6, 0.99])
    def test_split_products_name_pivot(self, rng, d, where):
        # a bad entry in the leading half fails only in a Schur complement
        # built from triangular solves, one in the trailing half inside it
        bad = int(where * d)
        assert _pivots_on_both_routes(rng, d, bad) == [bad, bad]

    @pytest.mark.parametrize("bad", [511, 512, 513, 1099])
    def test_pivot_named_across_band_edges(self, rng, bad):
        # d = 1100 is three bands, the last one ragged: a bad entry on
        # either side of the first band edge, or in the last column
        assert _pivots_on_both_routes(rng, 1100, bad) == [bad, bad]

    def test_empty_dimension(self):
        factor = inverse_cholesky(_damped_from_matrix(np.zeros((0, 0))))
        assert factor.matrix.shape == factor.upper.shape == (0, 0)

    @pytest.mark.parametrize("d", [1, 63, 64, 65, 513, 1100])
    def test_upper_factor_reproduces_damped_matrix(self, rng, d):
        damped = HessianState(d).accumulate(rng.standard_normal((d, 2 * d))).dampen(0.01)
        U = inverse_cholesky(damped).upper
        assert np.array_equal(U, np.triu(U))
        assert (np.diagonal(U) > 0).all()
        H = damped.matrix
        assert np.linalg.norm(U @ U.T - H) <= 1e-13 * np.linalg.norm(H)

    @pytest.mark.parametrize("d, block", [(300, (0, 128)), (300, (256, 300)), (300, (5, 12)),
                                          (300, (60, 70)), (300, (7, 290)), (1100, (128, 256)),
                                          (1100, (400, 900)), (1100, (7, 1100))])
    def test_diagonal_block_is_the_inverse_of_upper_block(self, rng, d, block):
        # aligned with the base blocks or not, within one or across several,
        # and across the factor's band edges at 512 and 1024
        damped = HessianState(d).accumulate(rng.standard_normal((d, 2 * d))).dampen(0.01)
        factor = inverse_cholesky(damped)
        i, e = block
        Tb = factor.diagonal_block(i, e)
        assert np.array_equal(Tb, np.triu(Tb))
        resid = Tb @ factor.upper[i:e, i:e] - np.eye(e - i)
        assert np.abs(resid).max() <= 1e-13
        np.testing.assert_allclose(Tb, factor.matrix[i:e, i:e], rtol=0, atol=1e-13 * np.abs(Tb).max())

    def test_library_loads_no_second_blas_runtime(self):
        # scipy bundles its own OpenBLAS; importing it beside numpy's would
        # start a second BLAS thread pool competing for the same CPUs
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import lowbit.cli\n"
            "from lowbit.engines import EngineConfig, LayerBundle, run_engine\n"
            "from lowbit.linalg import HessianState\n"
            "rng = np.random.default_rng(0)\n"
            "hess = HessianState(96).accumulate(rng.standard_normal((96, 192)))\n"
            "run_engine(LayerBundle(rng.standard_normal((8, 96))), hess, EngineConfig(engine='gptq'))\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        src = str(Path(lowbit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
        )
        assert out.stdout.strip() == "[]"


def _explicitly_damped(state, ratio):
    """The damped state as a matrix holding its damping, factored as given."""
    lam = state.dampen(ratio).damping
    H = state.matrix + lam * np.eye(state.dim)
    return HessianState.from_matrix(H, state.n_samples).dampen(0.0)


def _pivots_on_both_routes(rng, d, bad):
    """The pivots that the shared-buffer route and the explicitly damped
    route name for a d x d Gram matrix with -1e4 at (bad, bad)."""
    A = rng.standard_normal((d, d))
    H = A @ A.T
    H[bad, bad] = -1e4
    state = HessianState.from_matrix(H, d)
    pivots = []
    for damped in (state.dampen(0.01), _explicitly_damped(state, 0.01)):
        with pytest.raises(FactorizationError) as excinfo:
            inverse_cholesky(damped)
        pivots.append(excinfo.value.pivot)
    return pivots


class TestNoCopyFactor:
    """``dampen`` shares the undamped buffer and the factor adds the damping
    on its diagonal; every value must equal the explicitly damped route."""

    @pytest.mark.parametrize("ratio", [0.0, 0.01])
    @pytest.mark.parametrize("d", [1, 63, 64, 65, 200, 513])
    def test_factor_bit_identical_to_explicitly_damped_matrix(self, rng, d, ratio):
        state = HessianState(d).accumulate(rng.standard_normal((d, d + 8)))
        got = inverse_cholesky(state.dampen(ratio))
        want = inverse_cholesky(_explicitly_damped(state, ratio))
        assert np.array_equal(got.upper, want.upper)
        assert np.array_equal(got.matrix, want.matrix)

    @pytest.mark.parametrize("bad", [30, 150, 199])
    def test_indefinite_matrix_names_same_pivot_on_both_routes(self, rng, bad):
        assert _pivots_on_both_routes(rng, 200, bad) == [bad, bad]

    @pytest.mark.parametrize("ratio", [0.0, 0.01])
    def test_accumulate_after_dampen_leaves_damped_state_unchanged(self, rng, ratio):
        x1, x2 = rng.standard_normal((70, 90)), rng.standard_normal((70, 40))
        state = HessianState(70).accumulate(x1)
        damped = state.dampen(ratio)
        matrix, factor = damped.matrix.copy(), inverse_cholesky(damped).matrix
        state.accumulate(x2)
        assert np.array_equal(damped.matrix, matrix)
        assert np.array_equal(inverse_cholesky(damped).matrix, factor)
        assert damped.n_samples == 90
        fresh = HessianState(70).accumulate(x1).accumulate(x2)
        assert np.array_equal(state.matrix, fresh.matrix)
        assert state.n_samples == 130

    def test_damped_matrix_is_read_only_and_built_per_read(self, rng):
        state = HessianState(5).accumulate(rng.standard_normal((5, 9)))
        damped = state.dampen(0.01)
        first = damped.matrix
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 1.0
        assert not np.shares_memory(first, state.matrix)
        assert np.array_equal(first, damped.matrix)
        assert damped.mean_diagonal() == float(np.diagonal(first).mean())

    def test_obs_oracle_codes_unchanged(self, rng):
        W = rng.standard_normal((12, 40))
        state = token_hessian(40, 160, 0.9, 3)
        config = EngineConfig(engine="obs_oracle", bits=3, group_size=8)
        quantized, _ = run_engine(LayerBundle(W), state, config)
        baseline = rtn_quantize(W, config.grid())
        damped = _explicitly_damped(state, config.damp_ratio)
        codes = _run_oracle(LayerBundle(W), damped, config.grid(), baseline.scales, baseline.zero_points)
        assert np.array_equal(quantized.codes, codes)


class TestTriangularSolve:
    """``_solve_into`` against the product it inverts, X @ U^T."""

    @pytest.mark.parametrize("w", [1, _BASE_DIM, _BASE_DIM + 1, 257, 773])
    def test_solves_in_place(self, rng, w):
        damped = HessianState(w).accumulate(rng.standard_normal((w, 2 * w))).dampen(0.01)
        factor = inverse_cholesky(damped)
        U = factor.upper
        B = rng.standard_normal((40, w))
        # ``X`` is a view inside a larger buffer, as U12 is inside U
        buf = np.full((42, w + 3), np.nan)
        X = buf[1:-1, 2:-1]
        X[...] = B
        _solve_into(X, factor._bands, factor._bases, 0, w)
        np.testing.assert_allclose(X @ U.T, B, rtol=0, atol=1e-12 * np.abs(B).max())
        X[...] = 0.0
        assert np.isnan(buf).sum() == buf.size - X.size

    def test_trailing_block_at_its_offset(self, rng):
        # the factor solves against U22, whose base blocks start at its
        # offset; here U22 crosses the band edge at 512
        d, k = 773, 320
        damped = HessianState(d).accumulate(rng.standard_normal((d, 2 * d))).dampen(0.01)
        factor = inverse_cholesky(damped)
        U22 = factor.upper[k:, k:]
        B = rng.standard_normal((k, d - k))
        X = B.copy()
        _solve_into(X, factor._bands, factor._bases, k, d)
        np.testing.assert_allclose(X @ U22.T, B, rtol=0, atol=1e-12 * np.abs(B).max())


class TestPeakMemory:
    """tracemalloc peaks above entry, in units of one d x d float64 array."""

    D = 1024

    def test_prepared_layer_factor_holds_t_and_one_half_size_temporary(self, rng):
        d = self.D
        state = HessianState(d).accumulate(rng.standard_normal((d, d + 64)))
        prepared = PreparedLayer(
            rng.standard_normal((4, d)), state, EngineConfig().grid(), 0.01
        )
        factor, peak = traced_peak(lambda: prepared.factor)
        assert factor.matrix.shape == (d, d)
        assert peak <= 1.5 * 8 * d * d

    def test_factor_holds_u_in_bands_and_makes_no_d_by_d_array(self, rng):
        # U's bands hold about d^2 / 2 + 256 d entries and T's base blocks
        # d x 64, 0.66 d^2 in all at d = 2048; a dense U alone would be d^2
        d = 2048
        damped = HessianState(d).accumulate(rng.standard_normal((d, d + 64))).dampen(0.01)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            factor = inverse_cholesky(damped)
            held, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert factor.dim == d
        assert held <= 0.7 * 8 * d * d
        assert peak < 8 * d * d

    def test_from_matrix_copies_once(self, rng):
        d = self.D
        H = rng.standard_normal((d, d))
        state, peak = traced_peak(lambda: HessianState.from_matrix(H, 1))
        assert np.array_equal(state.matrix, np.triu(H) + np.triu(H, 1).T)
        assert peak <= 1.5 * 8 * d * d

    def test_finiteness_checks_allocate_no_input_sized_mask(self, rng):
        # a bool mask of a (d x n) input is d * n bytes; the allowance
        # above the d x d arrays each call builds is a quarter of that
        d, n = 128, 8192
        X = rng.standard_normal((d, n))
        # the new state's zero sum and the product added to it
        state, peak = traced_peak(lambda: HessianState(d).accumulate(X))
        assert state.n_samples == n
        assert peak <= 2 * 8 * d * d + d * n / 4
        d = self.D
        H = rng.standard_normal((d, d))
        _, peak = traced_peak(lambda: HessianState.from_matrix(H, 1))
        assert peak <= 8 * d * d + d * d / 4

    def test_prepared_layer_checks_weights_without_a_mask(self, rng):
        # a bool mask of the weights would be d_out * d_in bytes
        W = rng.standard_normal((256, self.D))
        state = HessianState(self.D)
        _, peak = traced_peak(lambda: PreparedLayer(W, state, EngineConfig().grid(), 0.01))
        assert peak <= W.size / 4


def _identity_factor(d):
    """The factor of an undamped identity H, exactly T = I."""
    return inverse_cholesky(_damped_from_matrix(np.eye(d)))


class TestRecoverInverseSubmatrix:
    def test_identity_factor(self):
        factor = _identity_factor(5)
        assert np.array_equal(factor.matrix, np.eye(5))
        for q in range(5):
            assert np.array_equal(recover_inverse_submatrix(factor, q), np.eye(4 - q))

    def test_diagonal_oracle(self):
        damped = _damped_from_matrix(np.diag([4.0, 1.0, 9.0]))
        factor = inverse_cholesky(damped)
        recovered = recover_inverse_submatrix(factor, 0)
        np.testing.assert_allclose(recovered, np.diag([1.0, 1.0 / 9.0]), rtol=1e-14)

    def test_matches_dense_inverse_of_trailing_block(self, rng):
        H = rng.standard_normal((4, 4))
        damped = _damped_from_matrix(H @ H.T, ratio=0.01)
        factor = inverse_cholesky(damped)
        Hd = damped.matrix
        for q in range(3):
            dense = np.linalg.inv(Hd[q + 1 :, q + 1 :])
            rec = recover_inverse_submatrix(factor, q)
            assert np.linalg.norm(rec - dense) / np.linalg.norm(dense) <= 1e-8

    def test_recovery_identity_invariant_dim64(self):
        damped = token_hessian(64, 256, 0.9, 7).dampen(0.01)
        factor = inverse_cholesky(damped)
        Hd = damped.matrix
        for q in range(63):
            r = 63 - q
            resid = np.linalg.norm(
                recover_inverse_submatrix(factor, q) @ Hd[q + 1 :, q + 1 :] - np.eye(r)
            ) / np.sqrt(r)
            assert resid <= 1e-8

    def test_last_column_yields_empty(self):
        factor = _identity_factor(3)
        assert recover_inverse_submatrix(factor, 2).shape == (0, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            recover_inverse_submatrix(_identity_factor(3), 3)


class TestIterativeInverseUpdate:
    def test_identity(self):
        assert np.array_equal(iterative_inverse_update(np.eye(4), 0), np.eye(3))

    def test_two_by_two_by_hand(self):
        hinv = np.array([[2.0, 1.0], [1.0, 1.0]])
        assert np.array_equal(iterative_inverse_update(hinv, 1), [[1.0]])

    def test_delete_then_invert_oracle(self, rng):
        A = rng.standard_normal((5, 5))
        H = A @ A.T + 5 * np.eye(5)
        for p in range(5):
            keep = np.arange(5) != p
            expected = np.linalg.inv(H[np.ix_(keep, keep)])
            got = iterative_inverse_update(np.linalg.inv(H), p)
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)

    def test_agrees_with_factor_route(self):
        damped = token_hessian(16, 64, 0.9, 11).dampen(0.01)
        factor = inverse_cholesky(damped)
        hinv = np.linalg.inv(damped.matrix)
        for q in range(15):
            hinv = iterative_inverse_update(hinv, 0)
            rec = recover_inverse_submatrix(factor, q)
            assert np.linalg.norm(hinv - rec) / np.linalg.norm(rec) <= 1e-7

    def test_non_spd_rejected(self):
        hinv = np.array([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericalError, match="SPD"):
            iterative_inverse_update(hinv, 0)
