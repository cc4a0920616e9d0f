import time
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import count_calls, random_spd, record_bundles, token_hessian, traced_peak
from lowbit import engines, linalg, quantizer
from lowbit.calib import SyntheticSpec, generate_synthetic
from lowbit.engines import (
    EngineConfig,
    LayerBundle,
    PreparedLayer,
    first_order_quant_step,
    foem_block_boundary,
    foem_column_step,
    gptq_column_step,
    run_engine,
)
from lowbit.errors import ConfigError, FactorizationError, NumericalError
from lowbit.linalg import HessianState, inverse_cholesky, recover_inverse_submatrix
from lowbit.quantizer import QuantGrid, QuantizedLayer, ScaleBook, rtn_quantize
from lowbit.report import proxy_loss


def kkt_solve(H, g, q, err):
    """Dense KKT oracle: min g dw^T + 0.5 dw H dw^T s.t. dw_q + err = 0."""
    d = H.shape[0]
    K = np.zeros((d + 1, d + 1))
    K[:d, :d] = H
    K[d, q] = K[q, d] = 1.0
    rhs = np.concatenate([-np.asarray(g, dtype=float), [-err]])
    return np.linalg.solve(K, rhs)[:d]


class TestFirstOrderQuantStep:
    def test_exact_multiplier_matches_kkt(self, rng):
        # a zero gradient is the OBC quantization step, and with err = w_q
        # (quantized value 0) the OBS pruning step
        for g_scale in (3e-4, 0.0):
            for seed in range(50):
                g_rng = np.random.default_rng(seed)
                H = random_spd(8, seed)
                hinv = np.linalg.inv(H)
                g = g_scale * g_rng.standard_normal(8)
                q = int(g_rng.integers(8))
                err = float(g_rng.standard_normal())
                dw = first_order_quant_step(err, g, hinv, q, exact_multiplier=True)
                expected = kkt_solve(H, g, q, err)
                scale = max(np.abs(expected).max(), 1e-30)
                assert np.abs(dw - expected).max() / scale <= 1e-8, (g_scale, seed)

    def test_exact_multiplier_satisfies_constraint(self, rng):
        H = random_spd(6, 9)
        hinv = np.linalg.inv(H)
        g = rng.standard_normal(6)
        dw = first_order_quant_step(0.3, g, hinv, 2, exact_multiplier=True)
        assert dw[2] == pytest.approx(-0.3, abs=1e-12)

    def test_simplified_multiplier_deviation_is_exactly_dropped_term(self, rng):
        # the production-form direction differs from the exact minimizer by
        # -((g Hinv)_q / Hinv_qq) * Hinv[q, :], nothing else
        H = random_spd(8, 21)
        hinv = np.linalg.inv(H)
        g = rng.standard_normal(8)
        q, err = 3, 0.7
        simplified = first_order_quant_step(err, g, hinv, q, exact_multiplier=False)
        exact = first_order_quant_step(err, g, hinv, q, exact_multiplier=True)
        dropped = -((g @ hinv)[q] / hinv[q, q]) * hinv[q, :]
        np.testing.assert_allclose(simplified - exact, dropped, rtol=1e-10, atol=1e-14)
        # and it violates the constraint by the same scalar
        assert simplified[q] + err == pytest.approx(-(g @ hinv)[q], rel=1e-10)

    def test_zero_gradient_reduces_to_obc(self, rng):
        # quantizing coordinate 1 to 0.5, then pruning it (quantized value 0)
        hinv = np.linalg.inv(random_spd(5, 4))
        w = rng.standard_normal(5)
        for deq in (0.5, 0.0):
            dw = first_order_quant_step(w[1] - deq, np.zeros(5), hinv, 1)
            expected = -((w[1] - deq) / hinv[1, 1]) * hinv[1, :]
            np.testing.assert_allclose(dw, expected, rtol=1e-12, atol=1e-15)
        # a representable value needs no compensation
        assert np.array_equal(first_order_quant_step(0.0, np.zeros(5), hinv, 1), np.zeros(5))
        # with the identity inverse only the target moves: pure rounding
        dw = first_order_quant_step(0.6 - 0.5, np.zeros(2), np.eye(2), 0)
        np.testing.assert_allclose(dw, [-0.1, 0.0], atol=1e-15)

    def test_two_column_toy_hand_inverse(self):
        # H = [[2, 1], [1, 2]] -> Hinv = (1/3) [[2, -1], [-1, 2]]
        H = np.array([[2.0, 1.0], [1.0, 2.0]])
        hinv = np.linalg.inv(H)
        w = np.array([0.37, -1.2])
        deq = 0.25
        delta = first_order_quant_step(w[0] - deq, np.zeros(2), hinv, 0)
        expected_col2 = -(w[0] - deq) * (-1.0 / 3.0) / (2.0 / 3.0)
        assert delta[1] == pytest.approx(expected_col2, rel=1e-12)
        assert delta[0] == pytest.approx(-(w[0] - deq), rel=1e-12)

    def test_non_spd_rejected(self):
        hinv = np.diag([0.0, 1.0])
        with pytest.raises(NumericalError, match="SPD"):
            first_order_quant_step(1.0, np.zeros(2), hinv, 0)


def _factor_for(d, seed, n_tokens=None, rho=0.9):
    hess = token_hessian(d, n_tokens or 4 * d, rho, seed)
    damped = hess.dampen(0.01)
    return hess, damped, inverse_cholesky(damped)


class TestGptqColumnStep:
    def test_identity_factor_matches_rtn_per_column(self, rng):
        d = 8
        state = HessianState.from_matrix(np.eye(d), 1).dampen(0.0)
        factor = inverse_cholesky(state)
        grid = QuantGrid(4, None, True)
        W = rng.standard_normal((4, d))
        bundle = LayerBundle(W)
        book = ScaleBook(grid, 4, d)
        baseline = rtn_quantize(W, grid)
        for j in range(d):
            before = bundle.weights.copy()
            gptq_column_step(bundle, factor, grid, j, book)
            assert np.array_equal(book.codes[:, j], baseline.codes[:, j])
            # the identity factor propagates nothing
            assert np.array_equal(bundle.weights[:, j + 1 :], before[:, j + 1 :])

    def test_representable_column_propagates_nothing(self):
        _, _, factor = _factor_for(6, 2)
        grid = QuantGrid(4, None, True)
        W = np.zeros((2, 6))
        W[:, 0] = [0.125 * 7, -0.125 * 7]
        W[:, 1:] = 0.125 * np.arange(1, 6)
        bundle = LayerBundle(W)
        book = ScaleBook(grid, 2, 6)
        gptq_column_step(bundle, factor, grid, 0, book)
        # column 0 keeps its value and the rest take no update
        assert np.array_equal(bundle.weights, W)

    def test_column_is_set_to_dequantized_value(self, rng):
        _, _, factor = _factor_for(6, 3)
        grid = QuantGrid(4, None, True)
        bundle = LayerBundle(rng.standard_normal((3, 6)))
        book = ScaleBook(grid, 3, 6)
        gptq_column_step(bundle, factor, grid, 0, book)
        # one group per row, symmetric: a code times its row's scale
        deq = book.codes[:, 0] * book.baseline.scales[:, 0]
        assert np.array_equal(bundle.weights[:, 0], deq)

    def test_grid_other_than_the_books_refused(self, rng):
        _, _, factor = _factor_for(6, 3)
        bundle = LayerBundle(rng.standard_normal((3, 6)))
        book = ScaleBook(QuantGrid(4, None, True), 3, 6)
        with pytest.raises(ConfigError, match="grid"):
            gptq_column_step(bundle, factor, QuantGrid(3, None, True), 0, book)

    def test_full_pass_matches_dense_oracle_engine(self, rng):
        d = 16
        hess, _, factor = _factor_for(d, 5)
        W = rng.standard_normal((8, d))
        grid = QuantGrid(4, None, True)
        bundle = LayerBundle(W)
        book = ScaleBook(grid, 8, d)
        for j in range(d):
            gptq_column_step(bundle, factor, grid, j, book)
        oracle_bundle = LayerBundle(W)
        q_oracle, _ = run_engine(
            oracle_bundle, hess, EngineConfig(engine="obs_oracle", bits=4, group_size=None)
        )
        blocked_bundle = LayerBundle(W)
        q_blocked, _ = run_engine(
            blocked_bundle, hess, EngineConfig(engine="gptq", bits=4, group_size=None)
        )
        # all three routes agree on codes, and so on the dequantized layer
        # that each leaves in its bundle
        assert np.array_equal(q_blocked.codes, q_oracle.codes)
        assert np.array_equal(bundle.weights, oracle_bundle.weights)
        assert np.array_equal(blocked_bundle.weights, oracle_bundle.weights)

    def test_full_pass_bit_identical_to_foem_step_at_beta_zero(self, rng):
        # ragged asymmetric groups: widths 8, 8 and 5
        d = 21
        _, _, factor = _factor_for(d, 12)
        grid = QuantGrid(3, 8, False)
        W = rng.standard_normal((7, d))
        b_gptq, b_foem = LayerBundle(W), LayerBundle(W)
        book_gptq, book_foem = ScaleBook(grid, 7, d), ScaleBook(grid, 7, d)
        for j in range(d):
            gptq_column_step(b_gptq, factor, grid, j, book_gptq)
            foem_column_step(b_foem, factor, j, d, book_foem, beta=0.0)
            assert np.array_equal(book_gptq.codes[:, j], book_foem.codes[:, j])
            # the dequantized column and the update of the rest
            assert np.array_equal(b_gptq.weights, b_foem.weights)
        assert np.array_equal(book_gptq.codes, book_foem.codes)


class TestFoemColumnStep:
    def test_beta_zero_bit_identical_to_gptq_blocked(self, rng):
        d = 16
        hess, _, factor = _factor_for(d, 6)
        W = rng.standard_normal((8, d))
        grid = QuantGrid(4, None, True)
        b1, b2 = LayerBundle(W), LayerBundle(W)
        book1, book2 = ScaleBook(grid, 8, d), ScaleBook(grid, 8, d)
        for j in range(d):
            before1, before2 = b1.weights.copy(), b2.weights.copy()
            foem_column_step(b1, factor, j, d, book1, beta=0.0)
            foem_column_step(b2, factor, j, d, book2, beta=3e-4)
            delta1 = b1.weights[:, j + 1 :] - before1[:, j + 1 :]
            delta2 = b2.weights[:, j + 1 :] - before2[:, j + 1 :]
            if j == 0:
                # untouched layer: the drift term is exactly the zero matrix
                assert np.array_equal(delta1, delta2)
            if j == 1:
                # column 0's update drifted the rest: beta acts from here on
                assert not np.array_equal(delta1, delta2)

    def test_first_column_of_pristine_layer_has_zero_drift_term(self, rng):
        d = 12
        _, _, factor = _factor_for(d, 7)
        grid = QuantGrid(4, None, True)
        W = rng.standard_normal((4, d))
        b_zero, b_beta = LayerBundle(W), LayerBundle(W)
        foem_column_step(b_zero, factor, 0, d, ScaleBook(grid, 4, d), beta=0.0)
        foem_column_step(b_beta, factor, 0, d, ScaleBook(grid, 4, d), beta=0.1)
        assert np.array_equal(b_zero.weights, b_beta.weights)

    def test_mid_run_term_matches_dense_slice_inverse(self, rng):
        # single block spanning the layer: the slice product T_s^T T_s is the
        # inverse of the damped trailing Hessian, so the drift term equals a
        # dense evaluation through recover_inverse_submatrix
        d = 16
        hess, damped, factor = _factor_for(d, 8)
        grid = QuantGrid(4, None, True)
        bundle = LayerBundle(rng.standard_normal((6, d)))
        book = ScaleBook(grid, 6, d)
        beta, sign = 3e-4, -1.0
        for j in range(5):
            foem_column_step(bundle, factor, j, d, book, beta=beta, sign=sign)
        j = 5
        drift_pre = (bundle.weights - bundle.original)[:, j:]
        pre = bundle.weights.copy()
        foem_column_step(bundle, factor, j, d, book, beta=beta, sign=sign)
        # reconstruct the drift term from the update of the columns after
        # j: subtract the pure error-propagation part
        T = factor.matrix
        err = (pre[:, j] - bundle.weights[:, j]) / T[j, j]
        gptq_part = -np.outer(err, T[j, j + 1 :])
        term = (bundle.weights[:, j + 1 :] - pre[:, j + 1 :]) - gptq_part
        M_rec = recover_inverse_submatrix(factor, j - 1)
        dense = np.linalg.inv(damped.matrix[j:, j:])
        np.testing.assert_allclose(M_rec, dense, rtol=1e-9, atol=1e-12)
        expected = sign * beta * (drift_pre @ M_rec)
        np.testing.assert_allclose(term, expected[:, 1:], rtol=1e-9, atol=1e-14)


class TestFoemBlockBoundary:
    def test_single_block_is_noop(self, rng):
        d = 8
        _, _, factor = _factor_for(d, 9)
        bundle = LayerBundle(rng.standard_normal((3, d)))
        before = bundle.weights.copy()
        foem_block_boundary(bundle, factor, np.zeros((3, d)), 0, d, beta=0.0)
        assert np.array_equal(bundle.weights, before)

    def test_beta_zero_codes_invariant_across_block_sizes(self, rng):
        d = 64
        hess = token_hessian(d, 256, 0.9, 10)
        W = rng.standard_normal((d, d))
        ref = None
        for B in (1, 16, 64):
            q, _ = run_engine(
                LayerBundle(W),
                hess,
                EngineConfig(engine="foem", bits=4, beta=0.0, block_size=B),
            )
            if ref is None:
                ref = q.codes
            else:
                assert np.array_equal(q.codes, ref)

    def test_boundary_matches_dense_expression(self, rng):
        # the boundary's product runs through U's rows: -errs @ U[block, trailing]
        d = 12
        B = 4
        _, _, factor = _factor_for(d, 11)
        bundle = LayerBundle(rng.standard_normal((5, d)))
        errs = rng.standard_normal((5, B))
        pre = bundle.weights.copy()
        foem_block_boundary(bundle, factor, errs, 0, B, beta=0.0)
        expected = pre[:, B:] - errs @ factor.upper[:B, B:]
        np.testing.assert_allclose(bundle.weights[:, B:], expected, rtol=1e-12, atol=1e-14)
        assert np.array_equal(bundle.weights[:, :B], pre[:, :B])

    def test_carried_drift_reads_back_through_tb(self, rng):
        # drive the first block by hand with the eager steps, pass the
        # boundary its drift at block start minus E Tb, and the second
        # block's carried columns read back, times its Tb, as the T-form
        # boundary's drift, -E @ T[first, second]
        d, B = 12, 4
        _, _, factor = _factor_for(d, 11)
        T = factor.matrix
        grid = QuantGrid(4, None, True)
        W = rng.standard_normal((5, d))
        bundle = LayerBundle(W)
        book = ScaleBook(grid, 5, d)
        errs = np.empty((5, B))
        for j in range(B):
            w_pre = bundle.weights[:, j].copy()
            foem_column_step(bundle, factor, j, B, book, beta=3e-4)
            errs[:, j] = (w_pre - bundle.weights[:, j]) / T[j, j]
        carried = LayerBundle(W)
        foem_block_boundary(carried, factor, -errs @ T[:B, :B], 0, B, beta=0.0)
        drift = (carried.weights - W)[:, B : 2 * B] @ factor.diagonal_block(B, 2 * B)
        expected = -errs @ T[:B, B : 2 * B]
        np.testing.assert_allclose(drift, expected, rtol=1e-12, atol=1e-14 * np.abs(expected).max())

    @pytest.mark.parametrize("buffer_width", [None, 5, 12])
    def test_super_block_calls_match_one_level_calls(self, rng, buffer_width):
        # blocks of 4 in super-blocks of 12 over d = 40, the last one
        # ragged: reaching only the super-block and flushing it at its end
        # adds the same terms to every column as reaching every trailing
        # column from each block, and leaves the columns before it alone
        d, B, S = 40, 4, 12
        _, _, factor = _factor_for(d, 13)
        W = rng.standard_normal((5, d))
        errs = rng.standard_normal((5, d))
        one, two = LayerBundle(W), LayerBundle(W)
        out = None if buffer_width is None else np.empty((5, buffer_width))
        for i in range(0, d, B):
            e, s0 = i + B, i // S * S
            reach = min(s0 + S, d)
            foem_block_boundary(one, factor, errs[:, i:e], i, e, 0.0)
            before = two.weights.copy()
            foem_block_boundary(
                two, factor, errs[:, i:e], i, e, 0.0,
                reach=reach, pending=errs[:, s0:reach], out=out,
            )
            assert np.array_equal(two.weights[:, :e], before[:, :e])
            if e < reach:
                assert np.array_equal(two.weights[:, reach:], before[:, reach:])
        np.testing.assert_allclose(two.weights, one.weights, rtol=0, atol=1e-12 * np.abs(W).max())

    def test_nonzero_beta_refused(self, rng):
        # the first-order term is block-local: no boundary applies it
        d = 12
        _, _, factor = _factor_for(d, 11)
        bundle = LayerBundle(rng.standard_normal((5, d)))
        before = bundle.weights.copy()
        with pytest.raises(ConfigError, match="beta"):
            foem_block_boundary(bundle, factor, np.zeros((5, 4)), 0, 4, beta=3e-4)
        assert np.array_equal(bundle.weights, before)

    @pytest.mark.parametrize("sign", ["minus", "plus"])
    @pytest.mark.parametrize("beta", [3e-4, 3e-2, 1.0])
    def test_foem_at_block_size_one_is_gptq(self, rng, beta, sign):
        # a block of one column leaves the first-order term nothing to reach
        hess = token_hessian(48, 192, 0.9, 12)
        W = rng.standard_normal((24, 48))
        codes = {}
        for engine in ("gptq", "foem"):
            config = EngineConfig(
                engine=engine, bits=3, group_size=16, block_size=1, beta=beta,
                first_order_sign=sign,
            )
            codes[engine] = run_engine(LayerBundle(W), hess, config)[0].codes
        assert np.array_equal(codes["foem"], codes["gptq"])


class TestRunEngine:
    def test_rtn_report_loss_is_trace_form(self, rng):
        d = 8
        hess = token_hessian(d, 32, 0.8, 14)
        W = rng.standard_normal((4, d))
        bundle = LayerBundle(W)
        quantized, rep = run_engine(bundle, hess, EngineConfig(engine="rtn", bits=4))
        delta = quantized.dequantize() - W
        expected = float(np.sum((delta @ hess.matrix) * delta))
        assert rep.proxy_loss == pytest.approx(expected, rel=1e-12)
        assert rep.rtn_relative == 1.0

    @pytest.mark.parametrize("engine", ["gptq", "foem", "obs_oracle"])
    def test_dead_input_channels_keep_their_rtn_codes(self, rng, engine):
        # a channel that is zero in every token leaves H's row and column
        # zero: the damping alone keeps H definite, and such a column
        # neither gives nor takes compensation
        dead = [3, 17, 40]
        X = generate_synthetic(SyntheticSpec(64, 256, 0.9, 70))
        X[dead] = 0.0
        hess = HessianState(64).accumulate(X)
        W = rng.standard_normal((32, 64))
        config = EngineConfig(engine=engine, bits=3, group_size=16, block_size=8, damp_ratio=0.01)
        q, rep = run_engine(LayerBundle(W), hess, config)
        rtn = rtn_quantize(W, config.grid())
        assert np.array_equal(q.codes[:, dead], rtn.codes[:, dead])
        assert np.isfinite(rep.proxy_loss) and rep.rtn_relative < 1.0

    def test_foem_beta_zero_matches_gptq_artifact(self, rng):
        d = 32
        hess = token_hessian(d, 128, 0.9, 15)
        W = rng.standard_normal((16, d))
        q_foem, _ = run_engine(
            LayerBundle(W), hess, EngineConfig(engine="foem", bits=4, beta=0.0)
        )
        q_gptq, _ = run_engine(LayerBundle(W), hess, EngineConfig(engine="gptq", bits=4))
        assert np.array_equal(q_foem.codes, q_gptq.codes)
        assert np.array_equal(q_foem.scales, q_gptq.scales)
        assert np.array_equal(q_foem.zero_points, q_gptq.zero_points)

    def test_identity_hessian_gptq_equals_rtn(self, rng):
        d = 16
        hess = HessianState(d).accumulate(np.eye(d))
        W = rng.standard_normal((8, d))
        q_g, _ = run_engine(LayerBundle(W), hess, EngineConfig(engine="gptq", bits=4))
        q_r, _ = run_engine(LayerBundle(W), hess, EngineConfig(engine="rtn", bits=4))
        assert np.array_equal(q_g.codes, q_r.codes)
        assert np.array_equal(q_g.scales, q_r.scales)

    def test_engine_losses_ordered_sensibly(self, rng):
        d = 64
        hess = token_hessian(d, 256, 0.9, 16)
        W = rng.standard_normal((32, d))
        _, rep_rtn = run_engine(LayerBundle(W), hess, EngineConfig(engine="rtn", bits=3))
        _, rep_gptq = run_engine(LayerBundle(W), hess, EngineConfig(engine="gptq", bits=3))
        assert rep_gptq.proxy_loss < rep_rtn.proxy_loss
        assert rep_gptq.rtn_relative < 1.0

    def test_dimension_mismatch(self, rng):
        hess = token_hessian(8, 32, 0.9, 17)
        with pytest.raises(NumericalError, match="d_in"):
            run_engine(LayerBundle(rng.standard_normal((2, 9))), hess, EngineConfig())

    def test_non_finite_weights_rejected(self):
        hess = token_hessian(4, 16, 0.9, 18)
        W = np.full((2, 4), np.inf)
        with pytest.raises(NumericalError, match="non-finite"):
            run_engine(LayerBundle(W), hess, EngineConfig())

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_one_non_finite_original_entry_rejected(self, rng, value):
        W = rng.standard_normal((3, 4))
        W[1, 2] = value
        with pytest.raises(NumericalError, match="layer weights contain non-finite values"):
            PreparedLayer(W, token_hessian(4, 16, 0.9, 18), QuantGrid(4, 128, True), 0.01)

    @pytest.mark.parametrize("engine", ["rtn", "gptq"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_latent_entry_rejected(self, rng, engine, value):
        # the originals are finite, so only the latent weights carry it
        hess = token_hessian(4, 16, 0.9, 18)
        bundle = LayerBundle(rng.standard_normal((2, 4)))
        bundle.weights[1, 2] = value
        with pytest.raises(NumericalError):
            run_engine(bundle, hess, EngineConfig(engine=engine))

    def test_damped_state_rejected(self, rng):
        hess = token_hessian(4, 16, 0.9, 19).dampen(0.01)
        with pytest.raises(NumericalError, match="undamped"):
            run_engine(LayerBundle(rng.standard_normal((2, 4))), hess, EngineConfig())

    @pytest.mark.parametrize("engine", ["obs_oracle", "gptq", "foem"])
    def test_consumed_bundle_rejected(self, rng, engine):
        # compensation leaves the bundle drifted; the first-order engines'
        # drift bookkeeping assumes a run starts from the originals
        hess = token_hessian(6, 24, 0.9, 21)
        bundle = LayerBundle(rng.standard_normal((3, 6)))
        config = EngineConfig(engine=engine, bits=3, group_size=None)
        run_engine(bundle, hess, config)
        with pytest.raises(NumericalError, match="undrifted"):
            run_engine(bundle, hess, config)

    @pytest.mark.parametrize("engine", ["obs_oracle", "gptq", "foem"])
    def test_indefinite_hessian_names_pivot(self, rng, monkeypatch, engine):
        # the RTN baseline's loss is priced first; then the factor names the
        # pivot before any driver runs, the oracle's dense inverse included
        losses = count_calls(monkeypatch, engines, "proxy_loss")
        drivers = [count_calls(monkeypatch, engines, name) for name in ("_run_oracle", "_run_blocked")]
        A = rng.standard_normal((8, 8))
        H = A @ A.T
        H[7, 7] = -50.0
        config = EngineConfig(engine=engine, bits=4, damp_ratio=0.0)
        with pytest.raises(FactorizationError) as excinfo:
            run_engine(LayerBundle(rng.standard_normal((4, 8))), HessianState.from_matrix(H, 1), config)
        assert excinfo.value.pivot == 7
        assert len(losses) == 1 and drivers == [[], []]

    def test_invalid_config_rejected(self, rng):
        hess = token_hessian(4, 16, 0.9, 20)
        with pytest.raises(ConfigError):
            run_engine(
                LayerBundle(rng.standard_normal((2, 4))),
                hess,
                EngineConfig(engine="nope"),
            )

    def test_foem_plus_is_not_an_engine(self):
        assert engines.ENGINES == ("rtn", "obs_oracle", "gptq", "foem")
        with pytest.raises(ConfigError, match="foem_plus"):
            EngineConfig(engine="foem_plus").validate()

    def test_drift_stats_of_rtn_are_its_rounding_error(self, rng):
        hess = token_hessian(4, 16, 0.9, 21)
        W = rng.standard_normal((2, 4))
        _, rep = run_engine(LayerBundle(W), hess, EngineConfig(engine="rtn"))
        err = np.abs(rtn_quantize(W, QuantGrid(4, 128)).dequantize() - W)
        assert err.max() > 0.0
        assert (rep.drift_max, rep.drift_mean) == (float(err.max()), float(err.mean()))

    def test_original_never_mutates(self, rng):
        d = 16
        hess = token_hessian(d, 64, 0.9, 22)
        W = rng.standard_normal((4, d))
        bundle = LayerBundle(W)
        run_engine(bundle, hess, EngineConfig(engine="foem", bits=4))
        assert np.array_equal(bundle.original, W)
        with pytest.raises((ValueError, RuntimeError)):
            bundle.original[0, 0] = 1.0


class TestEngineConfig:
    @pytest.mark.parametrize("field", ["beta", "damp_ratio"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1e-3])
    def test_non_finite_or_negative_strengths_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            EngineConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field", ["beta", "damp_ratio"])
    def test_zero_strength_accepted(self, field):
        EngineConfig(**{field: 0.0}).validate()

    @pytest.mark.parametrize(
        "token, applied",
        [
            (dict(engine="rtn"), ("rtn", 0.0, 0.0, 0, "minus")),
            (dict(engine="obs_oracle"), ("obs_oracle", 0.0, 0.02, 0, "minus")),
            (dict(engine="gptq"), ("gptq", 0.0, 0.02, 7, "minus")),
            (dict(engine="foem"), ("foem", 5e-4, 0.02, 7, "minus")),
            (dict(engine="foem", first_order_sign="plus"), ("foem", 5e-4, 0.02, 7, "plus")),
        ],
    )
    def test_applied_values(self, token, applied):
        config = EngineConfig(beta=5e-4, damp_ratio=0.02, block_size=7, **token)
        keys = ("engine", "beta", "damp_ratio", "block_size", "first_order_sign")
        assert config.applied() == dict(zip(keys, applied))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("engine", 3), ("bits", 3.9), ("bits", None), ("bits", True), ("bits", "4"),
            ("group_size", 7.5), ("group_size", False), ("symmetric", 0), ("symmetric", "false"),
            ("block_size", "8"), ("block_size", 3.7), ("beta", "abc"), ("beta", True),
            ("damp_ratio", "0.01"), ("damp_ratio", None), ("first_order_sign", None),
            ("first_order_sign", ["minus"]), ("beta", 10**400),
        ],
    )
    def test_wrong_json_type_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            EngineConfig.from_dict({field: value})

    def test_from_dict_refuses_unknown_keys(self):
        # a removed or misspelt field must not fall back to the defaults
        for data in ({"engine": "gptq", "scale_source": "latent"}, {"beta": 0.0, "bta": 1.0}):
            with pytest.raises(ConfigError, match="unknown config fields"):
                EngineConfig.from_dict(data)

    def test_from_dict_records_reals_as_floats(self):
        config = EngineConfig.from_dict({"beta": 0, "damp_ratio": 1, "bits": np.int64(3)})
        assert (type(config.beta), type(config.damp_ratio)) == (float, float)
        assert config.to_dict() == dict(EngineConfig().to_dict(), beta=0.0, damp_ratio=1.0, bits=3)
        assert EngineConfig.from_dict({"group_size": None, "symmetric": False}).grid() == QuantGrid(4, None, False)


class TestPreparedLayer:
    """One preparation shared by several engine runs on the same layer."""

    TOKENS = [
        dict(engine="rtn"),
        dict(engine="obs_oracle"),
        dict(engine="gptq"),
        dict(engine="foem"),
        dict(engine="foem", first_order_sign="plus"),
    ]

    @pytest.mark.parametrize("shape", [(24, 40), (40, 24)])
    def test_shared_runs_match_independent_run_engine(self, shape):
        d_out, d_in = shape
        hess = token_hessian(d_in, 4 * d_in, 0.9, 50)
        W = np.random.default_rng(51).standard_normal(shape)
        configs = [EngineConfig(bits=3, group_size=16, block_size=8, **t) for t in self.TOKENS]
        prepared = PreparedLayer(W, hess, configs[0].grid(), configs[0].damp_ratio)
        for config in configs:
            q_shared, rep_shared = prepared.run(config, "fc")
            q_alone, rep_alone = run_engine(LayerBundle(W), hess, config, "fc")
            for name in ("codes", "scales", "zero_points"):
                assert np.array_equal(getattr(q_shared, name), getattr(q_alone, name)), config
            assert q_shared.extra == q_alone.extra
            assert q_shared.config == q_alone.config
            shared, alone = rep_shared.to_dict(), rep_alone.to_dict()
            shared.pop("wall_time_s"), alone.pop("wall_time_s")
            assert shared == alone, config

    def test_factor_and_baseline_built_once(self, rng, monkeypatch):
        factors = count_calls(monkeypatch, engines, "inverse_cholesky")
        baselines = count_calls(monkeypatch, engines, "rtn_quantize")
        hess = token_hessian(16, 64, 0.9, 52)
        W = rng.standard_normal((8, 16))
        prepared = PreparedLayer(W, hess, QuantGrid(3, 8, True), 0.01)
        for token in self.TOKENS:
            _, rep = prepared.run(EngineConfig(bits=3, group_size=8, **token))
            if token["engine"] == "rtn":
                assert rep.rtn_relative == 1.0
        assert len(factors) == 1
        assert len(baselines) == 1

    def test_only_the_baseline_is_dequantized(self, rng, monkeypatch):
        # a compensating run leaves the dequantized layer in its bundle, and
        # its report prices that instead of dequantizing the codes again; the
        # rtn run dequantizes the baseline straight into its bundle once, and
        # the baseline's loss is priced from its codes, a row block at a time
        dequantized = count_calls(monkeypatch, QuantizedLayer, "dequantize")
        bundles = record_bundles(monkeypatch)
        hess = token_hessian(16, 64, 0.9, 53)
        W = rng.standard_normal((8, 16))
        prepared = PreparedLayer(W, hess, QuantGrid(3, 8, True), 0.01)
        for token in self.TOKENS:
            prepared.run(EngineConfig(bits=3, group_size=8, **token))
            if token["engine"] == "rtn":
                # into the bundle's own array: no dequantized copy of the layer
                assert len(dequantized) == 1 and dequantized[0][1] is bundles[-1].weights
        assert len(dequantized) == 1

    def test_reports_do_not_depend_on_run_order(self, monkeypatch):
        # a compensating run releases the baseline's codes once their loss
        # is priced, so an rtn run after it quantizes the layer again
        baselines = count_calls(monkeypatch, engines, "rtn_quantize")
        hess = token_hessian(40, 160, 0.9, 65)
        W = np.random.default_rng(66).standard_normal((24, 40)).astype(np.float32)
        order = ("rtn", "gptq", "foem")
        results, builds = [], []
        for engines_in_order in (order, order[::-1]):
            prepared = PreparedLayer(W, hess, QuantGrid(3, 16, True), 0.01)
            runs = {}
            for engine in engines_in_order:
                q, rep = prepared.run(EngineConfig(engine=engine, bits=3, group_size=16, block_size=8))
                rep = rep.to_dict()
                rep.pop("wall_time_s")
                runs[engine] = (q, rep)
            results.append(runs)
            builds.append(len(baselines))
        assert builds == [1, 3]  # once in the first order, twice in the second
        for engine in order:
            (q_a, rep_a), (q_b, rep_b) = results[0][engine], results[1][engine]
            for name in ("codes", "scales", "zero_points"):
                assert np.array_equal(getattr(q_a, name), getattr(q_b, name)), engine
            assert rep_a == rep_b, engine

    def test_wall_time_leaves_out_the_baseline_loss(self, rng, monkeypatch):
        # the first compensating run prices the RTN baseline's loss before
        # its factor, outside its wall time as every loss is
        loss = engines.proxy_loss

        def slow(*args):
            time.sleep(0.3)
            return loss(*args)

        monkeypatch.setattr(engines, "proxy_loss", slow)
        hess = token_hessian(16, 64, 0.9, 67)
        prepared = PreparedLayer(rng.standard_normal((8, 16)), hess, QuantGrid(3, 8, True), 0.01)
        _, rep = prepared.run(EngineConfig(engine="gptq", bits=3, group_size=8))
        assert rep.wall_time_s < 0.3

    @staticmethod
    def _factor_at_losses(monkeypatch):
        """Record a weak reference to every factor ``inverse_cholesky``
        builds, and at each ``proxy_loss`` call whether each is alive."""
        factors, alive = [], []
        build, loss = engines.inverse_cholesky, engines.proxy_loss

        def spy_build(damped):
            factor = build(damped)
            factors.append(weakref.ref(factor))
            return factor

        def spy_loss(*args):
            alive.append([ref() is not None for ref in factors])
            return loss(*args)

        monkeypatch.setattr(engines, "inverse_cholesky", spy_build)
        monkeypatch.setattr(engines, "proxy_loss", spy_loss)
        return alive

    @pytest.mark.parametrize("engine", ["obs_oracle", "gptq", "foem"])
    def test_run_engine_frees_its_factor_before_the_final_loss(self, rng, monkeypatch, engine):
        # the baseline's loss is priced before the factor is built, and the
        # run's own loss after its single-use preparation dropped it
        alive = self._factor_at_losses(monkeypatch)
        hess = token_hessian(16, 64, 0.9, 68)
        config = EngineConfig(engine=engine, bits=3, group_size=8)
        run_engine(LayerBundle(rng.standard_normal((8, 16))), hess, config)
        assert alive == [[], [False]]

    def test_prepared_layer_keeps_its_factor_for_later_runs(self, rng, monkeypatch):
        alive = self._factor_at_losses(monkeypatch)
        hess = token_hessian(16, 64, 0.9, 69)
        prepared = PreparedLayer(rng.standard_normal((8, 16)), hess, QuantGrid(3, 8, True), 0.01)
        for engine in ("gptq", "foem"):
            prepared.run(EngineConfig(engine=engine, bits=3, group_size=8))
        assert alive == [[], [True], [True]]

    @pytest.mark.parametrize(
        "change", [dict(bits=3), dict(group_size=64), dict(symmetric=False), dict(damp_ratio=0.02)]
    )
    def test_config_with_other_grid_or_damping_refused(self, rng, change):
        hess = token_hessian(16, 64, 0.9, 54)
        W = rng.standard_normal((8, 16))
        prepared = PreparedLayer(W, hess, QuantGrid(4, 128, True), 0.01)
        with pytest.raises(ConfigError, match="prepared"):
            prepared.run(EngineConfig(**change))


class TestFloat32Originals:
    """A float32 layer is held as float32 and computed on in float64, each
    original widening exactly where it is read, so it gives every number
    its float64 widening gives."""

    def test_bundle_holds_a_read_only_float32_original(self, rng):
        # 8 bytes a weight for the latent weights; the original is a
        # read-only view of the caller's array, not a copy
        W = rng.standard_normal((512, 384)).astype(np.float32)
        bundle, peak = traced_peak(lambda: LayerBundle(W))
        assert peak <= 8 * W.size + 1024
        assert bundle.original.dtype == np.float32 and bundle.weights.dtype == np.float64
        assert np.shares_memory(bundle.original, W) and W.flags.writeable
        assert np.array_equal(bundle.weights, W)
        with pytest.raises(ValueError):
            bundle.original[0, 0] = 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bundle_shares_its_input_and_widens_other_precisions(self, rng, dtype):
        W = rng.standard_normal((8, 16)).astype(dtype)
        viewed = LayerBundle(W)
        assert viewed.original.base is W and not viewed.original.flags.writeable
        W.flags.writeable = False
        shared = LayerBundle(W)
        assert shared.original is W
        assert shared.weights.dtype == np.float64 and np.array_equal(shared.weights, W)
        # an array at another precision is widened into a copy
        half = W.astype(np.float16)
        widened = LayerBundle(half).original
        assert widened.dtype == np.float64 and not widened.flags.writeable
        assert not np.shares_memory(widened, half)

    def test_bundle_weights_are_c_ordered_whatever_the_input(self, rng):
        W = np.asfortranarray(rng.standard_normal((8, 16)).astype(np.float32))
        bundle = LayerBundle(W)
        assert np.shares_memory(bundle.original, W)
        assert bundle.weights.flags.c_contiguous and np.array_equal(bundle.weights, W)

    @pytest.mark.parametrize("token", TestPreparedLayer.TOKENS)
    def test_runs_never_write_the_callers_array(self, rng, token):
        W = rng.standard_normal((12, 40)).astype(np.float32)
        before = W.copy()
        config = EngineConfig(bits=3, group_size=16, block_size=8, **token)
        bundle = LayerBundle(W)
        run_engine(bundle, token_hessian(40, 160, 0.9, 63), config)
        assert np.array_equal(W, before) and not np.array_equal(bundle.weights, W)

    def test_array_written_after_the_bundle_is_refused(self, rng):
        # the bundle's original is the caller's array, so a write to it
        # drifts the bundle, which run_engine refuses
        W = rng.standard_normal((12, 40)).astype(np.float32)
        bundle = LayerBundle(W)
        W[3, 5] += 1.0
        with pytest.raises(NumericalError, match="undrifted"):
            run_engine(bundle, token_hessian(40, 160, 0.9, 64), EngineConfig(engine="gptq"))

    def test_prepared_layer_keeps_float32_as_given(self, rng):
        W = rng.standard_normal((8, 16)).astype(np.float32)
        prepared = PreparedLayer(W, token_hessian(16, 64, 0.9, 58), QuantGrid(3, 8, True), 0.01)
        assert prepared.original.dtype == np.float32 and np.shares_memory(prepared.original, W)
        assert not prepared.original.flags.writeable and W.flags.writeable
        # each run's bundle is made this way, around the one original
        bundle = LayerBundle(prepared.original)
        assert bundle.original is prepared.original
        assert bundle.weights.dtype == np.float64 and np.array_equal(bundle.weights, W)

    @pytest.mark.parametrize("token", TestPreparedLayer.TOKENS)
    @pytest.mark.parametrize("shape", [(24, 40), (40, 24)])
    def test_run_engine_matches_its_float64_widening(self, token, shape):
        d_in = shape[1]
        hess = token_hessian(d_in, 4 * d_in, 0.9, 59)
        W = np.random.default_rng(60).standard_normal(shape).astype(np.float32)
        config = EngineConfig(bits=3, group_size=16, block_size=8, **token)
        runs = []
        for weights in (W, W.astype(np.float64)):
            bundle = LayerBundle(weights)
            quantized, report = run_engine(bundle, hess, config)
            runs.append((quantized, report.to_dict(), bundle))
        (q32, rep32, b32), (q64, rep64, b64) = runs
        assert b32.original.dtype == np.float32 and b64.original.dtype == np.float64
        for name in ("codes", "scales", "zero_points"):
            assert np.array_equal(getattr(q32, name), getattr(q64, name))
        rep32.pop("wall_time_s"), rep64.pop("wall_time_s")
        assert rep32 == rep64
        assert np.array_equal(b32.weights, b64.weights)

    @pytest.mark.parametrize("engine", ["gptq", "foem"])
    def test_reference_steps_match_their_float64_widening(self, engine):
        hess = token_hessian(20, 80, 0.9, 61)
        W = np.random.default_rng(62).standard_normal((6, 20)).astype(np.float32)
        config = EngineConfig(engine=engine, bits=3, group_size=8, block_size=8)
        codes32, _, w32 = _eager_reference(W, hess, config)
        codes64, _, w64 = _eager_reference(W.astype(np.float64), hess, config)
        assert np.array_equal(codes32, codes64) and np.array_equal(w32, w64)


def _eager_reference(W, hess, config):
    """Column-at-a-time reference for ``run_engine`` on gptq and foem.

    Drives ``foem_column_step`` over each block (beta = 0 for gptq, which is
    exactly the blocked gptq step), updating the whole slab at every column,
    and applies gptq's cross-block term -errs @ T[block, trailing] at each
    block end, since the first-order term is block-local. That boundary is
    its own, in T's rows and the latent weights themselves; the driver's
    ``foem_block_boundary`` carries the trailing columns in U-coordinates.
    Returns codes, the scale book and the latent weights.
    """
    factor = inverse_cholesky(hess.dampen(config.damp_ratio))
    T = factor.matrix
    grid = config.grid()
    bundle = LayerBundle(W)
    d_out, d_in = bundle.weights.shape
    beta = config.beta if config.engine == "foem" else 0.0
    sign = config.sign_factor()
    book = ScaleBook(grid, d_out, d_in)
    for i in range(0, d_in, config.block_size):
        e = min(i + config.block_size, d_in)
        errs = np.empty((d_out, e - i))
        for j in range(i, e):
            w = bundle.weights[:, j].copy()
            foem_column_step(bundle, factor, j, e, book, beta, sign)
            errs[:, j - i] = (w - bundle.weights[:, j]) / T[j, j]
        bundle.weights[:, e:] -= errs @ T[i:e, e:]
    return book.codes, book, bundle.weights


def _reference_lazy_block_plan(Tb, c):
    """The plan's forward recursion, kept as a reference: F = [A; N] is
    carried through the eager steps in data coordinates, each step costing
    about 2 (b + r) (b - r)^2 flops, and column r is read before step r."""
    b = Tb.shape[0]
    F = np.zeros((2 * b, b))
    read = np.empty_like(F)
    if c != 0.0:
        M = Tb.T @ Tb
    for r in range(b):
        read[:, r] = F[:, r]
        if c != 0.0:
            F[: b + r, r:] += c * (F[: b + r, r:] @ M)
            F[r:b, r:] += c * M
            M = M[1:, 1:] - np.outer(Tb[r, r + 1 :], Tb[r, r + 1 :])
        F[b + r, r:] = -Tb[r, r:]
    return read


class TestLazyBlockPlan:
    """The plan, swept backward in Tb-coordinates, against the forward
    recursion it replaced."""

    # at b >= 64, ||Tb||_2^2 is 4.7-4.9, so c = +-2e-2 puts |c| ||Tb||_2^2
    # near 0.1: there c K is no longer small beside I in the sweep's
    # products (I + c K) Y
    @pytest.mark.parametrize("c", [0.0, 3e-4, -3e-4, 3e-3, -3e-3, 2e-2, -2e-2])
    @pytest.mark.parametrize("b", [1, 2, 7, 64, 100, 128])
    def test_matches_forward_recursion(self, b, c):
        Tb = _factor_for(b, 60 + b)[2].matrix
        plan = engines._lazy_block_plan(Tb, c)
        ref = _reference_lazy_block_plan(Tb, c)
        assert plan.shape == ref.shape == (2 * b, b)
        # the plan's drift coefficients come as Z = Tb (I + A)
        ref[:b] = Tb + Tb @ ref[:b]
        for half in (slice(0, b), slice(b, 2 * b)):
            scale = np.abs(ref[half]).max()
            np.testing.assert_allclose(plan[half], ref[half], rtol=0, atol=1e-12 * scale)

    def test_peak_is_a_fixed_number_of_blocks(self):
        # the plan is two b x b arrays, and the sweep holds c K, I + c K, Y
        # and one product at a time: seven, whatever b; ten is the bound
        b = 128
        Tb = _factor_for(b, 60 + b)[2].matrix
        _, peak = traced_peak(lambda: engines._lazy_block_plan(Tb, 3e-3))
        assert peak <= 10 * b * b * 8

    @pytest.mark.parametrize("b", [1, 2, 7, 128])
    def test_zero_strength_plan_is_exact(self, b):
        # gptq's lazy batch: no drift coefficients (Z = Tb), and each column
        # reads the errors of the columns before it through -Tb
        Tb = _factor_for(b, 70 + b)[2].matrix
        plan = engines._lazy_block_plan(Tb, 0.0)
        assert np.array_equal(plan[:b], Tb)
        assert np.array_equal(plan[b:], -np.triu(Tb, 1))


class TestLazyBlockDriver:
    """The lazy blocked driver against the eager column-step reference."""

    VARIANTS = [
        dict(engine="gptq"),
        dict(engine="gptq", symmetric=False),
        dict(engine="foem", beta=0.0),
        dict(engine="foem", beta=3e-4),
        dict(engine="foem", beta=3e-4, symmetric=False, first_order_sign="plus"),
        dict(engine="foem", beta=3e-3, first_order_sign="plus"),
        dict(engine="foem", beta=3e-3, symmetric=False),
    ]

    @pytest.mark.parametrize("group_size", [32, 200, None])
    @pytest.mark.parametrize("block_size", [1, 7, 128])
    def test_matches_eager_reference(self, group_size, block_size):
        # d_in = 300 starts scale groups of 32 and 200 mid-block for every
        # block size above 1, and leaves a ragged last block
        self._check_against_eager(20, group_size, block_size)

    @pytest.mark.parametrize("d_out", [64, 320])
    @pytest.mark.parametrize("group_size", [32, 200, None])
    @pytest.mark.parametrize("block_size", [1, 7, 128])
    def test_matches_eager_reference_on_taller_layers(self, d_out, group_size, block_size):
        # d_out below and above d_in, both with groups that cross a block
        # end after foem's in-block term has acted
        self._check_against_eager(d_out, group_size, block_size)

    @pytest.mark.parametrize("group_size", [32, 200, None])
    @pytest.mark.parametrize("block_size", [1, 7, 128])
    def test_matches_eager_reference_across_super_blocks(
        self, monkeypatch, group_size, block_size
    ):
        # super-blocks of 16 columns, rounded down to whole blocks (14 for
        # blocks of 7, one block of 128), and sub-blocks of 4: d_in = 300
        # crosses several super-blocks, and every block of 7 or 128 ends
        # with a part of a sub-block
        monkeypatch.setattr(engines, "_SUPER_BLOCK", 16)
        monkeypatch.setattr(engines, "_SUB_BLOCK", 4)
        self._check_against_eager(20, group_size, block_size)
        self._check_against_eager(64, group_size, block_size)

    @pytest.mark.parametrize("block_size", [7, 128, 600])
    def test_ragged_layer_across_super_blocks(self, block_size):
        # d_in = 3 S + 77 at the driver's own widths: super-blocks of 511
        # columns for blocks of 7, 512 for 128, one block for 600 > S, and
        # a ragged last super-block for each
        d_in = 3 * engines._SUPER_BLOCK + 77
        hess = token_hessian(d_in, 2 * d_in, 0.9, 47)
        W = np.random.default_rng(48).standard_normal((12, d_in))
        for variant in (
            dict(engine="gptq"),
            dict(engine="gptq", symmetric=False),
            dict(engine="foem", beta=3e-3),
            dict(engine="foem", beta=3e-3, first_order_sign="plus", symmetric=False),
        ):
            config = EngineConfig(bits=3, group_size=128, block_size=block_size, **variant)
            bundle = LayerBundle(W)
            q, _ = run_engine(bundle, hess, config)
            codes, _, latent = _eager_reference(W, hess, config)
            assert np.array_equal(q.codes, codes), variant
            assert np.array_equal(bundle.weights, latent), variant

    def test_runs_never_form_t(self, rng, monkeypatch):
        # the driver reads U's bands and T's diagonal blocks; the dense T
        # and the dense U are built only when ``matrix`` or ``upper`` is
        # read, which no gptq or foem run does. d_in = 1100 is three bands,
        # the last one ragged
        formed = []

        def spy_on(name):
            build = getattr(linalg.InvCholFactor, name).func

            def spy(factor):
                formed.append((name, factor.dim))
                return build(factor)

            monkeypatch.setattr(linalg.InvCholFactor, name, property(spy))

        spy_on("matrix")
        spy_on("upper")
        d = 1100
        hess = token_hessian(d, 2 * d, 0.9, 49)
        W = rng.standard_normal((30, d))
        for variant in (dict(engine="gptq"), dict(engine="foem", beta=3e-3)):
            run_engine(LayerBundle(W), hess, EngineConfig(bits=3, block_size=64, **variant))
        assert formed == []
        factor = inverse_cholesky(hess.dampen(0.01))
        factor.matrix, factor.upper
        assert formed == [("matrix", d), ("upper", d)]

    def test_runs_never_read_a_dense_hessian(self, rng, monkeypatch):
        # the factor copies H's bands and the proxy loss reads them in
        # place; a dense H is built only when ``matrix`` is read
        reads = []
        build = HessianState.matrix.fget

        def spy(state):
            reads.append(state.dim)
            return build(state)

        monkeypatch.setattr(HessianState, "matrix", property(spy))
        d = 1100
        hess = token_hessian(d, 2 * d, 0.9, 50)
        W = rng.standard_normal((30, d))
        prepared = PreparedLayer(W, hess, EngineConfig(bits=3).grid(), 0.01)
        for engine in ("rtn", "gptq", "foem"):
            prepared.run(EngineConfig(engine=engine, bits=3, block_size=64))
        assert reads == []
        hess.matrix
        assert reads == [d]

    def test_boundary_gets_no_first_order_term(self, rng, monkeypatch):
        # one boundary per block, the last included, each with beta = 0 and
        # reaching the end of its super-block: 16 columns, two blocks of 8
        calls = []
        boundary = engines.foem_block_boundary

        def spy(bundle, factor, errs, block_start, block_end, beta, **kwargs):
            calls.append((block_start, block_end, beta, kwargs["reach"]))
            boundary(bundle, factor, errs, block_start, block_end, beta, **kwargs)

        monkeypatch.setattr(engines, "foem_block_boundary", spy)
        monkeypatch.setattr(engines, "_SUPER_BLOCK", 20)
        hess = token_hessian(100, 200, 0.9, 43)
        W = rng.standard_normal((30, 100))
        run_engine(LayerBundle(W), hess, EngineConfig(engine="foem", bits=3, block_size=8))
        assert calls == [
            (i, min(i + 8, 100), 0.0, min(i // 16 * 16 + 16, 100)) for i in range(0, 100, 8)
        ]

    @pytest.mark.parametrize("d_in", [1, 5])
    @pytest.mark.parametrize("d_out", [0, 1, 63, 64, 65, 130])
    def test_empty_and_single_row_layers(self, d_out, d_in):
        # the driver's slab is (b, d_out): empty, a single column, or copied
        # in chunks of 64 rows of the layer with a ragged last chunk
        hess = token_hessian(d_in, 4 * d_in + 8, 0.9, 44)
        W = np.random.default_rng(45).standard_normal((d_out, d_in))
        for variant in (
            dict(engine="gptq"),
            dict(engine="foem", beta=3e-3),
            dict(engine="foem", beta=3e-3, first_order_sign="plus"),
        ):
            config = EngineConfig(bits=3, block_size=7, **variant)
            bundle = LayerBundle(W)
            q, _ = run_engine(bundle, hess, config)
            codes, _, latent = _eager_reference(W, hess, config)
            assert q.codes.shape == (d_out, d_in), variant
            assert np.array_equal(q.codes, codes), variant
            assert np.array_equal(bundle.weights, latent), variant

    def _check_against_eager(self, d_out, group_size, block_size):
        d_in = 300
        hess = token_hessian(d_in, 600, 0.9, 40)
        W = np.random.default_rng(41).standard_normal((d_out, d_in))
        for variant in self.VARIANTS:
            config = EngineConfig(
                bits=3, group_size=group_size, block_size=block_size, **variant
            )
            bundle = LayerBundle(W)
            q, _ = run_engine(bundle, hess, config)
            codes, book, latent = _eager_reference(W, hess, config)
            assert np.array_equal(q.codes, codes), variant
            assert np.array_equal(q.zero_points, book.baseline.zero_points), variant
            np.testing.assert_allclose(q.scales, book.baseline.scales, rtol=1e-12, atol=0)
            gap = np.abs(bundle.weights - latent).max()
            assert gap <= 1e-9 * np.abs(latent).max(), (variant, gap)

    @pytest.mark.parametrize("engine", ["obs_oracle", "gptq", "foem"])
    def test_runs_fit_no_scales(self, rng, monkeypatch, engine):
        # a run quantizes on the baseline's own arrays; only the baseline fits
        hess = token_hessian(40, 160, 0.9, 46)
        W = rng.standard_normal((12, 40))
        prepared = PreparedLayer(W, hess, QuantGrid(3, 16, False), 0.01)
        baseline = prepared.baseline
        fits = count_calls(monkeypatch, quantizer, "fit_scales")
        config = EngineConfig(engine=engine, bits=3, group_size=16, symmetric=False, block_size=8)
        q, _ = prepared.run(config)
        assert fits == []
        assert np.array_equal(q.scales, baseline.scales)
        assert np.array_equal(q.zero_points, baseline.zero_points)

    @pytest.mark.parametrize(
        "bits, symmetric, dtype",
        [(2, True, np.int8), (3, True, np.int8), (8, True, np.int8), (7, False, np.int8),
         (8, False, np.uint8)],
    )
    def test_one_byte_codes_equal_the_int32_reference(self, monkeypatch, bits, symmetric, dtype):
        # the driver writes its codes in one byte, uint8 only for q_max 255,
        # and the run's layer holds them widened to int32; both equal the
        # eager reference's int32 codes, on layers whose rounding passed
        # the grid at both ends, so the clamps acted on either side
        driven, clamped = [], set()
        driver, quantize = engines._run_blocked, engines.quantize_values

        def spy_driver(*args):
            driven.append(driver(*args))
            return driven[-1]

        def spy_quantize(values, gs, grid):
            q = np.rint(values / gs.scale) + gs.zero_point
            if (q < grid.q_min).any():
                clamped.add("below")
            if (q > grid.q_max).any():
                clamped.add("above")
            return quantize(values, gs, grid)

        monkeypatch.setattr(engines, "_run_blocked", spy_driver)
        monkeypatch.setattr(engines, "quantize_values", spy_quantize)
        hess = token_hessian(96, 192, 0.9, 70)
        W = np.random.default_rng(71).standard_normal((48, 96))
        for variant in (dict(engine="gptq"), dict(engine="foem", beta=3e-3)):
            config = EngineConfig(
                bits=bits, symmetric=symmetric, group_size=32, block_size=16, **variant
            )
            q, _ = run_engine(LayerBundle(W), hess, config)
            reference, _, _ = _eager_reference(W, hess, config)
            assert driven[-1].dtype == dtype
            assert q.codes.dtype == reference.dtype == np.int32
            assert np.array_equal(driven[-1], reference), variant
            assert np.array_equal(q.codes, reference), variant
        assert clamped == {"below", "above"}

    def test_unblocked_gptq_step_agrees_with_original_scales(self, rng):
        # scales come from the originals, so block structure cannot move a
        # group fit and the unblocked reference step gives the same codes;
        # d_in = 300 starts groups of 32 and 200 mid-block
        cases = [(96, 40, 32)] + [(300, g, b) for g in (32, 200) for b in (1, 7, 128)]
        for d, group_size, block_size in cases:
            hess = token_hessian(d, 4 * d, 0.9, 42)
            W = rng.standard_normal((12, d))
            config = EngineConfig(
                engine="gptq", bits=3, group_size=group_size, block_size=block_size
            )
            q, _ = run_engine(LayerBundle(W), hess, config)
            factor = inverse_cholesky(hess.dampen(config.damp_ratio))
            grid = config.grid()
            bundle = LayerBundle(W)
            book = ScaleBook(grid, 12, d)
            for j in range(d):
                gptq_column_step(bundle, factor, grid, j, book)
            assert np.array_equal(q.codes, book.codes), (d, group_size, block_size)

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("group_size", [32, 200, None])
    @pytest.mark.parametrize("block_size", [1, 7, 128])
    def test_scales_are_the_rtn_baselines(self, symmetric, group_size, block_size):
        # every group is fitted from the originals, so every compensating
        # engine's scales and zero points are RTN's, bit for bit
        d_in = 300
        hess = token_hessian(d_in, 600, 0.9, 40)
        W = np.random.default_rng(41).standard_normal((20, d_in))
        grid = QuantGrid(3, group_size, symmetric)
        prepared = PreparedLayer(W, hess, grid, 0.01)
        baseline = prepared.baseline
        for token in (
            dict(engine="obs_oracle"),
            dict(engine="gptq"),
            dict(engine="foem", first_order_sign="minus"),
            dict(engine="foem", first_order_sign="plus"),
        ):
            config = EngineConfig(
                bits=3, group_size=group_size, block_size=block_size, symmetric=symmetric, **token
            )
            q, _ = prepared.run(config)
            assert np.array_equal(q.scales, baseline.scales), token
            assert np.array_equal(q.zero_points, baseline.zero_points), token

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("group_size", [32, 200, None])
    @pytest.mark.parametrize("block_size", [1, 7, 128])
    def test_weights_end_as_the_dequantized_layer(self, symmetric, group_size, block_size):
        # every driver writes a column's dequantized value as it quantizes
        # it, and rtn writes its baseline's, so the bundle ends holding
        # exactly the dequantized layer
        d_in = 300
        hess = token_hessian(d_in, 600, 0.9, 40)
        W = np.random.default_rng(41).standard_normal((20, d_in))
        for token in (
            dict(engine="rtn"),
            dict(engine="obs_oracle"),
            dict(engine="gptq"),
            dict(engine="foem", first_order_sign="minus"),
            dict(engine="foem", first_order_sign="plus"),
        ):
            config = EngineConfig(
                bits=3, group_size=group_size, block_size=block_size, symmetric=symmetric, **token
            )
            bundle = LayerBundle(W)
            q, rep = run_engine(bundle, hess, config)
            assert np.array_equal(bundle.weights, q.dequantize()), token
            assert rep.proxy_loss == proxy_loss(q.dequantize(), W, hess), token


class TestRunPeakMemory:
    """tracemalloc peak of one compensating run, in bytes per weight."""

    # super-blocks of S = 32 columns, so d_in = 512 is sixteen of them
    S, D_OUT, D_IN = 32, 4096, 512

    def _peak(self, monkeypatch, engine, built, d_in=D_IN):
        """The run's peak on a layer whose ``built`` pieces are made first,
        and its bound: past its bundle's float64 latent weights (8 bytes a
        weight; the bundle shares the prepared original) and one set of
        int32 codes (4 bytes a weight) a run holds buffers of at most
        d_out x S float64: the driver's super-block errors and product
        buffer, its slab and foem's slab temporaries; then the loss's row
        block of D and its two products (4 MB at this shape); then the
        report's row blocks. A d_out x (d_in - B) boundary product or a
        d_out x d_in drift array would each add 8 bytes a weight, and a
        second set of codes 4, more than the 6 d_out S float64 of slack."""
        monkeypatch.setattr(engines, "_SUPER_BLOCK", self.S)
        monkeypatch.setattr(engines, "_SUB_BLOCK", 4)
        hess = token_hessian(d_in, 2 * d_in, 0.9, 56)
        W = np.random.default_rng(57).standard_normal((self.D_OUT, d_in))
        config = EngineConfig(engine=engine, bits=3, group_size=64, block_size=16)
        prepared = PreparedLayer(W, hess, config.grid(), config.damp_ratio)
        for name in built:
            getattr(prepared, name)
        (q, _), peak = traced_peak(lambda: prepared.run(config))
        assert q.codes.shape == W.shape
        return peak, (8 + 4) * W.size + 6 * 8 * self.D_OUT * self.S

    @pytest.mark.parametrize("engine", ["gptq", "foem"])
    def test_run_holds_its_codes_and_super_block_buffers(self, monkeypatch, engine):
        peak, bound = self._peak(monkeypatch, engine, ("factor", "baseline", "baseline_loss"))
        assert peak <= bound

    @pytest.mark.parametrize("engine", ["gptq", "foem"])
    def test_run_never_holds_the_rtn_codes_and_its_own(self, monkeypatch, engine):
        # the run builds the RTN baseline and prices its loss, then lets its
        # codes go before the driver makes its own: the same bound holds
        peak, bound = self._peak(monkeypatch, engine, ("factor",))
        assert peak <= bound

    @pytest.mark.parametrize("engine", ["gptq", "foem"])
    def test_driver_holds_one_byte_codes(self, monkeypatch, engine):
        # the peak while the driver runs, above the run's start: the
        # bundle's latent weights, the driver's one-byte codes and its
        # buffers. At d_in = 1024 int32 codes would add 3 bytes a weight,
        # 12.6 MB, twice the 6 d_out S float64 of slack
        d_in = 2 * self.D_IN
        peaks = []
        driver = engines._run_blocked

        def traced(*args):
            tracemalloc.reset_peak()
            codes = driver(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return codes

        monkeypatch.setattr(engines, "_run_blocked", traced)
        self._peak(monkeypatch, engine, ("factor",), d_in)
        assert len(peaks) == 1
        assert peaks[0] <= (8 + 1) * self.D_OUT * d_in + 6 * 8 * self.D_OUT * self.S


class TestScaleInvariance:
    """Positive rescaling of H drops out of every factor-route update."""

    def _codes(self, engine, hess, W, **kw):
        q, _ = run_engine(LayerBundle(W), hess, EngineConfig(engine=engine, bits=4, **kw))
        return q.codes

    @pytest.mark.parametrize("engine", ["gptq", "obs_oracle"])
    def test_power_of_two_scaling_leaves_codes_bit_identical(self, rng, engine):
        d = 16
        hess = token_hessian(d, 64, 0.9, 23)
        scaled = HessianState.from_matrix(4.0 * hess.matrix, hess.n_samples)
        W = rng.standard_normal((8, d))
        assert np.array_equal(self._codes(engine, hess, W), self._codes(engine, scaled, W))

    def test_first_order_term_scales_inversely(self, rng):
        # the drift correction is NOT invariant: its slice product is the
        # inverse of the damped Hessian, so scaling H by c scales it by 1/c
        d = 8
        hess = token_hessian(d, 32, 0.9, 24)
        scaled = HessianState.from_matrix(4.0 * hess.matrix, hess.n_samples)
        f1 = inverse_cholesky(hess.dampen(0.01))
        f2 = inverse_cholesky(scaled.dampen(0.01))
        m1 = f1.matrix.T @ f1.matrix
        m2 = f2.matrix.T @ f2.matrix
        np.testing.assert_allclose(m2, m1 / 4.0, rtol=1e-12)
