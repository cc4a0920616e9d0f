import numpy as np
import pytest

from conftest import traced_peak
from lowbit.errors import NumericalError
from lowbit.quantizer import (
    EngineConfig,
    GroupScale,
    QuantGrid,
    QuantizedLayer,
    ScaleBook,
    fit_scales,
    quantize_values,
    rtn_quantize,
)


class TestQuantGrid:
    def test_symmetric_range_is_balanced(self):
        grid = QuantGrid(4, None, True)
        assert (grid.q_min, grid.q_max) == (-7, 7)
        assert (QuantGrid(3).q_min, QuantGrid(3).q_max) == (-3, 3)
        assert (QuantGrid(8).q_min, QuantGrid(8).q_max) == (-127, 127)

    def test_asymmetric_range(self):
        grid = QuantGrid(4, None, False)
        assert (grid.q_min, grid.q_max) == (0, 15)

    @pytest.mark.parametrize("bits", [0, 1, 9])
    def test_bits_out_of_range_rejected(self, bits):
        with pytest.raises(ValueError):
            QuantGrid(bits)

    def test_group_counting(self):
        grid = QuantGrid(4, 4)
        assert grid.n_groups(8) == 2
        assert grid.n_groups(9) == 3
        assert QuantGrid(4, None).n_groups(10) == 1
        assert QuantGrid(4, 128).n_groups(32) == 1


class TestFitScales:
    def test_max_abs_over_qmax(self):
        gs = fit_scales(np.array([0.5, -1.0, 0.25, 0.75]), QuantGrid(4))
        assert float(gs.scale) == 1.0 / 7
        assert int(gs.zero_point) == 0

    def test_all_zero_group_falls_back_to_unit_scale(self):
        grid = QuantGrid(4)
        gs = fit_scales(np.zeros(6), grid)
        assert float(gs.scale) == 1.0
        codes, deq = quantize_values(np.zeros(6), gs, grid)
        assert (codes == 0).all() and (deq == 0.0).all()

    def test_grid_point_group_recovers_step(self):
        # values k * s with the max code present: fitted scale is exactly s
        # and the round trip is bit-exact (s chosen binary-friendly)
        s = 0.125
        grid = QuantGrid(4)
        values = np.arange(-7, 8, dtype=np.float64) * s
        gs = fit_scales(values, grid)
        assert float(gs.scale) == s
        codes, deq = quantize_values(values, gs, grid)
        assert np.array_equal(codes, np.arange(-7, 8))
        assert np.array_equal(deq, values)

    def test_asymmetric_zero_point(self):
        grid = QuantGrid(4, None, False)
        gs = fit_scales(np.array([-1.0, 0.0]), grid)
        assert float(gs.scale) == 1.0 / 15
        assert int(gs.zero_point) == 15
        codes, deq = quantize_values(np.array([-1.0, 0.0]), gs, grid)
        assert codes.tolist() == [0, 15]
        np.testing.assert_allclose(deq, [-1.0, 0.0], atol=1e-15)

    def test_zero_point_at_int32_limit_fits(self):
        # 8-bit asymmetric span of 255 at offset k: scale 1, zero point -k
        limit = 2**31 - 1
        gs = fit_scales(np.array([[limit, limit + 255.0]]), QuantGrid(8, None, False))
        assert gs.zero_point.dtype == np.int32
        assert gs.zero_point.tolist() == [-limit]

    def test_zero_point_past_int32_refused(self):
        grid = QuantGrid(8, None, False)
        with pytest.raises(NumericalError, match="int32"):
            fit_scales(np.array([[2.0**31, 2.0**31 + 255]]), grid)
        # a group far from zero relative to its spread, through rtn_quantize
        w = 1e6 + 1e-3 * np.random.default_rng(0).random((2, 8))
        with pytest.raises(NumericalError, match="does not fit int32"):
            rtn_quantize(w, grid)

    def test_rowwise_fit(self):
        w = np.array([[1.0, -2.0, 0.5], [0.0, 0.0, 0.0]])
        gs = fit_scales(w, QuantGrid(4))
        np.testing.assert_array_equal(gs.scale, [2.0 / 7, 1.0])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            fit_scales(np.zeros((3, 0)), QuantGrid(4))


class TestQuantizeValues:
    def test_zero_maps_to_code_zero(self):
        grid = QuantGrid(4)
        gs = fit_scales(np.array([0.5, -1.0]), grid)
        codes, deq = quantize_values(np.array(0.0), gs, grid)
        assert int(codes) == 0 and float(deq) == 0.0

    def test_exact_grid_point(self):
        grid = QuantGrid(4)
        gs = GroupScale(np.array(0.125), np.array(0))
        codes, deq = quantize_values(np.array(0.375), gs, grid)
        assert int(codes) == 3
        assert float(deq) == 0.375

    def test_clamped_value_exceeds_half_step(self):
        grid = QuantGrid(4)
        group = np.array([0.5, -1.0, 0.25])
        gs = fit_scales(group, grid)
        w = 2.0 * np.abs(group).max()
        codes, deq = quantize_values(np.array(w), gs, grid)
        assert int(codes) == grid.q_max
        assert abs(float(deq) - w) > float(gs.scale) / 2

    def test_round_half_to_even(self):
        grid = QuantGrid(4)
        gs = GroupScale(np.array(1.0), np.array(0))
        codes, _ = quantize_values(np.array([0.5, 1.5, 2.5, -0.5, -1.5]), gs, grid)
        assert codes.tolist() == [0, 2, 2, 0, -2]

    def test_half_step_bound_for_unclamped(self, rng):
        for bits in (3, 4, 8):
            grid = QuantGrid(bits)
            gs = fit_scales(rng.standard_normal(128), grid)
            span = float(gs.scale) * grid.q_max
            w = rng.uniform(-span, span, size=20_000)
            _, deq = quantize_values(w, gs, grid)
            assert np.abs(deq - w).max() <= float(gs.scale) / 2 * (1 + 1e-12)

    def test_sign_equivariance_on_symmetric_group(self, rng):
        grid = QuantGrid(4)
        half = rng.standard_normal(64)
        gs = fit_scales(np.concatenate([half, -half]), grid)
        w = rng.uniform(-1, 1, size=20_000) * np.abs(half).max()
        _, deq_pos = quantize_values(w, gs, grid)
        _, deq_neg = quantize_values(-w, gs, grid)
        assert np.array_equal(deq_neg, -deq_pos)

    def test_dequantize_is_pure_arithmetic(self):
        codes = np.array([[-7, -1, 0, 3, 7]], dtype=np.int32)
        config = EngineConfig(engine="rtn", bits=4, group_size=None)
        layer = QuantizedLayer(codes, np.array([[0.25]]), np.zeros((1, 1), np.int32), config)
        assert np.array_equal(layer.dequantize(), codes * 0.25)


def _clip_quantize(values, gs, grid):
    """``quantize_values`` as the one ``np.clip`` expression it replaced."""
    values = np.asarray(values, dtype=np.float64)
    codes = np.clip(np.round(values / gs.scale) + gs.zero_point, grid.q_min, grid.q_max)
    return codes.astype(np.int32), (codes - gs.zero_point) * gs.scale


def _assert_bitwise_equal(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestQuantizeValuesMatchesClipForm:
    """The in-place kernel against the clip expression, bit for bit."""

    GRIDS = [QuantGrid(3), QuantGrid(4, None, False), QuantGrid(8), QuantGrid(2, None, False)]

    @pytest.mark.parametrize("grid", GRIDS)
    def test_ties_clamps_and_signed_zeros(self, grid):
        # a power-of-two scale keeps every quotient exact: the .5 ties stay
        # ties, the tiny negatives round to -0.0, and the ends clamp
        scale = 0.25
        zero_point = 0 if grid.symmetric else 3
        k = np.arange(-2 * grid.q_max - 8, 2 * grid.q_max + 8)
        values = np.concatenate(
            [scale * k, scale * (k + 0.5), [0.0, -0.0, -1e-300, -0.1 * scale, 1e300, -1e300]]
        )
        for gs in (
            GroupScale(np.array(scale), np.array(zero_point, dtype=np.int32)),
            GroupScale(np.full(values.shape, scale), np.full(values.shape, zero_point, dtype=np.int32)),
        ):
            got, want = quantize_values(values, gs, grid), _clip_quantize(values, gs, grid)
            assert want[0].min() == grid.q_min and want[0].max() == grid.q_max
            for g, w in zip(got, want):
                _assert_bitwise_equal(g, w)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_fitted_groups_and_row_broadcast(self, rng, grid):
        w = rng.standard_normal((6, 40)) * rng.uniform(0.1, 10.0, size=(6, 1))
        gs = fit_scales(w, grid)
        per_row = GroupScale(gs.scale[:, None], gs.zero_point[:, None])
        wide = 1.5 * w  # past the fitted range, so the ends clamp
        for values, params in ((w, per_row), (wide, per_row), (wide[:, 3], gs)):
            for g, want in zip(quantize_values(values, params, grid), _clip_quantize(values, params, grid)):
                _assert_bitwise_equal(g, want)

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("value", [0.3, -0.3, -0.0, 2.5, 1e9, -1e9])
    def test_zero_dimensional_input_gives_scalars(self, grid, value):
        gs = GroupScale(np.array(0.2), np.array(0 if grid.symmetric else 2, dtype=np.int32))
        for values in (value, np.float64(value), np.array(value)):
            got, want = quantize_values(values, gs, grid), _clip_quantize(values, gs, grid)
            assert (type(got[0]), type(got[1])) == (np.int32, np.float64)
            for g, w in zip(got, want):
                _assert_bitwise_equal(g, w)


class TestQuantizedLayer:
    def _layer(self, codes, bits=4, group_size=4, symmetric=True):
        codes = np.asarray(codes, dtype=np.int32)
        d_out, d_in = codes.shape
        grid = QuantGrid(bits, group_size, symmetric)
        n_groups = grid.n_groups(d_in)
        return QuantizedLayer(
            codes=codes,
            scales=np.full((d_out, n_groups), 0.5),
            zero_points=np.zeros((d_out, n_groups), dtype=np.int32),
            config=EngineConfig(engine="rtn", bits=bits, group_size=group_size, symmetric=symmetric),
        )

    def test_validate_accepts_consistent_layer(self):
        self._layer(np.zeros((4, 8), dtype=np.int32)).validate()

    def test_code_out_of_grid_range_rejected(self):
        layer = self._layer(np.full((2, 4), 9, dtype=np.int32))
        with pytest.raises(NumericalError, match=r"\[-7, 7\]"):
            layer.validate()

    def test_group_count_mismatch_rejected(self):
        layer = self._layer(np.zeros((2, 8), dtype=np.int32))
        layer.scales = np.ones((2, 5))
        layer.zero_points = np.zeros((2, 5), dtype=np.int32)
        with pytest.raises(NumericalError, match="n_groups"):
            layer.validate()

    def test_nonzero_zero_point_on_symmetric_rejected(self):
        layer = self._layer(np.zeros((2, 4), dtype=np.int32))
        layer.zero_points = np.ones_like(layer.zero_points)
        with pytest.raises(NumericalError, match="zero_points"):
            layer.validate()

    def test_dequantize_matches_manual_per_group(self, rng):
        grid = QuantGrid(4, 3)
        w = rng.standard_normal((5, 7))
        layer = rtn_quantize(w, grid)
        manual = np.empty_like(w)
        for j in range(7):
            g = j // 3
            manual[:, j] = (layer.codes[:, j] - layer.zero_points[:, g]) * layer.scales[:, g]
        assert np.array_equal(layer.dequantize(), manual)

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize(
        "d_in, group_size", [(24, 8), (24, 24), (26, 8), (5, 8), (26, None), (0, 8), (0, None)]
    )
    def test_dequantize_matches_gather_formula(self, rng, d_in, group_size, symmetric):
        # groups dividing d_in or leaving a ragged last group, one group per
        # row, and no columns at all, against the per-element gathered form
        grid = QuantGrid(3, group_size, symmetric)
        layer = rtn_quantize(rng.standard_normal((6, d_in)) * 2.0 + 0.5, grid)
        g = np.arange(d_in) // layer.group_size
        gathered = (layer.codes.astype(np.float64) - layer.zero_points[:, g]) * layer.scales[:, g]
        deq = layer.dequantize()
        assert deq.dtype == np.float64 and deq.shape == (6, d_in)
        assert np.array_equal(deq, gathered)
        if not symmetric and d_in:
            assert layer.zero_points.any()


class TestRtn:
    def test_on_grid_weights_round_trip_exactly(self):
        w = np.arange(-7, 8, dtype=np.float64).reshape(3, 5) * 0.125
        # per-row max code present in rows 0 and 2 only; use whole-row groups
        w[1] = w[2][::-1]
        layer = rtn_quantize(w, QuantGrid(4, None, True))
        assert np.array_equal(layer.dequantize(), w)

    def test_single_element_layer(self):
        layer = rtn_quantize(np.array([[0.3]]), QuantGrid(4))
        assert float(layer.scales[0, 0]) == 0.3 / 7
        assert int(layer.codes[0, 0]) == 7
        assert layer.dequantize()[0, 0] == pytest.approx(0.3, rel=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericalError, match="non-finite"):
            rtn_quantize(np.array([[np.nan, 1.0]]), QuantGrid(4))

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_one_infinite_entry_rejected(self, rng, value):
        W = rng.standard_normal((3, 20))
        W[2, 7] = value
        with pytest.raises(NumericalError, match="weights contain non-finite values"):
            rtn_quantize(W, QuantGrid(4))

    def test_zero_row_layer_is_valid(self):
        for symmetric in (True, False):
            layer = rtn_quantize(np.zeros((0, 8)), QuantGrid(4, 4, symmetric))
            layer.validate()
            assert layer.codes.shape == (0, 8)
            assert layer.scales.shape == (0, 2)

    def test_half_step_bound_holds_within_fit_range(self, rng):
        w = rng.standard_normal((16, 32))
        layer = rtn_quantize(w, QuantGrid(4, 8))
        deq = layer.dequantize()
        g = np.arange(layer.d_in) // layer.group_size
        step = layer.scales[:, g]
        assert (np.abs(deq - w) <= step / 2 * (1 + 1e-12)).all()


    def test_float32_layer_is_widened_one_group_at_a_time(self, rng):
        # past its int32 codes (4 bytes a weight) the run holds a few float64
        # groups, d_out x 128; at this width that is below the 8 bytes a
        # weight of one float64 copy of the layer
        d_out, d_in = 256, 4096
        W = rng.standard_normal((d_out, d_in)).astype(np.float32)
        grid = QuantGrid(3, 128)
        layer, peak = traced_peak(lambda: rtn_quantize(W, grid))
        assert peak <= 4 * W.size + 6 * 8 * d_out * 128 < 8 * W.size
        ref = rtn_quantize(W.astype(np.float64), grid)
        for name in ("codes", "scales", "zero_points"):
            assert np.array_equal(getattr(layer, name), getattr(ref, name))


class TestScaleBook:
    def test_quantizes_on_the_baseline_of_its_first_source(self, rng):
        # asymmetric groups of 4 on 10 columns, the last one ragged
        grid = QuantGrid(3, 4, False)
        w = rng.standard_normal((3, 10))
        book = ScaleBook(grid, 3, 10)
        for j in range(10):
            # every source after the first is ignored
            deq = book.quantize(j, w[:, j], w if j == 0 else 100.0 * w)
            base, g = book.baseline, j // 4
            expected = (book.codes[:, j] - base.zero_points[:, g]) * base.scales[:, g]
            assert np.array_equal(deq, expected)
        ref = rtn_quantize(w, grid)
        for name in ("codes", "scales", "zero_points"):
            assert np.array_equal(getattr(book.baseline, name), getattr(ref, name))
        assert book.baseline.config == ref.config
        assert np.array_equal(book.codes, ref.codes)
        assert book.codes.dtype == np.int32
