import numpy as np
import pytest
from conftest import token_hessian, traced_peak

from lowbit.calib import SyntheticSpec, generate_synthetic
from lowbit.errors import NumericalError
from lowbit.linalg import HessianState
from lowbit.quantizer import QuantGrid, rtn_quantize
from lowbit.report import CSV_SCHEMA, LayerReport, compare_table, proxy_loss


def _report(layer, engine, loss, rtn_rel=1.0):
    return LayerReport(
        layer=layer,
        engine=engine,
        bits=4,
        group_size=128,
        beta=0.0,
        block_size=128,
        proxy_loss=loss,
        rtn_relative=rtn_rel,
        wall_time_s=0.1,
        drift_max=0.0,
        drift_mean=0.0,
    )


class TestProxyLoss:
    def test_zero_delta(self, rng):
        w = rng.standard_normal((3, 4))
        assert proxy_loss(w, w, np.eye(4)) == 0.0

    def test_identity_hessian_is_frobenius(self, rng):
        w0 = rng.standard_normal((3, 4))
        w1 = w0 + rng.standard_normal((3, 4))
        expected = float(np.linalg.norm(w1 - w0) ** 2)
        assert proxy_loss(w1, w0, np.eye(4)) == pytest.approx(expected, rel=1e-12)

    def test_trace_route_equals_explicit_activation_route(self, rng):
        X = generate_synthetic(SyntheticSpec(8, 32, 0.8, 3))
        hess = HessianState(8).accumulate(X)
        w0 = rng.standard_normal((8, 8))
        w1 = w0 + 0.05 * rng.standard_normal((8, 8))
        trace_route = proxy_loss(w1, w0, hess)
        direct = float(np.linalg.norm((w1 - w0) @ X) ** 2)
        assert abs(trace_route - direct) / direct <= 1e-10

    def test_damped_state_rejected(self):
        hess = HessianState(2).accumulate(np.eye(2)).dampen(0.01)
        with pytest.raises(NumericalError, match="undamped"):
            proxy_loss(np.zeros((1, 2)), np.zeros((1, 2)), hess)

    @pytest.mark.parametrize(
        "H, message",
        [(np.ones((4, 3)), "square"), (np.ones(4), "square"),
         (np.diag([1.0, np.nan, 1.0, 1.0]), "non-finite"), (np.where(np.tri(4, k=-1, dtype=bool), np.inf, np.eye(4)), "non-finite")],
        ids=["4x3", "1d", "nan", "inf-lower"],
    )
    def test_dense_hessian_refused(self, H, message):
        # checked as from_matrix checks it, the lower triangle included
        with pytest.raises(NumericalError, match=message):
            proxy_loss(np.zeros((2, 4)), np.zeros((2, 4)), H)

    def test_shape_mismatch(self):
        with pytest.raises(NumericalError, match="shape"):
            proxy_loss(np.zeros((2, 3)), np.zeros((2, 3)), np.eye(4))

    @pytest.mark.parametrize(
        "deq_shape, orig_shape",
        [((3, 4), (1, 4)), ((1, 4), (3, 4)), ((3, 4), (3, 1)), ((4,), (4,)), ((2, 3, 4), (2, 3, 4))],
    )
    def test_refuses_pairs_that_are_not_one_2d_shape(self, deq_shape, orig_shape):
        # broadcasting would price a different pair
        with pytest.raises(NumericalError, match="shape"):
            proxy_loss(np.ones(deq_shape), np.zeros(orig_shape), np.eye(4))


def _dense_proxy_loss(w_deq, w_orig, H):
    """The dense oracle: one d_out x d_in x d_in product."""
    D = w_deq - w_orig
    return float(np.sum((D @ H) * D))


class TestBlockedKernel:
    """The blocked, symmetric evaluation against the dense oracle, across
    the edges of its 512-row and 256-column blocks."""

    @pytest.mark.parametrize("d_in", [0, 1, 255, 256, 257, 600])
    @pytest.mark.parametrize("d_out", [0, 1, 511, 512, 513, 1030])
    def test_matches_dense_oracle(self, d_out, d_in):
        rng = np.random.default_rng(1000 * d_out + d_in)
        # fewer tokens than channels: a rank-deficient H
        hess = token_hessian(d_in, max(1, d_in // 3), seed=d_in) if d_in else HessianState(0)
        w0 = rng.standard_normal((d_out, d_in))
        w1 = w0 + 0.05 * rng.standard_normal((d_out, d_in))
        got = proxy_loss(w1, w0, hess)
        assert proxy_loss(w0, w0, hess) == 0.0
        expected = _dense_proxy_loss(w1, w0, hess.matrix)
        if d_out == 0 or d_in == 0:
            assert got == 0.0
        else:
            assert abs(got - expected) <= 1e-13 * expected

    @pytest.mark.parametrize("d_in", [300, 1100])
    def test_banded_state_prices_like_its_dense_matrix(self, d_in):
        # a state's H_>J,J is the transpose of its band rows H_J,>J; d_in =
        # 1100 is three bands, the last one ragged
        rng = np.random.default_rng(d_in)
        hess = token_hessian(d_in, d_in + 64, seed=d_in)
        w0 = rng.standard_normal((600, d_in))
        w1 = w0 + 0.05 * rng.standard_normal((600, d_in))
        assert proxy_loss(w1, w0, hess) == proxy_loss(w1, w0, hess.matrix)

    def test_peak_is_a_row_block_not_the_layer(self):
        d_out, d_in = 2048, 1024
        rng = np.random.default_rng(7)
        hess = token_hessian(d_in, 256)
        w0 = rng.standard_normal((d_out, d_in))
        w1 = w0 + 0.05 * rng.standard_normal((d_out, d_in))
        _, peak = traced_peak(lambda: proxy_loss(w1, w0, hess))
        assert peak < 0.5 * 8 * d_out * d_in

    @pytest.mark.parametrize("group_size", [64, 100, None])
    @pytest.mark.parametrize("d_out", [1, 513, 1030])
    def test_quantized_layer_gives_the_dense_loss(self, d_out, group_size):
        # its rows are dequantized into D's buffer: the same numbers as the
        # dense dequantized layer, so the same loss to the last bit, across
        # row blocks and with a ragged last scale group (d_in = 300)
        d_in = 300
        rng = np.random.default_rng(d_out)
        hess = token_hessian(d_in, 600, seed=3)
        w = rng.standard_normal((d_out, d_in))
        layer = rtn_quantize(w, QuantGrid(3, group_size, False))
        assert layer.shape == (d_out, d_in)
        assert proxy_loss(layer, w, hess) == proxy_loss(layer.dequantize(), w, hess)

    def test_quantized_layer_is_priced_without_a_dequantized_copy(self):
        # a dequantized copy of the layer would be 8 bytes a weight; the
        # row block of D and the two products are 2.5 at this shape
        d_out, d_in = 4096, 512
        hess = token_hessian(d_in, 256)
        w = np.random.default_rng(8).standard_normal((d_out, d_in))
        layer = rtn_quantize(w, QuantGrid(3, 128, True))
        _, peak = traced_peak(lambda: proxy_loss(layer, w, hess))
        assert peak < 3 * d_out * d_in


class TestCompareTable:
    def test_single_engine_keeps_rtn_relative_column(self):
        csv_text, summary = compare_table([_report("a", "gptq", 1.0, 0.5)])
        header = csv_text.splitlines()[1]
        assert "rtn_relative" in header
        assert summary["engines"]["gptq"]["mean_rtn_relative"] == 0.5

    def test_identical_losses_recorded_as_tie(self):
        reports = [_report("a", "gptq", 2.0), _report("a", "foem", 2.0)]
        _, summary = compare_table(reports)
        assert summary["ties"] == 1
        assert summary["engines"]["gptq"]["wins"] == 0
        assert summary["engines"]["foem"]["wins"] == 0

    def test_win_counting(self):
        reports = [
            _report("a", "gptq", 1.0),
            _report("a", "rtn", 2.0),
            _report("b", "gptq", 3.0),
            _report("b", "rtn", 1.0),
        ]
        _, summary = compare_table(reports)
        assert summary["engines"]["gptq"]["wins"] == 1
        assert summary["engines"]["rtn"]["wins"] == 1

    def test_inconsistent_layer_sets_flagged(self):
        reports = [_report("a", "gptq", 1.0), _report("b", "rtn", 1.0)]
        with pytest.raises(NumericalError, match="inconsistent"):
            compare_table(reports)

    def test_duplicate_rejected(self):
        reports = [_report("a", "gptq", 1.0), _report("a", "gptq", 2.0)]
        with pytest.raises(NumericalError, match="duplicate"):
            compare_table(reports)

    def test_deterministic_and_sorted(self, tmp_path):
        reports = [
            _report("b", "rtn", 1.0),
            _report("a", "gptq", 2.0),
            _report("a", "rtn", 3.0),
            _report("b", "gptq", 4.0),
        ]
        text1, _ = compare_table(reports, csv_path=tmp_path / "t.csv")
        text2, _ = compare_table(list(reversed(reports)))
        assert text1 == text2
        assert (tmp_path / "t.csv").read_text() == text1
        rows = [line.split(",")[:2] for line in text1.splitlines()[2:]]
        assert rows == sorted(rows)
        assert text1.startswith(f"# schema: {CSV_SCHEMA}\n")

    def test_distributions_persisted(self):
        reports = [_report("a", "gptq", 1.0), _report("b", "gptq", 2.0)]
        _, summary = compare_table(reports)
        assert summary["engines"]["gptq"]["proxy_loss"] == {"a": 1.0, "b": 2.0}
