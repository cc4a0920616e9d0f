"""Per-layer quality metrics and machine-readable engine comparisons.

The quality metric is the proxy loss: the squared Frobenius norm of the
output error on calibration data, computed as trace(D H D^T) with
D = dequantized - original. When H = X X^T this equals ||D X||_F^2 exactly,
so the trace form and the explicit-activation form are two routes to the
same number; tests hold them together at 1e-10.

The trace is evaluated in blocks and uses H's symmetry: D is formed a few
hundred rows at a time, and each column block pairs with itself and with
the columns after it only, so a call does d_out * d_in^2 flops, half the
dense product's, and holds no d_out x d_in temporary. H is read from the
row bands of its upper triangle that ``HessianState`` keeps; a dense H is
first copied into such bands.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NumericalError
from .linalg import HessianState
from .quantizer import QuantizedLayer

__all__ = ["LayerReport", "proxy_loss", "compare_table"]

CSV_SCHEMA = "lowbit-compare-v1"

# proxy_loss's blocks: rows of D per step, and columns of H per product;
# _COL_BLOCK divides the Hessian's band height (linalg._BAND), so each
# column block's rows lie in one band
_ROW_BLOCK, _COL_BLOCK = 512, 256

@dataclass
class LayerReport:
    """Outcome of quantizing one layer with one engine configuration.
    ``drift_*`` compare the run's final weights, which every engine leaves
    as its dequantized layer, with the originals."""

    layer: str
    engine: str
    bits: int
    group_size: int
    beta: float
    block_size: int
    proxy_loss: float
    rtn_relative: float
    wall_time_s: float
    drift_max: float
    drift_mean: float

    def to_dict(self) -> dict:
        return asdict(self)


def proxy_loss(w_deq: np.ndarray | QuantizedLayer, w_orig: np.ndarray, hessian) -> float:
    """trace(D H D^T) for D = w_deq - w_orig; equals ||D X||_F^2 for H = X X^T.

    ``w_deq`` is the dequantized layer, or a ``QuantizedLayer`` whose rows
    are dequantized one row block at a time into D's buffer: the same
    numbers, so the same loss, with no d_out x d_in array.

    ``hessian`` is an undamped HessianState (the metric is defined by the
    calibration data, not by the regularizer), whose bands are read in
    place, H_>J,J as the transpose of H_J,>J, or a dense symmetric matrix,
    which ``HessianState.from_matrix`` copies into bands first: its upper
    triangle is read, and any entry that is not finite, or a matrix that
    is not square, is refused. The two weight arrays must be 2-D and of one
    shape, with H's dimension as their width; any other input is refused
    with ``NumericalError``. Either may be float32 (a layer's originals
    are held as loaded): D is formed in float64, which widens it exactly.

    For each block of ``_ROW_BLOCK`` rows of D and each block J of
    ``_COL_BLOCK`` columns it adds <D_J, D_J H_JJ + 2 D_>J H_>J,J>, with
    >J the columns after J: d_out * d_in^2 flops in all, half the dense
    product's. Besides H it holds one row block of D and the two
    _ROW_BLOCK x _COL_BLOCK products.
    """
    if not isinstance(hessian, HessianState):
        hessian = HessianState.from_matrix(hessian, 0)
    if hessian.damped:
        raise NumericalError("proxy loss must be computed on the undamped Hessian")
    if not isinstance(w_deq, QuantizedLayer):
        w_deq = np.asarray(w_deq)
    w_orig = np.asarray(w_orig)
    if len(w_deq.shape) != 2 or w_deq.shape != w_orig.shape:
        raise NumericalError(
            f"shape mismatch: weights {w_deq.shape} against originals {w_orig.shape}"
        )
    d_out, d_in = w_deq.shape
    if hessian.dim != d_in:
        raise NumericalError(
            f"shape mismatch: weights {w_deq.shape} against Hessian dim {hessian.dim}"
        )
    delta = np.empty((min(_ROW_BLOCK, d_out), d_in))
    products = np.empty((2, len(delta), min(_COL_BLOCK, d_in)))
    total = 0.0
    for i in range(0, d_out, _ROW_BLOCK):
        n = min(_ROW_BLOCK, d_out - i)
        if isinstance(w_deq, QuantizedLayer):
            D = w_deq.dequantize_rows(slice(i, i + n), delta[:n])
            D -= w_orig[i : i + n]
        else:
            D = np.subtract(w_deq[i : i + n], w_orig[i : i + n], out=delta[:n], dtype=np.float64)
        for j in range(0, d_in, _COL_BLOCK):
            k = min(j + _COL_BLOCK, d_in)
            acc, cross = products[:, :n, : k - j]
            rows = hessian.band_view(j, k, j)
            np.matmul(D[:, j:k], rows[:, : k - j], out=acc)
            if k < d_in:
                np.matmul(D[:, k:], rows[:, k - j :].T, out=cross)
                cross *= 2.0
                acc += cross
            acc *= D[:, j:k]
            total += float(acc.sum())
    return total


def compare_table(
    reports: list[LayerReport],
    csv_path: str | os.PathLike | None = None,
    json_path: str | os.PathLike | None = None,
) -> tuple[str, dict]:
    """Build the (layer, engine) comparison table and its summary.

    Every engine must cover the same layer set. Rows are sorted by layer
    name then engine name, so identical inputs produce identical output.
    Returns (csv text, summary dict); optionally writes both to disk.

    The summary carries per-engine means, win counts (strictly smallest
    proxy loss on a layer), tie counts, and the full per-layer proxy-loss
    distribution per engine.
    """
    if not reports:
        raise NumericalError("no reports to compare")
    by_engine: dict[str, dict[str, LayerReport]] = {}
    for rep in reports:
        by_engine.setdefault(rep.engine, {})
        if rep.layer in by_engine[rep.engine]:
            raise NumericalError(
                f"duplicate report for layer {rep.layer!r}, engine {rep.engine!r}"
            )
        by_engine[rep.engine][rep.layer] = rep
    layer_sets = {eng: frozenset(rows) for eng, rows in by_engine.items()}
    reference = next(iter(layer_sets.values()))
    mismatched = {eng for eng, ls in layer_sets.items() if ls != reference}
    if mismatched:
        raise NumericalError(
            f"engines cover inconsistent layer sets: {sorted(mismatched)}"
        )

    ordered = sorted(reports, key=lambda r: (r.layer, r.engine))
    buf = io.StringIO()
    buf.write(f"# schema: {CSV_SCHEMA}\n")
    columns = list(LayerReport.__dataclass_fields__)
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for rep in ordered:
        writer.writerow(rep.to_dict())
    csv_text = buf.getvalue()

    layers = sorted(reference)
    engines = sorted(by_engine)
    wins = {eng: 0 for eng in engines}
    ties = 0
    for layer in layers:
        losses = {eng: by_engine[eng][layer].proxy_loss for eng in engines}
        best = min(losses.values())
        winners = [eng for eng, v in losses.items() if v == best]
        if len(winners) == 1:
            wins[winners[0]] += 1
        else:
            ties += 1
    summary = {
        "schema": CSV_SCHEMA,
        "n_layers": len(layers),
        "layers": layers,
        "ties": ties,
        "engines": {
            eng: {
                "mean_proxy_loss": float(
                    np.mean([by_engine[eng][l].proxy_loss for l in layers])
                ),
                "mean_rtn_relative": float(
                    np.mean([by_engine[eng][l].rtn_relative for l in layers])
                ),
                "wins": wins[eng],
                "proxy_loss": {l: by_engine[eng][l].proxy_loss for l in layers},
            }
            for eng in engines
        },
    }

    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return csv_text, summary
