"""Column-wise quantization engines with error compensation.

Four engines share one contract (``run_engine``): quantize a weight matrix
column by column, left to right, compensating not-yet-quantized columns for
the rounding error already committed.

* ``rtn`` - round-to-nearest, no compensation; the baseline.
* ``obs_oracle`` - dense reference: keeps the inverse of the damped Hessian
  explicitly and shrinks it one coordinate at a time with the rank-one
  removal rule. Quadratic-memory, used to validate the factor route.
* ``gptq`` - the production route: one upper-triangular Cholesky factor
  of the damped Hessian (H = U U^T) drives all compensation, read through
  T = U^(-1) (T^T T = H^(-1)), and batched at three widths. Inside a block
  of ``block_size`` columns the updates are lazy: each column is read from
  the block's starting slab plus the errors committed so far in the
  block, gathered one sub-block of ``_SUB_BLOCK`` columns at a time, with
  T's diagonal block for the block, recovered from U. Columns past the
  block are carried in U-coordinates: each block's term reaches them as a
  product with U's rows, the rest of its super-block (about
  ``_SUPER_BLOCK`` columns) at the block's end and the columns past the
  super-block in one product when it closes, and a block turns its
  carried columns back into drift with its own diagonal block of T. No
  run forms the rest of T, or U as one dense array: the factor holds U in
  row bands of ``linalg._BAND`` rows, and a super-block's rows lie in one.
* ``foem`` - gptq plus a first-order correction: compensation drags the
  latent weights away from the originals, so a drift-proportional gradient
  estimate beta * (W - W_orig) is folded into each update through the
  inverse recovered from T. The term is block-local: at each column it acts
  on the rest of the column's block through T_s^T T_s, T_s = T[col:e, col:e]
  for the block [i, e), and the block boundary applies only gptq's
  cross-block term. So ``block_size``, not the sub-block or the
  super-block, bounds the term's reach, and foem at block size 1 gives
  gptq's codes. It runs in gptq's lazy block:
  the in-block correction is carried in b x b factors that depend only on
  T (``_lazy_block_plan``), so it adds no per-column work proportional to
  d_out * b^2, and no work at all past the block. The sign of the
  correction is configurable ("minus" is the default; "plus" is the
  additive variant kept for ablation). Neither sign descends the layer
  proxy loss: on the still-latent columns the exact proxy gradient is
  -2 * damping * (W - W_orig), so there the drift estimate points exactly
  against it and the correction only acts on what the damping left behind.

No engine fits scales: the compensating engines quantize every column on
the RTN baseline's scales and zero points, fitted from the original
weights, so they differ from the baseline only in their codes.

Once quantized, a column is never read again, so every driver writes its
dequantized value into ``bundle.weights`` on the spot, and ``rtn`` writes
its baseline's: every run leaves the bundle holding the dequantized layer.

Everything an engine run needs besides the bundle and the config is a
function of the layer's weights, its undamped Hessian, the grid and the
damping: the factor and the RTN baseline's scales, zero points and proxy
loss. ``PreparedLayer`` builds each of them once, on first use, and every
run on it shares them and makes each run a new bundle of the layer; a
prepared layer keeps the baseline's scales, zero points and loss, never
its codes. ``run_engine`` is one preparation and one run on the caller's
bundle, which releases the factor as soon as its driver is done, and
``compare`` prepares each layer once for all of its engine tokens.
Neither a bundle nor a prepared layer copies the weights it is given;
``PreparedLayer`` counts the bytes a weight that a run holds.

Engines own their LayerBundle exclusively while running. Rows are
independent given the factor, so all per-column updates are whole-matrix
row-vectorized; column order is strictly sequential.
"""

from __future__ import annotations

import time
from functools import cached_property

import numpy as np

from .errors import ConfigError, NumericalError
from .linalg import _BAND, HessianState, InvCholFactor, _all_finite, inverse_cholesky
from .linalg import iterative_inverse_update
from .quantizer import ENGINES, EngineConfig, QuantGrid, QuantizedLayer, ScaleBook
from .quantizer import _column_params, quantize_values, rtn_quantize
from .report import LayerReport, proxy_loss

__all__ = [
    "ENGINES",
    "LayerBundle",
    "EngineConfig",
    "first_order_quant_step",
    "gptq_column_step",
    "foem_block_boundary",
    "PreparedLayer",
    "run_engine",
]


def _held(weights) -> np.ndarray:
    """``weights`` as a layer holds its originals: a float32 array at its
    own precision, anything else as float64 (no copy if it is already
    float64), and read-only. A writable array is held through a read-only
    view of itself, with no copy, so its owner must not write it while a
    bundle or a prepared layer on it is in use. Every engine computes in
    float64, and a float32 original widens exactly wherever float64
    arithmetic reads it. Anything but a 2-D array is refused
    (``NumericalError``)."""
    weights = np.asarray(weights)
    if weights.ndim != 2:
        raise NumericalError(f"weights must be 2-D, got shape {weights.shape}")
    held = weights if weights.dtype == np.float32 else weights.astype(np.float64, copy=False)
    if held.flags.writeable:
        held = held.view()
        held.setflags(write=False)
    return held


class LayerBundle:
    """Latent weights being calibrated plus the frozen originals.

    ``weights`` is a new C-ordered float64 array, mutated in place by the
    engines; ``original`` is the input as ``_held`` holds it: the caller's
    own array, or a read-only view of it, at float32 for a float32 input
    and float64 otherwise, never copied when it already has one of those
    precisions (``PreparedLayer`` counts the bytes a weight that a run
    holds). ``run_engine`` refuses a bundle whose weights no longer equal
    its original, so a caller who writes the array after building the
    bundle is caught there.
    """

    def __init__(self, weights: np.ndarray):
        self.original = original = _held(weights)
        # a view of an F-ordered input is F-ordered; the drivers want C rows
        self.weights = original.astype(np.float64, order="C")


def first_order_quant_step(
    err: float,
    gradient: np.ndarray,
    hinv: np.ndarray,
    q: int,
    exact_multiplier: bool = True,
) -> np.ndarray:
    """Analytic update for the gradient-aware constrained step.

    Minimizes g dw^T + 0.5 dw H dw^T subject to dw_q + err = 0. With
    ``exact_multiplier`` the Lagrange multiplier absorbs the gradient's
    pull on the constrained coordinate,

        lam = (err - (g Hinv)_q) / Hinv_qq,
        dw  = -g Hinv - lam * Hinv[q, :],

    which is the exact constrained minimizer (matches a dense KKT solve to
    machine precision). With ``exact_multiplier=False`` the multiplier
    drops the (g Hinv)_q correction, which is the simplification the
    production engines inherit; the resulting direction deviates from the
    exact minimizer by exactly ((g Hinv)_q / Hinv_qq) * Hinv[q, :].

    With a zero gradient this is the OBC quantization step,
    -(err / Hinv_qq) * Hinv[q, :] for err = w_q - quantized, and with the
    quantized value 0 the OBS pruning step.
    """
    hinv = np.asarray(hinv, dtype=np.float64)
    gradient = np.asarray(gradient, dtype=np.float64)
    d = hinv[q, q]
    if d <= 0:
        raise NumericalError(f"hinv[{q}, {q}] = {d} is not positive; matrix not SPD")
    g_hinv = gradient @ hinv
    lam = (err - g_hinv[q]) / d if exact_multiplier else err / d
    return -g_hinv - lam * hinv[q, :]


def gptq_column_step(
    bundle: LayerBundle,
    factor: InvCholFactor,
    grid: QuantGrid,
    col: int,
    book: ScaleBook,
) -> None:
    """Reference (unblocked) factor-route step for one column.

    Quantizes column ``col`` for every row on its group's scales in the
    RTN baseline of ``bundle.original``, which the book makes at its first
    column, writes the dequantized values into the latent column, and
    propagates -err * T[col, col+1:] into all remaining columns. The codes
    land in ``book.codes[:, col]``; nothing is returned. The blocked driver
    reaches the same result through lazy block-local updates; this form
    exists for oracle tests and diagnostics. ``grid`` must be the book's
    (``ConfigError`` otherwise).
    """
    if grid != book.grid:
        raise ConfigError(f"column step got grid {grid}, but its ScaleBook has {book.grid}")
    T = factor.matrix
    w = bundle.weights[:, col]
    deq = book.quantize(col, w, bundle.original)
    err = (w - deq) / T[col, col]
    bundle.weights[:, col] = deq
    bundle.weights[:, col + 1 :] -= np.outer(err, T[col, col + 1 :])


def foem_block_boundary(
    bundle: LayerBundle,
    factor: InvCholFactor,
    errs: np.ndarray,
    block_start: int,
    block_end: int,
    beta: float,
    *,
    reach: int | None = None,
    pending: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> None:
    """Batched update of the columns past ``block_end``: the factor-route
    cross-block term -errs @ U[block, trailing], with U the factor's upper
    triangle (H + damping * I = U U^T), read from its bands through
    ``InvCholFactor.times_upper``: one product when the rows lie in one
    band, which they do whenever the block size divides the band height,
    and one per band when they cross a band edge.

    The blocked driver carries every column that no block has reached yet
    in U-coordinates: ``bundle.weights`` holds O + X there, with O the
    originals and X = -sum(errs @ U[block, column]) over the blocks done,
    and the block that reaches the column reads its drift as X Tb,
    Tb = T[block, block] (``_run_blocked``). For that, a block passes as
    ``errs`` its drift at block start minus its scaled errors times Tb,
    D0 - E Tb, which is its dequantized values minus its originals when no
    first-order term acted in it. The eager references apply gptq's
    cross-block term to the drift itself instead, as -E @ T[block,
    trailing]; the two agree because T[block, trailing] = -Tb U[block,
    trailing] T[trailing, trailing].

    By default every column past the block is updated. The two-level
    driver passes ``reach``, the end of the block's super-block, and
    ``pending``, what the blocks of the super-block's w columns (reach - w
    .. reach - 1) pass, d_out x w: the block's term then goes to columns
    block_end .. reach - 1 only, and the call whose block ends the
    super-block (block_end == reach) applies all of ``pending`` to every
    column past it, in one product of inner dimension w. No other call
    reads ``pending``, so its later columns may not be filled yet. With
    ``out``, a d_out x m float64 buffer, each product is written through
    it m columns at a time, so no d_out x n_t temporary is made.

    foem's first-order term is block-local, so no boundary carries it:
    ``beta`` must be 0 (``ConfigError`` otherwise). It stays in the
    signature for callers that bind it by name.
    """
    if beta != 0.0:
        raise ConfigError(f"the block boundary applies no first-order term, got beta {beta!r}")
    W = bundle.weights
    if reach is None:
        rows, start, stop = slice(block_start, block_end), block_end, W.shape[1]
    elif block_end < reach:
        rows, start, stop = slice(block_start, block_end), block_end, reach
    else:
        errs = pending
        rows, start, stop = slice(reach - errs.shape[1], reach), reach, W.shape[1]
    if out is None:
        W[:, start:stop] -= factor.times_upper(errs, rows, slice(start, stop))
        return
    for k in range(start, stop, out.shape[1]):
        t = slice(k, min(k + out.shape[1], stop))
        W[:, t] -= factor.times_upper(errs, rows, t, out=out[:, : t.stop - k])


def _lazy_block_plan(Tb: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the lazy in-block update for one block.

    The eager step for local column a of a block of width b is

        D <- D (I + c Tb^T P_a Tb) - err_a Tb[a, :],

    with D the slab's drift from the originals (one row per output row),
    c = sign * beta and P_a the projector onto coordinates >= a:
    Tb^T P_a Tb is T_a^T T_a for T_a = Tb[a:, a:], padded with zeros.
    Unrolled, the drift after any number of steps is D0 (I + A) + E N,
    with D0 the drift at block start, E the errors committed so far, and
    the b x b factors A and N depending only on Tb and c, never on the
    data. This returns the pair (Z, N^T), with Z = Tb (I + A), column r
    taken at the start of step r: what quantizing column r sees. Z maps
    the block's drift in U-coordinates, X = D0 Tb^(-1), which is what the
    blocked driver carries, straight to D0 (I + A). N^T is C-ordered, so
    the driver reads the coefficients of column r as the contiguous row
    N^T[r].

    With Phi_a = I + c Tb^T P_a Tb the step map, column r of I + A is
    (Phi_0 ... Phi_{r-1}) e_r and entry (a, r) of N, a < r, is
    -e_a^T Tb Phi_{a+1} ... Phi_{r-1} e_r. Both come out of one backward
    sweep over a in the coordinates Z = Tb (I + A), where Phi_a acts on
    columns a+1 onward as I + c K P_a with K = Tb Tb^T fixed. So
    Z = Tb + c K Y, with Y the sum of P_a Z over the steps taken, and the
    sweep carries Y: before step a, rows a.. of Z's columns a+1 onward are
    R = Tb[a:, a+1:] + c K[a:, a+1:] Y[a+1:, a+1:], N's row a is -R[0],
    and step a adds R to Y[a:, a+1:]; A itself is Tb^(-1) (Z - Tb) = c Tb^T Y.
    Before step a, row a and column a+1 of Y are still zero: the steps
    taken so far, a' > a, wrote rows a' onward of columns a' + 1 onward
    only. So Y[a:, a+1:] is I[a:, a+1:] Y[a+1:, a+1:], and the step is the
    one product Y[a:, a+1:] = (I + c K)[a:, a+1:] Y[a+1:, a+1:] +
    Tb[a:, a+1:], which writes the step's whole block. Z is formed from
    c K, not from I + c K, so that it loses nothing to cancellation.
    Step a is one (b - a) x (b - a - 1) x (b - a - 1) product, so a plan
    costs about b^4 / 2 flops, whatever d_out is. With c = 0 Z is Tb
    itself and N is -triu(Tb, 1).
    """
    b = Tb.shape[0]
    NT = np.negative(Tb.T, order="C")
    NT[np.diag_indices(b)] = 0.0
    if c == 0.0:
        return Tb, NT
    cK = c * (Tb @ Tb.T)
    step = cK.copy()
    step[np.diag_indices(b)] += 1.0
    Y = np.zeros((b, b))
    for a in range(b - 1, -1, -1):
        R = step[a:, a + 1 :] @ Y[a + 1 :, a + 1 :]
        R += Tb[a:, a + 1 :]
        np.negative(R[0], out=NT[a + 1 :, a])
        Y[a:, a + 1 :] = R
    return Tb + cK @ Y, NT


# Widths of the driver's levels around the block, in columns. A super-block
# is one band of the factor's rows (_BAND, 512) rounded down to whole blocks
# (one block at least), so the product that closes it reads one band. Timed
# on the driver alone with blocks of 128 (medians of 7 runs in each of three
# rounds; 2-vCPU Xeon, numpy 2.4.6, OpenBLAS 0.3.31), 512 took 0.36-0.42 s
# at 2048 x 2048 (foem) and 0.21-0.25 s at 512 x 4096 (gptq); 1024 took
# 0.42-0.44 and 0.23-0.26 s, 256 0.42-0.46 and 0.27-0.29 s, 2048 0.47-0.49
# and 0.24-0.26 s. Sub-blocks of 16, 32 and 64 ran within noise of each
# other; one product per column over all the block's earlier errors ran
# about 10% slower at 2048 x 2048 and within noise at 512 x 4096.
_SUPER_BLOCK = _BAND
_SUB_BLOCK = 32
# rows per step of the transposed slab copy and of the report's row blocks
_ROWS = 64


def _run_blocked(
    bundle: LayerBundle,
    factor: InvCholFactor,
    config: EngineConfig,
    scales: np.ndarray,
    zero_points: np.ndarray,
) -> np.ndarray:
    """Lazy blocked driver shared by gptq and foem: quantizes every column
    on ``scales`` and ``zero_points``, the layer's RTN baseline's, so it
    fits none, and returns the codes in one byte a weight: int8 up to a
    q_max of 127 (every symmetric grid, whose q_min is -q_max, and the
    asymmetric ones up to 7 bits), else uint8 (an asymmetric 8-bit grid,
    q_min 0 and q_max 255). The caller widens them to int32 once the
    driver's buffers are gone (``PreparedLayer`` counts the bytes a weight
    that a run holds).

    It reads the factor's U, through its bands, and T's diagonal blocks,
    never the rest of T.
    A column that no block has reached yet holds O + X in ``bundle.weights``,
    with X its drift in U-coordinates (``foem_block_boundary``). Block
    [i, e), ``block_size`` wide, recovers Tb = T[i:e, i:e] and is quantized
    from its slab at block start: column r is O[:, r] + (X Z)[:, r] +
    (E N)[:, r] with the coefficients Z = Tb (I + A) and N of
    ``_lazy_block_plan``, so the drift X Tb and the first-order term of
    every column come from one block-level product, and the block bounds
    that term's reach. The error product E N runs in sub-blocks of
    ``_SUB_BLOCK`` columns: one GEMM at each sub-block's start over the
    block's earlier errors, then one short product per column over the
    sub-block's. The block then passes the boundary D0 - E Tb, D0 = X Tb
    its drift at block start: its dequantized values minus its originals
    for c = 0, one more product for foem.

    Blocks are grouped into super-blocks of about ``_SUPER_BLOCK`` columns:
    a block boundary applies gptq's cross-block term to the rest of its
    super-block only, and the boundary that closes a super-block applies
    all of the super-block's terms to the trailing columns; each of these
    products is written through one d_out x S buffer, S the super-block's
    width. The loop runs on the slab transposed, (b, d_out), so that a
    column, its row of N^T, its scaled errors and its codes are contiguous
    rows; the slab, then holding the dequantized block, and the codes are
    written back once per block. The first-order term is block-local, so
    the boundary is the same for both engines. For c = 0 (gptq, or foem
    with beta = 0) this is gptq's lazy batch, so foem with beta = 0 runs
    gptq's arithmetic. The originals are read as the bundle holds them,
    float32 or float64: each read copies or subtracts them into a float64
    buffer, which widens a float32 original exactly.
    """
    W, O = bundle.weights, bundle.original
    d_out, d_in = W.shape
    c = config.sign_factor() * config.applied()["beta"]
    grid = config.grid()
    params = _column_params(scales, zero_points, grid, d_in)
    codes = np.empty((d_out, d_in), dtype=np.int8 if grid.q_max <= 127 else np.uint8)
    B = config.block_size
    S = max(_SUPER_BLOCK // B, 1) * B
    # one buffer each for all blocks: per-block ones read 1.2 MB more peak RSS at 512 x 4096
    slabs = np.empty((min(B, d_in), d_out))
    all_codes = np.empty((min(B, d_in), d_out), dtype=codes.dtype)
    sub = np.empty((min(_SUB_BLOCK, B, d_in), d_out))
    # a super-block's errors, one row per column, then what its blocks pass
    # their boundaries; and the products' buffer, which holds a block's drift
    # X until its boundary
    all_errs = np.empty((min(S, d_in), d_out))
    trailing = np.empty((d_out, min(S, d_in)))
    for i in range(0, d_in, B):
        # the block's super-block [s0, s1); S is whole blocks, so e <= s1
        s0 = i // S * S
        s1 = min(s0 + S, d_in)
        e = min(i + B, d_in)
        b = e - i
        Tb = factor.diagonal_block(i, e)
        Z, NT = _lazy_block_plan(Tb, c)
        slabT, block_codes = slabs[:b], all_codes[:b]
        errs, X = all_errs[i - s0 : e - s0], trailing[:, :b]
        # the slab at block start, O + X Z, formed transposed (X is zero in
        # the first block, which starts undrifted); the block's error rows
        # hold its originals until the loop writes its errors. In chunks of
        # rows: one strided copy of the whole block is about three times
        # slower at d_out 512 and four at 4096
        for k in range(0, d_out, _ROWS):
            errs[:, k : k + _ROWS] = O[k : k + _ROWS, i:e].T
        np.subtract(W[:, i:e], O[:, i:e], out=X)
        np.add(np.matmul(Z.T, X.T, out=slabT), errs, out=slabT)
        diagonal = Tb.diagonal().tolist()
        for r0 in range(0, b, _SUB_BLOCK):
            r1 = min(r0 + _SUB_BLOCK, b)
            if r0:
                slabT[r0:r1] += np.matmul(NT[r0:r1, :r0], errs[:r0], out=sub[: r1 - r0])
            for r in range(r0, r1):
                w, err = slabT[r], errs[r]
                w += NT[r, r0:r] @ errs[r0:r]
                block_codes[r], deq = quantize_values(w, params[i + r], grid)
                np.subtract(w, deq, out=err)
                err /= diagonal[r]
                w[...] = deq
        W[:, i:e] = slabT.T
        codes[:, i:e] = block_codes.T
        # what the boundary carries in place of E: D0 - E Tb
        if c == 0.0:
            for k in range(0, d_out, _ROWS):
                rows = slice(k, k + _ROWS)
                np.subtract(slabT[:, rows], O[rows, i:e].T, out=errs[:, rows])
        else:
            np.matmul(Tb.T, np.subtract(X, errs.T, out=X).T, out=errs)
        foem_block_boundary(
            bundle, factor, errs.T, i, e, 0.0,
            reach=s1, pending=all_errs[: s1 - s0].T, out=trailing,
        )
    return codes


def _run_oracle(
    bundle: LayerBundle,
    damped: HessianState,
    grid: QuantGrid,
    scales: np.ndarray,
    zero_points: np.ndarray,
) -> np.ndarray:
    """Dense reference driver: explicit inverse, shrunk column by column,
    quantizing on the baseline's ``scales`` and ``zero_points`` on
    ``grid``, as ``_run_blocked`` does. Sets each column to its dequantized
    value; returns the int32 codes."""
    W = bundle.weights
    params = _column_params(scales, zero_points, grid, W.shape[1])
    codes = np.empty(W.shape, dtype=np.int32)
    hinv = np.linalg.inv(damped.matrix)
    for j, gs in enumerate(params):
        w = W[:, j]
        codes[:, j], deq = quantize_values(w, gs, grid)
        err = (w - deq) / hinv[0, 0]
        W[:, j + 1 :] -= err[:, None] * hinv[0, 1:][None, :]
        W[:, j] = deq
        hinv = iterative_inverse_update(hinv, 0)
    return codes


def _equal_by_rows(a: np.ndarray, b: np.ndarray) -> bool:
    """``np.array_equal`` compared ``_ROWS`` rows at a time, so it makes no
    bool mask the size of the layer."""
    return a.shape == b.shape and all(
        np.array_equal(a[k : k + _ROWS], b[k : k + _ROWS]) for k in range(0, len(a), _ROWS)
    )


def _drift_stats(bundle: LayerBundle) -> tuple[float, float]:
    """Max and mean of |W - W_orig| (0 for an empty layer), formed
    ``_ROWS`` rows at a time through one buffer. The max is the whole
    array's exactly; the mean sums in another order than one reduction
    over the whole array, so it can differ from that in its last ulps."""
    W, O = bundle.weights, bundle.original
    if W.size == 0:
        return 0.0, 0.0
    buf = np.empty((min(_ROWS, len(W)), W.shape[1]))
    top = total = 0.0
    for k in range(0, len(W), _ROWS):
        D = np.subtract(W[k : k + _ROWS], O[k : k + _ROWS], out=buf[: len(W) - k])
        np.abs(D, out=D)
        top = max(top, float(D.max()))
        total += float(D.sum())
    return top, total / W.size


class PreparedLayer:
    """What every engine run on one layer shares, each piece built once.

    The factor depends only on the undamped Hessian and ``damp_ratio``,
    the RTN baseline only on the weights and the grid, so runs that differ
    in engine, sign or block size can share them. Both are built on first
    use: the factor by the first compensating engine, the baseline by the
    first run of any engine, since the compensating engines quantize on its
    scales and every report prices its loss. The factor is built straight
    from the undamped H, with the damping added on its diagonal as it is
    read, so the layer holds no damped copy of H and no d x d array: H and
    U are each held as row bands of an upper triangle, about half a dense
    array each, and the proxy loss reads H's bands in place (an
    ``obs_oracle`` run builds the damped matrix and its inverse for
    itself, and a read of the factor's ``upper`` or ``matrix`` builds a
    dense U or T). ``run`` refuses a config whose grid or damping differs
    from the preparation's.

    A prepared layer keeps the baseline's scales, zero points and loss,
    never its codes: ``scales`` and ``zero_points``, which every run
    quantizes on and every run's layer holds, and ``baseline_loss``, each
    None until the layer's first run sets them. That run prices the loss
    from the baseline's codes, and a compensating run drops those codes
    before it builds the factor; an ``rtn`` run quantizes the layer with
    ``rtn_quantize`` itself, which gives the baseline's bits.

    ``original`` is the weights as ``_held`` holds them: a writable array
    through a read-only view of itself, not a copy, which every run's
    bundle keeps as its original. Past it, a run holds its bundle's float64
    latent weights, 8 bytes a weight, and one set of codes: 1 byte a weight
    during the driver, which writes them in one byte (``_run_blocked``),
    and 4 for the int32 codes of the run's layer or of the baseline. So
    past H, U and the driver's buffers of at most d_out x S float64 (S the
    super-block width), the driver of a compensating run on a float32
    layer holds 13 bytes a weight with its caller's array: 4 for that
    array, 8 for the latent weights and 1 for the codes; README "Memory
    per layer" has the rest of a run's account.
    """

    def __init__(
        self, weights: np.ndarray, hessian: HessianState, grid: QuantGrid, damp_ratio: float
    ):
        original = _held(weights)
        if not _all_finite(original):
            raise NumericalError("layer weights contain non-finite values")
        if hessian.dim != original.shape[1]:
            raise NumericalError(
                f"Hessian dim {hessian.dim} does not match layer d_in {original.shape[1]}"
            )
        if hessian.damped:
            raise NumericalError("engines expect the undamped Hessian state")
        self.original = original
        self.hessian = hessian
        self.grid = grid
        self.damp_ratio = damp_ratio
        # the RTN baseline's, set by the layer's first run
        self.scales: np.ndarray | None = None
        self.zero_points: np.ndarray | None = None
        self.baseline_loss: float | None = None

    @cached_property
    def factor(self) -> InvCholFactor:
        """U with U U^T = H + damping * I, in row bands, factored from the
        undamped H through a damped state that shares its bands; a dense U
        or T = U^(-1) is formed only if ``upper`` or ``matrix`` is read,
        which no engine run does."""
        return inverse_cholesky(self.hessian.dampen(self.damp_ratio))

    def run(self, config: EngineConfig, layer_name: str = "layer") -> tuple[QuantizedLayer, LayerReport]:
        """Quantize this layer with ``config`` on a new bundle of it, which
        the engine leaves holding the dequantized layer. Every run's layer
        holds this layer's ``scales`` and ``zero_points`` arrays.

        ``wall_time_s`` covers producing the codes, including any shared
        piece this run was the first to need (the factor and the baseline,
        whose scales a compensating engine quantizes on, or the baseline
        alone for ``rtn``); the report's losses are outside it, the
        baseline's too, which a compensating run prices before its factor.
        The layer keeps the factor for later runs.
        """
        config.validate()
        if config.grid() != self.grid or config.damp_ratio != self.damp_ratio:
            raise ConfigError(
                f"config has grid {config.grid()} and damp_ratio {config.damp_ratio}, but the "
                f"layer was prepared for grid {self.grid} and damp_ratio {self.damp_ratio}"
            )
        return self._run(LayerBundle(self.original), config, layer_name)

    def _run(self, bundle: LayerBundle, config: EngineConfig, layer_name: str, once: bool = False):
        """``run``'s body on an undrifted ``bundle`` of this layer, for a
        valid config of it. A compensating run goes in this order: the
        baseline, if no run has built it, and its loss, untimed, priced
        from its codes; the factor, once those codes are gone; the driver;
        then, with ``once`` (a layer that no later run will use), the
        factor is released, before the driver's codes are widened to int32
        and the run's loss is priced."""
        t0 = time.perf_counter()
        if config.engine == "rtn" or self.scales is None:
            baseline = rtn_quantize(self.original, self.grid)
            if self.scales is None:
                self.scales, self.zero_points = baseline.scales, baseline.zero_points
                # untimed, as every loss is
                paused = time.perf_counter()
                self.baseline_loss = proxy_loss(baseline, self.original, self.hessian)
                t0 += time.perf_counter() - paused
        if config.engine == "rtn":
            codes = baseline.codes
            baseline.dequantize(bundle.weights)
        else:
            # the factor and the driver need only the baseline's scales
            baseline = None
            if config.engine == "obs_oracle":
                # factoring also refuses a matrix that is not positive
                # definite, which the oracle's explicit inverse would not
                self.factor
                damped = self.hessian.dampen(self.damp_ratio)
                codes = _run_oracle(bundle, damped, self.grid, self.scales, self.zero_points)
            else:
                codes = _run_blocked(bundle, self.factor, config, self.scales, self.zero_points)
            if once:
                del self.factor
            codes = codes.astype(np.int32, copy=False)
        quantized = QuantizedLayer(codes, self.scales, self.zero_points, config)
        wall = time.perf_counter() - t0
        quantized.extra["layer"] = layer_name

        loss_rtn = self.baseline_loss
        if config.engine == "rtn":
            loss = loss_rtn
        else:
            # every quantized column holds its dequantized value
            loss = proxy_loss(bundle.weights, self.original, self.hessian)
        if loss_rtn > 0:
            rtn_relative = loss / loss_rtn
        else:
            rtn_relative = 1.0 if loss == loss_rtn else float("inf")
        drift_max, drift_mean = _drift_stats(bundle)
        applied = config.applied()
        report = LayerReport(
            layer=layer_name,
            engine=config.engine,
            bits=self.grid.bits,
            group_size=quantized.group_size,
            beta=applied["beta"],
            block_size=applied["block_size"],
            proxy_loss=loss,
            rtn_relative=rtn_relative,
            wall_time_s=wall,
            drift_max=drift_max,
            drift_mean=drift_mean,
        )
        return quantized, report


def run_engine(
    bundle: LayerBundle,
    hessian: HessianState,
    config: EngineConfig,
    layer_name: str = "layer",
) -> tuple[QuantizedLayer, LayerReport]:
    """Quantize one layer, held in ``bundle``, with the configured engine.

    ``hessian`` must be the accumulated (undamped) state: damping is applied
    internally for factorization while the undamped matrix prices the proxy
    loss in the report. The layer is prepared from ``bundle.original``, and
    the bundle must be undrifted (weights equal to the originals); its
    latent weights are consumed in place, so a bundle runs once and ends
    holding the dequantized layer. The preparation serves this run only,
    so its factor is released as soon as the driver is done, before the
    run's loss is priced. To run several engines on one layer, prepare it
    once with ``PreparedLayer`` and ``run`` each config on it.
    """
    config.validate()
    prepared = PreparedLayer(bundle.original, hessian, config.grid(), config.damp_ratio)
    # the prepared original is finite, so this refuses a non-finite bundle
    if not _equal_by_rows(bundle.weights, bundle.original):
        raise NumericalError("engines expect an undrifted bundle (weights equal to original)")
    return prepared._run(bundle, config, layer_name, once=True)
