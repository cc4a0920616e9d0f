"""Uniform integer quantization grids with per-row, per-group scaling.

A grid maps real weights onto a small signed integer range. Scales (and
zero points, for asymmetric grids) are fitted per output row and per
contiguous group of input channels, and only by ``rtn_quantize``: the
baseline that rounds every element independently. The compensation
engines quantize column by column on its scales and zero points, with the
same rounding rule, and so does the reference steps' ``ScaleBook``; all of
them find a column's group through one map, ``_column_params``. A layer is
dequantized as a whole (``QuantizedLayer.dequantize``); a column's
dequantized values come from the same ``quantize_values`` call as its
codes.

Rounding is round-half-to-even throughout, so symmetric grids are exactly
sign-equivariant and long compensation chains pick up no rounding bias.

A ``QuantizedLayer`` records the ``EngineConfig`` that made it (a bare
``rtn_quantize`` the ``rtn`` engine's) and no second copy of its grid: the
bit width, group size and symmetry are the config's, ``config.grid()``.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ConfigError, NumericalError
from .linalg import _all_finite

__all__ = [
    "ENGINES",
    "FIRST_ORDER_SIGNS",
    "EngineConfig",
    "QuantGrid",
    "GroupScale",
    "QuantizedLayer",
    "fit_scales",
    "quantize_values",
    "rtn_quantize",
]


ENGINES = ("rtn", "obs_oracle", "gptq", "foem")
FIRST_ORDER_SIGNS = ("minus", "plus")


@dataclass(frozen=True)
class QuantGrid:
    """Integer code range for a given bit width.

    ``group_size=None`` means one scale group per row (the whole row shares
    a scale). Symmetric grids use the balanced range [-(2^(b-1)-1), 2^(b-1)-1]
    so that code 0 represents 0.0 exactly and negation maps codes to their
    negatives; asymmetric grids use [0, 2^b - 1] with a zero point.
    """

    bits: int
    group_size: int | None = None
    symmetric: bool = True

    def __post_init__(self):
        if not 2 <= self.bits <= 8:
            raise ValueError(f"bits must be in [2, 8], got {self.bits}")
        if self.group_size is not None and self.group_size < 1:
            raise ValueError(f"group_size must be >= 1 or None, got {self.group_size}")

    @property
    def q_min(self) -> int:
        return -(2 ** (self.bits - 1) - 1) if self.symmetric else 0

    @property
    def q_max(self) -> int:
        return 2 ** (self.bits - 1) - 1 if self.symmetric else 2**self.bits - 1

    def resolved_group_size(self, d_in: int) -> int:
        """Width of a scale group on ``d_in`` input columns (at least 1)."""
        return max(1, d_in) if self.group_size is None else self.group_size

    def n_groups(self, d_in: int) -> int:
        if d_in == 0:
            return 0
        return math.ceil(d_in / self.resolved_group_size(d_in))


def _is_number(value, kind) -> bool:
    """JSON number check: a bool is not one."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class EngineConfig:
    """Everything an engine run depends on besides the data itself.

    ``beta`` scales latent drift into gradient space for the first-order
    engines; ``block_size`` is the width of the lazy in-block batch before
    the batched boundary update fires, and so also the reach of foem's
    first-order term. Scale groups are always fitted from the original
    weights, so no field chooses their source. Fields that do not apply to
    the selected engine are ignored; ``applied`` gives the values a run
    actually uses.
    """

    engine: str = "gptq"
    bits: int = 4
    group_size: int | None = 128
    symmetric: bool = True
    block_size: int = 128
    beta: float = 3e-4
    damp_ratio: float = 0.01
    first_order_sign: str = "minus"

    def __post_init__(self):
        # a numpy scalar is held as the builtin of its kind, which JSON
        # writes (a float through ``float``: ``item`` returns a long double
        # as it is); every other value is kept as given
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, np.generic):
                builtin = float(value) if isinstance(value, np.floating) else value.item()
                object.__setattr__(self, name, builtin)

    def validate(self) -> None:
        """Raise ConfigError unless every field has its JSON type (a bool is
        no number, and ``group_size`` may be None) and a value in range."""
        # a name that is not a string fails its membership test
        if self.engine not in ENGINES:
            raise ConfigError(f"unknown engine {self.engine!r}; expected one of {ENGINES}")
        if not _is_number(self.bits, numbers.Integral) or not 2 <= self.bits <= 8:
            raise ConfigError(f"bits must be an integer in [2, 8], got {self.bits!r}")
        gs = self.group_size
        if gs is not None and (not _is_number(gs, numbers.Integral) or gs < 1):
            raise ConfigError(f"group_size must be an integer >= 1 or None, got {gs!r}")
        if not isinstance(self.symmetric, bool):
            raise ConfigError(f"symmetric must be a bool, got {self.symmetric!r}")
        if not _is_number(self.block_size, numbers.Integral) or self.block_size < 1:
            raise ConfigError(f"block_size must be an integer >= 1, got {self.block_size!r}")
        # written so that NaN fails too, and an int too large for a float
        if not _is_number(self.beta, numbers.Real) or not 0 <= self.beta <= sys.float_info.max:
            raise ConfigError(f"beta must be finite and non-negative, got {self.beta!r}")
        if not _is_number(self.damp_ratio, numbers.Real) or not 0 <= self.damp_ratio <= sys.float_info.max:
            raise ConfigError(f"damp_ratio must be finite and non-negative, got {self.damp_ratio!r}")
        if self.first_order_sign not in FIRST_ORDER_SIGNS:
            raise ConfigError(
                f"first_order_sign must be one of {FIRST_ORDER_SIGNS}, "
                f"got {self.first_order_sign!r}"
            )

    def grid(self) -> QuantGrid:
        return QuantGrid(self.bits, self.group_size, self.symmetric)

    def sign_factor(self) -> float:
        return -1.0 if self.first_order_sign == "minus" else 1.0

    def applied(self) -> dict:
        """The engine values a run with this config applies, 0 where it
        applies none: beta only for foem, a block size only for gptq and
        foem, and no damping for rtn."""
        return {
            "engine": self.engine,
            "beta": self.beta if self.engine == "foem" else 0.0,
            "damp_ratio": self.damp_ratio if self.engine != "rtn" else 0.0,
            "block_size": self.block_size if self.engine in ("gptq", "foem") else 0,
            "first_order_sign": self.first_order_sign,
        }

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        """The validated config of ``data``, whose keys must all be config
        fields; ``beta`` and ``damp_ratio`` are recorded as floats."""
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config fields {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return replace(cfg, beta=float(cfg.beta), damp_ratio=float(cfg.damp_ratio))


@dataclass
class GroupScale:
    """Fitted scale (always > 0) and integer zero point for one or more groups.

    Arrays broadcast against the values being quantized; fitting a 1-D group
    yields 0-d arrays, fitting a (rows x width) slab yields per-row entries.
    """

    scale: np.ndarray
    zero_point: np.ndarray


def fit_scales(values: np.ndarray, grid: QuantGrid) -> GroupScale:
    """Fit scale/zero-point over the last axis of ``values``.

    Symmetric: scale = max(|w|) / q_max. Asymmetric: scale spans the value
    range and zero_point = round(-min / scale). Groups whose computed scale
    is zero (all-zero or constant) fall back to scale 1 so the function is
    total and scales stay strictly positive. Zero points are int32; one
    past the int32 range raises NumericalError instead of wrapping.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] == 0:
        raise ValueError("cannot fit scales on an empty group")
    if grid.symmetric:
        scale = np.abs(values).max(axis=-1) / grid.q_max
        scale = np.where(scale == 0.0, 1.0, scale)
        zero_point = np.zeros_like(scale, dtype=np.int32)
    else:
        lo = values.min(axis=-1)
        hi = values.max(axis=-1)
        scale = (hi - lo) / (grid.q_max - grid.q_min)
        scale = np.where(scale == 0.0, 1.0, scale)
        zero_point = np.round(-lo / scale)
        if np.any(np.abs(zero_point) > np.iinfo(np.int32).max):
            raise NumericalError(f"zero point {np.abs(zero_point).max():.6g} does not fit int32")
        zero_point = zero_point.astype(np.int32)
    return GroupScale(scale=np.asarray(scale, dtype=np.float64), zero_point=zero_point)


def quantize_values(
    values: np.ndarray, gs: GroupScale, grid: QuantGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Quantize values elementwise: returns (int32 codes, dequantized values).

    ``gs.scale`` must broadcast against ``values``. Each value is divided by
    its scale, rounded half to even, offset by the zero point and clamped to
    the grid range; dequantization is (code - zero_point) * scale, exact
    given the stored codes and scales. The steps run in place on the
    buffer that is returned as the dequantized values.
    """
    # a 0-d quotient is a scalar, which the in-place steps cannot write
    q = np.asarray(np.divide(values, gs.scale, dtype=np.float64))
    np.rint(q, out=q)
    q += gs.zero_point
    np.maximum(q, grid.q_min, out=q)
    np.minimum(q, grid.q_max, out=q)
    codes = q.astype(np.int32)
    q -= gs.zero_point
    q *= gs.scale
    return (codes[()], q[()]) if q.ndim == 0 else (codes, q)


@dataclass
class QuantizedLayer:
    """One quantized weight matrix: codes plus per-(row, group) scaling.

    ``codes`` is (d_out x d_in) int32, ``scales`` (d_out x n_groups) float64,
    ``zero_points`` (d_out x n_groups) int32 (all zero for symmetric grids).
    ``config`` is the one record of how the layer was quantized, its grid
    included (``config.grid()``); ``extra`` holds free-form metadata.
    """

    codes: np.ndarray
    scales: np.ndarray
    zero_points: np.ndarray
    config: EngineConfig
    extra: dict = field(default_factory=dict)

    @property
    def d_out(self) -> int:
        return self.codes.shape[0]

    @property
    def d_in(self) -> int:
        return self.codes.shape[1]

    @property
    def n_groups(self) -> int:
        return self.scales.shape[1]

    @property
    def group_size(self) -> int:
        """Width of the layer's scale groups, resolved against ``d_in``."""
        return self.config.grid().resolved_group_size(self.d_in)

    def validate(self) -> None:
        """Check internal consistency; raises NumericalError on violation."""
        grid = self.config.grid()
        d_out, d_in = self.codes.shape
        expected_groups = grid.n_groups(d_in)
        if self.scales.shape != (d_out, expected_groups):
            raise NumericalError(
                f"scales shape {self.scales.shape} does not match "
                f"(d_out={d_out}, n_groups={expected_groups})"
            )
        if self.zero_points.shape != self.scales.shape:
            raise NumericalError("zero_points shape must match scales shape")
        if self.codes.size and (
            self.codes.min() < grid.q_min or self.codes.max() > grid.q_max
        ):
            raise NumericalError(
                f"codes outside grid range [{grid.q_min}, {grid.q_max}] "
                f"for {grid.bits}-bit {'symmetric' if grid.symmetric else 'asymmetric'} grid"
            )
        if self.scales.size and not (self.scales > 0).all():
            raise NumericalError("all scales must be strictly positive")
        if grid.symmetric and self.zero_points.size and np.any(self.zero_points != 0):
            raise NumericalError("symmetric layers must have all-zero zero_points")

    @property
    def shape(self) -> tuple[int, int]:
        """(d_out, d_in), the shape of the weight matrix it stands for."""
        return self.codes.shape

    def dequantize(self, out: np.ndarray | None = None) -> np.ndarray:
        """Reconstruct the real-valued weight matrix from codes and scales,
        into ``out`` (float64, the layer's shape) if it is given."""
        return self.dequantize_rows(slice(None), np.empty(self.codes.shape) if out is None else out)

    def dequantize_rows(self, rows: slice, out: np.ndarray) -> np.ndarray:
        """Write the dequantized ``rows`` of the weight matrix into ``out``
        (float64, their shape) and return it.

        Each element is (code - zero point) * scale of its group, computed
        in float64 with no per-element copy of the scales: the whole groups
        broadcast over a (rows, n_groups, group) view of ``out``, and a
        ragged last group is done apart.
        """
        codes, zero_points, scales = self.codes[rows], self.zero_points[rows], self.scales[rows]
        d_out, d_in = codes.shape
        gs = self.group_size
        n = d_in // gs
        whole = n * gs
        # splitting the contiguous column axis keeps ``dst`` a view of ``out``
        dst = out[:, :whole].reshape(d_out, n, gs)
        np.subtract(codes[:, :whole].reshape(d_out, n, gs), zero_points[:, :n, None], out=dst, dtype=np.float64)
        dst *= scales[:, :n, None]
        if whole < d_in:
            dst = out[:, whole:]
            np.subtract(codes[:, whole:], zero_points[:, n:], out=dst, dtype=np.float64)
            dst *= scales[:, n:]
        return out


def _column_params(
    scales: np.ndarray, zero_points: np.ndarray, grid: QuantGrid, d_in: int
) -> list[GroupScale]:
    """Each of ``d_in`` columns' group scales and zero points, from a
    layer's (d_out x n_groups) ``scales`` and ``zero_points`` on ``grid``,
    as contiguous (d_out,) rows; the zero points as exact float64, never
    cast. The one map from a column to its scale group: the engines'
    drivers and ``ScaleBook`` quantize every column on it, and need no
    codes for it."""
    groups = list(map(GroupScale, scales.T.copy(), zero_points.T.astype(np.float64, order="C")))
    group_size = grid.resolved_group_size(d_in)
    return [groups[j // group_size] for j in range(d_in)]


class ScaleBook:
    """The codes a reference column step writes, quantized on the RTN
    baseline's scales: at first use ``quantize`` sets ``baseline`` to
    ``rtn_quantize`` of the weights handed in, and every column is
    quantized on that baseline's group scales and zero points, mapped to
    columns as the engines map them. The reference steps hand in the
    originals, so their books quantize on the baseline the engines share;
    later sources are ignored. ``codes`` is (d_out x d_in) int32. The
    engines keep no book.
    """

    def __init__(self, grid: QuantGrid, d_out: int, d_in: int):
        self.grid = grid
        self.codes = np.zeros((d_out, d_in), dtype=np.int32)
        self.baseline: QuantizedLayer | None = None
        self._params: list[GroupScale] = []

    def quantize(self, col: int, values: np.ndarray, source: np.ndarray) -> np.ndarray:
        """Quantize column ``col`` from ``values`` on the baseline of
        ``source``, made at first use; stores the codes, returns the
        dequantized values."""
        if self.baseline is None:
            self.baseline = base = rtn_quantize(source, self.grid)
            self._params = _column_params(base.scales, base.zero_points, self.grid, base.d_in)
        self.codes[:, col], deq = quantize_values(values, self._params[col], self.grid)
        return deq


def rtn_quantize(weights: np.ndarray, grid: QuantGrid) -> QuantizedLayer:
    """Round-to-nearest baseline: independent per-element quantization.

    No cross-column compensation; each (row, group) is fitted and rounded
    in one pass over the groups, one ``fit_scales`` and one
    ``quantize_values`` call per group. This is the only place a layer's
    scales are fitted. Rejects non-finite weights. The layer's config is
    the ``rtn`` engine's on ``grid``, its other fields at their defaults.

    The weights are read at their own precision and widened to float64
    one group at a time (exactly, for float32), so a float32 layer is never
    copied whole into float64 and quantizes as its float64 widening does.
    """
    weights = np.asarray(weights)
    if weights.ndim != 2:
        raise ValueError("weights must be a 2-D matrix")
    if not _all_finite(weights):
        raise NumericalError("weights contain non-finite values")
    d_out, d_in = weights.shape
    size = grid.resolved_group_size(d_in)
    codes = np.empty((d_out, d_in), dtype=np.int32)
    scales = np.empty((d_out, grid.n_groups(d_in)), dtype=np.float64)
    zero_points = np.empty(scales.shape, dtype=np.int32)
    for g, lo in enumerate(range(0, d_in, size)):
        cols = slice(lo, lo + size)
        group = weights[:, cols].astype(np.float64, copy=False)
        gs = fit_scales(group, grid)
        scales[:, g], zero_points[:, g] = gs.scale, gs.zero_point
        gs = GroupScale(gs.scale[:, None], gs.zero_point[:, None])
        codes[:, cols], _ = quantize_values(group, gs, grid)
    return QuantizedLayer(codes, scales, zero_points, EngineConfig(engine="rtn", **asdict(grid)))
