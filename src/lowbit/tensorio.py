"""On-disk tensor containers and quantized-layer artifacts.

Files use the safetensors layout: an 8-byte little-endian header length,
a JSON header mapping tensor names to dtype/shape/offsets (plus a free-form
``__metadata__`` string map), and the raw little-endian payloads back to
back. Files written here are readable by standard safetensors tooling and
vice versa for the supported element kinds (F32/F64/I32/I64).

A payload loads in its stored element kind: an F32 tensor is a float32
array. Computation is float64 throughout, so oracle tolerances hold; a
float32 operand widens exactly wherever float64 arithmetic reads it, so a
layer need not hold a float64 copy of its float32 weights. Writers sort
tensor names and header keys, which makes output bytes a pure function of
the content.

A quantized-layer artifact records its ``EngineConfig`` as ``x.config``, and
its grid and engine header keys are derived from it: load refuses an
artifact without ``x.config`` or with a key that disagrees with it.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TensorFormatError
from .quantizer import EngineConfig, QuantizedLayer

__all__ = [
    "TensorFile",
    "save_tensors",
    "save_quantized",
    "load_quantized",
]

_DTYPES = {
    "F64": np.dtype("<f8"),
    "F32": np.dtype("<f4"),
    "I64": np.dtype("<i8"),
    "I32": np.dtype("<i4"),
}
_DTYPE_NAMES = {np.dtype(k): v for v, k in (("F64", "float64"), ("F32", "float32"), ("I64", "int64"), ("I32", "int32"))}


@dataclass(frozen=True)
class TensorEntry:
    shape: tuple[int, ...]
    dtype_name: str
    begin: int
    end: int


class TensorFile:
    """Parsed view of one tensor container; payloads are read on demand.

    Instances are safe to share across reader threads: every load opens the
    file independently. Writing is not concurrent-safe per path.
    """

    def __init__(self, path: str, entries: dict[str, TensorEntry], metadata: dict[str, str], payload_offset: int, payload_size: int):
        self.path = path
        self.entries = entries
        self.metadata = metadata
        self._payload_offset = payload_offset
        self._payload_size = payload_size

    @classmethod
    def open(cls, path: str | os.PathLike) -> "TensorFile":
        path = os.fspath(path)
        with open(path, "rb") as fh:
            head = fh.read(8)
            if len(head) != 8:
                raise TensorFormatError(f"{path}: truncated header length")
            (header_len,) = struct.unpack("<Q", head)
            payload_size = os.fstat(fh.fileno()).st_size - 8 - header_len
            if payload_size < 0:
                raise TensorFormatError(f"{path}: header length exceeds file")
            raw = fh.read(header_len)
            if len(raw) != header_len:
                raise TensorFormatError(f"{path}: truncated header")
        try:
            header = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TensorFormatError(f"{path}: invalid JSON header: {exc}") from exc
        if not isinstance(header, dict):
            raise TensorFormatError(f"{path}: header must be a JSON object")
        metadata = header.pop("__metadata__", {}) or {}
        entries: dict[str, TensorEntry] = {}
        for name, info in header.items():
            try:
                dtype_name = info["dtype"]
                shape = tuple(int(s) for s in info["shape"])
                begin, end = (int(v) for v in info["data_offsets"])
            except (KeyError, TypeError, ValueError) as exc:
                raise TensorFormatError(f"{path}: malformed entry {name!r}") from exc
            if dtype_name not in _DTYPES:
                raise TensorFormatError(
                    f"{path}: tensor {name!r} has unsupported element kind {dtype_name!r}"
                )
            expected = math.prod(shape) * _DTYPES[dtype_name].itemsize
            if end - begin != expected:
                raise TensorFormatError(
                    f"{path}: tensor {name!r} declares shape {shape} ({expected} bytes) "
                    f"but payload spans {end - begin} bytes"
                )
            if begin < 0 or end > payload_size:
                raise TensorFormatError(f"{path}: tensor {name!r} offsets outside payload")
            entries[name] = TensorEntry(shape, dtype_name, begin, end)
        spans = sorted((e.begin, e.end, name) for name, e in entries.items() if e.end > e.begin)
        for (_, prev_end, prev), (begin, _, name) in zip(spans, spans[1:]):
            if begin < prev_end:
                raise TensorFormatError(f"{path}: tensors {prev!r} and {name!r} overlap in the payload")
        return cls(path, entries, dict(metadata), 8 + header_len, payload_size)

    @property
    def names(self) -> list[str]:
        return sorted(self.entries)

    def shape(self, name: str) -> tuple[int, ...]:
        return self._entry(name).shape

    def _entry(self, name: str) -> TensorEntry:
        try:
            return self.entries[name]
        except KeyError:
            raise TensorFormatError(f"{self.path}: no tensor named {name!r}") from None

    def load(self, name: str) -> np.ndarray:
        """Read one tensor into a new array.

        The payload is read straight into the returned array, of the
        entry's element kind (an F32 payload loads as float32, unwidened),
        so a load allocates nothing besides it. A payload shorter than its
        entry declares raises TensorFormatError.
        """
        entry = self._entry(name)
        return self._read(name, entry.begin, entry.shape)

    def load_rows(self, name: str, start: int, stop: int) -> np.ndarray:
        """Rows start .. stop - 1 (along the first axis) of a tensor of at
        least one dimension, read as ``load`` reads a whole tensor: only
        their bytes, which lie back to back in the payload, into an array
        of the entry's element kind."""
        entry = self._entry(name)
        if not entry.shape or not 0 <= start <= stop <= entry.shape[0]:
            raise TensorFormatError(
                f"{self.path}: rows {start}:{stop} outside tensor {name!r} of shape {entry.shape}"
            )
        row = math.prod(entry.shape[1:]) * _DTYPES[entry.dtype_name].itemsize
        return self._read(name, entry.begin + start * row, (stop - start, *entry.shape[1:]))

    def _read(self, name: str, begin: int, shape: tuple[int, ...]) -> np.ndarray:
        """The ``shape`` array of ``name``'s element kind whose bytes start at
        ``begin`` in the payload, read straight into it."""
        dtype_name = self.entries[name].dtype_name
        arr = np.empty(shape, dtype=_DTYPES[dtype_name])
        with open(self.path, "rb") as fh:
            fh.seek(self._payload_offset + begin)
            got = fh.readinto(arr.reshape(-1).view(np.uint8))
        if got != arr.nbytes:
            raise TensorFormatError(f"{self.path}: truncated payload for {name!r}")
        return arr


def save_tensors(
    path: str | os.PathLike,
    tensors: dict[str, np.ndarray],
    metadata: dict[str, str] | None = None,
) -> None:
    """Write a tensor container. Supported dtypes: float64/32, int64/32.

    Tensor names must be unique and non-empty; entries are laid out in
    sorted name order so identical content yields identical bytes. Each
    payload is written from its array, copied first only if the array is
    not C-contiguous or not little-endian.
    """
    header: dict[str, object] = {}
    arrays: list[np.ndarray] = []
    offset = 0
    for name in sorted(tensors):
        if not name or name == "__metadata__":
            raise TensorFormatError(f"invalid tensor name {name!r}")
        arr = np.ascontiguousarray(tensors[name])
        dtype_name = _DTYPE_NAMES.get(arr.dtype)
        if dtype_name is None:
            raise TensorFormatError(
                f"tensor {name!r} has unsupported dtype {arr.dtype}; "
                "expected float64, float32, int64, or int32"
            )
        arr = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        header[name] = {
            "dtype": dtype_name,
            "shape": list(arr.shape),
            "data_offsets": [offset, offset + arr.nbytes],
        }
        arrays.append(arr)
        offset += arr.nbytes
    if metadata:
        header["__metadata__"] = {str(k): str(v) for k, v in metadata.items()}
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(raw)))
        fh.write(raw)
        for arr in arrays:
            fh.write(arr.reshape(-1).view(np.uint8))


def _config_keys(config: EngineConfig, d_in: int) -> dict:
    """The header keys ``config`` fixes for a layer of ``d_in`` columns: its
    grid, with the group size resolved, and the engine values it applies."""
    grid = config.grid()
    group_size = grid.resolved_group_size(d_in)
    return dict(bits=grid.bits, group_size=group_size, symmetric=grid.symmetric, **config.applied())


def save_quantized(layer: QuantizedLayer, path: str | os.PathLike) -> None:
    """Persist a quantized layer; invariants are checked before any write.

    ``x.config`` is ``layer.config.to_dict()``, and the header's grid and
    engine keys are derived from it: ``bits``, the resolved ``group_size``,
    ``symmetric`` and what the config applies. Each ``extra`` entry is
    written as ``x.<key>``. Codes and zero points are stored as int32,
    scales as float64; an array already in its stored dtype (every
    engine's is) is written without a copy.
    """
    layer.validate()
    if "config" in layer.extra:
        raise TensorFormatError("extra key 'config' is reserved for the layer's EngineConfig")
    header = _config_keys(layer.config, layer.d_in)
    header.update((f"x.{key}", value) for key, value in layer.extra.items())
    header["x.config"] = layer.config.to_dict()
    save_tensors(
        path,
        {
            "codes": np.asarray(layer.codes, dtype=np.int32),
            "scales": np.asarray(layer.scales, dtype=np.float64),
            "zero_points": np.asarray(layer.zero_points, dtype=np.int32),
        },
        metadata={"format": "lowbit-quantized-v1", **{k: json.dumps(v) for k, v in header.items()}},
    )


def load_quantized(path: str | os.PathLike) -> QuantizedLayer:
    """Read back a quantized layer written by :func:`save_quantized`.

    ``config`` is rebuilt from ``x.config``, which every artifact must
    carry. Raises TensorFormatError when ``x.config`` is missing or not an
    object of exactly the config fields with valid values, or when any
    header key the config fixes (grid or engine) is not what it fixes.
    """
    tf = TensorFile.open(path)
    if tf.metadata.get("format") != "lowbit-quantized-v1":
        raise TensorFormatError(f"{tf.path}: not a lowbit quantized-layer file")
    try:
        header = {k: json.loads(v) for k, v in tf.metadata.items() if k != "format"}
        extra = {k[2:]: v for k, v in sorted(header.items()) if k.startswith("x.")}
        raw = extra.pop("config", None)
        if not isinstance(raw, dict) or set(raw) != set(EngineConfig.__dataclass_fields__):
            raise ConfigError(f"x.config {raw!r} is not an object of the config fields")
        config = EngineConfig.from_dict(raw)
    except (json.JSONDecodeError, ConfigError) as exc:
        raise TensorFormatError(f"{tf.path}: malformed metadata: {exc}") from None
    codes = tf.load("codes")
    if codes.ndim != 2:
        raise TensorFormatError(f"{tf.path}: codes must be 2-D, got shape {codes.shape}")
    fixed = _config_keys(config, codes.shape[1])
    recorded = {key: tf.metadata.get(key) for key in fixed}
    if recorded != {key: json.dumps(value) for key, value in fixed.items()}:
        raise TensorFormatError(f"{tf.path}: header keys {recorded} disagree with x.config {raw}")
    layer = QuantizedLayer(
        codes=codes,
        # float64, as a layer holds them, from an F32 entry too
        scales=tf.load("scales").astype(np.float64, copy=False),
        zero_points=tf.load("zero_points"),
        config=config,
        extra=extra,
    )
    layer.validate()
    return layer
