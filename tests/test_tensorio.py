import json
import re
import struct

import numpy as np
import pytest

from conftest import token_hessian, traced_peak
from lowbit.engines import EngineConfig, LayerBundle, run_engine
from lowbit.errors import NumericalError, TensorFormatError
from lowbit.quantizer import QuantGrid, QuantizedLayer, rtn_quantize
from lowbit.tensorio import (
    TensorFile,
    load_quantized,
    save_quantized,
    save_tensors,
)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "dtype", [np.float64, np.float32, np.int64, np.int32]
    )
    def test_values_and_shapes_survive(self, tmp_path, rng, dtype):
        path = tmp_path / "t.safetensors"
        if np.issubdtype(dtype, np.floating):
            arr = rng.standard_normal((3, 5)).astype(dtype)
        else:
            arr = rng.integers(-100, 100, size=(3, 5)).astype(dtype)
        save_tensors(path, {"w": arr})
        out = TensorFile.open(path).load("w")
        assert out.shape == arr.shape
        assert np.array_equal(out, arr.astype(out.dtype))

    def test_float32_loads_as_float32(self, tmp_path, rng):
        # no widening on load: the engines widen float32 exactly where they
        # compute, so the loader keeps the stored bits and half the bytes
        path = tmp_path / "t.safetensors"
        arr = rng.standard_normal((4, 4)).astype(np.float32)
        save_tensors(path, {"w": arr})
        tf = TensorFile.open(path)
        for got, want in [(tf.load("w"), arr), (tf.load_rows("w", 1, 3), arr[1:3])]:
            assert got.dtype == np.float32
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_two_by_two_named_values(self, tmp_path):
        path = tmp_path / "t.safetensors"
        arr = np.array([[1.5, -2.0], [0.25, 8.0]])
        save_tensors(path, {"layer.weight": arr})
        assert np.array_equal(TensorFile.open(path).load("layer.weight"), arr)

    def test_metadata_round_trip(self, tmp_path):
        path = tmp_path / "t.safetensors"
        save_tensors(path, {"w": np.zeros(2)}, metadata={"foo": "bar", "n": "3"})
        assert TensorFile.open(path).metadata == {"foo": "bar", "n": "3"}

    def test_output_bytes_deterministic(self, tmp_path, rng):
        a = rng.standard_normal((2, 3))
        b = rng.integers(0, 5, size=(4,)).astype(np.int32)
        p1, p2 = tmp_path / "a.st", tmp_path / "b.st"
        save_tensors(p1, {"x": a, "y": b}, metadata={"k": "v"})
        save_tensors(p2, {"y": b, "x": a}, metadata={"k": "v"})
        assert p1.read_bytes() == p2.read_bytes()


class TestLoadMemory:
    def test_f64_load_reads_into_its_result(self, tmp_path, rng):
        arr = rng.standard_normal((512, 512))
        path = tmp_path / "t.safetensors"
        save_tensors(path, {"w": arr})
        tf = TensorFile.open(path)
        out, peak = traced_peak(lambda: tf.load("w"))
        assert np.array_equal(out, arr) and out.flags.writeable
        assert peak <= 1.1 * arr.nbytes

    def test_f32_load_reads_into_its_result(self, tmp_path, rng):
        arr = rng.standard_normal((512, 512)).astype(np.float32)
        path = tmp_path / "t.safetensors"
        save_tensors(path, {"w": arr})
        tf = TensorFile.open(path)
        out, peak = traced_peak(lambda: tf.load("w"))
        assert out.dtype == np.float32 and np.array_equal(out, arr)
        assert peak <= 1.1 * arr.nbytes


    @pytest.mark.parametrize("dtype", ["<f8", "<f4", "<i8", "<i4"])
    def test_load_rows_reads_a_row_range(self, tmp_path, rng, dtype):
        arr = (100 * rng.standard_normal((7, 3, 2))).astype(dtype)
        path = tmp_path / "t.safetensors"
        save_tensors(path, {"a": np.zeros(5), "w": arr})
        tf = TensorFile.open(path)
        for start, stop in [(0, 7), (2, 5), (6, 7), (4, 4)]:
            rows = tf.load_rows("w", start, stop)
            assert rows.dtype == tf.load("w").dtype
            assert np.array_equal(rows, tf.load("w")[start:stop])
        for start, stop in [(-1, 2), (3, 2), (0, 8)]:
            with pytest.raises(TensorFormatError, match="outside"):
                tf.load_rows("w", start, stop)

    def test_load_rows_of_a_truncated_payload(self, tmp_path, rng):
        # the rows before the cut still read; the last one is refused
        arr = rng.standard_normal((4, 4))
        path = tmp_path / "t.safetensors"
        save_tensors(path, {"w": arr})
        tf = TensorFile.open(path)
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size - 8)
        assert np.array_equal(tf.load_rows("w", 0, 3), arr[:3])
        with pytest.raises(TensorFormatError, match="truncated payload"):
            tf.load_rows("w", 2, 4)


class TestSaveFromArrays:
    def test_bytes_are_the_header_and_each_little_endian_payload(self, tmp_path, rng):
        # Fortran-ordered, strided and 0-d tensors are stored as they
        # always were: in C order, and a 0-d one as shape [1]
        tensors = {
            "b": np.asfortranarray(rng.standard_normal((3, 4))),
            "c": rng.integers(-9, 9, size=(4, 6)).astype(np.int32)[:, ::2],
            "a": np.array(2.5, dtype=np.float32),
            "d": np.zeros((0, 3), dtype=np.int64),
        }
        header, payload = {}, b""
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name])
            blob = arr.astype(arr.dtype.newbyteorder("<")).tobytes()
            kind = {"f": "F", "i": "I"}[arr.dtype.kind] + str(8 * arr.dtype.itemsize)
            header[name] = {"dtype": kind, "shape": list(arr.shape),
                            "data_offsets": [len(payload), len(payload) + len(blob)]}
            payload += blob
        header["__metadata__"] = {"k": "v"}
        raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path = tmp_path / "t.safetensors"
        save_tensors(path, tensors, metadata={"k": "v"})
        assert path.read_bytes() == struct.pack("<Q", len(raw)) + raw + payload

    def test_big_endian_arrays_write_their_little_endian_bytes(self, tmp_path, rng):
        little = {
            "f64": rng.standard_normal((3, 4)),
            "f32": rng.standard_normal(5).astype(np.float32),
            "i64": rng.integers(-9, 9, size=(2, 3)),
            "i32": rng.integers(-9, 9, size=4).astype(np.int32),
        }
        big = {name: arr.astype(arr.dtype.newbyteorder(">")) for name, arr in little.items()}
        save_tensors(tmp_path / "little.st", little, metadata={"k": "v"})
        save_tensors(tmp_path / "big.st", big, metadata={"k": "v"})
        assert (tmp_path / "big.st").read_bytes() == (tmp_path / "little.st").read_bytes()

    def test_save_makes_no_copy_of_a_contiguous_array(self, tmp_path, rng):
        arr = rng.standard_normal((1024, 1024))
        arr.flags.writeable = False  # as a Hessian state's matrix is
        path = tmp_path / "t.safetensors"
        _, peak = traced_peak(lambda: save_tensors(path, {"hessian": arr}, metadata={"k": "v"}))
        assert peak <= 0.01 * arr.nbytes
        assert np.array_equal(TensorFile.open(path).load("hessian"), arr)


def _write_f64_spans(path, offsets):
    """Container of F64 vectors at the given payload byte spans, 32 zero bytes long."""
    header = json.dumps(
        {
            name: {"dtype": "F64", "shape": [(end - begin) // 8], "data_offsets": [begin, end]}
            for name, (begin, end) in offsets.items()
        }
    ).encode()
    path.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 32)
    return path


class TestErrors:
    def test_missing_name(self, tmp_path):
        path = tmp_path / "t.safetensors"
        save_tensors(path, {"w": np.zeros(2)})
        with pytest.raises(TensorFormatError, match="qkv"):
            TensorFile.open(path).load("qkv")

    def test_shape_payload_mismatch(self, tmp_path):
        # header declares 3x5 float64 (120 bytes) but carries only 60
        path = tmp_path / "bad.safetensors"
        header = json.dumps(
            {"w": {"dtype": "F64", "shape": [3, 5], "data_offsets": [0, 60]}}
        ).encode()
        path.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 60)
        with pytest.raises(TensorFormatError, match="120 bytes"):
            TensorFile.open(path)

    def test_unsupported_element_kind_in_file(self, tmp_path):
        path = tmp_path / "bad.safetensors"
        header = json.dumps(
            {"w": {"dtype": "F16", "shape": [2], "data_offsets": [0, 4]}}
        ).encode()
        path.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 4)
        with pytest.raises(TensorFormatError, match="F16"):
            TensorFile.open(path)

    def test_unsupported_dtype_on_save(self, tmp_path):
        with pytest.raises(TensorFormatError, match="float16"):
            save_tensors(tmp_path / "t.st", {"w": np.zeros(2, dtype=np.float16)})

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.safetensors"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(TensorFormatError, match="truncated"):
            TensorFile.open(path)

    def test_payload_truncated_after_open(self, tmp_path, rng):
        path = tmp_path / "t.safetensors"
        save_tensors(path, {"w": rng.standard_normal((4, 4))})
        tf = TensorFile.open(path)
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size - 8)
        with pytest.raises(TensorFormatError, match="truncated payload"):
            tf.load("w")

    @pytest.mark.parametrize("excess", ["max", "file_size_plus_one", "one_past_end"])
    def test_header_length_exceeding_file(self, tmp_path, excess):
        path = tmp_path / "t.safetensors"
        body = json.dumps({}).encode() + b"\x00" * 16
        size = 8 + len(body)
        header_len = {"max": 2**64 - 1, "file_size_plus_one": size + 1, "one_past_end": len(body) + 1}
        path.write_bytes(struct.pack("<Q", header_len[excess]) + body)
        with pytest.raises(TensorFormatError, match="header length exceeds file"):
            TensorFile.open(path)

    @pytest.mark.parametrize(
        "offsets",
        [[(0, 16), (8, 24)], [(8, 24), (0, 16)], [(0, 32), (8, 24)], [(0, 16), (0, 16)]],
    )
    def test_overlapping_data_offsets(self, tmp_path, offsets):
        path = _write_f64_spans(tmp_path / "t.safetensors", dict(zip("ab", offsets)))
        with pytest.raises(TensorFormatError, match="overlap"):
            TensorFile.open(path)

    def test_adjacent_and_empty_entries_accepted(self, tmp_path):
        path = _write_f64_spans(tmp_path / "t.safetensors", {"a": (0, 16), "b": (16, 32), "e": (8, 8)})
        assert TensorFile.open(path).names == ["a", "b", "e"]

    def test_reserved_name_rejected(self, tmp_path):
        with pytest.raises(TensorFormatError):
            save_tensors(tmp_path / "t.st", {"__metadata__": np.zeros(1)})


class TestSafetensorsInterop:
    def test_library_reads_our_files(self, tmp_path, rng):
        st = pytest.importorskip("safetensors.numpy")
        path = tmp_path / "ours.safetensors"
        tensors = {
            "a": rng.standard_normal((3, 2)),
            "b": rng.integers(0, 9, size=(4,)).astype(np.int32),
        }
        save_tensors(path, tensors, metadata={"k": "v"})
        theirs = st.load_file(path)
        for name, arr in tensors.items():
            assert np.array_equal(theirs[name], arr)

    def test_we_read_library_files(self, tmp_path, rng):
        st = pytest.importorskip("safetensors.numpy")
        path = tmp_path / "theirs.safetensors"
        arr = rng.standard_normal((2, 6))
        st.save_file({"w": arr}, str(path))
        assert np.array_equal(TensorFile.open(path).load("w"), arr)


class TestQuantizedArtifacts:
    def _layer(self, rng):
        return rtn_quantize(
            rng.standard_normal((4, 8)),
            QuantGrid(4, 4),
        )

    def test_round_trip_bit_exact(self, tmp_path, rng):
        layer = self._layer(rng)
        layer.extra["layer"] = "proj"
        path = tmp_path / "q.safetensors"
        save_quantized(layer, path)
        back = load_quantized(path)
        assert np.array_equal(back.codes, layer.codes)
        assert np.array_equal(back.scales, layer.scales)
        assert np.array_equal(back.zero_points, layer.zero_points)
        assert back.config == layer.config
        assert back.extra["layer"] == "proj"

    def test_f32_scales_load_as_float64(self, tmp_path, rng):
        # an artifact whose scales another writer stored as F32 loads with
        # the float64 scales a layer holds, as before the loader kept F32
        layer = self._layer(rng)
        layer.scales = layer.scales.astype(np.float32).astype(np.float64)
        path = tmp_path / "q.safetensors"
        save_quantized(layer, path)
        tf = TensorFile.open(path)
        tensors = {name: tf.load(name) for name in tf.names}
        save_tensors(path, dict(tensors, scales=tensors["scales"].astype(np.float32)), tf.metadata)
        back = load_quantized(path)
        assert back.scales.dtype == np.float64 and np.array_equal(back.scales, layer.scales)

    def test_dequantized_reconstruction_identical(self, tmp_path, rng):
        layer = self._layer(rng)
        path = tmp_path / "q.safetensors"
        save_quantized(layer, path)
        reloaded = load_quantized(path)
        assert np.array_equal(reloaded.dequantize(), layer.dequantize())
        assert np.abs(reloaded.dequantize() - layer.dequantize()).max() == 0.0

    def test_out_of_range_code_refused_before_write(self, tmp_path):
        grid = QuantGrid(4, 4)
        layer = QuantizedLayer(
            codes=np.full((2, 4), 9, dtype=np.int32),
            scales=np.ones((2, 1)),
            zero_points=np.zeros((2, 1), dtype=np.int32),
            config=EngineConfig(engine="rtn", bits=4, group_size=4),
        )
        path = tmp_path / "q.safetensors"
        with pytest.raises(NumericalError):
            save_quantized(layer, path)
        assert not path.exists()

    def test_zero_row_layer(self, tmp_path):
        layer = rtn_quantize(np.zeros((0, 8)), QuantGrid(4, 4))
        path = tmp_path / "empty.safetensors"
        save_quantized(layer, path)
        back = load_quantized(path)
        assert back.codes.shape == (0, 8)
        assert back.scales.shape == (0, 2)

    def test_wrong_format_flag_rejected(self, tmp_path):
        path = tmp_path / "w.safetensors"
        save_tensors(path, {"codes": np.zeros((1, 1), dtype=np.int32)})
        with pytest.raises(TensorFormatError, match="quantized-layer"):
            load_quantized(path)


def _engine_artifact(tmp_path, rng, **token):
    config = EngineConfig(bits=3, group_size=4, block_size=3, beta=5e-4, damp_ratio=0.02, **token)
    layer, _ = run_engine(LayerBundle(rng.standard_normal((5, 8))), token_hessian(8, 32), config, "fc")
    path = tmp_path / "q.safetensors"
    save_quantized(layer, path)
    return path, config


def _rewrite_metadata(path, **changes):
    """Rewrite a quantized artifact with some header values replaced."""
    tf = TensorFile.open(path)
    tensors = {name: tf.load(name) for name in tf.names}
    save_tensors(path, tensors, metadata=dict(tf.metadata, **changes))


class TestArtifactHeader:
    FIXED = {"format": "lowbit-quantized-v1", "bits": "3", "group_size": "4", "symmetric": "true"}

    @pytest.mark.parametrize(
        "token, header",
        [
            (dict(engine="rtn"), ('"rtn"', "0.0", "0.0", "0", '"minus"')),
            (dict(engine="obs_oracle"), ('"obs_oracle"', "0.0", "0.02", "0", '"minus"')),
            (dict(engine="gptq"), ('"gptq"', "0.0", "0.02", "3", '"minus"')),
            (dict(engine="foem"), ('"foem"', "0.0005", "0.02", "3", '"minus"')),
            (dict(engine="foem", first_order_sign="plus"), ('"foem"', "0.0005", "0.02", "3", '"plus"')),
        ],
    )
    def test_engine_keys_pinned(self, tmp_path, rng, token, header):
        path, config = _engine_artifact(tmp_path, rng, **token)
        meta = TensorFile.open(path).metadata
        keys = ("engine", "beta", "damp_ratio", "block_size", "first_order_sign")
        assert {k: v for k, v in meta.items() if not k.startswith("x.")} == dict(self.FIXED, **dict(zip(keys, header)))
        assert json.loads(meta["x.config"]) == config.to_dict()
        assert json.loads(meta["x.layer"]) == "fc"
        assert load_quantized(path).config == config

    def test_bare_rtn_header(self, tmp_path, rng):
        path = tmp_path / "q.safetensors"
        save_quantized(rtn_quantize(rng.standard_normal((2, 8)), QuantGrid(3, 4)), path)
        assert TensorFile.open(path).metadata == dict(
            self.FIXED, engine='"rtn"', beta="0.0", damp_ratio="0.0", block_size="0",
            first_order_sign='"minus"',
            **{"x.config": json.dumps(EngineConfig(engine="rtn", bits=3, group_size=4).to_dict())},
        )

    @pytest.mark.parametrize(
        "changes",
        [
            {"engine": '"gptq"'},
            {"beta": "0.0"},
            {"block_size": "4"},
            {"x.config": "{not json"},
            {"x.config": "[1, 2]"},
            {"x.config": json.dumps(dict(EngineConfig().to_dict(), bits="3"))},
            {"x.config": json.dumps({"engine": "foem"})},
            {"bits": "4"},
            {"group_size": "8"},
            {"symmetric": "false"},
        ],
    )
    def test_inconsistent_or_malformed_header_refused(self, tmp_path, rng, changes):
        path, _ = _engine_artifact(tmp_path, rng, engine="foem")
        _rewrite_metadata(path, **changes)
        with pytest.raises(TensorFormatError):
            load_quantized(path)

    def test_artifact_without_config_refused(self, tmp_path, rng):
        path, _ = _engine_artifact(tmp_path, rng, engine="gptq")
        tf = TensorFile.open(path)
        metadata = {k: v for k, v in tf.metadata.items() if k != "x.config"}
        save_tensors(path, {name: tf.load(name) for name in tf.names}, metadata=metadata)
        with pytest.raises(TensorFormatError, match="x.config"):
            load_quantized(path)

    def test_codes_not_2d_refused(self, tmp_path, rng):
        path, _ = _engine_artifact(tmp_path, rng, engine="gptq")
        tf = TensorFile.open(path)
        tensors = {name: tf.load(name) for name in tf.names}
        save_tensors(path, dict(tensors, codes=tensors["codes"].ravel()), metadata=tf.metadata)
        with pytest.raises(TensorFormatError, match="2-D"):
            load_quantized(path)

    def test_config_with_scale_source_refused(self, tmp_path, rng):
        # artifacts written while the config had a scale_source field
        path, config = _engine_artifact(tmp_path, rng, engine="foem")
        _rewrite_metadata(path, **{"x.config": json.dumps(dict(config.to_dict(), scale_source="latent"))})
        with pytest.raises(TensorFormatError, match="config fields"):
            load_quantized(path)

    def test_extra_config_key_reserved(self, tmp_path, rng):
        layer = rtn_quantize(rng.standard_normal((2, 8)), QuantGrid(3, 4))
        layer.extra["config"] = {}
        with pytest.raises(TensorFormatError, match="reserved"):
            save_quantized(layer, tmp_path / "q.safetensors")


def _rewrite_tensors(path, **changes):
    """Rewrite a quantized artifact with some tensors replaced."""
    tf = TensorFile.open(path)
    tensors = {name: tf.load(name) for name in tf.names}
    save_tensors(path, dict(tensors, **changes), metadata=tf.metadata)


class TestArtifactPayloads:
    """A malformed artifact is a format error, found before its payload is
    read where the header shows it."""

    @pytest.mark.parametrize(
        "name, stored",
        [
            # off the grid once dequantized, at the parent
            ("codes", lambda a: np.where(a == a.flat[0], 1.5, a).astype(np.float64)),
            ("codes", lambda a: a.astype(np.int64)),
            ("zero_points", lambda a: a.astype(np.float64)),
            ("zero_points", lambda a: a.astype(np.int64)),
            ("scales", lambda a: np.ones(a.shape, dtype=np.int64)),
        ],
        ids=["codes-F64", "codes-I64", "zero_points-F64", "zero_points-I64", "scales-I64"],
    )
    def test_entry_of_wrong_element_kind_refused_before_any_payload(
        self, tmp_path, rng, monkeypatch, name, stored
    ):
        path, _ = _engine_artifact(tmp_path, rng, engine="gptq", symmetric=False)
        _rewrite_tensors(path, **{name: stored(TensorFile.open(path).load(name))})
        loads = []
        real_load = TensorFile.load
        monkeypatch.setattr(TensorFile, "load", lambda tf, n: loads.append(n) or real_load(tf, n))
        with pytest.raises(TensorFormatError, match=re.escape(f"{path}: '{name}' is stored as")):
            load_quantized(path)
        assert loads == []

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(scales=np.ones(5)), "scales shape"),
            (dict(codes=np.full((5, 8), 99, dtype=np.int32)), "codes outside grid range"),
        ],
        ids=["scales-1d", "codes-off-grid"],
    )
    def test_invalid_layer_is_a_format_error(self, tmp_path, rng, changes, message):
        # save_quantized refuses such a layer with NumericalError; on load
        # it is a malformed file
        path, _ = _engine_artifact(tmp_path, rng, engine="gptq")
        _rewrite_tensors(path, **changes)
        with pytest.raises(TensorFormatError, match=re.escape(f"{path}: {message}")):
            load_quantized(path)


class TestConcurrentReads:
    def test_parallel_loads_from_distinct_handles(self, tmp_path, rng):
        from concurrent.futures import ThreadPoolExecutor

        path = tmp_path / "t.safetensors"
        arr = rng.standard_normal((64, 64))
        save_tensors(path, {"w": arr})
        tf1, tf2 = TensorFile.open(path), TensorFile.open(path)
        with ThreadPoolExecutor(2) as pool:
            outs = list(pool.map(lambda tf: tf.load("w"), [tf1, tf2] * 8))
        assert all(np.array_equal(o, arr) for o in outs)
