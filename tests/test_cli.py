import json
import os
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import count_calls, record_bundles, traced_peak
import lowbit
from lowbit import cli, engines
from lowbit.cli import main
from lowbit.engines import EngineConfig, LayerBundle, run_engine
from lowbit.errors import TensorFormatError
from lowbit.linalg import HessianState
from lowbit.tensorio import TensorFile, load_quantized, save_tensors


@pytest.fixture
def workspace(tmp_path, rng):
    """Weights file with two layers plus directories for outputs."""
    weights = {
        "blk0.fc.weight": rng.standard_normal((16, 12)),
        "blk1.fc.weight": rng.standard_normal((8, 10)),
    }
    wpath = tmp_path / "weights.safetensors"
    save_tensors(wpath, weights)
    return {"dir": tmp_path, "weights": wpath, "arrays": weights}


def run_cli(*args):
    return main([str(a) for a in args])


def run_cli_process(*args):
    """The CLI run in a new interpreter: its exit code and output as a user
    sees them, warnings included."""
    src = str(Path(lowbit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys\nfrom lowbit.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def quantize_args(ws, out, hessians, **over):
    base = {
        "--weights": ws["weights"],
        "--hessians": hessians,
        "--out": out,
        "--engine": "gptq",
        "--bits": "4",
    }
    base.update(over)
    args = ["quantize"]
    for k, v in base.items():
        if v is None:
            continue
        args.extend([k, v])
    return args


class TestCalibrate:
    def test_synthetic_produces_one_hessian_per_layer(self, workspace):
        out = workspace["dir"] / "hes"
        rc = run_cli(
            "calibrate", "--weights", workspace["weights"],
            "--synthetic", "n_tokens=64,rho=0.9,seed=0", "--out", out,
        )
        assert rc == 0
        for layer, arr in workspace["arrays"].items():
            name = layer[: -len(".weight")]
            tf = TensorFile.open(out / f"{name}.hessian.safetensors")
            d_in = arr.shape[1]
            assert tf.shape("hessian") == (d_in, d_in)
            assert json.loads(tf.metadata["n_samples"]) == 64
        assert (out / "effective_config.json").exists()

    def test_shard_additivity_across_files(self, workspace, rng):
        ws = workspace
        x1 = rng.standard_normal((12, 20))
        x2 = rng.standard_normal((12, 12))
        save_tensors(ws["dir"] / "acts1.st", {"blk0.fc.input.0": x1})
        save_tensors(ws["dir"] / "acts2.st", {"blk0.fc.input.1": x2})
        save_tensors(ws["dir"] / "acts_all.st", {"blk0.fc.input": np.hstack([x1, x2])})
        out_a, out_b = ws["dir"] / "ha", ws["dir"] / "hb"
        assert run_cli(
            "calibrate", "--weights", ws["weights"], "--layers", "blk0.fc",
            "--activations", ws["dir"] / "acts1.st", ws["dir"] / "acts2.st",
            "--out", out_a,
        ) == 0
        assert run_cli(
            "calibrate", "--weights", ws["weights"], "--layers", "blk0.fc",
            "--activations", ws["dir"] / "acts_all.st", "--out", out_b,
        ) == 0
        ha = TensorFile.open(out_a / "blk0.fc.hessian.safetensors").load("hessian")
        hb = TensorFile.open(out_b / "blk0.fc.hessian.safetensors").load("hessian")
        np.testing.assert_allclose(ha, hb, rtol=1e-12, atol=1e-12)

    def test_no_layers_matched_is_config_error(self, workspace, capsys):
        rc = run_cli(
            "calibrate", "--weights", workspace["weights"],
            "--synthetic", "n_tokens=16", "--out", workspace["dir"] / "x",
            "--layers", "nothing*",
        )
        assert rc == 2
        assert "no layers" in capsys.readouterr().err
        assert not (workspace["dir"] / "x").exists()

    def test_requires_exactly_one_source(self, workspace):
        rc = run_cli(
            "calibrate", "--weights", workspace["weights"],
            "--out", workspace["dir"] / "x",
        )
        assert rc == 2

    def test_missing_activation_shards_is_config_error(self, workspace, rng):
        save_tensors(workspace["dir"] / "acts.st", {"unrelated.input": rng.standard_normal((3, 4))})
        rc = run_cli(
            "calibrate", "--weights", workspace["weights"],
            "--activations", workspace["dir"] / "acts.st",
            "--out", workspace["dir"] / "x",
        )
        assert rc == 2
        assert not (workspace["dir"] / "x").exists()

    @pytest.mark.parametrize(
        "spec",
        ["n_tokens=abc", "n_tokens=0", "n_tokens=16,rho=1.5", "n_tokens=16,seed=-1",
         "n_tokens", "foo=1", "rho=0.5"],
    )
    def test_malformed_synthetic_spec_is_config_error(self, workspace, spec, capsys):
        rc = run_cli(
            "calibrate", "--weights", workspace["weights"],
            "--synthetic", spec, "--out", workspace["dir"] / "x",
        )
        assert rc == 2
        assert "synthetic spec" in capsys.readouterr().err

    def test_header_length_past_end_of_weights_file_exits_2(self, workspace, capsys):
        bad = workspace["dir"] / "bad.safetensors"
        bad.write_bytes(struct.pack("<Q", 2**64 - 1) + b"{}")
        rc = run_cli(
            "calibrate", "--weights", bad,
            "--synthetic", "n_tokens=16", "--out", workspace["dir"] / "x",
        )
        assert rc == 2
        assert "header length exceeds file" in capsys.readouterr().err

    def test_overlapping_tensors_in_weights_file_exit_2(self, workspace, capsys):
        bad = workspace["dir"] / "bad.safetensors"
        header = json.dumps(
            {
                "blk0.fc.weight": {"dtype": "F64", "shape": [2, 2], "data_offsets": [0, 32]},
                "blk1.fc.weight": {"dtype": "F64", "shape": [2, 2], "data_offsets": [16, 48]},
            }
        ).encode()
        bad.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 48)
        rc = run_cli(
            "calibrate", "--weights", bad,
            "--synthetic", "n_tokens=16", "--out", workspace["dir"] / "x",
        )
        assert rc == 2
        assert "overlap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header, message",
        [
            (b"{not json", "invalid JSON header"),
            (b'{"w": "\xff"}', "invalid JSON header"),
            (b"[1, 2]", "must be a JSON object"),
            (b'{"w": {"shape": [1], "data_offsets": [0, 8]}}', "malformed entry"),
            (b'{"w": {"dtype": "F64", "shape": ["x"], "data_offsets": [0, 8]}}', "malformed entry"),
            (b'{"w": {"dtype": "F64", "shape": [2], "data_offsets": [0, 16]}}', "offsets outside payload"),
            (b'{"w": {"dtype": "F64", "shape": [-1, -1], "data_offsets": [0, 8]}}', "malformed entry"),
            (b'{"w": {"dtype": "F64", "shape": [true], "data_offsets": [0, 8]}}', "malformed entry"),
            (b'{"w": {"dtype": "F64", "shape": ["1"], "data_offsets": [0, 8]}}', "malformed entry"),
            (b'{"w": {"dtype": "F64", "shape": [1], "data_offsets": [0.0, 8]}}', "malformed entry"),
            (b'{"w": {"dtype": "F64", "shape": [1], "data_offsets": [-8, 0]}}', "malformed entry"),
            (b'{"__metadata__": "k"}', "__metadata__ must be an object of strings"),
            (b'{"__metadata__": ["k", "v"]}', "__metadata__ must be an object of strings"),
            (b'{"__metadata__": {"x.config": 7}}', "__metadata__ must be an object of strings"),
        ],
        ids=[
            "invalid_json", "non_utf8", "json_array", "no_dtype", "non_integer_shape",
            "past_payload", "negative_shape", "bool_shape", "string_shape", "float_offset", "negative_offset",
            "string_metadata", "list_metadata", "non_string_metadata_value",
        ],
    )
    def test_malformed_container_header_exits_2(self, workspace, capsys, header, message):
        bad = workspace["dir"] / "bad.safetensors"
        # an 8-byte payload: one F64 element fits, two do not
        bad.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 8)
        with pytest.raises(TensorFormatError, match=message):
            TensorFile.open(bad)
        rc = run_cli(
            "calibrate", "--weights", bad,
            "--synthetic", "n_tokens=16", "--out", workspace["dir"] / "x",
        )
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (workspace["dir"] / "x").exists()

    @pytest.mark.parametrize("ratio", ["nan", "inf", "-0.5"])
    def test_recorded_damp_ratio_must_be_finite_and_non_negative(self, workspace, ratio, capsys):
        out = workspace["dir"] / "x"
        rc = run_cli(
            "calibrate", "--weights", workspace["weights"],
            "--synthetic", "n_tokens=16", "--out", out, "--damp-ratio", ratio,
        )
        assert rc == 2
        assert "damp_ratio" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_activation_shard_exits_3(self, workspace, rng, capsys):
        x = rng.standard_normal((12, 8))
        x[3, 5] = np.nan
        save_tensors(workspace["dir"] / "acts.st", {"blk0.fc.input": x})
        rc = run_cli(
            "calibrate", "--weights", workspace["weights"], "--layers", "blk0.fc",
            "--activations", workspace["dir"] / "acts.st",
            "--out", workspace["dir"] / "x",
        )
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (workspace["dir"] / "x" / "blk0.fc.hessian.safetensors").exists()

    def test_overflowing_activation_sum_exits_3(self, workspace):
        # every entry is finite, but their products pass the float64 range;
        # run in its own interpreter, so stderr holds any numpy warning
        save_tensors(workspace["dir"] / "acts.st", {"blk0.fc.input": np.full((12, 8), 1e160)})
        proc = run_cli_process(
            "calibrate", "--weights", workspace["weights"], "--layers", "blk0.fc",
            "--activations", workspace["dir"] / "acts.st",
            "--out", workspace["dir"] / "x",
        )
        assert proc.returncode == 3
        assert "overflows" in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert not (workspace["dir"] / "x" / "blk0.fc.hessian.safetensors").exists()

    @pytest.mark.parametrize("shape", [(9, 8), (10,), (10, 8, 2)], ids=["rows", "1d", "3d"])
    def test_activation_shard_of_wrong_shape_exits_2(self, workspace, rng, capsys, shape):
        # blk1.fc is 10 wide and runs after blk0.fc, whose shard is good
        acts = workspace["dir"] / "acts.st"
        save_tensors(acts, {"blk0.fc.input": rng.standard_normal((12, 8)),
                            "blk1.fc.input.0": rng.standard_normal(shape)})
        out = workspace["dir"] / "x"
        rc = run_cli("calibrate", "--weights", workspace["weights"], "--activations", acts, "--out", out)
        assert rc == 2
        assert f"acts.st: blk1.fc.input.0 must be 10 x n_tokens, got shape {shape}" in capsys.readouterr().err
        assert not out.exists()

    def test_activation_shards_without_tokens_exit_2(self, workspace, rng, capsys):
        # blk1.fc's two shards are 10 x 0: its Hessian would hold no samples,
        # which quantize cannot dampen; one empty shard beside a full one is fine
        acts = workspace["dir"] / "acts.st"
        save_tensors(acts, {"blk0.fc.input.0": rng.standard_normal((12, 8)),
                            "blk0.fc.input.1": np.zeros((12, 0)),
                            "blk1.fc.input.0": np.zeros((10, 0)),
                            "blk1.fc.input.1": np.zeros((10, 0))})
        out = workspace["dir"] / "x"
        rc = run_cli("calibrate", "--weights", workspace["weights"], "--activations", acts, "--out", out)
        assert rc == 2
        assert "the activation shards of layer 'blk1.fc' hold no tokens" in capsys.readouterr().err
        assert not out.exists()
        rc = run_cli("calibrate", "--weights", workspace["weights"], "--layers", "blk0.fc",
                     "--activations", acts, "--out", out)
        assert rc == 0
        assert json.loads(TensorFile.open(out / "blk0.fc.hessian.safetensors").metadata["n_samples"]) == 8

    def test_synthetic_layer_without_input_columns_exits_2(self, tmp_path, rng, capsys):
        weights = tmp_path / "weights.safetensors"
        save_tensors(weights, {"blk0.fc.weight": rng.standard_normal((4, 6)), "blk1.fc.weight": np.zeros((4, 0))})
        out = tmp_path / "out"
        rc = run_cli("calibrate", "--weights", weights, "--synthetic", "n_tokens=16", "--out", out)
        assert rc == 2
        assert "layer 'blk1.fc' has no input columns" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture
def calibrated(workspace):
    out = workspace["dir"] / "hes"
    assert run_cli(
        "calibrate", "--weights", workspace["weights"],
        "--synthetic", "n_tokens=64,rho=0.9,seed=0", "--out", out,
    ) == 0
    workspace["hessians"] = out
    return workspace


class TestQuantize:
    def test_artifacts_and_reports_written(self, calibrated):
        ws = calibrated
        out = ws["dir"] / "q"
        assert run_cli(*quantize_args(ws, out, ws["hessians"])) == 0
        for name in ("blk0.fc", "blk1.fc"):
            layer = load_quantized(out / f"{name}.quantized.safetensors")
            assert layer.config.engine == "gptq"
            assert layer.extra["layer"] == name
            rep = json.loads((out / f"{name}.report.json").read_text())
            assert rep["layer"] == name and rep["proxy_loss"] >= 0

    def test_foem_beta_zero_code_tensors_byte_identical_to_gptq(self, calibrated):
        ws = calibrated
        out_g, out_f = ws["dir"] / "qg", ws["dir"] / "qf"
        assert run_cli(*quantize_args(ws, out_g, ws["hessians"], **{"--engine": "gptq"})) == 0
        assert run_cli(
            *quantize_args(ws, out_f, ws["hessians"], **{"--engine": "foem", "--beta": "0"})
        ) == 0
        for name in ("blk0.fc", "blk1.fc"):
            a = load_quantized(out_g / f"{name}.quantized.safetensors")
            b = load_quantized(out_f / f"{name}.quantized.safetensors")
            assert a.codes.tobytes() == b.codes.tobytes()
            assert a.scales.tobytes() == b.scales.tobytes()

    def test_invalid_bits_rejected(self, calibrated):
        ws = calibrated
        rc = run_cli(*quantize_args(ws, ws["dir"] / "x", ws["hessians"], **{"--bits": "1"}))
        assert rc == 2

    @pytest.mark.parametrize("flag", ["--beta", "--damp-ratio"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_strength_is_config_error(self, calibrated, flag, value, capsys):
        ws = calibrated
        out = ws["dir"] / "x"
        rc = run_cli(*quantize_args(ws, out, ws["hessians"], **{"--engine": "foem", flag: value}))
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_hessian_is_config_error(self, workspace):
        rc = run_cli(*quantize_args(workspace, workspace["dir"] / "x", workspace["dir"] / "nowhere"))
        assert rc == 2

    def test_determinism_byte_identical_artifacts(self, calibrated):
        ws = calibrated
        out1, out2 = ws["dir"] / "d1", ws["dir"] / "d2"
        args = {"--engine": "foem", "--bits": "3"}
        assert run_cli(*quantize_args(ws, out1, ws["hessians"], **args)) == 0
        assert run_cli(*quantize_args(ws, out2, ws["hessians"], **args)) == 0
        for name in ("blk0.fc", "blk1.fc"):
            b1 = (out1 / f"{name}.quantized.safetensors").read_bytes()
            b2 = (out2 / f"{name}.quantized.safetensors").read_bytes()
            assert b1 == b2
            r1 = json.loads((out1 / f"{name}.report.json").read_text())
            r2 = json.loads((out2 / f"{name}.report.json").read_text())
            r1.pop("wall_time_s"), r2.pop("wall_time_s")
            assert r1 == r2

    @pytest.mark.parametrize("flag", [("--engine", "foem_plus"), ("--jobs", "2")])
    def test_removed_options_rejected(self, calibrated, flag):
        ws = calibrated
        args = quantize_args(ws, ws["dir"] / "x", ws["hessians"]) + list(flag)
        with pytest.raises(SystemExit) as exc:
            run_cli(*args)
        assert exc.value.code == 2

    def test_config_file_flag_hybrid_and_round_trip(self, calibrated):
        ws = calibrated
        cfg_path = ws["dir"] / "cfg.json"
        cfg_path.write_text(json.dumps({"engine": "gptq", "bits": 3, "block_size": 8}))
        out1 = ws["dir"] / "c1"
        # flag overrides the file's bits, file supplies engine/block_size
        assert run_cli(
            "quantize", "--weights", ws["weights"], "--hessians", ws["hessians"],
            "--out", out1, "--config", cfg_path, "--bits", "4",
        ) == 0
        eff = json.loads((out1 / "effective_config.json").read_text())
        assert eff["engine"] == "gptq" and eff["bits"] == 4 and eff["block_size"] == 8
        layer = load_quantized(out1 / "blk0.fc.quantized.safetensors")
        assert layer.config.bits == 4 and layer.config.block_size == 8
        # re-running purely from the persisted effective config reproduces
        # the artifact byte for byte
        out2 = ws["dir"] / "c2"
        eff2 = dict(eff, out=str(out2))
        cfg2 = ws["dir"] / "cfg2.json"
        cfg2.write_text(json.dumps({k: v for k, v in eff2.items() if k != "command"}))
        assert run_cli("quantize", "--config", cfg2) == 0
        a = (out1 / "blk0.fc.quantized.safetensors").read_bytes()
        b = (out2 / "blk0.fc.quantized.safetensors").read_bytes()
        assert a == b

    def test_outdir_env_var(self, calibrated, monkeypatch):
        ws = calibrated
        out = ws["dir"] / "env_out"
        monkeypatch.setenv("LOWBIT_OUTDIR", str(out))
        assert run_cli(
            "quantize", "--weights", ws["weights"], "--hessians", ws["hessians"],
        ) == 0
        assert (out / "blk0.fc.quantized.safetensors").exists()

    def test_factorization_breakdown_exits_3(self, workspace, rng):
        # rank-one covariance with zero damping cannot be factorized
        ws = workspace
        hes = ws["dir"] / "bad_hessians"
        hes.mkdir()
        for layer, arr in ws["arrays"].items():
            name = layer[: -len(".weight")]
            x = rng.standard_normal((arr.shape[1], 1))
            save_tensors(
                hes / f"{name}.hessian.safetensors",
                {"hessian": x @ x.T},
                metadata={"n_samples": "1"},
            )
        rc = run_cli(
            *quantize_args(ws, ws["dir"] / "x", hes, **{"--damp-ratio": "0"})
        )
        assert rc == 3

    def test_non_finite_hessian_file_exits_3(self, workspace, capsys):
        ws = workspace
        hes = ws["dir"] / "nan_hessians"
        hes.mkdir()
        for layer, arr in ws["arrays"].items():
            name = layer[: -len(".weight")]
            h = np.eye(arr.shape[1])
            h[0, 1] = np.nan
            save_tensors(
                hes / f"{name}.hessian.safetensors",
                {"hessian": h},
                metadata={"n_samples": "1"},
            )
        assert run_cli(*quantize_args(ws, ws["dir"] / "x", hes)) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_all_zero_hessian_warns_then_exits_3(self, tmp_path, rng, capsys):
        # damping is relative to the mean diagonal, so it leaves a zero H singular
        wpath, hes = tmp_path / "w.safetensors", tmp_path / "hes"
        save_tensors(wpath, {"fc.weight": rng.standard_normal((8, 16))})
        hes.mkdir()
        save_tensors(
            hes / "fc.hessian.safetensors",
            {"hessian": np.zeros((16, 16))},
            metadata={"n_samples": "5"},
        )
        with pytest.warns(RuntimeWarning, match="may be singular"):
            rc = run_cli(*quantize_args({"weights": wpath}, tmp_path / "q", hes))
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure: Cholesky breakdown" in err
        assert "pivot at column 15 " in err

    def test_layer_without_input_columns_quantizes_without_warning(self, tmp_path, recwarn):
        # an empty Hessian's mean diagonal reads 0, but there is no diagonal
        # for the damping to miss
        wpath, hes = tmp_path / "w.safetensors", tmp_path / "hes"
        save_tensors(wpath, {"fc.weight": np.zeros((4, 0))})
        hes.mkdir()
        save_tensors(hes / "fc.hessian.safetensors", {"hessian": np.zeros((0, 0))}, metadata={"n_samples": "5"})
        assert run_cli(*quantize_args({"weights": wpath}, tmp_path / "q", hes)) == 0
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert load_quantized(tmp_path / "q" / "fc.quantized.safetensors").codes.shape == (4, 0)

    @pytest.mark.parametrize("command", ["quantize", "compare"])
    def test_numerical_failure_leaves_no_effective_config(self, tmp_path, rng, command):
        # the output directory exists once the inputs pass their checks, but
        # the effective config is written only after the last output
        wpath, hes, out = tmp_path / "w.safetensors", tmp_path / "hes", tmp_path / "out"
        save_tensors(wpath, {"fc.weight": rng.standard_normal((8, 16))})
        hes.mkdir()
        save_tensors(
            hes / "fc.hessian.safetensors",
            {"hessian": np.zeros((16, 16))},
            metadata={"n_samples": "5"},
        )
        if command == "quantize":
            args = quantize_args({"weights": wpath}, out, hes)
        else:
            args = ["compare", "--weights", wpath, "--hessians", hes, "--out", out,
                    "--engines", "rtn", "gptq"]
        with pytest.warns(RuntimeWarning, match="may be singular"):
            assert run_cli(*args) == 3
        assert out.is_dir()
        assert not (out / "effective_config.json").exists()

    def test_zero_point_outside_int32_exits_3(self, tmp_path, rng, capsys):
        # a layer far from zero relative to its spread: the asymmetric zero
        # point would wrap in int32, so quantize refuses it
        wpath = tmp_path / "w.safetensors"
        save_tensors(wpath, {"fc.weight": 1e6 + 1e-3 * rng.random((2, 8))})
        hes, out = tmp_path / "hes", tmp_path / "q"
        assert run_cli("calibrate", "--weights", wpath, "--synthetic", "n_tokens=32", "--out", hes) == 0
        assert run_cli(*quantize_args({"weights": wpath}, out, hes), "--asymmetric") == 3
        assert "does not fit int32" in capsys.readouterr().err
        assert not (out / "fc.quantized.safetensors").exists()

    def test_default_engine_on_128_layer_beats_rtn(self, tmp_path, rng):
        # one correlated 128x128 layer at 3-bit under the default engine:
        # the report's rtn_relative lands at or below 1.0
        wpath = tmp_path / "w.safetensors"
        save_tensors(wpath, {"fc.weight": rng.standard_normal((128, 128))})
        hes, out = tmp_path / "hes", tmp_path / "q"
        assert run_cli(
            "calibrate", "--weights", wpath,
            "--synthetic", "n_tokens=512,rho=0.9,seed=3", "--out", hes,
        ) == 0
        assert run_cli(
            "quantize", "--weights", wpath, "--hessians", hes,
            "--out", out, "--bits", "3",
        ) == 0
        rep = json.loads((out / "fc.report.json").read_text())
        assert rep["engine"] == "foem"
        assert rep["rtn_relative"] <= 1.0


class TestCompare:
    def test_tie_on_identity_hessian(self, workspace):
        ws = workspace
        hes = ws["dir"] / "hid"
        hes.mkdir()
        for layer, arr in ws["arrays"].items():
            name = layer[: -len(".weight")]
            d_in = arr.shape[1]
            save_tensors(
                hes / f"{name}.hessian.safetensors",
                {"hessian": np.eye(d_in)},
                metadata={"n_samples": str(d_in)},
            )
        out = ws["dir"] / "cmp"
        rc = run_cli(
            "compare", "--weights", ws["weights"], "--hessians", hes, "--out", out,
            "--engines", "rtn", "gptq",
        )
        assert rc == 0
        summary = json.loads((out / "compare_summary.json").read_text())
        assert summary["ties"] == 2
        assert summary["engines"]["rtn"]["wins"] == 0
        assert summary["engines"]["gptq"]["wins"] == 0

    def test_sign_ablation_tokens(self, calibrated):
        ws = calibrated
        out = ws["dir"] / "abl"
        rc = run_cli(
            "compare", "--weights", ws["weights"], "--hessians", ws["hessians"],
            "--out", out, "--bits", "3",
            "--engines", "gptq", "foem(minus)", "foem(plus)",
        )
        assert rc == 0
        summary = json.loads((out / "compare_summary.json").read_text())
        assert set(summary["engines"]) == {"gptq", "foem(minus)", "foem(plus)"}
        for eng in summary["engines"].values():
            assert len(eng["proxy_loss"]) == 2  # full per-layer distribution
        csv_text = (out / "compare.csv").read_text()
        assert "foem(plus)" in csv_text
        assert (out / "compare_reports.json").exists()

    def test_fewer_than_two_engines_rejected(self, calibrated):
        ws = calibrated
        rc = run_cli(
            "compare", "--weights", ws["weights"], "--hessians", ws["hessians"],
            "--out", ws["dir"] / "x", "--engines", "gptq",
        )
        assert rc == 2

    def test_unknown_engine_token_rejected(self, calibrated):
        ws = calibrated
        rc = run_cli(
            "compare", "--weights", ws["weights"], "--hessians", ws["hessians"],
            "--out", ws["dir"] / "x", "--engines", "gptq", "hybrid(q)",
        )
        assert rc == 2


    def test_foem_plus_token_rejected(self, calibrated):
        ws = calibrated
        rc = run_cli(
            "compare", "--weights", ws["weights"], "--hessians", ws["hessians"],
            "--out", ws["dir"] / "x", "--engines", "gptq", "foem_plus",
        )
        assert rc == 2


    def test_repeated_token_rejected_before_any_layer(self, calibrated, capsys):
        ws = calibrated
        out = ws["dir"] / "x"
        rc = run_cli(
            "compare", "--weights", ws["weights"], "--hessians", ws["hessians"],
            "--out", out, "--engines", "rtn", "gptq", "gptq",
        )
        assert rc == 2
        assert "repeated" in capsys.readouterr().err
        assert not (out / "compare.csv").exists()

    def test_non_finite_beta_is_config_error(self, calibrated):
        ws = calibrated
        out = ws["dir"] / "x"
        rc = run_cli(
            "compare", "--weights", ws["weights"], "--hessians", ws["hessians"],
            "--out", out, "--engines", "gptq", "foem", "--beta", "nan",
        )
        assert rc == 2
        assert not (out / "compare.csv").exists()

    def test_reports_match_independent_run_engine(self, calibrated):
        # both layers have d_out != d_in; every token shares one prepared
        # layer, yet reports what a run of its own would
        ws = calibrated
        out = ws["dir"] / "cmp"
        tokens = ["rtn", "obs_oracle", "gptq", "foem", "foem(plus)"]
        rc = run_cli(
            "compare", "--weights", ws["weights"], "--hessians", ws["hessians"],
            "--out", out, "--bits", "3", "--group-size", "4", "--block-size", "3",
            "--engines", *tokens,
        )
        assert rc == 0
        reports = json.loads((out / "compare_reports.json").read_text())
        assert len(reports) == 2 * len(tokens)
        for rep in reports:
            name = rep["layer"]
            tf = TensorFile.open(ws["hessians"] / f"{name}.hessian.safetensors")
            hess = HessianState.from_matrix(tf.load("hessian"), int(tf.metadata["n_samples"]))
            engine, _, sign = rep["engine"].rstrip(")").partition("(")
            config = EngineConfig(
                engine=engine, bits=3, group_size=4, block_size=3, beta=3e-4,
                first_order_sign=sign or "minus",
            )
            _, alone = run_engine(LayerBundle(ws["arrays"][f"{name}.weight"]), hess, config, name)
            expected = dict(alone.to_dict(), engine=rep["engine"])
            expected.pop("wall_time_s"), rep.pop("wall_time_s")
            assert rep == expected

    def test_rows_do_not_depend_on_token_order(self, calibrated):
        # the rtn token last quantizes on codes rebuilt after gptq and foem
        # released them, to the same bits and the same loss
        ws = calibrated
        rows, summaries = [], []
        for tokens in (("rtn", "gptq", "foem"), ("gptq", "foem", "rtn")):
            out = ws["dir"] / "-".join(tokens)
            rc = run_cli(
                "compare", "--weights", ws["weights"], "--hessians", ws["hessians"],
                "--out", out, "--engines", *tokens,
            )
            assert rc == 0
            reports = json.loads((out / "compare_reports.json").read_text())
            for rep in reports:
                rep.pop("wall_time_s")
            rows.append(sorted(reports, key=lambda rep: (rep["layer"], rep["engine"])))
            summaries.append((out / "compare_summary.json").read_bytes())
        assert len(rows[0]) == 6 and rows[0] == rows[1]
        assert summaries[0] == summaries[1]

    def test_one_factor_and_one_baseline_per_layer(self, calibrated, monkeypatch):
        factors = count_calls(monkeypatch, engines, "inverse_cholesky")
        baselines = count_calls(monkeypatch, engines, "rtn_quantize")
        ws = calibrated
        rc = run_cli(
            "compare", "--weights", ws["weights"], "--hessians", ws["hessians"],
            "--out", ws["dir"] / "cmp", "--engines", "rtn", "gptq", "foem",
        )
        assert rc == 0
        assert (len(factors), len(baselines)) == (2, 2)  # one each per layer

    def test_rtn_tokens_never_factor(self, calibrated, monkeypatch):
        factors = count_calls(monkeypatch, engines, "inverse_cholesky")
        ws = calibrated
        out = ws["dir"] / "cmp"
        rc = run_cli(
            "compare", "--weights", ws["weights"], "--hessians", ws["hessians"],
            "--out", out, "--engines", "rtn", "rtn(plus)",
        )
        assert rc == 0
        assert factors == []
        summary = json.loads((out / "compare_summary.json").read_text())
        assert summary["ties"] == 2

    def test_engine_runs_share_the_original_and_keep_no_codes(self, calibrated, monkeypatch):
        # each run's bundle holds the prepared layer's one read-only original,
        # and a run's quantized layer (its d_out x d_in codes) is gone before
        # the next run starts
        ws = calibrated
        bundles = record_bundles(monkeypatch)
        seen, layers = [], []
        run = engines.PreparedLayer.run

        def spy(prepared, *args, **kwargs):
            if layers:
                assert layers[-1]() is None, "the previous run's quantized layer is still held"
            out = run(prepared, *args, **kwargs)
            seen.append((bundles[-1].original is prepared.original, prepared.original.flags.writeable))
            layers.append(weakref.ref(out[0]))
            return out

        monkeypatch.setattr(engines.PreparedLayer, "run", spy)
        rc = run_cli(
            "compare", "--weights", ws["weights"], "--hessians", ws["hessians"],
            "--out", ws["dir"] / "cmp", "--engines", "rtn", "gptq", "foem",
        )
        assert rc == 0
        assert seen == [(True, False)] * 6 and len(bundles) == 6

    @pytest.mark.parametrize("command", ["quantize", "compare"])
    def test_overflowing_damping_exits_3(self, calibrated, capsys, command):
        # 1e308 is a valid ratio, but times mean(diag(H)) it passes the
        # float64 range
        args = TestRefusedRunWritesNothing._args(calibrated, command, calibrated["dir"] / "out")
        assert run_cli(*args, "--damp-ratio", "1e308") == 3
        assert "is not finite" in capsys.readouterr().err

    @staticmethod
    def _indefinite_hessians(ws, rng):
        """A directory of Hessians, one per layer, whose last pivot is negative."""
        hes = ws["dir"] / "indefinite"
        hes.mkdir()
        for layer, arr in ws["arrays"].items():
            d_in = arr.shape[1]
            A = rng.standard_normal((d_in, d_in))
            H = A @ A.T
            H[d_in - 1, d_in - 1] = -50.0
            save_tensors(
                hes / f"{layer[: -len('.weight')]}.hessian.safetensors",
                {"hessian": H},
                metadata={"n_samples": str(d_in)},
            )
        return hes

    def test_indefinite_hessian_exits_3_naming_pivot(self, workspace, rng, capsys):
        ws = workspace
        hes = self._indefinite_hessians(ws, rng)
        out = ws["dir"] / "cmp"
        rc = run_cli(
            "compare", "--weights", ws["weights"], "--hessians", hes, "--out", out,
            "--damp-ratio", "0", "--engines", "rtn", "gptq",
        )
        assert rc == 3
        # blk0.fc (d_in = 12) runs first in sorted order
        assert "pivot at column 11 " in capsys.readouterr().err
        assert not (out / "compare.csv").exists()

    def test_indefinite_hessian_quantize_exits_3_writing_nothing(self, workspace, rng, capsys):
        # the run prices the RTN baseline's loss before it factors; the
        # factor's refusal still comes before any artifact or report
        ws = workspace
        out = ws["dir"] / "q"
        hes = self._indefinite_hessians(ws, rng)
        assert run_cli(*quantize_args(ws, out, hes, **{"--damp-ratio": "0"})) == 3
        assert "pivot at column 11 " in capsys.readouterr().err
        # the output directory is made once every input is checked
        assert list(out.iterdir()) == []


class TestHessianFile:
    @pytest.mark.parametrize(
        "n_samples, rc",
        [("abc", 2), ("[3]", 2), ("1.5", 2), ("-4", 2), ("true", 2), ('"3"', 2), ("0", 3), ("64", 0)],
    )
    @pytest.mark.parametrize("command", ["quantize", "compare"])
    def test_n_samples_must_be_a_non_negative_json_integer(
        self, workspace, rng, capsys, command, n_samples, rc
    ):
        # "0" passes the parse and is refused by the damping, as a numerical error
        ws = workspace
        hes = ws["dir"] / "hes"
        hes.mkdir()
        for layer, arr in ws["arrays"].items():
            x = rng.standard_normal((arr.shape[1], 64))
            save_tensors(
                hes / f"{layer[: -len('.weight')]}.hessian.safetensors",
                {"hessian": x @ x.T},
                metadata={"n_samples": n_samples},
            )
        out = ws["dir"] / "out"
        if command == "quantize":
            args = quantize_args(ws, out, hes)
        else:
            args = ["compare", "--weights", ws["weights"], "--hessians", hes, "--out", out,
                    "--engines", "rtn", "gptq"]
        assert run_cli(*args) == rc
        if rc == 2:
            assert "n_samples" in capsys.readouterr().err

    @pytest.mark.parametrize("engines", [["rtn", "rtn(plus)"], ["gptq", "rtn"]], ids=["rtn", "gptq"])
    @pytest.mark.parametrize("command", ["quantize", "compare"])
    def test_missing_n_samples_exits_2(self, workspace, rng, capsys, command, engines):
        # refused as a format error before anything runs, whether or not
        # an engine would damp the Hessian
        ws = workspace
        hes = ws["dir"] / "hes"
        hes.mkdir()
        for layer, arr in ws["arrays"].items():
            x = rng.standard_normal((arr.shape[1], 64))
            save_tensors(hes / f"{layer[: -len('.weight')]}.hessian.safetensors", {"hessian": x @ x.T})
        out = ws["dir"] / "out"
        if command == "quantize":
            args = quantize_args(ws, out, hes, **{"--engine": engines[0]})
        else:
            args = ["compare", "--weights", ws["weights"], "--hessians", hes, "--out", out,
                    "--engines", *engines]
        assert run_cli(*args) == 2
        assert "metadata has no n_samples" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("shape", [(6, 6), (8,), (8, 6)], ids=["6x6", "1d", "8x6"])
    @pytest.mark.parametrize("command", ["quantize", "compare"])
    def test_entry_that_is_not_d_in_square_exits_2(self, tmp_path, capsys, command, shape):
        weights = tmp_path / "weights.safetensors"
        save_tensors(weights, {"blk.fc.weight": np.ones((4, 8))})
        hes = tmp_path / "hes"
        hes.mkdir()
        save_tensors(hes / "blk.fc.hessian.safetensors", {"hessian": np.ones(shape)},
                     metadata={"n_samples": "16"})
        out = tmp_path / "out"
        if command == "quantize":
            args = quantize_args({"weights": weights}, out, hes)
        else:
            args = ["compare", "--weights", weights, "--hessians", hes, "--out", out,
                    "--engines", "rtn", "gptq"]
        assert run_cli(*args) == 2
        assert f"blk.fc.hessian.safetensors: hessian must be 8 x 8, got {shape}" in capsys.readouterr().err
        assert not out.exists()


def _hessian_loader(tmp_path, H, n_samples):
    """The loader that quantize and compare build for a one-layer model
    whose Hessian file holds ``H``."""
    weights = tmp_path / "w.safetensors"
    save_tensors(weights, {"blk.fc.weight": np.zeros((2, len(H)))})
    hes = tmp_path / "hes"
    hes.mkdir()
    save_tensors(hes / "blk.fc.hessian.safetensors", {"hessian": H}, metadata={"n_samples": str(n_samples)})
    effective = {"hessians": str(hes), "damp_ratio": 0.01}
    return cli._open_hessians(effective, TensorFile.open(weights), ["blk.fc"])["blk.fc"]


class TestHessianBands:
    """quantize and compare read each Hessian file one band of rows at a
    time; d = 1100 is three bands, the last one ragged."""

    def test_state_from_file_bands_equals_from_matrix_and_makes_no_dense_copy(self, tmp_path, rng):
        d = 1100
        A = rng.standard_normal((d, d))
        loader = _hessian_loader(tmp_path, A @ A.T, 7)
        state, peak = traced_peak(loader)
        assert peak < 8 * d * d
        want = HessianState.from_matrix(A @ A.T, 7)
        assert state.n_samples == want.n_samples and not state.damped
        assert all(np.array_equal(a, b) for a, b in zip(state._bands, want._bands, strict=True))

    def test_float32_file_widens_per_band(self, tmp_path, rng):
        d = 600
        x = rng.standard_normal((d, 30))
        H = (x @ x.T).astype(np.float32)
        state = _hessian_loader(tmp_path, H, 30)()
        assert np.array_equal(state.matrix, H.astype(np.float64))

    @pytest.mark.parametrize("where", [(1, 0), (1000, 3), (1099, 1099)])
    def test_non_finite_entry_anywhere_exits_3(self, tmp_path, rng, capsys, where):
        # the lower triangle outside the bands' diagonal blocks is read,
        # checked and dropped
        d = 1100
        weights = tmp_path / "w.safetensors"
        save_tensors(weights, {"blk.fc.weight": rng.standard_normal((4, d))})
        hes = tmp_path / "hes"
        hes.mkdir()
        H = np.eye(d)
        H[where] = np.nan
        save_tensors(hes / "blk.fc.hessian.safetensors", {"hessian": H}, metadata={"n_samples": "1"})
        assert run_cli(*quantize_args({"weights": weights}, tmp_path / "x", hes)) == 3
        assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("command", ["quantize", "compare"])
def test_integer_hessian_file_runs_as_float64_file(workspace, command, dtype):
    # the container holds I32 and I64 entries; the bands are widened as read
    ws = workspace
    hessians = {}
    for seed, (layer, arr) in enumerate(ws["arrays"].items()):
        x = np.random.default_rng(seed).integers(-3, 4, (arr.shape[1], 64))
        hessians[layer[: -len(".weight")]] = x @ x.T
    results = []
    for kind in (np.float64, dtype):
        hes, out = ws["dir"] / f"hes-{np.dtype(kind)}", ws["dir"] / f"out-{np.dtype(kind)}"
        hes.mkdir()
        for layer, H in hessians.items():
            save_tensors(hes / f"{layer}.hessian.safetensors", {"hessian": H.astype(kind)},
                         metadata={"n_samples": "64"})
        assert _run_command(ws, command, out, hes) == 0
        if command == "quantize":
            reports = [json.loads((out / f"{layer}.report.json").read_text()) for layer in hessians]
            codes = [load_quantized(out / f"{layer}.quantized.safetensors").codes for layer in hessians]
        else:
            reports, codes = json.loads((out / "compare_reports.json").read_text()), []
        for rep in reports:
            del rep["wall_time_s"]
        results.append((reports, codes))
    (want_reports, want_codes), (got_reports, got_codes) = results
    assert got_reports == want_reports
    assert all(np.array_equal(a, b) for a, b in zip(got_codes, want_codes, strict=True))


def test_float32_weights_file_runs_as_its_float64_widening(tmp_path, rng):
    # one float32 weight set, stored as F32 and again as F64; the F32 file
    # loads as float32 and is held that way, and every number must match
    arrays = {
        "blk0.fc.weight": rng.standard_normal((16, 40)).astype(np.float32),
        "blk1.fc.weight": rng.standard_normal((24, 12)).astype(np.float32),
    }
    flags = ["--bits", "3", "--group-size", "8", "--block-size", "8"]
    results = []
    for kind in (np.float32, np.float64):
        run = tmp_path / np.dtype(kind).name
        weights = run / "weights.safetensors"
        run.mkdir()
        save_tensors(weights, {name: arr.astype(kind) for name, arr in arrays.items()})
        ws = {"weights": weights}
        hes = _calibrate(ws, run / "hes")
        assert run_cli(*quantize_args(ws, run / "q", hes, **{"--engine": "foem"}), *flags) == 0
        assert run_cli(
            "compare", "--weights", weights, "--hessians", hes, "--out", run / "cmp",
            "--engines", "rtn", "gptq", "foem", *flags,
        ) == 0
        layers, reports = [], []
        for name in sorted(arrays):
            layer = name[: -len(".weight")]
            layers.append(load_quantized(run / "q" / f"{layer}{cli.QUANTIZED_SUFFIX}"))
            reports.append(json.loads((run / "q" / f"{layer}.report.json").read_text()))
        reports += json.loads((run / "cmp" / "compare_reports.json").read_text())
        for rep in reports:
            del rep["wall_time_s"]
        summary = json.loads((run / "cmp" / "compare_summary.json").read_text())
        results.append((layers, reports, summary))
    (layers32, reports32, summary32), (layers64, reports64, summary64) = results
    for a, b in zip(layers32, layers64, strict=True):
        for name in ("codes", "scales", "zero_points"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.config == b.config
    assert reports32 == reports64 and summary32 == summary64


def _calibrate(ws, out, *flags):
    assert run_cli(
        "calibrate", "--weights", ws["weights"], "--synthetic", "n_tokens=64,rho=0.9,seed=0",
        "--out", out, *flags,
    ) == 0
    return out


def _run_command(ws, command, out, hessians, *flags):
    if command == "quantize":
        args = quantize_args(ws, out, hessians)
    else:
        args = ["compare", "--weights", ws["weights"], "--hessians", hessians, "--out", out,
                "--engines", "rtn", "gptq"]
    return run_cli(*args, *flags)


def _applied_damping(command, out):
    """The damp_ratio a finished run recorded, and what it applied: the
    artifacts' damping under quantize, the gptq losses (which the damping
    sets) under compare."""
    recorded = json.loads((out / "effective_config.json").read_text())["damp_ratio"]
    if command == "quantize":
        applied = {load_quantized(p).config.damp_ratio for p in out.glob("*.quantized.safetensors")}
    else:
        reports = json.loads((out / "compare_reports.json").read_text())
        applied = {rep["proxy_loss"] for rep in reports if rep["engine"] == "gptq"}
    return recorded, applied


@pytest.mark.parametrize("command", ["quantize", "compare"])
class TestRecordedDamping:
    """With no --damp-ratio and no config-file value, quantize and compare
    apply the damping calibrate recorded in the Hessian headers."""

    def test_recorded_value_is_applied(self, workspace, command):
        ws = workspace
        hes = _calibrate(ws, ws["dir"] / "hes", "--damp-ratio", "0.5")
        out, explicit = ws["dir"] / "out", ws["dir"] / "explicit"
        assert _run_command(ws, command, out, hes) == 0
        assert _run_command(ws, command, explicit, hes, "--damp-ratio", "0.5") == 0
        recorded, applied = _applied_damping(command, out)
        assert recorded == 0.5
        assert (recorded, applied) == _applied_damping(command, explicit)
        if command == "quantize":
            assert applied == {0.5}
            for name in ("blk0.fc", "blk1.fc"):
                path = f"{name}.quantized.safetensors"
                assert (out / path).read_bytes() == (explicit / path).read_bytes()

    def test_flag_and_config_file_win(self, workspace, command):
        ws = workspace
        hes = _calibrate(ws, ws["dir"] / "hes", "--damp-ratio", "0.5")
        out = ws["dir"] / "flag"
        assert _run_command(ws, command, out, hes, "--damp-ratio", "0.02") == 0
        assert _applied_damping(command, out)[0] == 0.02
        cfg = ws["dir"] / "cfg.json"
        cfg.write_text(json.dumps({"damp_ratio": 0.03}))
        out = ws["dir"] / "config"
        assert _run_command(ws, command, out, hes, "--config", cfg) == 0
        assert _applied_damping(command, out)[0] == 0.03

    def test_header_without_damp_ratio_takes_the_default(self, workspace, rng, command):
        ws = workspace
        hes = ws["dir"] / "hes"
        hes.mkdir()
        for layer, arr in ws["arrays"].items():
            x = rng.standard_normal((arr.shape[1], 64))
            save_tensors(hes / f"{layer[: -len('.weight')]}.hessian.safetensors", {"hessian": x @ x.T},
                         metadata={"n_samples": "64"})
        out = ws["dir"] / "out"
        assert _run_command(ws, command, out, hes) == 0
        assert _applied_damping(command, out)[0] == EngineConfig().damp_ratio

    def test_headers_that_disagree_exit_2(self, workspace, capsys, command):
        ws = workspace
        hes = _calibrate(ws, ws["dir"] / "hes", "--damp-ratio", "0.5")
        # blk1.fc's header records 0.2
        _calibrate(ws, ws["dir"] / "other", "--damp-ratio", "0.2", "--layers", "blk1.fc")
        (ws["dir"] / "other" / "blk1.fc.hessian.safetensors").replace(hes / "blk1.fc.hessian.safetensors")
        out = ws["dir"] / "out"
        assert _run_command(ws, command, out, hes) == 2
        assert "different damp_ratio values [0.2, 0.5]" in capsys.readouterr().err
        assert not out.exists()
        # one layer alone, or an explicit value, settles it
        assert _run_command(ws, command, out, hes, "--layers", "blk1.fc") == 0
        assert _applied_damping(command, out)[0] == 0.2
        assert _run_command(ws, command, ws["dir"] / "flag", hes, "--damp-ratio", "0.01") == 0

    @pytest.mark.parametrize("raw", ["-1", "abc", "true", '"0.5"'])
    def test_invalid_recorded_value_exits_2(self, workspace, rng, capsys, command, raw):
        ws = workspace
        hes = ws["dir"] / "hes"
        hes.mkdir()
        for layer, arr in ws["arrays"].items():
            x = rng.standard_normal((arr.shape[1], 64))
            save_tensors(hes / f"{layer[: -len('.weight')]}.hessian.safetensors", {"hessian": x @ x.T},
                         metadata={"n_samples": "64", "damp_ratio": raw})
        out = ws["dir"] / "out"
        assert _run_command(ws, command, out, hes) == 2
        assert "recorded damp_ratio" in capsys.readouterr().err
        assert not out.exists()


class TestRefusedRunWritesNothing:
    """Every input is opened and checked before the first write, so a
    refused run leaves no output directory, effective_config.json included
    (``TestCalibrate`` checks calibrate's refusals)."""

    @staticmethod
    def _args(ws, command, out):
        if command == "quantize":
            return quantize_args(ws, out, ws["hessians"])
        return ["compare", "--weights", ws["weights"], "--hessians", ws["hessians"], "--out", out,
                "--engines", "rtn", "gptq"]

    @pytest.mark.parametrize("command", ["quantize", "compare"])
    def test_unmatched_layers(self, calibrated, capsys, command):
        out = calibrated["dir"] / "out"
        assert run_cli(*self._args(calibrated, command, out), "--layers", "nothing*") == 2
        assert "no layers matched" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["quantize", "compare"])
    def test_missing_hessian_of_a_later_layer(self, calibrated, capsys, command):
        # blk0.fc runs first in sorted order and has its Hessian
        (calibrated["hessians"] / "blk1.fc.hessian.safetensors").unlink()
        out = calibrated["dir"] / "out"
        assert run_cli(*self._args(calibrated, command, out)) == 2
        assert "missing Hessian file" in capsys.readouterr().err
        assert not out.exists()



class TestWeightRank:
    @pytest.mark.parametrize("shape", [(6,), (2, 4, 3)], ids=["1d", "3d"])
    @pytest.mark.parametrize("command", ["calibrate", "quantize", "compare"])
    def test_weight_entry_that_is_not_2d_exits_2(self, tmp_path, rng, capsys, command, shape):
        weights = tmp_path / "weights.safetensors"
        save_tensors(weights, {"blk.fc.weight": rng.standard_normal(shape)})
        # a valid Hessian on the entry's last axis, so only the rank is wrong
        hes = tmp_path / "hes"
        hes.mkdir()
        x = rng.standard_normal((shape[-1], 16))
        save_tensors(hes / "blk.fc.hessian.safetensors", {"hessian": x @ x.T}, metadata={"n_samples": "16"})
        out = tmp_path / "out"
        if command == "calibrate":
            args = ["calibrate", "--weights", weights, "--synthetic", "n_tokens=16", "--out", out]
        elif command == "quantize":
            args = quantize_args({"weights": weights}, out, hes)
        else:
            args = ["compare", "--weights", weights, "--hessians", hes, "--out", out,
                    "--engines", "rtn", "gptq"]
        assert run_cli(*args) == 2
        assert f"blk.fc.weight must be 2-D (d_out x d_in), got shape {shape}" in capsys.readouterr().err
        assert not out.exists()


def _run_with_config(ws, command, values):
    cfg = ws["dir"] / "cfg.json"
    cfg.write_text(json.dumps(values))
    return run_cli(command, "--config", cfg)


class TestConfigTypes:
    """Config-file values of the wrong JSON type exit 2, never a traceback."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("beta", "abc"), ("bits", None), ("bits", 3.9), ("group_size", 7.5),
            ("symmetric", "false"), ("symmetric", 0), ("block_size", "8"), ("beta", True),
            ("damp_ratio", "0.01"),
        ],
    )
    @pytest.mark.parametrize("command", ["quantize", "compare"])
    def test_wrong_engine_field_type_exits_2(self, calibrated, capsys, command, field, value):
        ws = calibrated
        out = ws["dir"] / "out"
        values = {"weights": str(ws["weights"]), "hessians": str(ws["hessians"]), "out": str(out),
                  "engine": "foem", field: value}
        if command == "compare":
            values["engines"] = ["rtn", "foem(plus)"]
        assert _run_with_config(ws, command, values) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_real_bool_symmetric_runs(self, calibrated):
        ws = calibrated
        out = ws["dir"] / "out"
        values = {"weights": str(ws["weights"]), "hessians": str(ws["hessians"]), "out": str(out),
                  "engine": "gptq", "symmetric": False}
        assert _run_with_config(ws, "quantize", values) == 0
        layer = load_quantized(out / "blk0.fc.quantized.safetensors")
        assert layer.config.symmetric is False

    def test_calibrate_damp_ratio_true_exits_2(self, workspace, capsys):
        out = workspace["dir"] / "hes"
        values = {"weights": str(workspace["weights"]), "synthetic": "n_tokens=16", "out": str(out),
                  "damp_ratio": True}
        assert _run_with_config(workspace, "calibrate", values) == 2
        assert "damp_ratio" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, field, value",
        [
            ("quantize", "layers", "blk0*"),
            ("quantize", "layers", [1]),
            ("quantize", "weights", 5),
            ("calibrate", "activations", "acts.safetensors"),
            ("compare", "engines", "rtn gptq"),
            ("verify", "tol_scale", "x"),
            ("verify", "tol_scale", True),
            ("verify", "seed", "abc"),
            ("verify", "seed", 1.5),
        ],
    )
    def test_wrong_option_type_exits_2(self, calibrated, capsys, command, field, value):
        ws = calibrated
        out = ws["dir"] / "out"
        values = {"out": str(out)}
        if command != "verify":
            values["weights"] = str(ws["weights"])
        if command in ("quantize", "compare"):
            values["hessians"] = str(ws["hessians"])
        values[field] = value
        assert _run_with_config(ws, command, values) == 2
        assert f"{field} must be" in capsys.readouterr().err
        assert not out.exists()


class TestScaleSourceRemoved:
    """Every group is fitted from the originals: no flag or key chooses it."""

    @pytest.mark.parametrize("command", ["quantize", "compare"])
    def test_flag_exits_2(self, calibrated, command):
        ws = calibrated
        out = ws["dir"] / "out"
        args = [command, "--weights", ws["weights"], "--hessians", ws["hessians"], "--out", out,
                "--scale-source", "original"]
        if command == "compare":
            args += ["--engines", "rtn", "gptq"]
        with pytest.raises(SystemExit) as exc:
            run_cli(*args)
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["quantize", "compare"])
    def test_config_key_exits_2(self, calibrated, capsys, command):
        ws = calibrated
        out = ws["dir"] / "out"
        values = {"weights": str(ws["weights"]), "hessians": str(ws["hessians"]), "out": str(out),
                  "scale_source": "original"}
        if command == "compare":
            values["engines"] = ["rtn", "gptq"]
        assert _run_with_config(ws, command, values) == 2
        assert "scale_source" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read config file"),
            ("{not json", "cannot read config file"),
            ("[1, 2]", "must hold a JSON object"),
            ('{"bogus": 1}', "unknown config keys"),
        ],
        ids=["missing", "invalid_json", "json_array", "unknown_key"],
    )
    def test_unusable_config_file_exits_2(self, calibrated, capsys, content, message):
        ws = calibrated
        cfg = ws["dir"] / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        out = ws["dir"] / "out"
        assert run_cli(*quantize_args(ws, out, ws["hessians"]), "--config", cfg) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_quantize_without_out_exits_2(self, calibrated, capsys, monkeypatch):
        monkeypatch.delenv("LOWBIT_OUTDIR", raising=False)
        ws = calibrated
        assert run_cli(*quantize_args(ws, None, ws["hessians"])) == 2
        assert "missing required option --out" in capsys.readouterr().err


class TestOSErrors:
    @pytest.mark.parametrize("case", ["quantize_weights", "calibrate_weights", "activations", "out_is_file"])
    def test_missing_or_blocked_path_exits_2(self, calibrated, capsys, case):
        ws = calibrated
        missing = ws["dir"] / "missing.safetensors"
        blocker = ws["dir"] / "a_file"
        blocker.write_text("")
        args = {
            "quantize_weights": quantize_args(ws, ws["dir"] / "q", ws["hessians"], **{"--weights": missing}),
            "calibrate_weights": ["calibrate", "--weights", missing, "--synthetic", "n_tokens=16",
                                  "--out", ws["dir"] / "h"],
            "activations": ["calibrate", "--weights", ws["weights"], "--activations", missing,
                            "--out", ws["dir"] / "h"],
            "out_is_file": quantize_args(ws, blocker, ws["hessians"]),
        }[case]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestHelp:
    # argparse formats a help string only when help is asked for, so a
    # string it cannot format (a stray %, say) shows only here
    @pytest.mark.parametrize(
        "argv", [[], ["calibrate"], ["quantize"], ["compare"], ["verify"]],
        ids=["lowbit", "calibrate", "quantize", "compare", "verify"],
    )
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: lowbit")


class TestVerify:
    def test_fresh_checkout_passes(self, tmp_path, capsys):
        rc = run_cli("verify", "--out", tmp_path)
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] is True

    def test_tolerance_override_reflected(self, tmp_path):
        rc = run_cli("verify", "--out", tmp_path, "--tol-scale", "10")
        assert rc == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["tol_scale"] == 10.0
        scaled = [c for c in report["checks"] if c["name"] == "inverse_factor_identity"]
        assert scaled[0]["threshold"] == pytest.approx(1e-7)

    @pytest.mark.parametrize(
        "field, value",
        [("tol_scale", "nan"), ("tol_scale", "-1"), ("tol_scale", "0"), ("tol_scale", "inf"),
         ("seed", "-1")],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_out_of_range_option_exits_2(self, tmp_path, capsys, field, value, source):
        out = tmp_path / "out"
        if source == "flag":
            rc = run_cli("verify", "--out", out, "--" + field.replace("_", "-"), value)
        else:
            cfg = tmp_path / "cfg.json"
            # json writes the non-finite floats as NaN / Infinity and reads them back
            parsed = int(value) if field == "seed" else float(value)
            cfg.write_text(json.dumps({"out": str(out), field: parsed}))
            rc = run_cli("verify", "--config", cfg)
        assert rc == 2
        assert f"{field} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_checks_exit_4(self, tmp_path):
        # shrinking every scalable threshold below machine precision must
        # flip the residual checks to FAIL and the exit code to 4
        rc = run_cli("verify", "--out", tmp_path, "--tol-scale", "1e-12")
        assert rc == 4
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] is False
