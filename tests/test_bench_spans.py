"""The benchmark's span wrappers still bind to the library.

``bench/spans.py`` wraps library functions and reads their call arguments
by parameter name, so a renamed or removed parameter breaks a traced
benchmark run (``--trace 1``) while every untraced check still passes.
This drives a small CLI pipeline under the wrappers and checks that each
wrapped site was reached and that the per-layer metrics are the ones the
benchmark declares.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from lowbit.cli import main
from lowbit.tensorio import save_tensors

ROOT = Path(__file__).resolve().parents[1]


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their string annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load_bench("spans")


def test_traced_pipeline_reaches_every_target_and_declared_metric(tmp_path, rng):
    spans = _load_spans()
    # two layers, each with three lazy blocks, from activation shards
    weights, acts = tmp_path / "model.safetensors", tmp_path / "acts.safetensors"
    save_tensors(weights, {"a.fc.weight": rng.standard_normal((8, 12)),
                           "b.fc.weight": rng.standard_normal((6, 12))})
    save_tensors(acts, {"a.fc.input": rng.standard_normal((12, 48)),
                        "b.fc.input.0": rng.standard_normal((12, 32)),
                        "b.fc.input.1": rng.standard_normal((12, 32))})
    hes, flags = tmp_path / "hes", ["--bits", "3", "--group-size", "4", "--block-size", "4"]
    commands = [
        ["calibrate", "--weights", weights, "--activations", acts, "--out", hes],
        ["quantize", "--weights", weights, "--hessians", hes, "--out", tmp_path / "q",
         "--engine", "foem", *flags],
        ["compare", "--weights", weights, "--hessians", hes, "--out", tmp_path / "c",
         "--engines", "rtn", "gptq", "foem", *flags],
    ]
    recorder = spans.Recorder()
    with spans.Instrumentation(recorder), recorder.recording(0):
        for argv in commands:
            assert main([str(a) for a in argv]) == 0

    called = {span[1] for span in recorder.spans}
    targets = {f"{module}.{attr.split('.')[-1]}" for module, attr, _, _ in spans.TARGETS}
    assert targets - called == set()

    metrics = spans.layer_metrics(recorder.spans, 1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) | {"trace_overhead_frac"} == {m["name"] for m in declared}
    assert all(np.isfinite(v) for v in metrics.values())


def test_traced_pipeline_call_counts_match_the_benchmark_coverage_check(tmp_path, rng):
    # the coverage check a traced benchmark run applies, on the benchmark's
    # config and pipeline; d_in > 256 gives three blocks and groups of 128
    spans, workloads = _load_spans(), _load_bench("workloads")
    config = workloads.CONFIG
    layers = (workloads.Layer("a.fc", 8, 300), workloads.Layer("b.fc", 6, 260))
    weights, acts = tmp_path / "model.safetensors", tmp_path / "acts.safetensors"
    save_tensors(weights, {f"{l.name}.weight": rng.standard_normal((l.d_out, l.d_in)) for l in layers})
    save_tensors(acts, {f"{l.name}.input": rng.standard_normal((l.d_in, 400)) for l in layers})
    hes = tmp_path / "hes"
    flags = ["--bits", config["bits"], "--group-size", config["group_size"],
             "--block-size", config["block_size"], "--beta", repr(config["beta"]),
             "--damp-ratio", repr(config["damp_ratio"])]
    commands = [
        ["calibrate", "--weights", weights, "--activations", acts, "--out", hes,
         "--damp-ratio", repr(config["damp_ratio"])],
        ["quantize", "--weights", weights, "--hessians", hes, "--out", tmp_path / "q",
         "--engine", "foem", *flags],
        ["compare", "--weights", weights, "--hessians", hes, "--out", tmp_path / "c",
         "--engines", *workloads.COMPARE_ENGINES, *flags],
    ]
    recorder = spans.Recorder()
    with spans.Instrumentation(recorder), recorder.recording(0):
        for argv in commands:
            assert main([str(a) for a in argv]) == 0

    workload = workloads.Workload()
    workload.engine_runs = tuple(("foem", layer) for layer in layers) + tuple(
        (engine, layer) for layer in layers for engine in workloads.COMPARE_ENGINES
    )
    counts, rtn_groups = spans.call_counts(recorder.spans, 0)
    assert rtn_groups == 12  # one baseline per layer and command, three groups each
    assert workload.coverage_problems(counts, rtn_groups) == []
