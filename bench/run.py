"""lowbit benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 bench/run.py --workload cli-block --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``. A run

1. generates its inputs from ``--seed`` in a separate process
   (``inputs.py``), so the generator's arrays do not set the peak RSS;
2. sets up: ``import lowbit`` (timed as the median of three fresh
   interpreters) plus one untimed warm-up pass, whose outputs are the
   reference every later pass must reproduce byte for byte;
3. runs passes back to back (a closed loop with one client) until
   ``--seconds`` have passed and at least three passes are timed,
   checking each pass's outputs;
4. prints one line per metric and, last, one JSON object.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
untraced and traced passes alternate; the traced ones run with lowbit's
functions wrapped (``spans.py``) and with tracemalloc on, and the metrics
are per layer, plus the tracing overhead. Spans are written to
``.bench_run/spans-<workload>-seed<seed>.jsonl``.

The run exits 1 if any output check fails or a wrapped call count does not
match the workload's shapes, and 2 if lowbit's sources are not found.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import machine
import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
IMPORT_SAMPLES = 3
# a median of three shrugs off one pass slowed by a noisy neighbour
MIN_TIMED_PASSES = 3


def import_seconds() -> float:
    """Median time of ``import lowbit`` in fresh interpreters."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import lowbit.cli; print(time.perf_counter() - t)"
    )
    samples = [
        float(subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(IMPORT_SAMPLES)
    ]
    return statistics.median(samples)


def generate_inputs(workload: str, seed: int, out: Path) -> float:
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(BENCH / "inputs.py"), "--workload", workload, "--seed", str(seed),
         "--out", str(out)],
        check=True,
    )
    return time.perf_counter() - t0


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"none (n={n} < 11)"
    return f"p{100 * (n - 10) / n:.0f}={sorted(samples)[n - 11]:.4f}s"


def import_lowbit():
    sys.path.insert(0, str(SRC))
    import lowbit
    import lowbit.cli

    if Path(lowbit.__file__).resolve().parent != SRC / "lowbit":
        raise ImportError(f"lowbit imported from {lowbit.__file__}, not {SRC}")
    return lowbit


def run(args) -> int:
    workload = WORKLOADS[args.workload]()
    work = OUT / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    inputs = work / "inputs"
    try:
        gen_s = generate_inputs(args.workload, args.seed, inputs)
        import_s = import_seconds()
        lowbit = import_lowbit()
        print("machine:", json.dumps(machine.describe(), sort_keys=True))
        workload.prepare(lowbit, str(inputs), str(work))
        warm = workload.run_pass()
        setup_s = import_s + warm.wall_s
        print(f"inputs: generated in {gen_s:.3f}s (not part of setup_s); "
              f"setup: import {import_s:.3f}s + warm-up pass {warm.wall_s:.3f}s")

        recorder = spans.Recorder()
        timed, traced = [], []
        start = time.perf_counter()
        min_passes = 1 if args.trace else MIN_TIMED_PASSES
        while len(timed) < min_passes or time.perf_counter() - start < args.seconds:
            timed.append(workload.run_pass())
            if args.trace:
                with spans.Instrumentation(recorder):
                    traced.append(workload.run_pass(lambda: recorder.recording(len(traced))))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = [warm, *timed, *traced]
    reference = warm.fingerprint
    for res in passes[1:]:
        for (op, path), digest in reference.items():
            if res.fingerprint.get((op, path), digest) != digest:
                res.fail(op, f"{os.path.basename(path)} differs from the warm-up pass")
    problems = [f"{op}: {msg}" for res in passes for op, msgs in res.failures.items() for msg in msgs]
    attempted = sum(res.attempted for res in passes)
    failed = sum(len(res.failures) for res in passes)

    walls = [res.wall_s for res in timed]
    wall_s = statistics.median(walls)
    print(f"wall_s: median {wall_s:.4f}s of n={len(walls)} passes, tail {tail_percentile(walls)}; "
          f"samples {[round(w, 4) for w in walls]}")

    if args.trace:
        for pass_id in range(len(traced)):
            counts, rtn_groups = spans.call_counts(recorder.spans, pass_id)
            problems += [f"coverage: traced pass {pass_id} {msg}"
                         for msg in workload.coverage_problems(counts, rtn_groups)]
        metrics = spans.layer_metrics(recorder.spans, len(traced))
        metrics["trace_overhead_frac"] = (
            statistics.median(res.wall_s for res in traced) / wall_s - 1.0
        )
        OUT.mkdir(exist_ok=True)
        recorder.dump(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        print("formulas:", json.dumps(spans.FORMULAS, sort_keys=True))
    else:
        rtn_relative = [r for res in timed for r in res.rtn_relative]
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "mweights_per_s": workload.weights_per_pass() / 1e6 / wall_s,
            "rtn_relative": statistics.fmean(rtn_relative) if rtn_relative else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "ok_frac": 1.0 - failed / attempted,
        }

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not both measured and declared")

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for problem in problems:
        print("FAIL", problem, file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="lowbit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "lowbit" / "__init__.py").is_file():
        print(f"error: lowbit sources not found under {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
