"""Run the benchmark over several seeds and summarize it as a baseline.

Usage (from the repository root):

    python3 bench/sweep.py --seeds 1-10 --out bench/baseline/seed.json

For each workload it runs ``run.py`` once per seed with tracing off, and
once more with tracing on (first seed). Per end-to-end metric it records
every run's value, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the quartile spread as a share of
the median. The traced run's per-layer metrics are recorded as they are,
and so is every run's elapsed time, which bounds how long a full round of
runs takes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict, float]:
    """Returns (result, machine, formulas, elapsed seconds) of one run."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    tagged = {}
    for line in lines:
        tag, _, rest = line.partition(": ")
        if tag in ("machine", "formulas"):
            tagged[tag] = json.loads(rest)
    return json.loads(lines[-1]), tagged.get("machine", {}), tagged.get("formulas", {}), elapsed


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    declared = {m["name"]: m for m in spec["end_to_end"]}

    baseline = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        per_metric: dict[str, list[float]] = {}
        elapsed = []
        for seed in args.seeds:
            result, machine, _, took = one_run(workload, seed, spec["run_seconds"], 0)
            elapsed.append(took)
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
        traced, _, formulas, took = one_run(workload, args.seeds[0], spec["run_seconds"], 1)
        elapsed.append(took)
        end_to_end = {name: summarize(values) for name, values in per_metric.items()}
        baseline["machine"], baseline["formulas"] = machine, formulas
        baseline["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "run_elapsed_s": {"untraced": elapsed[:-1], "traced": elapsed[-1]},
        }
        for name, stats in end_to_end.items():
            print(f"{workload:18s} {name:16s} median {stats['median']:<12.6g} {declared[name]['unit']:11s}"
                  f"spread {stats['spread']:.4f} (bound {declared[name]['bound']})")
        print(f"{workload:18s} run elapsed: mean {statistics.fmean(elapsed[:-1]):.1f}s untraced, "
              f"{elapsed[-1]:.1f}s traced")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
