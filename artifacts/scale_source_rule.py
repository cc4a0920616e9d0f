"""Acceptance rule for fitting every scale group from the original weights.

Usage (from the repository root):

    python3 artifacts/scale_source_rule.py --parent-src CHECKOUT/src \
        --out artifacts/scale_source_rule.json

``--parent-src`` is the ``src`` directory of commit 9883fc1, the last one
with ``EngineConfig.scale_source``. There every run is made twice, with its
groups fitted from the latent weights and from the original weights. The
changed code (``--change-src``, by default this repository's own ``src``)
has no such field and always fits from the originals; it runs once per
input, and its losses must equal the parent's ``"original"`` side exactly.
Each side runs in its own interpreter, one after the other; this process
pairs up their proxy losses.

The rule, fixed before it was first run:

* ratio = proxy loss with ``scale_source="original"`` / proxy loss with
  ``scale_source="latent"``, both at the parent, on identical inputs;
* synthetic inputs: the Hessian of
  ``generate_synthetic(SyntheticSpec(d_in, tokens, 0.9, seed))`` and
  ``W = default_rng(10_000 + seed).standard_normal((d_out, d_in))``; shapes
  256 x 512 with 2048 tokens, 512 x 1024 with 4096 tokens and 2048 x 512
  with 2048 tokens; seeds 200-229;
* bench-generator inputs: ``rng = default_rng(seed)``, then
  ``W = weight(rng, d_out, d_in)`` and ``X = activations(rng, d_in, tokens)``
  from ``bench/workloads.py``; shapes 512 x 512, 512 x 1408 and 1408 x 512
  with 2048 tokens, 1024 x 1024 and 256 x 2048 with 4096 tokens; seeds
  200-209;
* tokens gptq, foem(minus) and foem(plus); bits 3 and 4; symmetric, group
  128, block 128, beta 3e-4, damp 0.01;
* accept iff the pooled mean ratio of each (token, bits) is <= 1.000 and
  the mean ratio of every (shape, bits, token) cell is <= 1.01.

Takes about ten minutes on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SYNTHETIC = [(256, 512, 2048), (512, 1024, 4096), (2048, 512, 2048)]
SYNTHETIC_SEEDS = range(200, 230)
BENCH = [(512, 512, 2048), (512, 1408, 2048), (1408, 512, 2048), (1024, 1024, 4096), (256, 2048, 4096)]
BENCH_SEEDS = range(200, 210)
BITS = (3, 4)
TOKENS = ("gptq", "foem(minus)", "foem(plus)")
CONFIG = dict(group_size=128, block_size=128, beta=3e-4, damp_ratio=0.01)
POOLED_BOUND = 1.000
CELL_BOUND = 1.01


def inputs():
    """Yield (family, shape name, tokens, seed, W, X) for every input of the rule."""
    import numpy as np

    from lowbit.calib import SyntheticSpec, generate_synthetic

    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import activations, weight

    for d_out, d_in, tokens in SYNTHETIC:
        for seed in SYNTHETIC_SEEDS:
            X = generate_synthetic(SyntheticSpec(d_in, tokens, 0.9, seed))
            W = np.random.default_rng(10_000 + seed).standard_normal((d_out, d_in))
            yield "synthetic", f"{d_out}x{d_in}", tokens, seed, W, X
    for d_out, d_in, tokens in BENCH:
        for seed in BENCH_SEEDS:
            rng = np.random.default_rng(seed)
            W = weight(rng, d_out, d_in)
            X = activations(rng, d_in, tokens)
            yield "bench", f"{d_out}x{d_in}", tokens, seed, W, X


def worker(sources: list[str]) -> None:
    """Print one JSON line per (input, bits, source) with every token's loss.

    ``sources`` are the ``scale_source`` values to run; an empty list runs
    the default config once, under the source name "change"."""
    from lowbit.engines import EngineConfig, LayerBundle, PreparedLayer
    from lowbit.linalg import HessianState

    for family, shape, tokens, seed, W, X in inputs():
        hess = HessianState(X.shape[0]).accumulate(X)
        for bits in BITS:
            base = EngineConfig(bits=bits, **CONFIG)
            prepared = PreparedLayer(W, hess, base.grid(), base.damp_ratio)
            for source in sources or ["change"]:
                extra = {"scale_source": source} if sources else {}
                losses = {}
                for token in TOKENS:
                    engine, _, sign = token.rstrip(")").partition("(")
                    config = EngineConfig(
                        engine=engine, bits=bits, first_order_sign=sign or "minus",
                        **CONFIG, **extra,
                    )
                    _, report = prepared.run(LayerBundle(W), config)
                    losses[token] = report.proxy_loss
                print(json.dumps({
                    "inputs": family, "shape": shape, "tokens": tokens, "seed": seed,
                    "bits": bits, "source": source, "losses": losses,
                }), flush=True)


def run_side(src: Path, sources: list[str]) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", *sources], env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker on {src} exited {proc.returncode}:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def machine() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
    }


def mean(values) -> float:
    return statistics.fmean(values)


def summarize(parent: list[dict], change: list[dict]) -> tuple[dict, list[dict]]:
    key = lambda r: (r["inputs"], r["shape"], r["seed"], r["bits"])
    side = {(key(r), r["source"]): r["losses"] for r in parent}
    changed = {key(r): r["losses"] for r in change}
    runs = []
    for k, losses in changed.items():
        latent, original = side[k, "latent"], side[k, "original"]
        for token in TOKENS:
            runs.append({
                "inputs": k[0], "shape": k[1], "seed": k[2], "bits": k[3], "token": token,
                "latent": latent[token], "original": original[token], "change": losses[token],
                "ratio": original[token] / latent[token],
            })
    pooled = {
        f"{t} {b}-bit": mean(u["ratio"] for u in runs if u["token"] == t and u["bits"] == b)
        for t in TOKENS for b in BITS
    }
    cells = {}
    for u in runs:
        cells.setdefault(f"{u['inputs']} {u['shape']} {u['bits']}-bit {u['token']}", []).append(u["ratio"])
    cell_stats = {
        name: {"mean": mean(r), "sd": statistics.stdev(r), "n": len(r)} for name, r in cells.items()
    }
    worst = max(cell_stats, key=lambda n: cell_stats[n]["mean"])
    accept = all(v <= POOLED_BOUND for v in pooled.values()) and all(
        s["mean"] <= CELL_BOUND for s in cell_stats.values()
    )
    return {
        "pooled_mean_ratio": pooled,
        "worst_cell": {"cell": worst, **cell_stats[worst]},
        "original_lower": f"{sum(u['original'] < u['latent'] for u in runs)}/{len(runs)}",
        "min_ratio": min(u["ratio"] for u in runs),
        "max_ratio": max(u["ratio"] for u in runs),
        "change_equals_original": all(u["change"] == u["original"] for u in runs),
        "verdict": "accept" if accept else "reject",
        "cells": cell_stats,
    }, runs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--worker", nargs="*", metavar="SOURCE", help=argparse.SUPPRESS)
    ap.add_argument("--parent-src", type=Path, help="src/ of commit 9883fc1")
    ap.add_argument("--change-src", type=Path, default=ROOT / "src")
    ap.add_argument("--out", type=Path, default=ROOT / "artifacts" / "scale_source_rule.json")
    args = ap.parse_args()
    if args.worker is not None:
        worker(args.worker)
        return
    if args.parent_src is None:
        ap.error("--parent-src is required")
    parent = run_side(args.parent_src.resolve(), ["latent", "original"])
    change = run_side(args.change_src.resolve(), [])
    summary, runs = summarize(parent, change)
    rule = (
        "ratio = proxy loss with scale_source='original' / with 'latent', at 9883fc1; synthetic "
        + ", ".join(f"{o} x {i} with {t} tokens" for o, i, t in SYNTHETIC)
        + f", seeds {SYNTHETIC_SEEDS.start}-{SYNTHETIC_SEEDS.stop - 1}; bench-generator "
        + ", ".join(f"{o} x {i} with {t} tokens" for o, i, t in BENCH)
        + f", seeds {BENCH_SEEDS.start}-{BENCH_SEEDS.stop - 1}; tokens {TOKENS}, bits {BITS};"
        f" {CONFIG}; accept iff the pooled mean ratio of each (token, bits) is <= {POOLED_BOUND}"
        f" and every (shape, bits, token) cell's mean is <= {CELL_BOUND}"
    )
    result = {"rule": rule, "machine": machine(), **summary, "runs": runs}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(json.dumps({k: v for k, v in result.items() if k not in ("runs", "cells")}, indent=1))


if __name__ == "__main__":
    main()
