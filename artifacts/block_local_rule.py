"""Acceptance rule for foem's block-local first-order term, with foem/gptq by width.

Usage (from the repository root):

    python3 artifacts/block_local_rule.py --exact-src CHECKOUT/src \
        --out artifacts/block_local_rule.json

``--exact-src`` is the ``src`` directory of a checkout whose foem carries the
first-order term across blocks (the commit before the block-local change).
The block-local side is this repository's own ``src``. Each side runs in its
own interpreter, one after the other, and reports the proxy loss of every
run; this process pairs them up. The worker passes ``scale_source``, which
the commit after 9883fc1 removed, so run the script from a checkout of
9883fc1.

The rule, fixed before it was first run:

* held-out seeds 100-129;
* shapes 256 x 512 with 2048 tokens, 512 x 1024 with 4096 tokens and
  2048 x 512 with 2048 tokens;
* the Hessian of ``generate_synthetic(SyntheticSpec(d_in, tokens, 0.9, seed))``
  and ``W = default_rng(10_000 + seed).standard_normal((d_out, d_in))``;
* both signs, bits 3 and 4, ``scale_source`` latent and original; group 128,
  block 128, beta 3e-4, damp 0.01;
* ratio = block-local proxy loss / exact proxy loss;
* accept iff the pooled mean ratio is <= 1.001 for each sign and the mean
  ratio over all runs of each shape is <= 1.005.

gptq runs on the same inputs on both sides: its losses must agree exactly
(gptq's arithmetic does not depend on the first-order term), and they give
foem/gptq by width under both definitions. Takes a few minutes on 2 vCPUs.
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
SEEDS = range(100, 130)
SHAPES = [(256, 512, 2048), (512, 1024, 4096), (2048, 512, 2048)]
BITS = (3, 4)
SOURCES = ("latent", "original")
SIGNS = ("minus", "plus")
CONFIG = dict(group_size=128, block_size=128, beta=3e-4, damp_ratio=0.01)
SHARE_BOUND = 1.001
SHAPE_BOUND = 1.005


def shape_name(d_out: int, d_in: int) -> str:
    return f"{d_out}x{d_in}"


def worker() -> None:
    """Print one JSON line per (shape, seed, bits, source): every engine's loss."""
    import numpy as np

    from lowbit.calib import SyntheticSpec, generate_synthetic
    from lowbit.engines import EngineConfig, LayerBundle, PreparedLayer
    from lowbit.linalg import HessianState

    for d_out, d_in, tokens in SHAPES:
        for seed in SEEDS:
            X = generate_synthetic(SyntheticSpec(d_in, tokens, 0.9, seed))
            hess = HessianState(d_in).accumulate(X)
            W = np.random.default_rng(10_000 + seed).standard_normal((d_out, d_in))
            for bits in BITS:
                base = EngineConfig(bits=bits, **CONFIG)
                prepared = PreparedLayer(W, hess, base.grid(), base.damp_ratio)
                for source in SOURCES:
                    losses = {}
                    for engine, sign in [("gptq", "minus")] + [("foem", s) for s in SIGNS]:
                        config = EngineConfig(
                            engine=engine, bits=bits, first_order_sign=sign,
                            scale_source=source, **CONFIG,
                        )
                        _, report = prepared.run(LayerBundle(W), config)
                        key = "gptq" if engine == "gptq" else f"foem_{sign}"
                        losses[key] = report.proxy_loss
                    print(json.dumps({
                        "shape": shape_name(d_out, d_in), "tokens": tokens, "seed": seed,
                        "bits": bits, "scale_source": source, **losses,
                    }), flush=True)


def run_side(src: Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, __file__, "--worker"], env=env, capture_output=True, text=True
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


def summarize(local: list[dict], exact: list[dict]) -> dict:
    key = lambda r: (r["shape"], r["seed"], r["bits"], r["scale_source"])
    exact_by = {key(r): r for r in exact}
    runs = []
    gptq_identical = True
    for r in local:
        x = exact_by[key(r)]
        gptq_identical &= r["gptq"] == x["gptq"]
        for sign in SIGNS:
            bl, ex = r[f"foem_{sign}"], x[f"foem_{sign}"]
            runs.append({
                "shape": r["shape"], "tokens": r["tokens"], "seed": r["seed"], "bits": r["bits"],
                "scale_source": r["scale_source"], "sign": sign, "gptq": r["gptq"],
                "block_local": bl, "exact": ex, "ratio": bl / ex,
            })
    shapes = [shape_name(d_out, d_in) for d_out, d_in, _ in SHAPES]
    by_sign = {s: mean(u["ratio"] for u in runs if u["sign"] == s) for s in SIGNS}
    by_shape = {n: mean(u["ratio"] for u in runs if u["shape"] == n) for n in shapes}
    by_shape_sign = {
        n: {s: mean(u["ratio"] for u in runs if u["shape"] == n and u["sign"] == s) for s in SIGNS}
        for n in shapes
    }
    lower = {
        s: sum(u["block_local"] < u["exact"] for u in runs if u["sign"] == s) for s in SIGNS
    }
    by_width = {
        n: {
            definition: {
                s: mean(u[definition] / u["gptq"] for u in runs if u["shape"] == n and u["sign"] == s)
                for s in SIGNS
            }
            for definition in ("block_local", "exact")
        }
        for n in shapes
    }
    accept = all(v <= SHARE_BOUND for v in by_sign.values()) and all(
        v <= SHAPE_BOUND for v in by_shape.values()
    )
    return {
        "mean_ratio_by_sign": by_sign,
        "mean_ratio_by_shape": by_shape,
        "mean_ratio_by_shape_and_sign": by_shape_sign,
        "max_ratio": max(u["ratio"] for u in runs),
        "min_ratio": min(u["ratio"] for u in runs),
        "block_local_lower": {s: f"{lower[s]}/{len(runs) // len(SIGNS)}" for s in SIGNS},
        "foem_over_gptq_by_width": by_width,
        "gptq_losses_identical": gptq_identical,
        "verdict": "accept" if accept else "reject",
    }, runs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--exact-src", type=Path, help="src/ of a checkout with the cross-block term")
    ap.add_argument("--out", type=Path, default=ROOT / "artifacts" / "block_local_rule.json")
    args = ap.parse_args()
    if args.worker:
        worker()
        return
    if args.exact_src is None:
        ap.error("--exact-src is required")
    local = run_side(ROOT / "src")
    exact = run_side(args.exact_src.resolve())
    summary, runs = summarize(local, exact)
    rule = (
        f"seeds {SEEDS.start}-{SEEDS.stop - 1}; shapes "
        + ", ".join(f"{o} x {i} with {t} tokens" for o, i, t in SHAPES)
        + f"; signs {SIGNS}, bits {BITS}, scale_source {SOURCES}; {CONFIG}; ratio = block-local"
        f" / exact proxy loss; accept iff the mean ratio is <= {SHARE_BOUND} for each sign"
        f" and <= {SHAPE_BOUND} over each shape"
    )
    result = {"rule": rule, "machine": machine(), **summary, "runs": runs}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(json.dumps({k: v for k, v in result.items() if k != "runs"}, indent=1))


if __name__ == "__main__":
    main()
