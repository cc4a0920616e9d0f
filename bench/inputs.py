"""Seeded input generator, run in its own process before a benchmark run.

Each workload writes its own files (``Workload.generate`` in
``workloads.py``) with ``lowbit.tensorio.save_tensors``; the same seed
gives the same bytes. Running it in a separate process keeps the
generator's arrays out of the benchmark process's peak RSS.

Usage: python3 bench/inputs.py --workload NAME --seed N --out DIR
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    from lowbit.tensorio import save_tensors

    os.makedirs(args.out, exist_ok=True)
    WORKLOADS[args.workload]().generate(args.seed, args.out, save_tensors)
    return 0


if __name__ == "__main__":
    sys.exit(main())
