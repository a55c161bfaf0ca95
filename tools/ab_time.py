"""Time one benchmark cell on two checkouts in one process, calls alternated.

    python3 tools/ab_time.py A B [--model ou] [--d 10] [--levels 4x4] [--pairs 30]

A and B are checkout roots. Each one's `src/mvmlp` is copied into a
temporary directory under its own package name, so both import into this
process, and `run_experiment` of the same cell (flags spelled as in
`mvmlp-bench`; one run, seed 0, as in the benchmark's workloads) is
called on A and on B in turn, which of them goes first alternating from
pair to pair. The output gives each side's 10 %-trimmed mean and median
call time, the runs/s ratio B/A (A's trimmed mean over B's), the number
of pairs in which B was faster (ties count for neither side), and the
median and quartiles of the per-pair ratios B/A (A's call time over B's).
A cell that `mvmlp-bench` would refuse ends the tool with one `error:`
line and exit code 2, before any estimator call.

The host's speed drifts over seconds, and the same tree can run twice as
fast in one process as in another, so two trees are compared by calls
interleaved in one process, not by separate runs. BLAS thread counts left
unset in the environment are pinned to 1, as in `benchmark/run.py`.

The side a tree takes can bias the ratio by several per cent, so a claim
is run twice, with each tree as A, and reports both runs.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TRIM = 0.1


def trimmed_mean(values) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut])


def load(root: str, name: str, into: Path):
    """`root`'s src/mvmlp imported as package `name` from a copy in `into`."""
    src = Path(root) / "src" / "mvmlp"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"error: {root} has no src/mvmlp package")
    shutil.copytree(src, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="checkout root A (the base)")
    parser.add_argument("b", help="checkout root B (the change)")
    parser.add_argument("--model", default="ou", choices=["ou", "kuramoto"])
    parser.add_argument("--d", type=int, default=10)
    parser.add_argument("--levels", default="4x4", help="as in mvmlp-bench, e.g. '4x4' or '3'")
    parser.add_argument("--pairs", type=int, default=30)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")

    cell = ["--model", args.model, "--d", str(args.d), "--levels", args.levels,
            "--runs", "1", "--seed", "0"]
    with tempfile.TemporaryDirectory(prefix="ab_time-") as tmp:
        sys.path.insert(0, tmp)
        try:
            sides = [load(root, name, Path(tmp)) for root, name in
                     ((args.a, "mvmlp_a"), (args.b, "mvmlp_b"))]
            cfgs = [importlib.import_module(f"{pkg.__name__}.cli").config_from_args(cell)
                    for pkg in sides]
            for pkg, cfg in zip(sides, cfgs):
                pkg.run_experiment(cfg)     # warm-up: lazy set-up stays out of the timing
            walls = ([], [])
            for pair in range(args.pairs):
                for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                    start = time.perf_counter()
                    sides[side].run_experiment(cfgs[side])
                    walls[side].append(time.perf_counter() - start)
        except ValueError as exc:   # a flag value or a cell that mvmlp refuses
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            sys.path.remove(tmp)

    threads = " ".join(f"{var}={os.environ[var]}" for var in THREAD_VARS)
    print(f"cell: {' '.join(cell)}; {args.pairs} pairs; {threads}")
    for label, root, wall in (("A", args.a, walls[0]), ("B", args.b, walls[1])):
        print(f"{label} {root}: trimmed-mean call {trimmed_mean(wall) * 1e3:.1f} ms, "
              f"median {statistics.median(wall) * 1e3:.1f} ms")
    ratios = [a / b for a, b in zip(*walls)]
    won = sum(r > 1 for r in ratios)
    ratio = trimmed_mean(walls[0]) / trimmed_mean(walls[1])
    print(f"runs/s B/A: x{ratio:.3f}; B faster in {won} of {args.pairs} pairs")
    # quantiles() needs two values: one pair is its own quartiles
    q1, median, q3 = (statistics.quantiles(ratios, method="inclusive") if len(ratios) > 1
                      else ratios * 3)
    print(f"per-pair B/A: median x{median:.3f}, quartiles x{q1:.3f} to x{q3:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
