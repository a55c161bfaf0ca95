"""Print one SHA-256 over every estimator path and reference array of a fixed sweep.

    python3 tools/path_digest.py [--seed 2]

The sweep: OU and Kuramoto, d in {1, 3, 10, 50, 100}, cells (n, m) from
(0, 2) to (4, 4) (without (4, 4) for d >= 50), two runs each, on the
experiment's own parameter, increment and run streams, each run's
increments drawn by `run_cell`'s own routine. For each cell it
hashes the reference values of both runs and each run's estimator path,
with a label naming the array and its shape ahead of its bytes.

Two trees that print the same digest on one host, with the same BLAS
build and thread count, give the same bits for every array of the sweep,
so a refactor that claims "same outputs" is checked with one command on
each tree. The tool imports the `mvmlp` of its own tree, the `src/` next
to its `tools/`, from any working directory and ahead of any installed
copy. The digest itself depends on the BLAS build, so it is a comparison
between trees, not a fixed value to test against. The drawn parameters do
not depend on the BLAS thread count, but 15 of the 318 arrays still do:
all 10 OU d = 100 references (`mat_exp`'s solves at n in {100, 101} and
its 101 x 101 products) and five estimator paths at d = 50 (the
(K, 51) x (51, 2500) sigma product at K in {16, 27}).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

# this tree's package, not whichever mvmlp the path would find first
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mvmlp import bench  # noqa: E402
from mvmlp.mlp import CostLedger, MlpConfig, mlp_estimate  # noqa: E402
from mvmlp.models import MODELS  # noqa: E402
from mvmlp.numerics import TimeGrid  # noqa: E402

DIMS = (1, 3, 10, 50, 100)
CELLS = ((0, 2), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 4))
RUNS = 2


def cells(d: int):
    # a (4, 4) cell at d >= 50 holds (256, d, d) sigma blocks for seconds
    return [cell for cell in CELLS if d < 50 or cell != (4, 4)]


def sweep(seed: int):
    """(label, array) for every array of the sweep, in a fixed order."""
    for kind in MODELS:
        for d in DIMS:
            cfg = bench.ExperimentConfig(model=kind, d=d, runs=RUNS, seed=seed, levels=cells(d))
            model = bench.build_model(cfg)
            for n, m in cfg.levels:
                grid = TimeGrid(T=cfg.T, K=m**n)
                increments = bench._run_increments(cfg, d, grid)
                cell = f"{kind} d={d} n={n} m={m}"
                yield f"{cell} reference", bench._reference(cfg, model, grid, increments)
                for r in range(RUNS):
                    path = mlp_estimate(model, MlpConfig(n=n, m=m, grid=grid),
                                        (bench._RUN_PREFIX, r), seed, increments[r], CostLedger())
                    yield f"{cell} run={r} path", path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2, help="experiment seed (default 2)")
    args = parser.parse_args()
    digest = hashlib.sha256()
    count = 0
    try:
        for label, arr in sweep(args.seed):
            arr = np.ascontiguousarray(arr, dtype=float)
            digest.update(f"{label} {arr.shape}\n".encode())
            digest.update(arr.tobytes())
            count += 1
    except ValueError as exc:   # a seed that ExperimentConfig refuses
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{digest.hexdigest()}  {count} arrays, seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
