"""One workload process of the benchmark; `run.py` starts it.

Modes:
  setup    import mvmlp and build the model, report the seconds it took;
  measure  the same, then a warm-up cell, then untraced run_experiment
           calls repeated for the given seconds;
  trace    the same warm-up, then untraced and traced calls alternating
           for the given seconds;
  golden   one untraced call, its cells printed for golden.json.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import THREAD_VARS, WORKLOADS, config_kwargs  # noqa: E402

# one BLAS thread: multi-threaded OpenBLAS is slower at these matrix sizes
# and makes run-to-run times noisy; this must precede numpy's import
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

GOLDEN = Path(__file__).resolve().parent / "golden.json"
# admits float-reordering drift (~1e-13 on path values), not an estimator change
GOLDEN_RTOL = 1e-10
MIN_REPS = 3


def more(done: int, start: float, last: float, seconds: float) -> bool:
    """Whether to start another call: at least MIN_REPS, and otherwise only
    while one more call as long as the last ends within `seconds`, so a
    run's length does not overshoot by a call."""
    return done < MIN_REPS or time.perf_counter() - start + last <= seconds


def _import_mvmlp():
    import mvmlp

    where = Path(mvmlp.__file__).resolve().parent
    if where != SRC / "mvmlp":
        raise SystemExit(f"mvmlp imported from {where}, expected the checkout's {SRC / 'mvmlp'}")
    return mvmlp


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def cells(rows) -> list:
    return [
        {"n": r.n, "m": r.m, "K": r.K, "l2_error": r.l2_error, "cost": r.cost,
         "time_s": r.time_s, "runs": len(r.per_run_errors)}
        for r in rows
    ]


def check_rows(rows, expected_levels, units, golden) -> list:
    """Failure messages of one call's rows, one per failed cell."""
    from mvmlp.mlp import analytic_cost

    problems = []
    if [(r.n, r.m) for r in rows] != [tuple(p) for p in expected_levels]:
        return [f"cells {[(r.n, r.m) for r in rows]} != requested {expected_levels}"]
    for i, r in enumerate(rows):
        where = f"cell (n={r.n}, m={r.m})"
        if r.cost != analytic_cost(r.n, r.m, r.K, r.d, units):
            problems.append(f"{where}: cost {r.cost} != analytic_cost")
        elif not all(math.isfinite(e) for e in [r.l2_error, *r.per_run_errors]):
            problems.append(f"{where}: non-finite error")
        elif golden is not None:
            g = golden[i]
            if r.cost != g["cost"] or not math.isclose(
                r.l2_error, g["l2_error"], rel_tol=GOLDEN_RTOL, abs_tol=0.0
            ):
                problems.append(
                    f"{where}: (l2_error, cost) = ({r.l2_error!r}, {r.cost}) "
                    f"!= golden ({g['l2_error']!r}, {g['cost']})"
                )
    return problems


def load_golden(name: str, kw: dict):
    """Golden cells for the default seed, or None for any other seed."""
    if kw["seed"] != 0:
        return None
    entry = json.loads(GOLDEN.read_text())[name]
    if entry["config"] != {k: WORKLOADS[name][k] for k in entry["config"]}:
        raise SystemExit(f"golden.json was recorded for another {name} config; re-record it")
    return entry["cells"]


class Outcome:
    """Attempted and failed runs, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.first = None

    def record(self, rows, runs_per_call, problems) -> None:
        self.attempted += runs_per_call
        if rows is not None and self.first is None:
            self.first = rows
        elif rows is not None and [
            (r.l2_error, r.per_run_errors, r.cost) for r in rows
        ] != [(r.l2_error, r.per_run_errors, r.cost) for r in self.first]:
            problems = problems + ["results differ from the first call of this process"]
        if problems:
            self.failed += runs_per_call
            self.problems.extend(problems)


def timed_call(run_experiment, cfg):
    """(rows or None, wall seconds, failure messages) of one call."""
    from mvmlp.mlp import NumericOverflowError

    start = time.perf_counter()
    try:
        rows = run_experiment(cfg)
    except (RuntimeError, NumericOverflowError, ValueError, FloatingPointError) as exc:
        return None, time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    return rows, time.perf_counter() - start, []


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace", "golden"))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    _import_mvmlp()
    from mvmlp.bench import ExperimentConfig, build_model, run_experiment

    kw = config_kwargs(args.workload, args.seed, "smoke" if args.smoke else "full")
    cfg = ExperimentConfig(**kw)
    model = build_model(cfg)
    setup_s = time.perf_counter() - _T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    result = {"setup_s": setup_s, "env": environment()}
    runs_per_call = cfg.runs * len(cfg.levels)
    golden = None if args.smoke or args.mode == "golden" else load_golden(args.workload, kw)
    outcome = Outcome()

    if args.mode == "golden":
        rows, _, problems = timed_call(run_experiment, cfg)
        if rows is not None:
            problems += check_rows(rows, cfg.levels, model.unit_costs, None)
        if problems:
            raise SystemExit("; ".join(problems))
        print(json.dumps({"config": WORKLOADS[args.workload], "cells": cells(rows)}))
        return

    run_experiment(ExperimentConfig(**config_kwargs(args.workload, args.seed, "warmup")))

    def untraced():
        rows, wall, problems = timed_call(run_experiment, cfg)
        if rows is not None:
            problems += check_rows(rows, cfg.levels, model.unit_costs, golden)
        outcome.record(rows, runs_per_call, problems)
        # peak memory over set-up, warm-up and one call: later calls only
        # add allocator fragmentation, which grows with the number of calls
        # and so would tie the figure to speed
        result.setdefault("peak_rss_kib", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return rows, wall

    calls = []
    traced = []
    start = time.perf_counter()
    if args.mode == "measure":
        wall = 0.0
        while more(len(calls), start, wall, args.seconds):
            rows, wall = untraced()
            calls.append({"wall_s": wall, "cells": cells(rows) if rows else None})
    else:
        from tracer import Tracer, expected_cost

        spans_out = []
        pair = 0.0
        while more(len(traced), start, pair, args.seconds):
            pair_start = time.perf_counter()
            _, wall = untraced()
            calls.append({"wall_s": wall})
            tracer = Tracer()
            tracer.install()
            try:
                rows, twall, problems = tracer.span(
                    "run_experiment", timed_call, run_experiment, cfg
                )
            finally:
                tracer.uninstall()
            run_span = tracer.spans[0]
            if rows is not None:
                problems += check_rows(rows, cfg.levels, model.unit_costs, golden)
                if tracer.cost_units != expected_cost(rows, model.unit_costs):
                    problems.append(
                        f"traced ledger cost {tracer.cost_units} != closed form "
                        f"{expected_cost(rows, model.unit_costs)}"
                    )
            problems += tracer.parity_failures
            outcome.record(rows, runs_per_call, problems)
            traced.append({
                "wall_s": twall,
                "layers": tracer.layer_metrics(run_span),
                "parity": tracer.parity_metrics(),
            })
            spans_out.append([
                [sp.id, sp.parent, sp.name, sp.start - run_span.start, sp.end - run_span.start]
                for sp in tracer.spans
            ])
            pair = time.perf_counter() - pair_start
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "calls": [{"spans": s, **t} for s, t in zip(spans_out, traced)],
        }))
        result["trace_file"] = str(trace_file.relative_to(ROOT))

    result.update({
        "runs_per_call": runs_per_call,
        "calls": calls,
        "traced": traced,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems[:20],
    })
    print(json.dumps(result))


if __name__ == "__main__":
    main()
