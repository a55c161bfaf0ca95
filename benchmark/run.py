"""The mvmlp benchmark: one command for one workload.

    python3 benchmark/run.py --workload ou-d10-n4 --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; it imports the package from `src/`.
Every process it starts is a fresh Python with one BLAS thread.

--trace 0  untraced end-to-end metrics: runs_per_s, estimate_s,
           setup_s, peak_rss_mb (and l2_error and error_rate, printed).
           runs_per_s and estimate_s are 10 %-trimmed means over the
           run's calls; median, quartiles and count are printed beside.
--trace 1  per-layer metrics from an outside-in traced run, the
           trace/ledger parity check and the tracing overhead.

Both modes check the results: cost equals the closed form, errors are
finite, repeated calls agree exactly, and for seed 0 every cell matches
golden.json. Any failure makes the exit code non-zero. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

--record-golden rewrites golden.json from seed-0 runs of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import THREAD_VARS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# fresh processes whose set-up times give setup_s's median: import time
# alone varies by 2x between processes on a shared machine
SETUP_SAMPLES = 5
# every process started is killed once the command has run this long
DEADLINE = time.monotonic() + 170.0
# share of the calls cut from each end before averaging call times: the
# host's speed drifts over tens of seconds, and a mean over the whole run
# follows that drift less noisily than a median does, while the cut keeps
# a rare stalled call from moving it
TRIM = 0.1

END_TO_END_UNITS = {
    "runs_per_s": "runs/s",
    "estimate_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "numerics.grid_floor_index.calls": "count",
    "numerics.grid_floor_index.s": "s",
    "numerics.mat_exp.calls": "count",
    "numerics.mat_exp.s": "s",
    "randomness.derive_stream.calls": "count",
    "randomness.derive_stream.s": "s",
    "randomness.normals.scalars": "count",
    "randomness.normals.s": "s",
    "models.drift.calls": "count",
    "models.drift.s": "s",
    "models.diffusion.calls": "count",
    "models.diffusion.rows": "count",
    "models.diffusion.s": "s",
    "models.diffusion.bytes": "B",
    "mlp.mlp_estimate.calls": "count",
    "mlp.mlp_estimate.s": "s",
    "mlp.self_s": "s",
    "mlp.mu_evals": "count",
    "mlp.sigma_evals": "count",
    "mlp.rv_draws": "count",
    "mlp.cost_units": "units",
    "mlp.cost_units_per_s": "units/s",
    "reference.path.calls": "count",
    "reference.path.s": "s",
    "reference.moments.s": "s",
    "bench.self_s": "s",
    "bench.build_model.s": "s",
    "trace.overhead": "ratio",
}
# spans whose share of the traced run_experiment wall is printed; nested
# ones (mat_exp inside reference.path) are shares of the same whole
SHARES = (
    "numerics.grid_floor_index.s", "numerics.mat_exp.s", "randomness.derive_stream.s",
    "randomness.normals.s", "models.drift.s", "models.diffusion.s", "mlp.self_s",
    "reference.path.s", "reference.moments.s", "bench.self_s", "bench.build_model.s",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def worker(workload: str, seed: int, mode: str, seconds: float = 0.0, smoke: bool = False) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds)] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process for {workload} timed out after {exc.timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def summary(values) -> str:
    """Median, quartiles, count, and the highest percentile with at least
    ten samples beyond it."""
    values = sorted(values)
    med = statistics.median(values)
    if len(values) < 2:
        return f"median {med:.6g} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    text = f"median {med:.6g} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[p - 1]
            text += f", p{p} {cut:.6g}"
            break
    return text + ")"


def trimmed_mean(values) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut])


def end_to_end(res: dict, setups: list) -> dict:
    calls = [c for c in res["calls"] if c["cells"] is not None]
    if not calls:
        raise BenchError("no call of run_experiment completed")
    walls = [c["wall_s"] for c in calls]
    rates = [res["runs_per_call"] / w for w in walls]
    deepest = [max(c["cells"], key=lambda cell: cell["n"]) for c in calls]
    estimate = [cell["time_s"] for cell in deepest]
    metrics = {
        "runs_per_s": res["runs_per_call"] / trimmed_mean(walls),
        "estimate_s": trimmed_mean(estimate),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_kib"] / 1024.0,
    }
    printed = {
        "l2_error": deepest[0]["l2_error"],
        "error_rate": res["failed"] / res["attempted"],
    }
    print(f"runs_per_s    {metrics['runs_per_s']:.6g} runs/s  [per trimmed-mean call]  "
          f"{summary(rates)}")
    print(f"estimate_s    {metrics['estimate_s']:.6g} s  [trimmed mean]  {summary(estimate)}"
          f"  [deepest cell n={deepest[0]['n']}, mean of {deepest[0]['runs']} calls each]")
    print(f"setup_s       {metrics['setup_s']:.6g} s  {summary(setups)}  [cold processes]")
    print(f"peak_rss_mb   {metrics['peak_rss_mb']:.6g} MiB  [set-up, warm-up and one call]")
    print(f"l2_error      {printed['l2_error']:.12e} 1  [deepest cell, deterministic per seed]")
    print(f"error_rate    {printed['error_rate']:.6g} 1  "
          f"({res['failed']} of {res['attempted']} runs failed)")
    return metrics


def per_layer(res: dict) -> dict:
    traced = res["traced"]
    if not traced:
        raise BenchError("no traced call of run_experiment completed")
    layers = [t["layers"] for t in traced]
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "trace.overhead":
            continue
        values = [lay[name] for lay in layers]
        if unit in ("s", "units/s"):
            metrics[name] = statistics.median(values)
        elif len(set(values)) != 1:
            raise BenchError(f"count {name} differs between traced calls: {sorted(set(values))}")
        else:
            metrics[name] = values[0]
    untraced = statistics.median(c["wall_s"] for c in res["calls"])
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    metrics["trace.overhead"] = traced_wall / untraced - 1.0

    for name, unit in PER_LAYER_UNITS.items():
        print(f"{name:34s} {metrics[name]:.6g} {unit}")
    print(f"shares of the traced run_experiment call ({traced_wall:.4g} s, "
          f"median of {len(traced)}):")
    for name in SHARES:
        print(f"  {name:32s} {100.0 * metrics[name] / traced_wall:6.2f} %")
    return metrics


def parity(res: dict) -> list:
    problems = []
    for i, t in enumerate(res["traced"]):
        p = t["parity"]
        for traced_name, ledger_name in (("drift_calls", "mu_evals"),
                                         ("diffusion_rows", "sigma_evals"),
                                         ("draws_in_mlp", "rv_draws")):
            if p[traced_name] != p[ledger_name]:
                problems.append(f"traced call {i}: {traced_name} {p[traced_name]} "
                                f"!= ledger {ledger_name} {p[ledger_name]}")
    if not problems:
        p = res["traced"][0]["parity"]
        print(f"parity ok: drift calls = mu_evals = {p['mu_evals']}, diffusion rows = "
              f"sigma_evals = {p['sigma_evals']}, draws in mlp_estimate = rv_draws = "
              f"{p['rv_draws']}")
    return problems


def record_golden() -> None:
    golden = {name: worker(name, 0, "golden") for name in WORKLOADS}
    for entry in golden.values():
        for cell in entry["cells"]:
            del cell["time_s"]
    (HERE / "golden.json").write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {HERE / 'golden.json'}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny cells, no golden comparison (the smoke test)")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "mvmlp" / "__init__.py").is_file():
        print(f"error: no mvmlp package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be nonnegative")

    try:
        if args.trace:
            res = worker(args.workload, args.seed, "trace", args.seconds, args.smoke)
        else:
            setups = [worker(args.workload, args.seed, "setup", smoke=args.smoke)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            res = worker(args.workload, args.seed, "measure", args.seconds, args.smoke)
            setups.append(res["setup_s"])
        env = res["env"]
        print(f"env: {' '.join(f'{k}={v}' for k, v in env['threads_env'].items())} "
              f"nproc={env['nproc']} affinity={env['affinity']} python={env['python']} "
              f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']}")
        print(f"workload {args.workload} seed {args.seed}: {len(res['calls'])} untraced and "
              f"{len(res['traced'])} traced run_experiment calls of {res['runs_per_call']} runs")
        problems = list(res["problems"])
        if args.trace:
            metrics = per_layer(res)
            problems += parity(res)
            units = PER_LAYER_UNITS
            print(f"trace written to {res['trace_file']}")
        else:
            metrics = end_to_end(res, setups)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = res["failed"]
    if problems and failed == 0:
        failed = res["attempted"]
    for p in problems:
        print(f"FAIL: {p}")
    correct = not problems
    print("correctness: " + ("ok" if correct else "FAILED") + " (cost == analytic_cost, "
          "finite errors, repeat calls identical"
          + (", golden cells" if args.seed == 0 and not args.smoke else "")
          + (", trace/ledger parity" if args.trace else "") + ")")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
