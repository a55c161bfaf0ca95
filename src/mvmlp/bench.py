"""Experiment runner: paired runs, adjusted L2 error, wall time, cost.

Model parameters are drawn once per experiment from a dedicated parameter
stream (multi-index (0,)) and shared across all cells and runs, so a level
sweep varies only the estimator. Run r uses top-level multi-index (1, r).
A cell draws every run's increments (`_run_increments`), computes the
reference of all runs in one call, then runs the estimator per run,
serially or on a thread pool; results are assembled by run index, so the
output is byte-identical for any thread count. Every failure of a cell is
one `ValueError` naming the cell: a non-finite reference path or L2
error, and per run a cost ledger that differs from the closed-form cost
or an estimator failure (a `NumericOverflowError`, its `__cause__`), each
naming the run too. `ExperimentConfig` checks
every field for all front ends alike: `mvmlp-bench` sets each field from
the flag of its name (`--out` sets `out_dir`, `--format` sets `formats`)
or from the config file's key. The cost units are the model's: a custom
`CostUnits` goes to `ou_model` or `kuramoto_model`, whose model is then
passed to `run_cell`.
"""

from __future__ import annotations

import json
import math
import os
import time
from os import PathLike
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .mlp import CostLedger, MlpConfig, NumericOverflowError, analytic_cost, mlp_estimate
from .models import ModelSpec, default_cost_units, kuramoto_model, ou_model, random_params
from .numerics import TimeGrid, format_number, integer, is_int, real_number
from .randomness import derive_stream, sample_brownian_increments
from .reference import kuramoto_moments, kuramoto_reference_path, ou_exact_path

_PARAM_INDEX = (0,)
_RUN_PREFIX = 1

CSV_HEADER = "model,d,n,m,K,l2_error,time_s,cost"
FORMATS = ("csv", "json", "md")

# guard rails before launching very large cells without --allow-large;
# K = m**n is the grid, the largest desk cell (n = m = 4) has K = 256
DESK_MAX_D = 100
DESK_MAX_N = 4
DESK_MAX_K = 256

# a bound on the interpreter with numpy, scipy.special and the package
# loaded (~53 MiB resident): an OU run of d = 10, n = m = 4 peaks near 57 MiB
_PROCESS_BYTES = 64 * 2**20


@dataclass
class ExperimentConfig:
    """One experiment; every front end (Python, JSON file, flags) is checked here.

    A `levels` entry is `n` (the cell (n, n)) or an `(n, m)` pair, given as
    a tuple or a list; the entries become a tuple of `(n, m)` tuples.
    """

    model: str = "ou"
    d: int = 10
    levels: Sequence[Union[int, Tuple[int, int]]] = ((1, 1), (2, 2), (3, 3))
    runs: int = 10
    seed: int = 0
    T: float = 1.0
    rho: float = 0.25
    mu0: float = 0.5
    threads: int = 1
    out_dir: Optional[str] = None
    formats: Sequence[str] = FORMATS
    allow_large: bool = False

    def __post_init__(self) -> None:
        # a seed that derive_stream would refuse is refused here, before any cell runs
        for name, low, high in (("d", 1, None), ("runs", 1, None), ("seed", 0, 2**64),
                                ("threads", 1, None)):
            integer(getattr(self, name), name, low, high)
        for name in ("T", "rho", "mu0"):
            real_number(getattr(self, name), name)
        if not isinstance(self.levels, (list, tuple)):
            raise ValueError(f"levels must be a list of n or (n, m) entries, got {self.levels!r}")
        if not self.levels:
            raise ValueError(f"levels must have at least one entry, got {self.levels!r}")
        cells = tuple((v, v) if is_int(v) else tuple(v) if isinstance(v, (list, tuple)) else v
                      for v in self.levels)
        for pair in cells:
            if not (isinstance(pair, tuple) and len(pair) == 2 and all(is_int(v) for v in pair)):
                raise ValueError(f"levels entries must be an integer n or an integer pair (n, m), "
                                 f"got {pair!r}")
        self.levels = cells
        if not (isinstance(self.formats, (list, tuple))
                and all(isinstance(f, str) for f in self.formats)):
            raise ValueError(f"formats must be a list of names, got {self.formats!r}")
        if not (self.out_dir is None or isinstance(self.out_dir, (str, PathLike))):
            raise ValueError(f"out_dir must be a path, got {self.out_dir!r}")
        if self.out_dir is not None and not os.fspath(self.out_dir):
            # an empty path would write the results into the working directory
            raise ValueError("out_dir must be a non-empty path, got ''")
        if not isinstance(self.allow_large, bool):
            raise ValueError(f"allow_large must be true or false, got {self.allow_large!r}")
        for name in ("T", "rho"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        unknown = sorted(set(self.formats) - set(FORMATS))
        if unknown or not self.formats:
            # an empty list would write nothing and exit 0
            raise ValueError(f"formats must be among {', '.join(FORMATS)}, got {unknown or 'none'}")
        for n, m in self.levels:
            integer(n, "levels n", 0)
            integer(m, "levels m", 1)
            # the grid step T / K needs K = m**n as a float: n log2(m) < 1024,
            # checked without forming m**n (the desk caps bound K without it)
            if self.allow_large and m > 1 and n >= 1024 / math.log2(m):
                raise ValueError(f"cell (n={n}, m={m}) has a grid K = m**n too large "
                                 f"for a float (n * log2(m) >= 1024)")
        if self.model not in ("ou", "kuramoto"):
            raise ValueError(f"unknown model {self.model!r}")


@dataclass
class ResultRow:
    """One cell's result; the field order is the order of `results.json`'s keys."""

    model: str
    d: int
    n: int
    m: int
    K: int
    l2_error: float
    time_s: float
    cost: int
    per_run_errors: List[float] = field(default_factory=list)


def l2_errors(reference: np.ndarray, estimates: np.ndarray) -> Tuple[float, List[float]]:
    """Dimension- and grid-adjusted root-mean-square gap of a cell and of each run.

    `reference` and `estimates` are the (R, K+1, d) paths of R paired runs.
    Averages the squared gap over the d coordinates and the K grid times
    t_1..t_K (time 0 excluded), over all runs for the cell's error and
    over one run for each run's error, then takes the root.
    """
    if reference.ndim != 3 or estimates.shape != reference.shape or reference[:, 1:].size == 0:
        raise ValueError(f"need paired (R, K+1, d) paths with R, K, d >= 1, got shapes "
                         f"{reference.shape} and {estimates.shape}")
    R, K, d = reference[:, 1:].shape
    sums = [float(np.sum(diff * diff)) for diff in reference[:, 1:] - estimates[:, 1:]]
    total = 0.0
    for s in sums:      # left to right: sum() may compensate on newer Pythons
        total += s
    return (float(np.sqrt(total / (R * d * K))),
            [float(np.sqrt(s / (d * K))) for s in sums])


def build_model(cfg: ExperimentConfig) -> ModelSpec:
    """The experiment's model, from the dedicated parameter stream."""
    params = random_params(cfg.model, cfg.d, derive_stream(cfg.seed, _PARAM_INDEX),
                           scale=cfg.rho, mu0=cfg.mu0)
    builder = ou_model if cfg.model == "ou" else kuramoto_model
    return builder(params)


def _run_increments(cfg: ExperimentConfig, d: int, grid: TimeGrid) -> np.ndarray:
    """The (R, K, d) Brownian increments of a cell's runs, run r from stream (1, r)."""
    return np.stack([
        sample_brownian_increments(derive_stream(cfg.seed, (_RUN_PREFIX, r)), grid.K, d, grid.dt)
        for r in range(cfg.runs)
    ])


def _reference(cfg: ExperimentConfig, model: ModelSpec, grid: TimeGrid,
               increments: np.ndarray) -> np.ndarray:
    """Reference values (R, K+1, d) of all runs of a cell, in one call."""
    if cfg.model == "ou":
        return ou_exact_path(model.params, model.initial_value, grid, increments)
    variance = kuramoto_moments(model.params, model.initial_value, grid)
    return kuramoto_reference_path(
        model.params, model.initial_value, grid, increments, variance
    )


def run_cell(
    cfg: ExperimentConfig, n: int, m: int, model: Optional[ModelSpec] = None
) -> ResultRow:
    """All runs of one (n, m) cell; K = m**n."""
    if model is None:
        model = build_model(cfg)
    elif (model.name, model.d) != (cfg.model, cfg.d):
        # the reference and the error rows follow cfg: a mismatch would fail deep inside
        raise ValueError(f"model {model.name} with d={model.d} does not match the config's "
                         f"model {cfg.model} with d={cfg.d}")
    # MlpConfig's checks, before K = m**n would be named for a bad n or m
    n, m = integer(n, "n", 0), integer(m, "m", 1)
    K = m**n
    grid = TimeGrid(T=cfg.T, K=K)
    mlp_cfg = MlpConfig(n=n, m=m, grid=grid)
    runs = range(cfg.runs)
    increments = _run_increments(cfg, model.d, grid)
    cell = f"cell model={cfg.model}, d={model.d}, n={n}, m={m}"
    try:
        # an overflow warning would come before the failure the finite check reports
        with np.errstate(all="ignore"):
            reference = _reference(cfg, model, grid, increments)
    except ValueError as exc:
        raise ValueError(f"reference path failed in {cell}: {exc}") from None
    if not np.isfinite(reference).all():
        raise ValueError(f"non-finite reference path in {cell}")
    cost = analytic_cost(n, m, K, model.d, model.unit_costs)

    def one(r: int) -> Tuple[np.ndarray, float]:
        ledger = CostLedger()
        start = time.perf_counter()
        try:
            estimate = mlp_estimate(model, mlp_cfg, (_RUN_PREFIX, r), cfg.seed, increments[r],
                                    ledger)
        except NumericOverflowError as exc:
            raise ValueError(f"estimator failed in {cell}, run={r}: {exc}") from exc
        elapsed = time.perf_counter() - start
        if ledger.weighted(model.unit_costs) != cost:
            raise ValueError(f"cost ledger mismatch in {cell}, run={r}")
        return estimate, elapsed

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(one, runs))
    else:
        results = [one(r) for r in runs]

    estimates, elapsed = zip(*results)
    with np.errstate(over="ignore"):    # an overflowed gap is reported below
        l2_error, per_run_errors = l2_errors(reference, np.stack(estimates))
    if not np.isfinite([l2_error, *per_run_errors]).all():
        raise ValueError(f"non-finite L2 error in {cell}")
    return ResultRow(
        model=cfg.model, d=model.d, n=n, m=m, K=K, l2_error=l2_error,
        time_s=float(np.mean(elapsed)), cost=cost, per_run_errors=per_run_errors,
    )


def estimate_experiment_cost(cfg: ExperimentConfig) -> int:
    """Total closed-form cost of all runs of all cells."""
    units = default_cost_units(cfg.d)
    return sum(cfg.runs * analytic_cost(n, m, m**n, cfg.d, units)
               for n, m in cfg.levels)


def estimate_experiment_bytes(cfg: ExperimentConfig) -> int:
    """Closed-form estimate of the peak memory of `run_experiment`, in bytes.

    The sum of the (d+1, d*d) diffusion operand (the family and its
    offset row), the one (d, d) slab its draw holds,
    the largest cell's working set and the interpreter. A cell holds one
    K-row sigma half (K, d, d) per estimator call in flight (one per
    thread), its (K+1, d) paths (each run's increments, reference and
    estimate, and seven per recursion frame of each call in flight, whose
    Brownian path carries two more columns, t and 1) and the reference's
    one K*d*d block: OU's sigma at the K left means, which also bounds a
    chunk of one Kuramoto run's contracted increments.
    """
    d, calls = cfg.d, min(cfg.threads, cfg.runs)
    cell = 0
    for n, m in cfg.levels:
        K = m**n
        paths = (3 * cfg.runs * d + n * calls * (7 * d + 2)) * (K + 1)
        # a K-row sigma half per call in flight, and the reference's block
        cell = max(cell, (calls + 1) * K * d * d + paths)
    return 8 * ((d + 1) * d * d + d * d + cell) + _PROCESS_BYTES


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def run_experiment(cfg: ExperimentConfig) -> List[ResultRow]:
    """Run all cells and write any configured outputs."""
    deep = [(n, m) for n, m in cfg.levels if n > DESK_MAX_N or m**n > DESK_MAX_K]
    if (deep or cfg.d > DESK_MAX_D) and not cfg.allow_large:
        caps = f"(d <= {DESK_MAX_D}, n <= {DESK_MAX_N}, K = m**n <= {DESK_MAX_K})"
        if deep:
            # the exact cost of a deep cell is a long big-integer loop, and
            # its figure can be too long to print: name the cell instead
            n, m = deep[0]
            what = f"cell (n={n}, m={m}) exceeds desk-scale caps {caps}"
        else:
            what = (f"cells exceed desk-scale caps {caps}; "
                    f"estimated total cost {estimate_experiment_cost(cfg)} units")
        raise ValueError(f"{what}. Pass allow_large=True / --allow-large to run anyway.")
    need, have = estimate_experiment_bytes(cfg), _physical_memory()
    if need > have:
        raise ValueError(f"estimated peak memory {format_number(need >> 20)} MiB exceeds the "
                         f"{have >> 20} MiB of physical memory; lower d, the levels, runs "
                         f"or threads")
    if cfg.out_dir is not None:
        # a path that cannot be a directory fails here, before any cell runs
        try:
            Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise OSError(
                f"cannot create output directory {cfg.out_dir}: {exc.strerror}"
            ) from None
    model = build_model(cfg)
    rows = [run_cell(cfg, n, m, model) for n, m in cfg.levels]
    if cfg.out_dir is not None:
        write_outputs(rows, Path(cfg.out_dir), cfg.formats)
    return rows


def render_csv(rows: Sequence[ResultRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.model},{r.d},{r.n},{r.m},{r.K},"
            f"{r.l2_error:.12e},{r.time_s:.6f},{r.cost}"
        )
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Sequence[ResultRow]) -> str:
    return json.dumps([asdict(r) for r in rows], indent=2)


def render_markdown(rows: Sequence[ResultRow]) -> str:
    """One table per (model, d), columns the (n, m) cells."""
    lines: List[str] = []
    groups: dict = {}
    for r in rows:
        groups.setdefault((r.model, r.d), []).append(r)
    for (model, d), cells in groups.items():
        lines.append(f"## {model}, d = {d}")
        lines.append("")
        header = "| | " + " | ".join(
            f"n = m = {r.n}" if r.n == r.m else f"n = {r.n}, m = {r.m}" for r in cells) + " |"
        sep = "|---" * (len(cells) + 1) + "|"
        err = "| L2-Error | " + " | ".join(f"{r.l2_error:.4e}" for r in cells) + " |"
        tm = "| Time | " + " | ".join(f"{r.time_s:.3f}" for r in cells) + " |"
        cost = "| Cost | " + " | ".join(f"{r.cost:.2e}" for r in cells) + " |"
        lines.extend([header, sep, err, tm, cost, ""])
    return "\n".join(lines)


def write_outputs(rows: Sequence[ResultRow], out_dir: Path, formats: Sequence[str]) -> None:
    """The result files under `out_dir`, which `run_experiment` has created."""
    try:
        if "csv" in formats:
            (out_dir / "results.csv").write_text(render_csv(rows), newline="\n")
        if "json" in formats:
            (out_dir / "results.json").write_text(rows_to_json(rows), newline="\n")
        if "md" in formats:
            (out_dir / "table.md").write_text(render_markdown(rows), newline="\n")
    except OSError as exc:
        raise OSError(f"failed writing results under {out_dir}: {exc}") from exc
