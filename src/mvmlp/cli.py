"""Benchmark command line: `mvmlp-bench`.

Each flag sets the `ExperimentConfig` field of its name (`--out` sets
`out_dir`, `--format` sets `formats`), as does the same key in the JSON
config file; flags given on the command line override config-file values.
File values go to `ExperimentConfig` as they are, which checks every field
and owns the `levels` rule; the only conversion here is of the `--levels`
and `--format` strings into lists.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional, Tuple, Union

from .bench import (
    ExperimentConfig,
    estimate_experiment_bytes,
    estimate_experiment_cost,
    run_experiment,
)
from .numerics import format_number

_REAL_FLAGS = ("--T", "--rho", "--mu0")


def _parse_levels(text: str) -> List[Union[int, Tuple[int, int]]]:
    """'1,2x3' -> [1, (2, 3)]: 'N' is the entry n, 'NxM' the pair (n, m)."""
    entries = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            if "x" in token:
                n, m = token.split("x")
                entries.append((int(n), int(m)))
            else:
                entries.append(int(token))
        except ValueError:
            raise ValueError(f"levels entry {token!r} is not N or NxM") from None
    return entries


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mvmlp-bench",
        description="Benchmark the multilevel Picard estimator for mean-field SDEs.",
        # '--mu' would otherwise abbreviate '--mu0' and then misread its value
        allow_abbrev=False,
    )
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--model", choices=["ou", "kuramoto"])
    p.add_argument("--d", type=int)
    p.add_argument("--levels", help="comma list of N (n = m = N) or NxM, e.g. '1,2,3x4'")
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    for flag in _REAL_FLAGS:
        p.add_argument(flag, type=float)
    p.add_argument("--threads", type=int)
    p.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")
    p.add_argument("--format", dest="formats", metavar="FORMAT",
                   help="comma list among csv,json,md")
    p.add_argument("--allow-large", action="store_true", default=None,
                   help="permit cells beyond the desk-scale caps")
    return p


def _read_config(path: str) -> dict:
    """The JSON object in `path`, whose keys must be ExperimentConfig fields."""
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror}") from None
    except ValueError as exc:   # malformed JSON, or bytes that are not UTF-8
        raise ValueError(f"cannot parse config file {path}: {exc}") from None
    if not isinstance(values, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(values) - {f.name for f in dataclasses.fields(ExperimentConfig)})
    if unknown:
        raise ValueError(f"unknown config key(s) in {path}: {', '.join(unknown)}")
    return values


def config_from_args(argv: Optional[List[str]] = None) -> ExperimentConfig:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value like -1e3 or -inf as a flag: '--rho -1e3' -> '--rho=-1e3'
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] in _REAL_FLAGS and not argv[i].startswith("--"):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = vars(build_parser().parse_args(argv))
    path = args.pop("config")
    values = _read_config(path) if path else {}
    if args["levels"] is not None:
        args["levels"] = _parse_levels(args["levels"])
    if args["formats"] is not None:
        args["formats"] = args["formats"].split(",")
    values.update({k: v for k, v in args.items() if v is not None})
    return ExperimentConfig(**values)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        cfg = config_from_args(argv)
        if cfg.allow_large:
            print(f"estimated total cost: {format_number(estimate_experiment_cost(cfg))} units",
                  file=sys.stderr)
            print(f"estimated peak memory: "
                  f"{format_number(estimate_experiment_bytes(cfg) >> 20)} MiB", file=sys.stderr)
        rows = run_experiment(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for row in rows:
        print(
            f"{row.model} d={row.d} n={row.n} m={row.m} K={row.K} "
            f"l2_error={row.l2_error:.6e} time_s={row.time_s:.3f} cost={row.cost}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
