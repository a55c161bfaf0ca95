import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mvmlp.bench import ExperimentConfig, build_model, l2_errors, run_cell

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def path_digest(monkeypatch):
    """tools/path_digest.py, its sweep shrunk to d in {1, 3} and three cells."""
    spec = importlib.util.spec_from_file_location("path_digest", ROOT / "tools" / "path_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "DIMS", (1, 3))
    monkeypatch.setattr(module, "CELLS", ((0, 2), (1, 2), (2, 2)))
    return module


def test_sweep_hashes_what_run_cell_reduces(path_digest):
    seed = 2
    items = list(path_digest.sweep(seed))
    arrays = dict(items)
    assert len(arrays) == len(items)    # every label names one array
    for kind in path_digest.MODELS:
        for d in path_digest.DIMS:
            cfg = ExperimentConfig(model=kind, d=d, runs=path_digest.RUNS, seed=seed,
                                   levels=path_digest.cells(d))
            model = build_model(cfg)
            for n, m in cfg.levels:
                cell = f"{kind} d={d} n={n} m={m}"
                paths = np.stack([arrays[f"{cell} run={r} path"]
                                  for r in range(path_digest.RUNS)])
                row = run_cell(cfg, n, m, model)
                assert l2_errors(arrays[f"{cell} reference"], paths) == (row.l2_error,
                                                                          row.per_run_errors)


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_range_exits_2(seed):
    # ExperimentConfig refuses the seed at the sweep's first cell, before any draw
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "path_digest.py"), "--seed", seed],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: seed must be in [0, 2**64), got {seed}\n"


def test_runs_its_own_tree_from_any_directory(tmp_path):
    # no PYTHONPATH and a working directory outside the tree: the tool puts
    # its own src/ on the path, so it reaches the seed check, not an ImportError
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "path_digest.py"), "--seed", "-1"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: seed must be in [0, 2**64), got -1\n"
