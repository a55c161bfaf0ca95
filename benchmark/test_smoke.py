"""Smoke test of the benchmark: every workload at a tiny size, untraced
and traced, plus the failure paths (no package, golden mismatch).

    python -m pytest -q benchmark/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PRINTED = {**END_TO_END_UNITS, "l2_error": "1", "error_rate": "1"}


def bench(*args, cwd=ROOT, run_py=HERE / "run.py"):
    return subprocess.run([sys.executable, str(run_py), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def printed_units(stdout: str) -> dict:
    """Metric name -> unit, from the first human-readable line naming it."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3:
            out.setdefault(parts[0], parts[2])
    return out


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0",
                 "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = result(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == END_TO_END_UNITS
    assert all(v["value"] > 0 for v in res["metrics"].values())
    units = printed_units(proc.stdout)
    assert {k: units.get(k) for k in PRINTED} == PRINTED


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1",
                 "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = result(proc)
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == PER_LAYER_UNITS
    units = printed_units(proc.stdout)
    assert {k: units.get(k) for k in PER_LAYER_UNITS} == PER_LAYER_UNITS
    assert "parity ok" in proc.stdout
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["models.drift.calls"] == m["mlp.mu_evals"] > 0
    assert m["models.diffusion.rows"] == m["mlp.sigma_evals"] > 0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "ou-d10-n4", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, run_py=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_golden_mismatch_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    golden_file = tmp_path / HERE.name / "golden.json"
    golden = json.loads(golden_file.read_text())
    golden["ou-d10-shallow"]["cells"][-1]["l2_error"] *= 1 + 1e-6
    golden_file.write_text(json.dumps(golden))
    proc = bench("--workload", "ou-d10-shallow", "--seed", "0", "--seconds", "0", "--trace", "0",
                 cwd=tmp_path, run_py=tmp_path / HERE.name / "run.py")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    res = result(proc)
    assert not res["correct"] and res["failed"] == res["attempted"] > 0
    assert "golden" in proc.stdout
