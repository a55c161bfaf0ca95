"""The package holds only code that the package itself reaches.

A function, method or class named nowhere in `src/mvmlp/` outside
`__init__.py` is reached only from tests, or not at all; a test oracle
belongs in `tests/oracles.py`. A run loads no module it does not use.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mvmlp"


def test_every_def_is_named_in_the_package():
    defined, named = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((node.name, f"{path.name}:{node.lineno}"))
            elif path.name != "__init__.py":
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
    assert defined
    unreached = [f"{where} {name}" for name, where in defined if name not in named]
    assert not unreached, unreached


def test_integer_checks_are_written_once():
    # every integer from outside goes through numerics.integer, so its wording
    # is written there alone: a check written by hand elsewhere would bring a
    # wording of its own back. The levels rule's "an integer n or an integer
    # pair" names the two forms a levels entry takes
    holders = sorted(path.name for path in PACKAGE.glob("*.py")
                     if re.search(r"must be an integer(?! n or an integer pair)",
                                  path.read_text()))
    assert holders == ["numerics.py"]


def test_a_run_never_imports_scipy_linalg():
    # scipy.linalg alone adds ~7 MiB to a process's resident memory, and
    # the package's one use of scipy is scipy.special's ndtri
    code = ("import sys\n"
            "from mvmlp import ExperimentConfig, run_experiment\n"
            "for model in ('ou', 'kuramoto'):\n"
            "    run_experiment(ExperimentConfig(model=model, d=3, levels=[(2, 2)], runs=1))\n"
            "print('scipy.linalg' not in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"
