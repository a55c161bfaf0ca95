"""The package holds only code that the package itself reaches.

A function, method or class named nowhere in `src/mvmlp/` outside
`__init__.py` is reached only from tests, or not at all; a test oracle
belongs in `tests/oracles.py`.
"""

import ast
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
