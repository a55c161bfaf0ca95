import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide the code

# a comment line


def f(x):
    """Function docstring."""
    text = """a multi-line string
that is not a docstring
counts every line"""
    return x


class C:
    """Class docstring,

    with a blank line inside."""

    def g(self):
        # comment
        return 1
'''
# code lines: import, def f, text (3 lines), return x, class C, def g, return 1
FIXTURE_LINES = 9


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_not_docstrings_comments_or_blanks():
    assert _tool().code_lines(FIXTURE) == FIXTURE_LINES


def test_prints_each_file_and_the_total(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "pkg"), str(tmp_path / "b.py")],
                         capture_output=True, text=True, check=True).stdout
    assert [line.split() for line in out.splitlines()] == [
        [str(FIXTURE_LINES), str(tmp_path / "pkg" / "a.py")],
        ["1", str(tmp_path / "b.py")],
        [str(FIXTURE_LINES + 1), "total"],
    ]


def test_unreadable_path_exits_2(tmp_path):
    missing = tmp_path / "missing.py"
    run = subprocess.run([sys.executable, str(TOOL), str(missing)], capture_output=True, text=True)
    assert run.returncode == 2
    assert run.stderr.startswith(f"error: {missing}: ")
