import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_checkout_against_itself():
    # the tool copies the same tree under two package names and alternates
    # their calls: two timings, a ratio, a pair count and the per-pair
    # ratios' median and quartiles come out
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_time.py"), str(ROOT), str(ROOT),
         "--levels", "2x2", "--pairs", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("cell: --model ou --d 10 --levels 2x2 --runs 1 --seed 0; 2 pairs")
    for label, line in zip("AB", lines[1:3]):
        assert re.fullmatch(rf"{label} .+: trimmed-mean call [\d.]+ ms, median [\d.]+ ms", line)
    assert re.fullmatch(r"runs/s B/A: x[\d.]+; B faster in [012] of 2 pairs", lines[3])
    match = re.fullmatch(r"per-pair B/A: median x([\d.]+), quartiles x([\d.]+) to x([\d.]+)",
                         lines[4])
    assert match, lines[4]
    q1, median, q3 = map(float, match.group(2, 1, 3))
    assert q1 <= median <= q3
    assert len(lines) == 5


@pytest.mark.parametrize("flags, message", [
    # run_experiment refuses the cell at the warm-up call, before any model draw
    (["--levels", "9"], "error: cell (n=9, m=9) exceeds desk-scale caps"),
    # the tool's own parser refuses it, under the tool's name
    (["--d", "abc"], "ab_time.py: error: argument --d: invalid int value: 'abc'"),
])
def test_refused_input_exits_2(flags, message):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_time.py"), str(ROOT), str(ROOT), *flags],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert message in done.stderr
    assert "Traceback" not in done.stderr
