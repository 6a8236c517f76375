"""Each script in scripts/ runs once, at small arguments, and prints a table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# (script, arguments, prefix that every table row starts with)
RUNS = [
    ("correspondence_table.py", ["--flavor", "a", "--param", "1", "--rows", "2"],
     "  2 "),
    ("intersection_demo.py", ["--flavor", "plus_plus", "--max-param", "4"], "("),
    ("pell_survey.py", ["--max-d", "10"], "d="),
]


def _rows(script, args, row_prefix):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-B", str(ROOT / "scripts" / script), *args],
                         capture_output=True, text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    return [line for line in out.stdout.splitlines()
            if line.startswith(row_prefix)]


@pytest.mark.parametrize("script, args, row_prefix", RUNS,
                         ids=[run[0] for run in RUNS])
def test_script_prints_a_table(script, args, row_prefix):
    assert _rows(script, args, row_prefix)


def test_correspondence_table_term_one_has_no_pair_data():
    # The first a = 1 row is n = 2, term a_2 = 1: no m >= 2 divides it, so
    # the m column reads "-", as in the b-family rows, not "?" (not found).
    row = _rows(*RUNS[0])[0].split()
    assert (row[0], row[1], row[-1]) == ("2", "1", "-")
