"""Smoke test of `tools/loc.py` on a small fixture package."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

# 19 physical lines; code lines are 4, 8, 10-13, 16 and 19
FIXTURE = '''"""Module docstring,
two lines."""

import os  # a trailing comment leaves the line code


# a comment-only line
def f(x):
    """One-line docstring."""
    s = """not a docstring,
on two lines"""
    return (x +
            1)


class C:
    """Class docstring."""

    y = 1
'''


def test_count_fixture():
    assert loc.count(FIXTURE) == (19, 8)
    assert loc.count("") == (0, 0)


def test_report_totals(tmp_path):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "reference.py").write_text("# oracle\n\nx = 1\n")
    rows = [re.split(r"\s{2,}", line) for line in loc.report(tmp_path).splitlines()]
    assert rows == [
        ["module", "lines", "code"],
        ["a.py", "19", "8"],
        ["reference.py", "3", "1"],
        ["total", "22", "9"],
        ["total without reference.py", "19", "8"],
    ]
