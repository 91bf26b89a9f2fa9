"""The merit factor is built from (n, E) in one place.

`core.merit_factor_of` is the one function that calls `Fraction`;
`labskit.reference` keeps its own oracle copy of the rule.  This walks
each module's AST, as `test_imports_used.py` does.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "labskit"
ALLOWED = {"core.py", "reference.py"}
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name not in ALLOWED)


def fraction_calls(source: str) -> list:
    """Line numbers of the calls to `Fraction` or `fractions.Fraction`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and (getattr(node.func, "id", None) == "Fraction"
                       or getattr(node.func, "attr", None) == "Fraction"))


def test_fraction_calls_are_found():
    source = ("from fractions import Fraction\nimport fractions\n"
              "def f(n, e) -> Fraction:\n    return Fraction(n * n, 2 * e)\n"
              "x = fractions.Fraction(1, 2)\n")
    assert fraction_calls(source) == [4, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_core_builds_merit_factors(path):
    lines = fraction_calls(path.read_text())
    assert not lines, f"{path.name} calls Fraction at lines {lines}; use core.merit_factor_of"
