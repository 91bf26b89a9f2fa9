"""Count the lines of each module of `src/labskit`.

    python3 tools/loc.py

For each module, for the package and for the package without
`reference.py` (the plain-Python test oracles), it prints physical
lines, as `wc -l` counts them, and code lines: every line that holds a
token, less the lines of docstrings.  Blank lines and comment-only lines
hold no token.  A docstring is a string statement that opens a module,
class or function body.  A string that is not a docstring is code, on
every line it spans.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "labskit"
ORACLES = "reference.py"
_NO_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def count(source: str) -> tuple:
    """(physical lines, code lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NO_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def report(package: Path) -> str:
    """One row per module, then the total and the total without ORACLES."""
    rows = [(p.name, *count(p.read_text(encoding="utf-8")))
            for p in sorted(package.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    oracles = [r for r in rows if r[0] == ORACLES]
    if oracles:
        rows.append((f"total without {ORACLES}", rows[-1][1] - oracles[0][1],
                     rows[-1][2] - oracles[0][2]))
    width = max(len(r[0]) for r in rows)
    lines = [f"{'module':<{width}}  {'lines':>6}  {'code':>6}"]
    lines += [f"{name:<{width}}  {phys:>6}  {code:>6}" for name, phys, code in rows]
    return "\n".join(lines)


if __name__ == "__main__":
    print(report(PACKAGE))
