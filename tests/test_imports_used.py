"""Every module-level import in `labskit` and in `tools/` is referenced
by its module.

No linter runs on this code, so this walks each module's AST instead.
Names that `perfbench/tracer.py` patches on a module are allowed unused:
the traced benchmark looks them up in that module's namespace.
"""

import ast
import importlib.util
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "labskit"
TRACER = ROOT / "perfbench" / "tracer.py"
MODULES = (sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
           + sorted((ROOT / "tools").glob("*.py")))


def _traced_names() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names: dict = {}
    for owner, attr, _layer, _is_gen in tracer.TARGETS:
        if isinstance(owner, types.ModuleType):
            names.setdefault(owner.__name__.rsplit(".", 1)[-1], set()).add(attr)
    return names


def unused_imports(source: str) -> list:
    """Names bound by top-level imports that no expression in `source` loads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom typing import Tuple, List\n" \
             "x: Tuple[int] = np.zeros(1)\n"
    assert unused_imports(source) == ["os", "List"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_are_used(path):
    allowed = _traced_names().get(path.stem, set())
    unused = [name for name in unused_imports(path.read_text()) if name not in allowed]
    assert not unused, f"{path.name} imports unused names {unused}"
