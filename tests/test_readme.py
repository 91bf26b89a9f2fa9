"""The README's library quick tour runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    match = re.search(r"^## Library quick tour\n+```python\n(.*?)^```$",
                      README.read_text(), re.DOTALL | re.MULTILINE)
    assert match, "README has no python block under 'Library quick tour'"
    exec(compile(match.group(1), f"{README.name} quick tour", "exec"), {})
