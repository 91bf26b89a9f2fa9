"""The README's library quick tour runs as written against the package,
and every command of its CLI block parses."""

import re
import shlex
from pathlib import Path

from labskit.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    match = re.search(r"^## Library quick tour\n+```python\n(.*?)^```$",
                      README.read_text(), re.DOTALL | re.MULTILINE)
    assert match, "README has no python block under 'Library quick tour'"
    exec(compile(match.group(1), f"{README.name} quick tour", "exec"), {})


def test_cli_block_parses():
    match = re.search(r"^## CLI\n.*?^```\n(.*?)^```$",
                      README.read_text(), re.DOTALL | re.MULTILINE)
    assert match, "README has no code block under 'CLI'"
    commands = [shlex.split(line)[1:] for line in match.group(1).splitlines()
                if line.startswith("labskit ")]
    assert commands
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a flag it does not know exits with SystemExit(2)
