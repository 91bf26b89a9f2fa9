"""The traced benchmark patches names in labskit's namespaces; a name it
lists that the package no longer defines would crash `--trace 1`."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _layer, _is_gen in tracer.TARGETS
               if attr not in owner.__dict__]
    assert not missing
