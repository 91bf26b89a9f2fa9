"""Smoke test of `tools/bench_scan.py`: every row kind runs with this
source tree as both the parent and the change, so an API change the
timings depend on fails here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_SCAN = ROOT / "tools" / "bench_scan.py"


@pytest.fixture
def bench_scan(monkeypatch):
    # the script pins these at import; restore them afterwards
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("bench_scan", BENCH_SCAN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPEATS", 2)
    monkeypatch.setattr(module, "SCAN_REPEAT_S", 0.001)
    monkeypatch.setattr(module, "RUN_BUDGETS", {101: (50, 1)})
    for lengths in ("SCAN_LENGTHS", "LAYER_LENGTHS", "RESTART_LENGTHS"):
        monkeypatch.setattr(module, lengths, (101,))
    monkeypatch.setattr(module, "EXHAUSTIVE_CALLS", ((11, False), (13, True)))
    monkeypatch.setattr(module, "PARTITION_SCAN", (12, 3))
    return module


def test_bench_scan_timings_run_at_n_101(bench_scan, tmp_path):
    out = tmp_path / "bench.json"
    assert bench_scan.main(["--parent", str(ROOT / "src"), "--out", str(out)]) == 0
    entry = json.loads(out.read_text())
    rows = [row for kind in ("scan", "step", "restart", "run", "exact") for row in entry[kind]]
    rows += [layers["pick_better_neighbor"] for layers in entry["layers"]]
    assert len(rows) == 3 + 1 + 4 + 1
    for row in rows:
        assert min(row["median_us"].values()) > 0
        assert row["pairs"] == bench_scan.REPEATS
        assert all(len(us) == bench_scan.REPEATS for us in row["repeats_us"].values())
        assert 0 <= row["wins"] <= row["pairs"] and row["parent_iqr_us"] >= 0
    for row in entry["run"] + entry["exact"]:
        assert row["equal"] and row["answers"]["parent"] == row["answers"]["change"]
    (run,) = entry["run"]
    assert run["answers"]["change"]["flips"] > 0
    assert len(run["answers"]["change"]["events_sha256"]) == 64
