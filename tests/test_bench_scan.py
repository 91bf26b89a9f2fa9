"""Smoke test of `tools/bench_scan.py`: its timings run against this
source tree, so an API change they depend on fails here."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_SCAN = ROOT / "tools" / "bench_scan.py"


@pytest.fixture
def bench_scan(monkeypatch):
    # the script pins these at import; restore them afterwards
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(ROOT))  # for perfbench.calibrate
    spec = importlib.util.spec_from_file_location("bench_scan", BENCH_SCAN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPEATS", 2)
    monkeypatch.setattr(module, "SCAN_REPEAT_S", 0.001)
    monkeypatch.setattr(module, "RUN_BUDGETS", {101: (50, 1)})
    return module


def test_bench_scan_timings_run_at_n_101(bench_scan):
    assert bench_scan.time_scan(101)["median_us"] > 0
    assert bench_scan.time_step(101)["median_us"] > 0
    restart = bench_scan.with_bursts(bench_scan.time_restart, 101)
    assert restart["median_us"] > 0 and min(restart["reference_burst_s"].values()) > 0
    layers = bench_scan.time_layers(101)
    for layer in ("apply_flip", "probe_energies", "pick_better_neighbor"):
        assert layers[layer]["median_us"] > 0
    run = bench_scan.time_run(101)
    assert run["flips"] > 0 and run["median_flips_per_s"] > 0
    assert len(run["events_sha256"]) == 64

