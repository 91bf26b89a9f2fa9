"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import labskit.solver  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def small_config():
    return labskit.solver.SolverConfig(n=21, partition=(1, 1, 2, 2), t_inner=400,
                                       t_outer=8, seed=99)


def test_wrapping_keeps_stream_digest_and_restores_originals():
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in tr.TARGETS}
    plain = wl.walk_run(small_config())
    tracer = tr.Tracer()
    with tr.traced(tracer):
        assert labskit.solver.run is not originals[(labskit.solver, "run")]
        traced = wl.walk_run(small_config())
    assert traced["digest"] == plain["digest"]
    assert traced["flips"] == plain["flips"] > 0
    for (owner, attr), fn in originals.items():
        assert owner.__dict__[attr] is fn
    columns = tracer.columns()
    stats = tr.layer_stats(*columns)
    assert stats["solver.run"]["calls"] == 1
    assert stats["skew.apply_flip"]["calls"] == plain["flips"]
    assert stats["partitions.sample_member"]["calls"] == plain["restarts"]
    # every span other than the run itself sits inside the run
    assert list(columns[3]).count(-1) == 1


def test_generator_spans_time_each_next():
    tracer = tr.Tracer()
    targets = [t for t in tr.TARGETS if t[2].startswith("partitions.")]
    with tr.traced(tracer, targets):
        best = labskit.partitions.best_partition(12, 3, "Ustar")
    assert best.partition == (6, 3, 3)
    stats = tr.layer_stats(*tracer.columns())
    items = tracer.items["partitions.enumerate_partitions", tracer.attempt_id]
    assert items == stats["partitions.potential"]["calls"] == 12
    assert stats["partitions.enumerate_partitions"]["calls"] == items + 1


def test_self_time_arithmetic_on_synthetic_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),    # overlaps a: root's children cover [1, 6]
        ("c", 2.0, 3.0, 1),
        ("d", 9.0, 12.0, 0),   # runs past root: only [9, 10] counts
        ("a", 1.5, 2.0, 1),    # a nested in a
        ("e", 3.5, 5.0, 2),    # starts inside a, ends inside b
    ]
    names, start, end, parent = (list(col) for col in zip(*spans))
    assert tr.self_times(start, end, parent) == pytest.approx(
        [4.0, 1.5, 1.5, 1.0, 3.0, 0.5, 1.5])
    stats = tr.layer_stats(names, start, end, parent, layers=("root", "a"))
    assert stats["a"]["calls"] == 2
    assert stats["a"]["self_s"] == pytest.approx(2.0)
    assert stats["a"]["total_s"] == pytest.approx(3.0)
    assert stats["root"]["total_s"] == pytest.approx(10.0)


def test_per_unit_counts_do_not_depend_on_how_many_ops_ran():
    import run
    sieve_ops = [{"tool": t} for t in ("a", "b", "a", "c", "b")]
    # a: 10 per call, b: 1 per call, c: 5 per call -> 16 per pass
    assert run.per_unit("sieve", sieve_ops, [10, 1, 10, 5, 1]) == 16
    assert run.per_unit("sieve", sieve_ops[:4], [10, 1, 10, 5]) == 16
    search_ops = [{"flips": 100}, {"flips": 300}]
    assert run.per_unit("walk-1001", search_ops, [200, 600]) == 2
    assert run.per_unit("walk-1001", search_ops[:1], [200]) == 2


def test_sampler_charges_its_own_time_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler(interval=0.01) as sampler:
        mark = sampler.mark()
        t_end = time.perf_counter() + 0.2
        while time.perf_counter() < t_end:
            pass
        spent_wall, spent_cpu, ref = sampler.since(mark)
    assert len(sampler.samples) >= 5
    assert spent_wall == pytest.approx(sum(sampler.samples))
    assert 0 < spent_cpu and ref == pytest.approx(spent_wall / len(sampler.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_wrong_expected_answer_is_a_failed_op():
    op = wl.sieve_tool("verify_all", labskit.records.load_dataset())
    expected = wl.load_expected()["sieve"]
    assert wl.sieve_problems(op, expected) == []
    wrong = {**expected, "verify_all": {"matched_total": [335, 336]}}
    assert wl.sieve_problems(op, wrong)


def copy_bench(tmp_path: Path, with_src: bool) -> Path:
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    if with_src:
        shutil.copytree(HERE.parent / "src" / "labskit", tmp_path / "src" / "labskit",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def run_bench(root: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def test_cli_counts_wrong_digest_as_failed_and_exits_1(tmp_path):
    root = copy_bench(tmp_path, with_src=True)
    path = root / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    for entry in expected["walk-1001"]["pool"]:
        entry["digest"] = "0" * 64
    path.write_text(json.dumps(expected))
    proc = run_bench(root, "--workload", "walk-1001", "--seed", "1", "--seconds", "0.1")
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1
    assert set(result["metrics"]) == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}


def test_cli_without_program_source_exits_2_silently(tmp_path):
    root = copy_bench(tmp_path, with_src=False)
    proc = run_bench(root, "--workload", "sieve", "--seed", "1", "--seconds", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
