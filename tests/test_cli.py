import argparse
import ast
import inspect
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from labskit.cli import _emit, build_parser, main
from labskit.core import merit_factor
from labskit.partitions import best_partition, sample_member
from labskit.records import decode_hex
from labskit.solver import SolverConfig


def strict_json(line):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(line, parse_constant=refuse)


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    records = [strict_json(line) for line in out.splitlines() if line.strip()]
    return code, records


def test_eval_hex(capsys):
    code, recs = run_main(capsys, "eval", "--hex", "b", "--n", "4")
    assert code == 0
    (rec,) = recs
    assert rec["energy"] == 2 and rec["mf"] == 4.0
    assert rec["classification"] == "pseudo-skew-symmetric"


def test_eval_text_barker(capsys):
    code, recs = run_main(capsys, "eval", "+++++--++-+-+", "--sidelobes")
    assert code == 0
    (rec,) = recs
    assert rec["energy"] == 6
    assert rec["mf_num"] == 169 and rec["mf_den"] == 12
    assert len(rec["sidelobes"]) == 12
    assert rec["classification"] == "skew-symmetric"


def test_eval_bad_input(capsys):
    code, _ = run_main(capsys, "eval", "--hex", "zz", "--n", "8")
    assert code == 2
    code, _ = run_main(capsys, "eval")
    assert code == 2
    code, _ = run_main(capsys, "eval", "--hex", "ff")  # missing --n
    assert code == 2
    # text with --hex, and --n without --hex: input that would be dropped
    for argv in (("++", "--hex", "5", "--n", "3"), ("++", "--n", "7")):
        assert main(["eval", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_eval_hex_bad_length_names_the_length(capsys):
    assert main(["eval", "--hex", "0", "--n", "-3"]) == 3
    assert capsys.readouterr().err == "error: sequence length must be >= 1, got -3\n"


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--frobnicate"])
    assert exc.value.code == 2


def test_exhaustive_values(capsys):
    code, recs = run_main(capsys, "exhaustive", "--n", "11")
    assert code == 0 and recs[0]["mf"] == 12.1
    code, recs = run_main(capsys, "exhaustive", "--n", "13")
    assert code == 0
    assert recs[0]["mf_num"] == 169 and recs[0]["mf_den"] == 12
    seq = decode_hex(recs[0]["hex"], 13)
    assert float(merit_factor(seq)) == recs[0]["mf"]


def test_exhaustive_cap_refusal(capsys):
    code, _ = run_main(capsys, "exhaustive", "--n", "25")
    assert code == 3


def test_verify_selected_rows(capsys):
    code, recs = run_main(capsys, "verify", "--rows", "573,1009", "--per-row")
    assert code == 0
    rows = [r for r in recs if r["kind"] == "row"]
    summary = [r for r in recs if r["kind"] == "summary"][0]
    assert {r["n"] for r in rows} == {573, 1009}
    assert all(r["match"] for r in rows)
    assert summary["passed"] and summary["matched"] == len(rows)


def test_verify_bundled_dataset(capsys):
    code, recs = run_main(capsys, "verify")
    assert code == 0
    summary = [r for r in recs if r["kind"] == "summary"][0]
    assert summary["passed"] and summary["match_fraction"] >= 0.95
    assert summary["total"] >= 300


def test_verify_missing_dataset(capsys):
    code, _ = run_main(capsys, "verify", "--dataset", "/nonexistent/records.psv")
    assert code == 4


def test_verify_unknown_rows(capsys):
    code, _ = run_main(capsys, "verify", "--rows", "9999")
    assert code == 3


def test_verify_non_integer_rows_is_parse_error(capsys):
    code = main(["verify", "--rows", "573,abc"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("tolerance", ["nan", "-1"])
def test_verify_bad_tolerance_is_domain_error(capsys, tolerance):
    code = main(["verify", "--rows", "573", "--tolerance", tolerance])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""  # no summary record


_HEADER = "n|class|hex|old_mf|new_mf|source_table\n"


@pytest.mark.parametrize("row, message", [
    ("1x3|B_13|1f35|-|14.08|I", "int()"),          # non-integer n
    ("13|B_13|1f35|-|high|I", "float"),            # non-numeric MF
    ("13|B_13|1f35|-|0|I", "must be positive"),    # claimed MF of 0
])
def test_verify_bad_dataset_row_is_parse_error(capsys, tmp_path, row, message):
    # line numbers count the comment and the blank line before the row
    dataset = tmp_path / "bad.psv"
    dataset.write_text("# comment\n" + _HEADER + "\n" + row + "\n")
    code = main(["verify", "--dataset", str(dataset)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: line 4: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text", ["# comment\n", "# comment\n" + _HEADER],
                         ids=["comment-only", "header-only"])
def test_verify_dataset_without_records_is_parse_error(capsys, tmp_path, text):
    # not "total: 0" and exit 1, which would read as failures beyond budget
    dataset = tmp_path / "empty.psv"
    dataset.write_text(text)
    code = main(["verify", "--dataset", str(dataset)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_potentials_best(capsys):
    code, recs = run_main(capsys, "potentials", "--k", "39", "--parts", "4",
                          "--objective", "U")
    assert code == 0
    assert recs[0]["partition"] == [18, 11, 6, 4] and recs[0]["U"] == 3731
    code, recs = run_main(capsys, "potentials", "--k", "41", "--parts", "6",
                          "--objective", "Ustar")
    assert code == 0 and recs[0]["Ustar"] == 813


def test_potentials_all_table(capsys):
    code, recs = run_main(capsys, "potentials", "--k", "6", "--parts", "2", "--all")
    assert code == 0
    assert [r["partition"] for r in recs] == [[5, 1], [4, 2], [3, 3]]
    # every line names its kind; a row and the best record differ in no other field
    assert all(r["kind"] == "row" for r in recs)
    code, (best,) = run_main(capsys, "potentials", "--k", "6", "--parts", "2")
    row = next(r for r in recs if r["partition"] == best["partition"])
    assert {**row, "kind": "best", "objective": best["objective"]} == best


def test_potentials_domain_error(capsys):
    code, _ = run_main(capsys, "potentials", "--k", "2", "--parts", "5")
    assert code == 3


@pytest.mark.parametrize("mode", [[], ["--all"]], ids=["best", "all"])
@pytest.mark.parametrize("k, parts", [(0, 1), (3, 0), (2, 5)],
                         ids=["k-0", "parts-0", "parts-over-k"])
def test_potentials_domain_error_both_paths(capsys, mode, k, parts):
    code = main(["potentials", "--k", str(k), "--parts", str(parts), *mode])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


def test_search_stream_self_consistent(capsys):
    code, recs = run_main(capsys, "search", "--n", "13", "--partition", "3",
                          "--ti", "500", "--to", "10", "--seed", "5")
    assert code == 0
    header = recs[0]
    assert header["kind"] == "config"
    assert header["seed"] == 5 and header["partition"] == [3]
    finals = {r["target"]: r for r in recs if r.get("kind") == "final"}
    assert set(finals) == {12, 13, 14}
    assert finals[13]["mf_num"] == 169 and finals[13]["mf_den"] == 12
    for r in recs:
        if r.get("kind") in ("improvement", "final") and r.get("hex"):
            seq = decode_hex(r["hex"], r["n"])
            assert merit_factor(seq).numerator == r["mf_num"]
            assert merit_factor(seq).denominator == r["mf_den"]
    summary = [r for r in recs if r.get("kind") == "summary"][0]
    assert summary["restarts"] >= 1 and not summary["interrupted"]


def test_search_spec_example_reaches_three(capsys):
    code, recs = run_main(capsys, "search", "--n", "21", "--partition",
                          "1,1,2,2", "--seed", "7", "--to", "5", "--ti", "1000")
    assert code == 0
    final = [r for r in recs if r.get("kind") == "final" and r["target"] == 21][0]
    assert final["mf"] >= 3.0


def test_search_usage_error(capsys):
    code, _ = run_main(capsys, "search", "--n", "13", "--partition", "1,x")
    assert code == 2
    code, _ = run_main(capsys, "search", "--n", "12", "--partition", "2")
    assert code == 3  # even length is a domain refusal
    code, _ = run_main(capsys, "search", "--n", "5", "--partition", "3")
    assert code == 3  # so is a partition too long for the length


@pytest.mark.parametrize("flags", [
    ["--budget", "nan"],
    ["--ta", "nan"],
], ids=["budget", "ta"])
def test_search_nan_budget_is_domain_error(capsys, flags):
    code = main(["search", "--n", "21", "--partition", "1,1,2,2", "--ti", "200",
                 "--to", "2", *flags])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert "nan" not in captured.out.lower()


@pytest.mark.parametrize("flags", [
    ["--ta", "inf", "--budget", "inf"],
    ["--ta", "inf"],
], ids=["flags", "no-budget"])
def test_search_infinite_budget_and_threshold_print_null(capsys, flags):
    code, recs = run_main(capsys, "search", "--n", "21", "--partition", "1,1,2,2",
                          "--ti", "5", "--to", "1", *flags)
    assert code == 0
    header, summary = recs[0], recs[-1]
    assert header["ta"] is None and header["time_limit"] is None
    assert summary["probes"] == 0  # an infinite threshold never probes
    finals = {r["target"]: r["mf"] for r in recs if r.get("kind") == "final"}
    assert finals[20] is None and finals[22] is None and finals[21] > 0


SEARCH_ARGS = ["search", "--n", "21", "--partition", "1,1,2,2", "--ti", "300",
               "--to", "6", "--seed", "17"]


def _run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "labskit.cli", *args],
                          capture_output=True, text=True, timeout=120, **kw)


def test_search_byte_identical_streams():
    a = _run_cli(SEARCH_ARGS)
    b = _run_cli(SEARCH_ARGS)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.strip()


def test_search_timing_flag_adds_fields():
    out = _run_cli(SEARCH_ARGS + ["--timing"])
    assert out.returncode == 0
    records = [json.loads(l) for l in out.stdout.splitlines()]
    assert any("elapsed_ms" in r for r in records)


@pytest.mark.parametrize("to_group", [True, False], ids=["group", "parent"])
@pytest.mark.parametrize("workers", [1, 2])
def test_search_interrupt_flushes_and_exits_130(workers, to_group):
    """A Ctrl-C at the terminal reaches the whole process group; a SIGINT
    may also reach the parent alone.  Either way, with one worker or
    more, the run flushes its best records at once and exits 130."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "labskit.cli", "search", "--n", "61",
         "--partition", "3,2", "--ti", "1000000", "--to", "1000000",
         "--seed", "1", "--workers", str(workers)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    # the run has no end of its own: interrupt it once it has improved at
    # all three lengths, and kill it if that never happens
    guard = threading.Timer(60, os.killpg, (proc.pid, signal.SIGKILL))
    guard.start()
    try:
        lines, waiting = [], {60, 61, 62}
        while waiting:
            line = proc.stdout.readline()
            if not line:
                break
            lines.append(line)
            record = json.loads(line)
            if record.get("kind") == "improvement":
                waiting.discard(record["target"])
        sent = time.monotonic()
        if to_group:
            os.killpg(proc.pid, signal.SIGINT)
        else:
            proc.send_signal(signal.SIGINT)
        # read the rest through the same buffer as readline: communicate()
        # would read the pipe directly and skip what that buffer holds
        out = proc.stdout.read()
        proc.wait(timeout=60)
        took = time.monotonic() - sent
        err = proc.stderr.read()
    finally:
        guard.cancel()
        proc.stdout.close()
        proc.stderr.close()
    why = f"took={took:.3f}s returncode={proc.returncode} stderr tail={err[-400:]!r}"
    assert "Traceback" not in err, why
    assert not waiting, why  # the improvements streamed live, before the signal
    assert proc.returncode == 130, why
    assert took < 1.0, why
    records = [json.loads(l) for l in lines + out.splitlines() if l.strip()]
    finals = [r for r in records if r.get("kind") == "final"]
    assert len(finals) == 3, why  # partial best triple flushed
    summary = [r for r in records if r.get("kind") == "summary"]
    assert summary and summary[0]["interrupted"] is True, why


@pytest.mark.parametrize("human", [False, True])
def test_emit_interrupted_after_a_write_keeps_records_whole(monkeypatch, human):
    """A Ctrl-C handled right after a write to stdout ends the record being
    emitted there; the next record (a final) must still get its own line."""

    class Stdout(io.StringIO):
        interrupted = False

        def write(self, text):
            super().write(text)
            if not self.interrupted:
                self.interrupted = True
                raise KeyboardInterrupt

    out = Stdout()
    monkeypatch.setattr(sys, "stdout", out)
    args = argparse.Namespace(command="search", human=human)
    with pytest.raises(KeyboardInterrupt):
        _emit(args, {"kind": "improvement", "target": 61})
    _emit(args, {"kind": "final", "target": 60})
    if human:
        assert out.getvalue().splitlines() == [
            "command=search  kind=improvement  target=61",
            "command=search  kind=final  target=60"]
    else:
        assert [json.loads(l) for l in out.getvalue().splitlines()] == [
            {"command": "search", "kind": "improvement", "target": 61},
            {"command": "search", "kind": "final", "target": 60}]


def test_search_length_above_cap_is_refused_at_once():
    """The cap is checked before the first state's O(n^2) correlation,
    which at this length would run far past the budget."""
    out = subprocess.run([sys.executable, "-m", "labskit.cli", "search", "--n", "2000001",
                          "--partition", "1", "--budget", "0.1s"],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 3
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert "exceeds hard cap" in out.stderr
    assert out.stdout == ""


def test_potentials_length_above_cap_is_refused_at_once():
    """n* = 1,200,003 for k = 400,000: refused before the scan builds a
    block, which would take about half a minute."""
    out = subprocess.run([sys.executable, "-m", "labskit.cli", "potentials", "--k", "400000",
                          "--parts", "1"], capture_output=True, text=True, timeout=60)
    assert out.returncode == 3
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert "exceeds hard cap" in out.stderr
    assert out.stdout == ""


def test_search_lost_worker_is_one_error_line_and_exit_4(capsys, monkeypatch):
    """The first worker to start a restart SIGKILLs itself; workers are
    forked, so they see the patch.  The other walks until stopped."""
    first = multiprocessing.Lock()

    def member(*args):
        if first.acquire(block=False):
            os.kill(os.getpid(), signal.SIGKILL)
        return sample_member(*args)

    monkeypatch.setattr("labskit.solver.sample_member", member)
    code = main(["search", "--n", "61", "--partition", "3,2", "--workers", "2",
                 "--budget", "60s", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("error: worker ") and captured.err.count("\n") == 1
    assert "exited without reporting" in captured.err
    assert "Traceback" not in captured.err
    assert multiprocessing.active_children() == []


def test_search_and_potentials_defaults_are_the_library_defaults():
    parser = build_parser()
    args = parser.parse_args(["search", "--n", "21", "--partition", "2,1"])
    config = SolverConfig(n=21, partition=(2, 1))
    assert (args.ti, args.to, args.ta, args.seed, args.workers, args.policy) == \
        (config.t_inner, config.t_outer, config.t_activate, config.seed, config.workers,
         config.policy)
    args = parser.parse_args(["potentials", "--k", "6", "--parts", "2"])
    assert args.objective == \
        inspect.signature(best_partition).parameters["objective"].default


def test_search_reads_no_environment():
    env = dict(os.environ, LABSKIT_WORKERS="2", LABSKIT_TIME_LIMIT="nan")
    out = _run_cli(["search", "--n", "21", "--partition", "2,1", "--ti", "20",
                    "--to", "1", "--seed", "1"], env=env)
    assert out.returncode == 0, out.stderr
    header = json.loads(out.stdout.splitlines()[0])
    assert header["kind"] == "config"
    assert header["workers"] == 1 and header["time_limit"] is None


def test_package_reads_no_environment_variable():
    """No module of the package loads `os.environ` or calls `os.getenv`:
    a run is set by its arguments alone."""
    package = Path(__file__).resolve().parents[1] / "src" / "labskit"
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert not names & {"environ", "getenv"}, path.name
