"""Workload inputs, timed ops and output checks.

Every op calls labskit through its public module-level functions, looked
up at call time so that `tracer.traced` can stand in for them.  An op
returns its wall and CPU time and, checked outside the timed phase, a
list of problems; an op with any problem is a failed op.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import labskit.partitions
import labskit.records
import labskit.skew
import labskit.solver
from labskit.reference import ref_energy

EXPECTED_PATH = Path(__file__).with_name("expected.json")

TTS_N = 101
WALK_N = 1001
TTS_T_INNER = 2000
# Flip cap of one attempt: (TTS_T_OUTER + 1) restarts of TTS_T_INNER + 1 flips.
TTS_T_OUTER = 20
WALK_T_INNER = 100
WALK_T_OUTER = 1

SIEVE_TOOLS = ("best_partition_U", "best_partition_Ustar", "exhaustive_22", "verify_all")


class TargetReached(Exception):
    """Raised from `on_event` to stop an attempt at its target."""


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def search_partition() -> tuple:
    return labskit.partitions.best_partition(12, 3, "Ustar").partition


def pool_order(pool_size: int, seed: int) -> list:
    """The workload seed's permutation of the solver-seed pool."""
    order = list(range(pool_size))
    random.Random(seed).shuffle(order)
    return order


def build_inputs(workload: str, seed: int, expected: dict) -> dict:
    """Everything a workload needs before its first timed call."""
    if workload == "sieve":
        rows = labskit.records.load_dataset()
        random.Random(seed).shuffle(rows)
        return {"dataset": rows, "tool_order": SIEVE_TOOLS}
    pool = expected[workload]["pool"]
    part = search_partition()
    configs = [(i, search_config(workload, part, pool[i]["seed"]))
               for i in pool_order(len(pool), seed)]
    return {"partition": part, "configs": configs}


def search_config(workload: str, partition: tuple, solver_seed: int):
    if workload == "tts-101":
        n, t_inner, t_outer = TTS_N, TTS_T_INNER, TTS_T_OUTER
    else:
        n, t_inner, t_outer = WALK_N, WALK_T_INNER, WALK_T_OUTER
    cfg = labskit.solver.SolverConfig(
        n=n, partition=partition, t_inner=t_inner, t_outer=t_outer,
        t_activate=0.0, seed=solver_seed, policy=labskit.solver.POLICY_SELF_AVOIDING)
    cfg.validate()
    return cfg


def stream_digest(events) -> str:
    """sha256 over the sorted-key JSON of each event, one per line."""
    h = hashlib.sha256()
    for ev in events:
        h.update(json.dumps(ev, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def check_final_records(events) -> list:
    """Recompute the last record at each length from its hex."""
    last = {}
    for ev in events:
        last[ev["n"]] = ev
    problems = []
    for n, ev in sorted(last.items()):
        seq = labskit.records.decode_hex(ev["hex"], n)
        e = ref_energy(seq.elements)
        if Fraction(n * n, 2 * e) != Fraction(ev["mf_num"], ev["mf_den"]):
            problems.append(f"n={n}: record energy {e} disagrees with mf "
                            f"{ev['mf_num']}/{ev['mf_den']}")
    return problems


def tts_attempt(cfg, target: Fraction) -> dict:
    """One time-to-target attempt; stops at the first length-n event with
    MF >= target, or at the flip cap."""
    events = []
    num, den = target.numerator, target.denominator
    n = cfg.n

    def on_event(ev):
        events.append(ev)
        if ev["n"] == n and ev["mf_num"] * den >= num * ev["mf_den"]:
            raise TargetReached

    c0, t0 = time.process_time(), time.perf_counter()
    try:
        labskit.solver.run(cfg, on_event=on_event)
        reached = False
    except TargetReached:
        reached = True
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    flips = events[-1]["flips"] if events else 0
    return {"wall": wall, "cpu": cpu, "flips": flips, "reached": reached,
            "restarts": events[-1]["restarts"] if events else 0,
            "events": events, "digest": stream_digest(events),
            "adjacent_events": sum(ev["n"] != n for ev in events)}


def walk_run(cfg) -> dict:
    """One fixed-budget search, run to the end of its budget."""
    events = []
    c0, t0 = time.process_time(), time.perf_counter()
    result = labskit.solver.run(cfg, on_event=events.append)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return {"wall": wall, "cpu": cpu, "flips": result.stats.flips,
            "restarts": result.stats.restarts, "events": events,
            "digest": stream_digest(events), "result": result,
            "adjacent_events": sum(ev["n"] != cfg.n for ev in events)}


def search_problems(op: dict, want: dict) -> list:
    problems = []
    if "reached" in op and not op["reached"]:
        problems.append(f"flip cap hit after {op['flips']} flips")
    if op["digest"] != want["digest"]:
        problems.append(f"stream digest {op['digest'][:16]} != recorded {want['digest'][:16]}")
    if op["flips"] != want["flips"]:
        problems.append(f"flips {op['flips']} != recorded {want['flips']}")
    problems += check_final_records(op["events"])
    if "result" in op:
        best = op["result"].best.by_length(op["result"].config.n)
        last = {ev["n"]: ev["hex"] for ev in op["events"]}
        for n, rec in best.items():
            if rec is None or labskit.records.encode_hex(rec.sequence) != last.get(n):
                problems.append(f"n={n}: final record differs from the last event")
    return problems


def sieve_tool(tool: str, dataset) -> dict:
    """One exact offline tool call, timed."""
    c0, t0 = time.process_time(), time.perf_counter()
    if tool == "best_partition_U":
        out = labskit.partitions.best_partition(68, 7, "U")
    elif tool == "best_partition_Ustar":
        out = labskit.partitions.best_partition(68, 7, "Ustar")
    elif tool == "exhaustive_22":
        out = labskit.skew.exhaustive_best(22)
    else:
        out = labskit.records.verify_all(dataset)
    return {"tool": tool, "wall": time.perf_counter() - t0,
            "cpu": time.process_time() - c0, "out": out}


def sieve_problems(op: dict, want: dict) -> list:
    tool, out, exp = op["tool"], op["out"], want[op["tool"]]
    if tool.startswith("best_partition"):
        got = {"partition": list(out.partition), "potential": out.potential,
               "normalized": out.normalized}
        bad = {k: v for k, v in exp.items() if got[k] != v}
        return [f"{tool}: got {got}, expected {exp}"] if bad else []
    if tool == "exhaustive_22":
        mf, seq = out
        got_mf = [mf.numerator, mf.denominator]
        e = ref_energy(seq.elements)
        if got_mf != exp["mf"] or seq.n != 22 or Fraction(22 * 22, 2 * e) != mf:
            return [f"{tool}: got mf {got_mf} (energy {e}), expected {exp['mf']}"]
        return []
    summary = out[1]
    got = [summary["matched"], summary["total"]]
    return [] if got == exp["matched_total"] else [
        f"{tool}: matched/total {got}, expected {exp['matched_total']}"]
