"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with output visible:  pytest -s tests/test_acceptance.py
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from labskit.core import BinarySequence, TernarySequence, energy, merit_factor, sidelobes
from labskit.partitions import (best_partition, enumerate_partitions, n_star,
                                potential, symmetry_class_count)
from labskit.pseudo import probe
from labskit.records import load_dataset, verify_all, verify_entry
from labskit.skew import SkewHalf, SkewSearchState, exhaustive_best, expand
from labskit.solver import SolverConfig, run
from labskit.symmetry import DELTA_GROUP, EtaOp, apply_eta, canonical_form


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_record_verification():
    t0 = time.monotonic()
    entries = load_dataset()
    reports, summary = verify_all(entries)
    elapsed = time.monotonic() - t0
    assert summary["match_fraction"] >= 0.95
    required = {172: [], 573: [], 1006: [], 1007: [], 1008: [], 1009: [], 1010: []}
    for r in reports:
        if r.entry.n in required:
            required[r.entry.n].append(r.match)
    for n, matches in required.items():
        assert matches and all(matches), f"required row n={n} failed"
    assert elapsed < 10.0, f"verification took {elapsed:.2f}s"
    _report(1, f"{summary['matched']}/{summary['total']} rows match at 1e-9 "
               f"({elapsed:.2f}s), required rows all exact")


def test_criterion_2_worked_example():
    q = TernarySequence([1, -1, 1, 1, -1, -1] + [0] * 9 + [1, -1, -1, 1, 1, 1])
    assert energy(q) == 54
    assert sidelobes(q).values == (1, 0, 1, 0, 1, 0, -5, 0, 3, 0,
                                   -1, 0, 0, 0, 0, 0, 0, 0, -4, 0)
    report = potential((1, 1, 2, 2), 21)
    assert report.potential == 54
    _report(2, "length-21 ternary projection reproduces energy 54 and the "
               "full sidelobe array")


def test_criterion_3_potential_table():
    expectations = [
        (39, 4, "U", (18, 11, 6, 4), 3731),
        (39, 4, "Ustar", (18, 11, 6, 4), 1082),
        (41, 6, "U", (17, 9, 6, 4, 3, 2), 2217),
        (41, 6, "Ustar", None, 813),   # two partitions tie at 813
        (56, 4, "U", (27, 14, 9, 6), 12856),
        (56, 4, "Ustar", (27, 14, 9, 6), 3472),
        (68, 7, "U", (25, 11, 10, 7, 5, 5, 5), 9596),
        (68, 7, "Ustar", (25, 12, 9, 8, 6, 4, 4), 3040),
    ]
    worst = 0.0
    for k, parts, objective, part, value in expectations:
        t0 = time.monotonic()
        r = best_partition(k, parts, objective)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        got = r.potential if objective == "U" else r.normalized
        assert got == value, (k, parts, objective, got, value)
        if part is not None:
            assert r.partition == part, (k, parts, objective, r.partition)
        assert dt < 60.0, f"scan ({k},{parts},{objective}) took {dt:.1f}s"
    assert potential((17, 9, 6, 4, 3, 2)).normalized == 813
    _report(3, f"all optimal-partition rows exact; slowest scan {worst:.1f}s")


def test_criterion_4_small_length_optima():
    assert exhaustive_best(5)[0] == Fraction(25, 4)
    assert exhaustive_best(11)[0] == Fraction(121, 10)
    assert exhaustive_best(13)[0] == Fraction(169, 12)
    t0 = time.monotonic()
    mf16, _ = exhaustive_best(16)
    dt = time.monotonic() - t0
    assert dt < 60.0, f"n=16 full search took {dt:.1f}s"
    assert mf16 == Fraction(256, 2 * 24)
    _report(4, f"optima 6.25 / 12.1 / 169-over-12 exact; n=16 full search "
               f"in {dt:.1f}s")


def test_criterion_5_delta_formula_oracles():
    rnd = random.Random(505)
    probes = 0
    for _ in range(1000):
        l = rnd.randrange(2, 101)  # n = 2l+1 in [5, 201]
        b = expand(SkewHalf(tuple(rnd.choice((-1, 1)) for _ in range(l + 1))))
        for op in map(EtaOp, range(1, 7)):
            assert probe(b, op).energy == energy(apply_eta(op, b))
            probes += 1
    flips = 0
    for _ in range(1000):
        l = rnd.randrange(2, 101)
        st = SkewSearchState(SkewHalf(tuple(rnd.choice((-1, 1)) for _ in range(l + 1))))
        q = rnd.randrange(0, l + 1)
        before = st.energy
        delta = st.flip_delta(q)
        st.apply_flip(q)
        assert before + delta == st.energy == energy(st.sequence())
        flips += 1
    _report(5, f"{probes} boundary probes and {flips} paired flips equal "
               f"direct recomputation exactly")


def test_criterion_6_structural_invariants():
    rnd = random.Random(606)
    for _ in range(1000):
        l = rnd.randrange(1, 40)
        seq = expand(SkewHalf(tuple(rnd.choice((-1, 1)) for _ in range(l + 1))))
        arr = sidelobes(seq)
        assert all(arr[i] == 0 for i in range(1, len(arr), 2))
    for _ in range(1000):
        l = rnd.randrange(1, 40)
        core = expand(SkewHalf(tuple(rnd.choice((-1, 1)) for _ in range(l + 1))))
        pss = BinarySequence.from_elements(core.elements + (rnd.choice((-1, 1)),))
        arr = sidelobes(pss)
        assert all(abs(arr[i]) == 1 for i in range(0, len(arr), 2))
    for _ in range(1000):
        n = rnd.randrange(2, 60)
        seq = BinarySequence.from_elements(rnd.choice((-1, 1)) for _ in range(n))
        e = energy(seq)
        assert all(energy(op.apply(seq)) == e for op in DELTA_GROUP)
    _report(6, "3000 randomized instances: zero odd sidelobes, +-1 even "
               "sidelobes, 8-fold energy invariance - no violations")


def test_criterion_7_symmetry_class_counts():
    for k in range(3, 15):
        seen = set()
        for bits in product((-1, 1), repeat=k):
            seen.add(canonical_form(BinarySequence.from_elements(bits)))
        assert symmetry_class_count(k) == len(seen), k
    _report(7, "class-count formula equals brute-force orbit counts for "
               "k in [3, 14] (k=6 gives 10)")


def test_criterion_8_potential_length_invariance():
    rnd = random.Random(808)
    pool = [p for k in range(2, 31) for p in enumerate_partitions(k)]
    sample = rnd.sample(pool, 50)
    for parts in sample:
        base = potential(parts)
        assert base.eval_length == n_star(sum(parts))
        for bump in (2, 10):
            again = potential(parts, base.eval_length + bump)
            assert (again.potential, again.normalized) == \
                (base.potential, base.normalized), parts
    _report(8, "50 random partitions (k <= 30): potentials identical at "
               "n*, n*+2, n*+10")


class _TargetReached(Exception):
    """Raised from `on_event` to stop an attempt at its target."""


def _solver_attempt(n, partition, seed, time_limit, target_mf):
    """Best MF at length n of one run, stopped at the first event that
    reaches `target_mf` (the run would only idle on to its deadline)."""
    cfg = SolverConfig(n=n, partition=partition, t_inner=2000, t_outer=10**6,
                       seed=seed, time_limit=time_limit)
    reached = []

    def on_event(ev):
        if ev["n"] == n and ev["mf"] >= target_mf:
            reached.append(ev["mf"])
            raise _TargetReached

    try:
        result = run(cfg, on_event=on_event)
    except _TargetReached:
        return True, reached[0]
    best = result.best.target
    return False, None if best is None else float(best.mf)


def test_criterion_9_solver_sanity():
    # stochastic: three seeds allowed per target
    ok13 = False
    for seed in (1, 2, 3):
        t0 = time.monotonic()
        cfg = SolverConfig(n=13, partition=(3,), t_inner=2000, t_outer=50, seed=seed)
        result = run(cfg)
        dt = time.monotonic() - t0
        if result.best.target.mf == Fraction(169, 12) and dt < 5.0:
            ok13 = True
            break
    assert ok13, "n=13 did not reach 169/12 within 5s in three attempts"

    part101 = best_partition(12, 3, "Ustar").partition
    ok101 = False
    for seed in (1, 2, 3):
        hit, mf101 = _solver_attempt(101, part101, seed, 55.0, 5.5)
        if hit:
            ok101 = True
            break
    assert ok101, "n=101 did not reach MF 5.5 within 60s in three attempts"
    _report(9, f"n=13 hits 169/12 in under 5s; n=101 with partition "
               f"{tuple(part101)} reaches MF {mf101:.3f} >= 5.5 on one worker")


def test_criterion_10_deterministic_streams():
    args = [sys.executable, "-m", "labskit.cli", "search", "--n", "21",
            "--partition", "1,1,2,2", "--ti", "400", "--to", "8", "--seed", "99"]
    a = subprocess.run(args, capture_output=True, text=True, timeout=120)
    b = subprocess.run(args, capture_output=True, text=True, timeout=120)
    assert a.returncode == b.returncode == 0
    assert a.stdout and a.stdout == b.stdout
    _report(10, "fixed-seed single-worker runs emit byte-identical streams")
