import math
import multiprocessing
import os
import random
import signal
import time
from fractions import Fraction

import numpy as np
import pytest

from labskit.core import MAX_LENGTH, energy, merit_factor
from labskit.errors import DomainError
from labskit.partitions import project_partition, sample_member
from labskit.records import decode_hex, encode_hex
from labskit.skew import SkewHalf, SkewSearchState, is_skew_symmetric
from labskit.solver import (POLICY_SELF_AVOIDING, POLICY_STRICT_DESCENT,
                            SolverConfig, hash_half_bits, hash_state,
                            pick_better_neighbor, run)


def test_config_validation():
    good = SolverConfig(n=21, partition=(1, 1, 2, 2))
    good.validate()
    cases = [
        dict(n=20, partition=(2,)),          # even length
        dict(n=5, partition=(3,)),           # partition too large
        dict(n=21, partition=()),            # empty partition
        dict(n=21, partition=(0, 2)),        # bad part
        dict(n=21, partition=(2,), t_inner=0),
        dict(n=21, partition=(2,), t_outer=0),
        dict(n=21, partition=(2,), t_activate=-1.0),
        dict(n=21, partition=(2,), t_activate=math.nan),
        dict(n=21, partition=(2,), workers=0),
        dict(n=21, partition=(2,), time_limit=0.0),
        dict(n=21, partition=(2,), time_limit=math.nan),
        dict(n=21, partition=(2,), policy="greedy"),
        dict(n=MAX_LENGTH + 1, partition=(1,)),  # odd, above the length cap
    ]
    for kw in cases:
        with pytest.raises(DomainError):
            SolverConfig(**kw).validate()
    # an infinite budget or threshold is a valid "never"
    SolverConfig(n=21, partition=(2,), t_activate=math.inf, time_limit=math.inf).validate()


def test_hash_is_stable_and_length_prefixed():
    # frozen vectors guard cross-run / cross-platform stability
    assert hash_half_bits(0b101, 3) == 0x0835F307B4EE5B95
    assert hash_half_bits(0, 1) == 0xAF63BC4C8601B62C
    assert hash_half_bits(0, 1) != hash_half_bits(0, 2)
    st = SkewSearchState(SkewHalf((1, -1, 1)))
    st2 = SkewSearchState(SkewHalf((1, -1, 1)))
    assert hash_state(st) == hash_state(st2)


def test_hash_separates_neighbors():
    rnd = random.Random(51)
    collisions = 0
    for _ in range(10_000):
        l = rnd.randrange(1, 60)
        bits = rnd.getrandbits(l + 1)
        q = rnd.randrange(0, l + 1)
        if hash_half_bits(bits, l + 1) == hash_half_bits(bits ^ (1 << q), l + 1):
            collisions += 1
    assert collisions == 0


@pytest.mark.xfail(strict=True, reason="the FNV-1a word fold cancels a flip of bit 63 "
                   "in two consecutive 64-bit words (bits 63 and 127 here)")
def test_hash_separates_structured_two_bit_flip():
    x = random.Random(52).getrandbits(501) | (1 << 500)
    assert hash_half_bits(x, 501) != hash_half_bits(x ^ (1 << 63) ^ (1 << 127), 501)


def test_pick_better_neighbor_contracts():
    st = SkewSearchState(SkewHalf((1, 1, -1, 1)))
    all_q = range(st.l + 1)
    # every neighbor visited -> None
    visited = {hash_half_bits(st.half_bits ^ (1 << q), st.l + 1) for q in all_q}
    assert pick_better_neighbor(st, visited, POLICY_SELF_AVOIDING) is None
    # fresh set: self-avoiding always returns something; purity
    q1 = pick_better_neighbor(st, set(), POLICY_SELF_AVOIDING)
    q2 = pick_better_neighbor(st, set(), POLICY_SELF_AVOIDING)
    assert q1 == q2 is not None
    # strict descent only accepts improvements
    q3 = pick_better_neighbor(st, set(), POLICY_STRICT_DESCENT)
    if q3 is not None:
        assert st.flip_delta(q3) < 0
    # `first` runs over 0..l+1; at l+1 no position is free
    for policy in (POLICY_SELF_AVOIDING, POLICY_STRICT_DESCENT):
        assert pick_better_neighbor(st, set(), policy, st.l + 1) is None
        for first in (-1, st.l + 2):
            with pytest.raises(DomainError, match="out of range"):
                pick_better_neighbor(st, set(), policy, first)
    # an unknown policy is refused too, not run as self-avoiding
    for policy in ("strict_descent", "", None):
        with pytest.raises(DomainError, match="policy must be one of"):
            pick_better_neighbor(st, set(), policy)


def test_strict_descent_energy_decreases():
    rng = np.random.default_rng(8)
    st = SkewSearchState(sample_member((2, 1), 41, rng))
    visited = {hash_state(st)}
    prev = st.energy
    while True:
        q = pick_better_neighbor(st, visited, POLICY_STRICT_DESCENT, 3)
        if q is None:
            break
        st.apply_flip(q)
        visited.add(hash_state(st))
        assert st.energy < prev
        prev = st.energy


def test_run_reaches_barker13():
    cfg = SolverConfig(n=13, partition=(3,), t_inner=2000, t_outer=30, seed=1)
    result = run(cfg)
    assert result.best.target.mf == Fraction(169, 12)
    assert is_skew_symmetric(result.best.target.sequence)


def test_run_self_consistency_and_membership():
    cfg = SolverConfig(n=21, partition=(1, 1, 2, 2), t_inner=500, t_outer=10, seed=7)
    result = run(cfg)
    prefix, suffix, _ = project_partition((1, 1, 2, 2), 21)
    best = result.best.target
    assert merit_factor(best.sequence) == best.mf
    assert best.sequence.elements[:6] == prefix
    assert best.sequence.elements[-6:] == suffix
    # every improvement event re-decodes to its reported exact value
    for ev in result.events:
        seq = decode_hex(ev["hex"], ev["n"])
        assert merit_factor(seq) == Fraction(ev["mf_num"], ev["mf_den"])
        if ev["target"] == 21:
            assert seq.elements[:6] == prefix and seq.elements[-6:] == suffix
            assert is_skew_symmetric(seq)
    # adjacent-length candidates recompute exactly too
    for rec, length in ((result.best.shorter, 20), (result.best.longer, 22)):
        assert rec is not None
        assert rec.sequence.n == length
        assert merit_factor(rec.sequence) == rec.mf
    assert result.stats.restarts >= 2
    assert result.stats.flips > 0
    assert result.stats.probes > 0


def test_run_improvements_are_monotone():
    cfg = SolverConfig(n=21, partition=(2, 1), t_inner=400, t_outer=8, seed=3)
    result = run(cfg)
    per_target = {}
    for ev in result.events:
        mf = Fraction(ev["mf_num"], ev["mf_den"])
        assert per_target.get(ev["target"]) is None or mf > per_target[ev["target"]]
        per_target[ev["target"]] = mf


def test_run_deterministic_for_fixed_seed():
    cfg = SolverConfig(n=21, partition=(2, 1), t_inner=300, t_outer=6, seed=11)
    a = run(cfg)
    b = run(cfg)
    assert a.events == b.events
    assert a.best.target.mf == b.best.target.mf
    assert a.best.target.sequence == b.best.target.sequence
    assert a.stats.flips == b.stats.flips
    different = run(SolverConfig(n=21, partition=(2, 1), t_inner=300,
                                 t_outer=6, seed=12))
    assert different.stats.flips != a.stats.flips or different.events != a.events


def test_activation_threshold_gates_probes():
    cfg = SolverConfig(n=21, partition=(2, 1), t_inner=200, t_outer=4, seed=2,
                       t_activate=1e9)
    result = run(cfg)
    assert result.stats.probes == 0
    assert result.best.shorter is None and result.best.longer is None
    assert result.best.target is not None


def test_outer_budget_terminates():
    cfg = SolverConfig(n=13, partition=(1,), t_inner=10**6, t_outer=3, seed=0)
    result = run(cfg)
    # t_outer+1 restarts: the class is tiny so every restart exhausts its
    # neighborhood and still counts toward the outer budget
    assert result.stats.restarts == 4


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_budgets_count_from_zero(seed):
    # t_inner = 5 allows 6 flips per restart and t_outer = 8 makes 9
    # restarts, as the --ti/--to help says
    cfg = SolverConfig(n=101, partition=(6, 3, 3), t_inner=5, t_outer=8, seed=seed)
    result = run(cfg)
    assert (result.stats.flips, result.stats.restarts) == (54, 9)


def test_time_limit_stops_early():
    cfg = SolverConfig(n=61, partition=(3, 2), t_inner=10**6, t_outer=10**6,
                       seed=0, time_limit=0.3)
    result = run(cfg)
    assert result.stats.elapsed < 5.0


def test_time_limit_checked_every_flip():
    # one walk step at n=1001 takes milliseconds, so a deadline polled
    # only every few hundred flips would overrun by seconds
    cfg = SolverConfig(n=1001, partition=(6, 3, 3), t_inner=10**6, t_outer=10**6,
                       seed=0, time_limit=0.3)
    t0 = time.monotonic()
    result = run(cfg)
    assert time.monotonic() - t0 < 1.5
    assert result.stats.elapsed < cfg.time_limit + 0.3  # 256 flips take ~1 s


def test_deadline_checked_before_the_first_row_build(monkeypatch):
    """A deadline that passes while a restart builds its state ends the
    run before the first pick builds the scan's rows in O(n^2)."""
    clock = [0.0]

    class SlowState(SkewSearchState):
        def __init__(self, half):
            super().__init__(half)
            clock[0] = 10.0  # the deadline passes during the set-up

    def build_rows(self):
        raise AssertionError("rows built after the deadline")

    monkeypatch.setattr("labskit.solver.time.monotonic", lambda: clock[0])
    monkeypatch.setattr("labskit.solver.SkewSearchState", SlowState)
    monkeypatch.setattr(SkewSearchState, "_build_rows", build_rows)
    cfg = SolverConfig(n=101, partition=(6, 3, 3), seed=1, time_limit=1.0)
    result = run(cfg)
    assert (result.stats.flips, result.stats.restarts) == (0, 1)
    assert [(ev["n"], ev["flips"], ev["restarts"]) for ev in result.events] == [(101, 0, 1)]


@pytest.mark.parametrize("workers", [1, 2])
def test_parallel_workers_merge(workers):
    cfg = SolverConfig(n=21, partition=(2, 1), t_inner=200, t_outer=4, seed=5,
                       workers=workers)
    result = run(cfg)
    assert multiprocessing.active_children() == []
    assert len(result.stats.per_worker) == workers
    for counter in ("restarts", "flips", "probes"):
        assert sum(w[counter] for w in result.stats.per_worker) == \
            getattr(result.stats, counter)
    assert result.best.target is not None
    assert merit_factor(result.best.target.sequence) == result.best.target.mf
    single = run(SolverConfig(n=21, partition=(2, 1), t_inner=200, t_outer=4,
                              seed=5, workers=1))
    # worker 0 of the pool matches the single-worker stream
    assert [e for e in result.events if e["worker"] == 0] == single.events
    # each slot of the merged triple holds the best of the workers' last
    # events at its length; as in _merge, a tie goes to the lowest worker id
    for length, record in result.best.by_length(cfg.n).items():
        last = {ev["worker"]: ev for ev in result.events if ev["n"] == length}
        assert len(last) == workers
        want = max(sorted(last.items()),
                   key=lambda item: Fraction(item[1]["mf_num"], item[1]["mf_den"]))[1]
        assert record is not None
        assert (record.mf, encode_hex(record.sequence)) == \
            (Fraction(want["mf_num"], want["mf_den"]), want["hex"])


def _first_worker_fails(monkeypatch, fail):
    """Make the first worker to start a restart call `fail`; the others
    walk on until stopped.  Workers are forked, so they see the patch."""
    first = multiprocessing.Lock()

    def member(*args):
        if first.acquire(block=False):
            fail()
        return sample_member(*args)

    monkeypatch.setattr("labskit.solver.sample_member", member)
    return SolverConfig(n=61, partition=(3, 2), t_inner=10**6, t_outer=10**6,
                        seed=1, workers=2, time_limit=60.0)


def test_worker_exception_is_raised_in_the_parent(monkeypatch):
    def fail():
        raise ValueError("member failed")

    cfg = _first_worker_fails(monkeypatch, fail)
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="member failed"):
        run(cfg)
    assert time.monotonic() - t0 < 30  # not after the other worker's budget
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("exc", [KeyboardInterrupt, ValueError])
@pytest.mark.parametrize("workers", [1, 2])
def test_on_event_exception_propagates(workers, exc):
    """An exception raised by `on_event`, KeyboardInterrupt included, ends
    the run with any worker count, and no worker outlives it."""
    def on_event(ev):
        raise exc("from on_event")

    cfg = SolverConfig(n=21, partition=(2, 1), t_inner=200, t_outer=4, seed=5,
                       workers=workers)
    with pytest.raises(exc, match="from on_event"):
        run(cfg, on_event=on_event)
    assert multiprocessing.active_children() == []
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler


def test_worker_killed_without_reporting_raises(monkeypatch):
    cfg = _first_worker_fails(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    t0 = time.monotonic()
    with pytest.raises(ChildProcessError, match="exited without reporting"):
        run(cfg)
    assert time.monotonic() - t0 < 30
    assert multiprocessing.active_children() == []
