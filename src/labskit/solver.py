"""Restart local search over partition-restricted skew-symmetric classes.

One run searches the class fixed by a partition projection: the first
k and last k elements stay pinned, and moves flip one free half
position q in [k, l] (pairing with n-1-q to preserve skew-symmetry).
Per restart the search keeps a visited hash set and walks to the best
unvisited neighbor (optionally only strictly improving ones) until the
neighborhood is exhausted or the inner move budget runs out.  A step
scores every position in O(n) (the scan of `SkewSearchState.flip_deltas`)
and picks by `argmin` over the float scores the state keeps, masking
visited entries in a copy (`pick_better_neighbor`).  The pick hands the
walk the visited key of the state it picks, so a flip computes one key.
Once a state clears the activation threshold, its four adjacent
pseudo-skew candidates of lengths n-1 and n+1 (`pseudo.PROBE_EDITS`) are
probed through closed-form deltas, whose two sums the state reads from
its rows in O(1) (`SkewSearchState.boundary_sums`), so one run keeps
best candidates at three lengths.  The walk counts four probes but
compares three: n3 (strip the first element) always costs what n4
(strip the last) costs, and n4 is compared first with a strict `<`, so
n3 could never record.  A state clears the threshold when
float(n^2 / (2E)) >= t_activate, the merit factor's definition.  At a
fixed length a higher merit factor is a lower energy, so the walk
keeps integer energies and builds a `Fraction` only for an improvement
it reports.

`walk` yields the improvements and one consumer turns them into best
records and events, inline for one worker and in each process for
more.  Workers are share-nothing processes, each with a numpy PCG64
stream seeded by SeedSequence(entropy=(seed, worker id)); their events
stream live, and the merged result takes the per-target maximum.
Single-worker runs are fully deterministic for a fixed seed.

One stop path serves every worker count: `run` makes one shared flag,
which every walk reads once per pass, and a Ctrl-C (SIGINT) sets it, so
each walk ends at its next pass and reports its best so far.  `run`
takes SIGINT over only on the main thread and only while Python's
default handler is in place; elsewhere SIGINT stays the caller's.  An
exception raised by `on_event`, KeyboardInterrupt included, propagates
out of `run` with any worker count.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import signal
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from multiprocessing.connection import wait
from typing import Callable, List, Optional, Tuple

import numpy as np

from .core import BinarySequence, _check_length, merit_factor_of
from .errors import DomainError
from .partitions import project_partition, sample_member
# The walk takes all four probe energies from one probe_table call.
# append_delta_arrays and truncate_delta_arrays stay bound here because
# perfbench/tracer.py looks them up in this module's namespace.
from .pseudo import (PROBE_EDITS, append_delta_arrays, probe_table,  # noqa: F401
                     truncate_delta_arrays)
from .records import encode_hex, mf_fields
from .skew import SkewSearchState
from .symmetry import apply_eta

POLICY_SELF_AVOIDING = "self-avoiding-best"
POLICY_STRICT_DESCENT = "strict-descent"
POLICIES = (POLICY_SELF_AVOIDING, POLICY_STRICT_DESCENT)


def _check_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise DomainError(f"policy must be one of {POLICIES}, got {policy!r}")


_M64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def hash_half_bits(half_bits: int, half_len: int) -> int:
    """Stable digest of a packed half sequence: a 64-bit FNV-1a-style fold
    of the length, then each 64-bit word of the bits from the lowest up."""
    h = ((_FNV_OFFSET ^ half_len) * _FNV_PRIME) & _M64
    while half_bits:
        h = ((h ^ (half_bits & _M64)) * _FNV_PRIME) & _M64
        half_bits >>= 64
    return h


def hash_state(state: SkewSearchState) -> int:
    return hash_half_bits(state.half_bits, state.l + 1)


@dataclass
class SolverConfig:
    """One search run.  Budgets: a restart stops after at most
    `t_inner` + 1 flips, and a run makes `t_outer` + 1 restarts (fewer
    if `time_limit` runs out first)."""

    n: int
    partition: Tuple[int, ...]
    t_inner: int = 100_000
    t_outer: int = 1_000
    t_activate: float = 0.0
    workers: int = 1
    seed: int = 0
    time_limit: Optional[float] = None
    policy: str = POLICY_SELF_AVOIDING

    def validate(self) -> None:
        if self.n < 3 or self.n % 2 == 0:
            raise DomainError(f"search length must be odd and >= 3, got {self.n}")
        _check_length(self.n)
        project_partition(self.partition, self.n)  # refuses a partition that does not fit n
        if self.t_inner < 1:
            raise DomainError(f"inner threshold must be >= 1, got {self.t_inner}")
        if self.t_outer < 1:
            raise DomainError(f"outer threshold must be >= 1, got {self.t_outer}")
        # written so that NaN, which fails every comparison, is refused too
        if not self.t_activate >= 0:
            raise DomainError(f"activation threshold must be >= 0, got {self.t_activate}")
        if self.workers < 1:
            raise DomainError(f"worker count must be >= 1, got {self.workers}")
        if self.time_limit is not None and not self.time_limit > 0:
            raise DomainError(f"time limit must be positive, got {self.time_limit}")
        _check_policy(self.policy)


@dataclass(frozen=True)
class BestRecord:
    mf: Fraction
    sequence: BinarySequence
    found_elapsed: float


@dataclass
class BestTriple:
    shorter: Optional[BestRecord] = None  # length n-1, pseudo-skew-symmetric
    target: Optional[BestRecord] = None   # length n, skew-symmetric
    longer: Optional[BestRecord] = None   # length n+1, pseudo-skew-symmetric

    def by_length(self, n: int) -> dict:
        return {n - 1: self.shorter, n: self.target, n + 1: self.longer}


@dataclass
class RunStats:
    restarts: int = 0
    flips: int = 0
    probes: int = 0
    elapsed: float = 0.0
    interrupted: bool = False
    per_worker: list = field(default_factory=list)


@dataclass
class SolverResult:
    config: SolverConfig
    best: BestTriple
    stats: RunStats
    events: list = field(default_factory=list)


def pick_better_neighbor(state: SkewSearchState, visited: set, policy: str,
                         first: int = 0) -> Optional[int]:
    """Index q in [`first`, l] of the best unvisited single-flip neighbor,
    or None.

    Under strict-descent only neighbors with lower energy qualify; under
    self-avoiding-best the best unvisited neighbor wins regardless.
    Ties break to the smallest index.  The pick takes the `argmin` of the
    energy changes and, while that neighbor is in `visited`, masks its
    entry and takes the `argmin` again.
    """
    _check_policy(policy)
    if not 0 <= first <= state.l + 1:
        raise DomainError(f"first flip index {first} out of range [0, {state.l + 1}]")
    return _pick(state, visited, policy == POLICY_STRICT_DESCENT, first)[0]


def _pick(state: SkewSearchState, visited: set, strict: bool, first: int) -> tuple:
    """The q that `pick_better_neighbor` picks and the visited key of the
    state a flip at q leads to, or (None, None).  Reads the state's kept
    float scores: exact integers, so their `argmin` is the int64 one, ties
    included.  From the first visited hit on it masks a copy, so the
    scores that `apply_flip` reads stay intact."""
    scores = state._scan()[first:]
    half_len, bits = state.l + 1, state.half_bits
    masked = False
    for _ in range(scores.shape[0]):
        i = int(scores.argmin())
        q = first + i
        key = hash_half_bits(bits ^ (1 << q), half_len)
        if key not in visited:
            return (None, None) if strict and scores.item(i) >= 0 else (q, key)
        if not masked:
            scores, masked = scores.copy(), True
        scores[i] = math.inf
    return None, None


def _event(mf: Fraction, seq: BinarySequence, flips: int, restarts: int,
           worker: int) -> dict:
    return {
        "kind": "improvement",
        "target": seq.n,
        **mf_fields(mf),
        "hex": encode_hex(seq),
        "n": seq.n,
        "flips": flips,
        "restarts": restarts,
        "worker": worker,
    }


def walk(config: SolverConfig, worker_id: int, stats: RunStats, stop):
    """Yield `(length, energy, sequence)` for each improvement of worker
    `worker_id`'s restart walk, counting in `stats`.  Each pass of the
    loop takes one state, a restart's or a flip's.  The deadline and
    `stop` (a shared flag, set once its `value` is true) are checked once
    per pass, before the pick, whose first call on a restart builds the
    scan's rows in O(n^2)."""
    n = config.n
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=(config.seed & _M64, worker_id)))
    first = sum(config.partition)  # the walk flips positions first..l
    strict = config.policy == POLICY_STRICT_DESCENT
    nn, ta = n * n, config.t_activate
    # (length, edit) of what a state scores: itself, then its probes but n3,
    # whose energy equals n4's, scored before it with a strict comparison
    own = [(n, None)]
    candidates = own + [(n + op.length_change, op) for op in PROBE_EDITS if op.index != 3]
    # best energy so far per length; at one length, lower energy = higher MF
    best_energy = {length: math.inf for length, _ in candidates}
    deadline = math.inf if config.time_limit is None else time.monotonic() + config.time_limit
    restart = True
    while time.monotonic() < deadline and not stop.value:
        if restart:
            # every restart counts toward the outer budget
            if stats.restarts > config.t_outer:
                return
            stats.restarts += 1
            state = SkewSearchState(sample_member(config.partition, n, rng))
            visited = {hash_state(state)}
            w_i = 0
        else:
            q, key = _pick(state, visited, strict, first)
            if q is None:
                restart = True
                continue
            state.apply_flip(q)
            stats.flips += 1
            w_i += 1
            visited.add(key)
        # the state itself and, once it has moved and while it clears the
        # activation threshold, its adjacent-length probes; int / int is
        # correctly rounded, so this is float(Fraction(n*n, 2E)) >= ta
        probing = w_i and nn / (2 * state.energy) >= ta
        if probing:
            stats.probes += len(PROBE_EDITS)
            energies = probe_table(n, state.energy, 1 if state.half_bits & 1 else -1,
                                   *state.boundary_sums())[1]
        base = None
        for length, op in candidates if probing else own:
            energy = state.energy if op is None else energies[op.index]
            if energy < best_energy[length]:
                best_energy[length] = energy
                if base is None:
                    base = state.sequence()
                yield length, energy, base if op is None else apply_eta(op, base)
        restart = w_i > config.t_inner


def _consume(config: SolverConfig, worker_id: int, emit: Callable[[dict], None],
             stop) -> SolverResult:
    """Keep the best record per length of worker `worker_id`'s walk and
    pass each improvement's event to `emit`."""
    best = BestTriple()
    slots = {config.n - 1: "shorter", config.n: "target", config.n + 1: "longer"}
    stats = RunStats()
    start = time.monotonic()
    for length, energy, seq in walk(config, worker_id, stats, stop):
        mf = merit_factor_of(length, energy)
        setattr(best, slots[length], BestRecord(mf, seq, time.monotonic() - start))
        emit(_event(mf, seq, stats.flips, stats.restarts, worker_id))
    stats.elapsed = time.monotonic() - start
    return SolverResult(config=config, best=best, stats=stats)


def _walk_process(config: SolverConfig, worker_id: int, conn, stop) -> None:
    """Worker process: send each event, then the result or the exception
    the walk raised.  Ctrl-C is the parent's to handle."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        conn.send(_consume(config, worker_id, conn.send, stop))
    except Exception as exc:
        conn.send(exc)


def _run_workers(config: SolverConfig, emit: Callable[[dict], None],
                 stop) -> List[SolverResult]:
    """One walk per process, each event passed to `emit` as it arrives.
    Returns the results in worker order.  A worker's exception is raised
    here, and its exit without a report as ChildProcessError; no worker
    outlives the call."""
    conns, procs, results = {}, [], {}  # conns: reader -> worker id
    try:
        for w in range(config.workers):
            recv, send = mp.Pipe(duplex=False)
            procs.append(mp.Process(target=_walk_process, args=(config, w, send, stop)))
            procs[-1].start()
            send.close()  # the worker then holds the only writer: EOF once it is gone
            conns[recv] = w
        while len(results) < config.workers:
            for conn in wait([c for c, w in conns.items() if w not in results]):
                try:
                    msg = conn.recv()
                except EOFError:
                    raise ChildProcessError(f"worker {conns[conn]} exited "
                                            "without reporting") from None
                if isinstance(msg, SolverResult):
                    results[conns[conn]] = msg
                elif isinstance(msg, BaseException):
                    raise msg
                else:
                    emit(msg)
        return [results[w] for w in range(config.workers)]
    finally:
        for proc in procs:
            proc.terminate()  # it has reported already, or must not outlive the run
            proc.join()
        for conn in conns:
            conn.close()


def _merge(config: SolverConfig, events: List[dict], results: List[SolverResult],
           interrupted: bool) -> SolverResult:
    best = BestTriple()
    stats = RunStats(interrupted=interrupted)
    for r in results:
        for attr in ("shorter", "target", "longer"):
            cand = getattr(r.best, attr)
            cur = getattr(best, attr)
            if cand is not None and (cur is None or cand.mf > cur.mf):
                setattr(best, attr, cand)
        stats.restarts += r.stats.restarts
        stats.flips += r.stats.flips
        stats.probes += r.stats.probes
        stats.elapsed = max(stats.elapsed, r.stats.elapsed)
        stats.per_worker.append({
            "restarts": r.stats.restarts,
            "flips": r.stats.flips,
            "probes": r.stats.probes,
            "elapsed": r.stats.elapsed,
        })
    return SolverResult(config=config, best=best, stats=stats, events=events)


def run(config: SolverConfig,
        on_event: Optional[Callable[[dict], None]] = None) -> SolverResult:
    """Execute the restart search described by `config`.

    `on_event` fires on each improvement as it is found, and the result
    lists the events in that order: fixed by the seed for one worker,
    which runs inline; interleaved across workers, in walk order within
    each, for more.  With any number of workers, a Ctrl-C (SIGINT) sets
    the one shared stop, and the search ends with its best so far and
    `stats.interrupted` set; this holds on the main thread while Python's
    default SIGINT handler is in place, and elsewhere SIGINT stays the
    caller's.  An exception raised by `on_event`, KeyboardInterrupt
    included, propagates, and no worker outlives it.
    """
    config.validate()
    events: List[dict] = []

    def emit(ev: dict) -> None:
        events.append(ev)
        if on_event is not None:
            on_event(ev)

    stop = mp.RawValue("b", 0)  # lock-free: a handler may run inside any call

    def on_sigint(signum, frame):
        stop.value = 1

    # where a SIGINT would raise KeyboardInterrupt here, it sets the stop instead
    hook = (threading.current_thread() is threading.main_thread()
            and signal.getsignal(signal.SIGINT) is signal.default_int_handler)
    if hook:
        signal.signal(signal.SIGINT, on_sigint)
    try:
        results = ([_consume(config, 0, emit, stop)] if config.workers == 1
                   else _run_workers(config, emit, stop))
    finally:
        if hook:
            signal.signal(signal.SIGINT, signal.default_int_handler)
    return _merge(config, events, results, bool(stop.value))
