"""Restart local search over partition-restricted skew-symmetric classes.

One run searches the class fixed by a partition projection: the first
k and last k elements stay pinned, and moves flip one free half
position q in [k, l] (pairing with n-1-q to preserve skew-symmetry).
Per restart the search keeps a visited hash set and walks to the best
unvisited neighbor (optionally only strictly improving ones) until the
neighborhood is exhausted or the inner move budget runs out.  A step
scores every position in O(n) (`SkewSearchState.flip_deltas`) and picks
by `argmin`, masking visited entries (`pick_better_neighbor`).  Once a
state clears the activation threshold, its four adjacent pseudo-skew
candidates of lengths n-1 and n+1 (`pseudo.PROBE_EDITS`) are probed
through closed-form deltas, so one run keeps best candidates at three
lengths.  At a fixed length a higher merit factor is a lower energy, so
the walk compares integer energies against a bound computed once per
run (`activation_energy_bound`) and builds a `Fraction` only for an
improvement it reports.

`walk` yields the improvements and one consumer turns them into best
records and events, inline for one worker and in each process for
more.  Workers are share-nothing processes with RNG streams derived
from (seed, worker id); their events stream live, and the merged
result takes the per-target maximum.  A Ctrl-C sets a shared stop, so
every worker reports its best so far.  Single-worker runs are fully
deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import signal
import threading
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from multiprocessing.connection import wait
from typing import Callable, List, Optional, Tuple

import numpy as np

from .core import BinarySequence, _check_length
from .errors import DomainError
from .partitions import project_partition, sample_member
# The walk takes all four probe energies from one probe_energies call.
# append_delta_arrays and truncate_delta_arrays stay bound here because
# perfbench/tracer.py looks them up in this module's namespace.
from .pseudo import (PROBE_EDITS, append_delta_arrays, probe_energies,  # noqa: F401
                     truncate_delta_arrays)
from .records import encode_hex, mf_fields
from .skew import SkewSearchState
from .symmetry import apply_eta

POLICY_SELF_AVOIDING = "self-avoiding-best"
POLICY_STRICT_DESCENT = "strict-descent"
POLICIES = (POLICY_SELF_AVOIDING, POLICY_STRICT_DESCENT)

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
        if self.policy not in POLICIES:
            raise DomainError(f"policy must be one of {POLICIES}, got {self.policy!r}")

    @property
    def order(self) -> int:
        return sum(self.partition)


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
    metadata: dict = field(default_factory=dict)


#: the value a tried delta is masked with; every real delta is below it
_MASKED = np.iinfo(np.int64).max


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
    if not 0 <= first <= state.l + 1:
        raise DomainError(f"first flip index {first} out of range [0, {state.l + 1}]")
    deltas = state.flip_deltas()[first:]  # a fresh array, so the masking is private
    for _ in range(deltas.shape[0]):
        i = int(deltas.argmin())
        q = first + i
        if hash_half_bits(state.half_bits ^ (1 << q), state.l + 1) not in visited:
            return None if policy == POLICY_STRICT_DESCENT and deltas[i] >= 0 else q
        deltas[i] = _MASKED
    return None


def activation_energy_bound(n: int, t_activate: float) -> int:
    """Largest energy E >= 0 at length n with float(n^2 / (2E)) >= t_activate.

    The float of n^2/(2E) never rises as E grows, so an energy passes the
    activation test exactly when it is at most this bound (0: none does).
    The exact start is the midpoint between t_activate and the float
    below it, where rounding to nearest switches; the two loops settle
    its tie and move at most one step.
    """
    if t_activate <= 0:
        return n ** 3  # above every energy at length n
    if not math.isfinite(t_activate):
        return 0

    def passes(energy: int) -> bool:
        return float(Fraction(n * n, 2 * energy)) >= t_activate

    midpoint = (Fraction(math.nextafter(t_activate, 0.0)) + Fraction(t_activate)) / 2
    bound = math.floor(Fraction(n * n, 2) / midpoint)
    while bound >= 1 and not passes(bound):
        bound -= 1
    while passes(bound + 1):
        bound += 1
    return bound


def _event(kind: str, target_n: int, mf: Fraction, seq: BinarySequence,
           flips: int, restarts: int, worker: int) -> dict:
    return {
        "kind": kind,
        "target": target_n,
        **mf_fields(mf),
        "hex": encode_hex(seq),
        "n": seq.n,
        "flips": flips,
        "restarts": restarts,
        "worker": worker,
    }


def walk(config: SolverConfig, worker_id: int, stats: RunStats, stop=None):
    """Yield `(length, energy, sequence)` for each improvement of worker
    `worker_id`'s restart walk, counting in `stats`.  Each pass of the
    loop takes one state, a restart's or a flip's.  The deadline and
    `stop` (a shared flag, set once its `value` is true) are checked once
    per pass, before the pick, whose first call on a restart builds the
    scan's rows in O(n^2)."""
    n = config.n
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=(config.seed & _M64, worker_id)))
    first = config.order  # the walk flips positions first..l
    activate_energy = activation_energy_bound(n, config.t_activate)
    # (length, edit) of what a state scores: itself, then its four probes
    candidates = [(n, None)] + [(n + op.length_change, op) for op in PROBE_EDITS]
    # best energy so far per length; at one length, lower energy = higher MF
    best_energy = {length: math.inf for length, _ in candidates}
    deadline = math.inf if config.time_limit is None else time.monotonic() + config.time_limit
    restart = True
    while time.monotonic() < deadline and not (stop is not None and stop.value):
        if restart:
            # every restart counts toward the outer budget
            if stats.restarts > config.t_outer:
                return
            stats.restarts += 1
            state = SkewSearchState(sample_member(config.partition, n, rng))
            visited = {hash_state(state)}
            w_i = 0
        else:
            q = pick_better_neighbor(state, visited, config.policy, first)
            if q is None:
                restart = True
                continue
            state.apply_flip(q)
            stats.flips += 1
            w_i += 1
            visited.add(hash_state(state))
        # the state itself and, once it has moved and while it clears the
        # activation bound, its four adjacent-length probes
        probing = w_i and state.energy <= activate_energy
        if probing:
            stats.probes += len(PROBE_EDITS)
            energies = probe_energies(state.c, state.e, state.energy)[1]
        base = None
        for length, op in candidates if probing else candidates[:1]:
            energy = state.energy if op is None else energies[op.index]
            if energy < best_energy[length]:
                best_energy[length] = energy
                if base is None:
                    base = state.sequence()
                yield length, energy, base if op is None else apply_eta(op, base)
        restart = w_i > config.t_inner


def _consume(config: SolverConfig, worker_id: int, emit: Callable[[dict], None],
             stop=None) -> SolverResult:
    """Keep the best record per length of worker `worker_id`'s walk and
    pass each improvement's event to `emit`.  A KeyboardInterrupt, in
    `emit` too, ends the walk as an interrupted result."""
    best = BestTriple()
    slots = {config.n - 1: "shorter", config.n: "target", config.n + 1: "longer"}
    stats = RunStats()
    start = time.monotonic()
    try:
        for length, energy, seq in walk(config, worker_id, stats, stop):
            mf = Fraction(length * length, 2 * energy)
            setattr(best, slots[length], BestRecord(mf, seq, time.monotonic() - start))
            emit(_event("improvement", length, mf, seq, stats.flips, stats.restarts,
                        worker_id))
    except KeyboardInterrupt:
        stats.interrupted = True
    stats.elapsed = time.monotonic() - start
    return SolverResult(config=config, best=best, stats=stats)


def _metadata(config: SolverConfig) -> dict:
    return {**asdict(config), "partition": list(config.partition),
            "rng": "numpy PCG64, SeedSequence(entropy=(seed, worker_id))"}


def _walk_process(config: SolverConfig, worker_id: int, conn, stop) -> None:
    """Worker process: send each event, then the result or the exception
    the walk raised.  Ctrl-C is the parent's to handle."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        conn.send(_consume(config, worker_id, conn.send, stop))
    except Exception as exc:
        conn.send(exc)


def _run_workers(config: SolverConfig,
                 emit: Callable[[dict], None]) -> Tuple[List[SolverResult], bool]:
    """One walk per process, each event passed to `emit` as it arrives.
    A SIGINT sets the shared stop; the workers then report as usual.
    Returns the results in worker order and whether a SIGINT came.  A
    worker's exception is raised here, and its exit without a report as
    ChildProcessError; no worker outlives the call."""
    stop = mp.RawValue("b", 0)  # lock-free: a handler may run inside any call
    conns, procs, results = {}, [], {}  # conns: reader -> worker id

    def on_sigint(signum, frame):
        stop.value = 1

    # where a SIGINT would raise KeyboardInterrupt here, it sets the stop instead
    hook = (threading.current_thread() is threading.main_thread()
            and signal.getsignal(signal.SIGINT) is signal.default_int_handler)
    if hook:
        signal.signal(signal.SIGINT, on_sigint)
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
        return [results[w] for w in range(config.workers)], bool(stop.value)
    finally:
        if hook:
            signal.signal(signal.SIGINT, signal.default_int_handler)
        for proc in procs:
            proc.terminate()  # it has reported already, or must not outlive the run
            proc.join()
        for conn in conns:
            conn.close()


def _merge(config: SolverConfig, events: List[dict], results: List[SolverResult],
           interrupted: bool = False) -> SolverResult:
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
        stats.interrupted = stats.interrupted or r.stats.interrupted
        stats.per_worker.append({
            "restarts": r.stats.restarts,
            "flips": r.stats.flips,
            "probes": r.stats.probes,
            "elapsed": r.stats.elapsed,
        })
    return SolverResult(config=config, best=best, stats=stats, events=events,
                        metadata=_metadata(config))


def run(config: SolverConfig,
        on_event: Optional[Callable[[dict], None]] = None) -> SolverResult:
    """Execute the restart search described by `config`.

    `on_event` fires on each improvement as it is found, and the result
    lists the events in that order: fixed by the seed for one worker,
    which runs inline; interleaved across workers, in walk order within
    each, for more.  A Ctrl-C (SIGINT) ends the search with its best so
    far and `stats.interrupted` set, with any number of workers.
    """
    config.validate()
    events: List[dict] = []

    def emit(ev: dict) -> None:
        events.append(ev)
        if on_event is not None:
            on_event(ev)

    if config.workers == 1:
        return _merge(config, events, [_consume(config, 0, emit)])
    return _merge(config, events, *_run_workers(config, emit))
