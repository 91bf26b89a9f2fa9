"""Restart local search over partition-restricted skew-symmetric classes.

One run searches the class fixed by a partition projection: the first
k and last k elements stay pinned, moves flip one free half position
q in [k, l] (pairing with n-1-q to preserve skew-symmetry), each with
an O(n) incremental energy delta.  Per restart the search keeps a
visited hash set and walks to the best unvisited neighbor (optionally
only strictly improving ones) until the neighborhood is exhausted or
the inner move budget runs out.  One step reads the energy change of
every free position from rows the state keeps in step with each flip
(`SkewSearchState.flip_deltas`; O(n) per step, the rows built once per
restart) and takes the first unvisited one in (energy change, index)
order: the `argmin` of the changes, retried a few times with each
visited entry masked, and a stable sort of the rest only after those
tries (`pick_better_neighbor`).  Whenever the current merit factor
clears the activation threshold, the four adjacent pseudo-skew
candidates of lengths n-1 and n+1 (the eta edits `pseudo.PROBE_EDITS`)
are probed through their closed-form deltas, so one run maintains best
candidates at three lengths at once.  At a fixed length a higher merit
factor is a lower energy, so the walk compares integer energies and
builds a `Fraction` only for an improvement it reports; the activation
threshold becomes an energy bound computed once per run
(`activation_energy_bound`).

Workers are share-nothing processes with RNG streams derived from
(seed, worker id); the merged result takes the per-target maximum.
Single-worker runs are fully deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import BinarySequence, _check_length
from .errors import DomainError
from .partitions import sample_member
# The walk takes all four probe energies from one probe_energies call.
# append_delta_arrays and truncate_delta_arrays stay bound here because
# perfbench/tracer.py looks them up in this module's namespace.
from .pseudo import (PROBE_EDITS, append_delta_arrays, probe_energies,  # noqa: F401
                     truncate_delta_arrays)
from .records import encode_hex
from .skew import SkewSearchState
from .symmetry import apply_eta

POLICY_SELF_AVOIDING = "self-avoiding-best"
POLICY_STRICT_DESCENT = "strict-descent"
POLICIES = (POLICY_SELF_AVOIDING, POLICY_STRICT_DESCENT)

_M64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a_words(words: Sequence[int]) -> int:
    """64-bit FNV-1a-style fold over 64-bit words."""
    h = _FNV_OFFSET
    for w in words:
        h ^= w & _M64
        h = (h * _FNV_PRIME) & _M64
    return h


def hash_half_bits(half_bits: int, half_len: int) -> int:
    """Stable digest of a packed half sequence, length-prefixed."""
    words = [half_len]
    v = half_bits
    while v:
        words.append(v & _M64)
        v >>= 64
    return fnv1a_words(words)


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
        parts = tuple(int(t) for t in self.partition)
        if not parts or any(t < 1 for t in parts):
            raise DomainError(f"partition parts must be >= 1, got {parts}")
        k = sum(parts)
        if self.n < 2 * k + 1:
            raise DomainError(
                f"length {self.n} too short for partition of {k} (need >= {2 * k + 1})"
            )
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
    found_flips: int
    found_restarts: int
    found_elapsed: float
    worker: int = 0


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


#: argmin tries of the pick before it falls back to a stable sort
_ARGMIN_TRIES = 3
#: the value a tried delta is masked with; every real delta is below it
_MASKED = np.iinfo(np.int64).max


def _stable_order(deltas: np.ndarray):
    """Indices of `deltas` in (delta, index) order.

    The first few come from `argmin`, which returns the first minimum;
    each is masked in place once its consumer resumes the generator, so
    the next `argmin` finds the entry after it.  The rest come from a
    stable sort of the masked array, which lists the tried indices again,
    last.
    """
    for _ in range(min(_ARGMIN_TRIES, deltas.shape[0])):
        i = int(deltas.argmin())
        yield i
        deltas[i] = _MASKED
    yield from np.argsort(deltas, kind="stable").tolist()


def pick_better_neighbor(state: SkewSearchState, visited: set, policy: str,
                         indices: Optional[Sequence[int]] = None) -> Optional[int]:
    """Index of the best unvisited single-flip neighbor, or None.

    Under strict-descent only neighbors with lower energy qualify; under
    self-avoiding-best the best unvisited neighbor wins regardless.
    Ties break to the smallest index (the first in `indices`).  The pick
    tests the `argmin` of the energy changes; while that neighbor is in
    `visited`, it masks the entry and takes the `argmin` again, up to
    `_ARGMIN_TRIES` times, and then walks a stable sort of the rest
    (`_stable_order`).  Either way it stops at the first neighbor not
    in `visited`.
    """
    qs = np.arange(state.l + 1) if indices is None else np.asarray(indices)
    deltas = state.flip_deltas(qs)  # a fresh array, so the masking is private
    for i in _stable_order(deltas):
        q = int(qs[i])
        if hash_half_bits(state.half_bits ^ (1 << q), state.l + 1) in visited:
            continue
        if policy == POLICY_STRICT_DESCENT and deltas[i] >= 0:
            return None
        return q
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
        "mf": float(mf),
        "mf_num": mf.numerator,
        "mf_den": mf.denominator,
        "hex": encode_hex(seq),
        "n": seq.n,
        "flips": flips,
        "restarts": restarts,
        "worker": worker,
    }


def _run_worker(config: SolverConfig, worker_id: int,
                on_event: Optional[Callable[[dict], None]] = None) -> SolverResult:
    n = config.n
    k = config.order
    l = n // 2
    free = np.arange(k, l + 1)
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=(config.seed & _M64, worker_id)))
    activate_energy = activation_energy_bound(n, config.t_activate)
    probe_edits = [(op, n + op.length_change) for op in PROBE_EDITS]

    best = BestTriple()
    slots = {n - 1: "shorter", n: "target", n + 1: "longer"}
    # best energy so far per length; at one length, lower energy = higher MF
    best_energy = dict.fromkeys(slots)
    stats = RunStats()
    events: List[dict] = []
    start = time.monotonic()
    deadline = None if config.time_limit is None else start + config.time_limit

    def improves(length: int, energy: int) -> bool:
        old = best_energy[length]
        return old is None or energy < old

    def record(length: int, energy: int, seq: BinarySequence) -> None:
        best_energy[length] = energy
        mf = Fraction(length * length, 2 * energy)
        setattr(best, slots[length], BestRecord(mf, seq, stats.flips, stats.restarts,
                                                time.monotonic() - start, worker_id))
        ev = _event("improvement", length, mf, seq, stats.flips, stats.restarts, worker_id)
        events.append(ev)
        if on_event is not None:
            on_event(ev)

    def consider_target(state: SkewSearchState) -> None:
        if improves(n, state.energy):
            record(n, state.energy, state.sequence())

    def probe_adjacent(state: SkewSearchState) -> None:
        stats.probes += 4
        base = None
        energies = probe_energies(state.c, state.e, state.energy)[1]
        for op, length in probe_edits:
            energy = energies[op.index]
            if improves(length, energy):
                if base is None:
                    base = state.sequence()
                record(length, energy, apply_eta(op, base))

    try:
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                break
            stats.restarts += 1
            half = sample_member(config.partition, n, rng)
            state = SkewSearchState(half)
            visited = {hash_state(state)}
            w_i = 0
            consider_target(state)
            # the first pick builds the scan's rows in O(n^2)
            if deadline is not None and time.monotonic() >= deadline:
                break
            while True:
                q = pick_better_neighbor(state, visited, config.policy, free)
                if q is None:
                    break
                state.apply_flip(q)
                stats.flips += 1
                w_i += 1
                visited.add(hash_state(state))
                consider_target(state)
                if state.energy <= activate_energy:
                    probe_adjacent(state)
                if w_i > config.t_inner:
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    break
            # every restart counts toward the outer budget; the visited
            # set and inner counter reset on the next pass
            if stats.restarts > config.t_outer:
                break
    except KeyboardInterrupt:
        stats.interrupted = True
    stats.elapsed = time.monotonic() - start
    return SolverResult(config=config, best=best, stats=stats, events=events,
                        metadata=_metadata(config))


def _metadata(config: SolverConfig) -> dict:
    return {
        "n": config.n,
        "partition": list(config.partition),
        "t_inner": config.t_inner,
        "t_outer": config.t_outer,
        "t_activate": config.t_activate,
        "workers": config.workers,
        "seed": config.seed,
        "time_limit": config.time_limit,
        "policy": config.policy,
        "rng": "numpy PCG64, SeedSequence(entropy=(seed, worker_id))",
    }


def _worker_entry(args) -> SolverResult:
    config, worker_id = args
    return _run_worker(config, worker_id, on_event=None)


def _merge(config: SolverConfig, results: List[SolverResult]) -> SolverResult:
    best = BestTriple()
    stats = RunStats()
    events: List[dict] = []
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
        events.extend(r.events)
    return SolverResult(config=config, best=best, stats=stats, events=events,
                        metadata=_metadata(config))


def run(config: SolverConfig,
        on_event: Optional[Callable[[dict], None]] = None) -> SolverResult:
    """Execute the restart search described by `config`.

    With one worker the search runs inline and `on_event` fires on every
    improvement, in a deterministic order for a fixed seed.  With more
    workers the search fans out to processes and events are delivered
    after the merge, grouped by worker.
    """
    config.validate()
    if config.workers == 1:
        return _merge(config, [_run_worker(config, 0, on_event)])
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        results = list(pool.map(_worker_entry,
                                [(config, w) for w in range(config.workers)]))
    merged = _merge(config, results)
    if on_event is not None:
        for ev in merged.events:
            on_event(ev)
    return merged
