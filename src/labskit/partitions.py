"""Integer-partition sieving: restriction classes, projections onto
skew-symmetric prefixes, ternary potential sequences and optimal-
partition scans.

A partition (t_0, .., t_g) of k projects onto a skew-symmetric sequence
of odd length n >= 2k+1 as sign-alternating runs: t_0 copies of the
leading sign a, then t_1 copies of -a, and so on.  The skew rule forces
the last k elements from the first k (b_{n-1-j} = (-1)^{l-j} b_j for
n = 2l+1), leaving n-2k free positions in the middle.

The *potential* of a partition is the energy of its potential sequence,
the skew expansion (`labskit.skew.expand_rows`) of (prefix, 0, .., 0),
at the canonical length n* = smallest odd n >= 3k+2.  At that point the
nonzero sidelobes have separated into a head (first 2k reversed-index
entries, prefix-suffix products) and a tail (last k entries, prefix and
suffix self-correlations, always even); growing n only widens the zero
body, so potentials are length-invariant from n* on.  The normalized
potential halves the tail entries before squaring, weighting the
immutable head more heavily.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .core import TernarySequence, energy, sidelobes
from .errors import DomainError
from .skew import SkewHalf, expand_rows

#: p(0)..p(30), OEIS A000041; reference values for enumeration tests.
PARTITION_COUNTS = (
    1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297,
    385, 490, 627, 792, 1002, 1255, 1575, 1958, 2436, 3010, 3718, 4565, 5604,
)


def _check_partition(partition: Sequence[int]) -> Tuple[int, ...]:
    parts = tuple(int(t) for t in partition)
    if not parts:
        raise DomainError("partition needs at least one part")
    if any(t < 1 for t in parts):
        raise DomainError(f"partition parts must be >= 1, got {parts}")
    return parts


def enumerate_partitions(k: int, parts: Optional[int] = None,
                         non_increasing: bool = True) -> Iterator[Tuple[int, ...]]:
    """All ways of writing k as a sum of positive integers.

    With non_increasing=True these are classic partitions (t_i >= t_{i+1});
    otherwise ordered compositions, matching the projection semantics
    where (3,1,2) and (3,2,1) are distinct prefixes.  `parts` fixes the
    number of summands.
    """
    if k < 1:
        raise DomainError(f"partition target must be >= 1, got {k}")
    if parts is not None and not 1 <= parts <= k:
        raise DomainError(f"cannot split {k} into {parts} positive parts")

    def rec(remaining: int, cap: int, acc: list):
        if remaining == 0:
            if parts is None or len(acc) == parts:
                yield tuple(acc)
            return
        # stop once all parts are used or too little is left to give
        # each open part at least 1
        if parts is not None and (len(acc) >= parts or remaining < parts - len(acc)):
            return
        for t in range(min(cap, remaining), 0, -1):
            acc.append(t)
            yield from rec(remaining - t, t if non_increasing else k, acc)
            acc.pop()

    yield from rec(k, k, [])


def symmetry_class_count(k: int) -> int:
    """Number of length-k symmetry classes under the order-8 group:
    2^{k-3} + 2^{floor(k/2) - 2 + (k mod 2)}."""
    if k < 3:
        raise DomainError(f"symmetry class count needs k >= 3, got {k}")
    return 2 ** (k - 3) + 2 ** (k // 2 - 2 + (k % 2))


def restriction_class_size(n: int, k: int, skew: bool = False) -> int:
    """|R_n^k| = 2^{n-k}; skew variant 2^{l-k+1} with n = 2l+1."""
    if k < 0 or k > n:
        raise DomainError(f"restriction order {k} out of range for n={n}")
    if not skew:
        return 2 ** (n - k)
    if n % 2 == 0:
        raise DomainError("skew restriction classes need odd n")
    l = n // 2
    if k > l + 1:
        raise DomainError(f"restriction order {k} exceeds half length {l + 1}")
    return 2 ** (l - k + 1)


def _projection(parts: Tuple[int, ...], n: int, leading: int) -> np.ndarray:
    """Length-n ternary projection of checked `parts`: runs, zeros, forced suffix."""
    if leading not in (-1, 1):
        raise DomainError(f"leading sign must be -1 or +1, got {leading!r}")
    k = sum(parts)
    if n % 2 == 0:
        raise DomainError(f"projection length must be odd, got {n}")
    if n < 2 * k + 1:
        raise DomainError(f"length {n} too short for partition of {k} (need >= {2 * k + 1})")
    half = np.zeros(n // 2 + 1, dtype=np.int64)
    start, sign = 0, leading
    for t in parts:
        half[start : start + t] = sign
        start, sign = start + t, -sign
    return expand_rows(half)


def project_partition(partition: Sequence[int], n: int,
                      leading: int = 1) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
    """(fixed prefix, forced suffix, free position count) at length n.

    The prefix is the sign-alternating run projection starting at
    `leading`; the suffix is what the skew rule forces from it.
    """
    parts = _check_partition(partition)
    k = sum(parts)
    a = _projection(parts, n, leading)
    return tuple(a[:k].tolist()), tuple(a[n - k :].tolist()), n - 2 * k


def n_star(k: int) -> int:
    """Canonical potential-evaluation length: smallest odd n >= 3k+2."""
    n = 3 * k + 2
    return n if n % 2 == 1 else n + 1


def potential_sequence(partition: Sequence[int], n: Optional[int] = None,
                       leading: int = 1) -> TernarySequence:
    """The ternary projection with the free middle zeroed."""
    parts = _check_partition(partition)
    k = sum(parts)
    if n is None:
        n = n_star(k)
    return TernarySequence(_projection(parts, n, leading).tolist())


@dataclass(frozen=True)
class PotentialReport:
    partition: tuple
    potential: int
    normalized: int
    eval_length: int


def potential(partition: Sequence[int], n: Optional[int] = None) -> PotentialReport:
    """Potential and normalized potential of a partition.

    The normalized variant halves the tail (last k reversed-index
    sidelobes, all even) before squaring; head and body enter as-is.
    """
    parts = _check_partition(partition)
    k = sum(parts)
    if n is None:
        n = n_star(k)
    a = _projection(parts, n, 1)
    cs = np.correlate(a, a, mode="full")[n:]  # C_1 .. C_{n-1}
    total = int(cs @ cs)
    tail = cs[:k]  # C_1 .. C_k = last k reversed-index entries
    if np.any(tail & 1):
        raise DomainError(
            f"odd tail sidelobe for partition {parts}: length {n} is too short "
            f"for separated head/body/tail sections (need n >= {n_star(k)})"
        )
    half_tail = tail >> 1
    norm = total - int(tail @ tail) + int(half_tail @ half_tail)
    return PotentialReport(partition=parts, potential=total, normalized=norm,
                           eval_length=n)


def scan_potentials(k: int, parts: int) -> list:
    """Potential reports for every non-increasing partition of k into
    exactly `parts` parts."""
    return [potential(p) for p in enumerate_partitions(k, parts=parts)]


def best_partition(k: int, parts: int, objective: str = "U") -> PotentialReport:
    """Argmin of the potential (objective 'U') or normalized potential
    ('Ustar') over non-increasing partitions of k into exactly `parts`
    parts.  Ties resolve to the lexicographically largest partition.
    """
    if objective not in ("U", "Ustar"):
        raise DomainError(f"objective must be 'U' or 'Ustar', got {objective!r}")
    # partitions come in descending lexicographic order and min keeps the
    # first of equal keys
    key = attrgetter("potential" if objective == "U" else "normalized")
    return min((potential(p) for p in enumerate_partitions(k, parts=parts)), key=key)


def format_potential_table(reports: Sequence[PotentialReport]) -> str:
    """Pipe-separated table: partition | potential | normalized."""
    lines = ["partition|U|Ustar"]
    for r in reports:
        lines.append(f"{','.join(map(str, r.partition))}|{r.potential}|{r.normalized}")
    return "\n".join(lines)


def sample_member(partition: Sequence[int], n: int, rng: np.random.Generator,
                  leading: int = 1) -> SkewHalf:
    """Uniform random member of the partition class at length n.

    Prefix and suffix come from the projection; the free half positions
    k..l are filled from `rng`.  Deterministic for a fixed generator
    state.
    """
    parts = _check_partition(partition)
    k = sum(parts)
    half = _projection(parts, n, leading)[: n // 2 + 1]
    half[k:] = 2 * rng.integers(0, 2, size=n // 2 + 1 - k) - 1
    return SkewHalf(tuple(half.tolist()))
