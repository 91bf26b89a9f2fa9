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

Potentials are scored in exact integer blocks (`_block_potentials`),
one position-major column per partition.  Every entry between the
first k and the last k is zero, so only two groups of lags can be
nonzero, each one `core.lag_products` call: lags u < k, where the
prefix meets itself and the suffix meets itself, and lags n-k+m with
|m| < k, where the prefix meets the suffix.  By the skew rule the
suffix's self-correlation at lag u is (-1)^u times the prefix's, so
the tail at lag u is twice the prefix's for even u and 0 for odd u; as
in any skew-symmetric sequence every odd lag vanishes, so the prefix-
suffix terms are needed only where n-k+m is even.  Each of those sums
k-|m| products with k-|m| odd, so it is odd: below n = 3k, where the
two groups overlap, some tail entry is odd and the length is refused.
The groups are added (+=) into one array of the even lags all the
same, so the kernel is exact at every odd n >= 2k+1.  `potential`
scores a block of one; `scan_potentials` and `best_partition` stream
`POTENTIAL_BLOCK` partitions at a time from `enumerate_partitions`, so
memory stays bounded by one block however many partitions a scan has.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .core import TernarySequence, lag_products
from .errors import DomainError
from .skew import SkewHalf, expand_rows

#: p(0)..p(30), OEIS A000041; reference values for enumeration tests.
PARTITION_COUNTS = (
    1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297,
    385, 490, 627, 792, 1002, 1255, 1575, 1958, 2436, 3010, 3718, 4565, 5604,
)

#: Partitions scored per `_block_potentials` call in a scan.  Sized so
#: that at k = 68 every buffer of a block stays under glibc malloc's
#: initial 128 KiB mmap threshold: freeing a larger mmap-ed buffer raises
#: the threshold for the rest of the process, which moves later large
#: arrays onto the heap and so changes the peak memory of whatever runs
#: after a scan (an `exhaustive_best` call, say).
POTENTIAL_BLOCK = 256


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
        hi, lo = min(cap, remaining), 1
        if parts is not None:
            left = parts - len(acc)
            if left == 0:
                return
            # leave at least 1 for each other open part; a non-increasing
            # tail cannot fit below t once t < remaining / left
            hi = min(hi, remaining - (left - 1))
            if non_increasing:
                lo = -(-remaining // left)
        for t in range(hi, lo - 1, -1):
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


def _projection(rows: np.ndarray, k: int, n: int, leading: int) -> np.ndarray:
    """(B, n) int8 ternary projections of a (B, g) block of checked
    partitions of k: runs, zeros, forced suffix."""
    if leading not in (-1, 1):
        raise DomainError(f"leading sign must be -1 or +1, got {leading!r}")
    if n % 2 == 0:
        raise DomainError(f"projection length must be odd, got {n}")
    if n < 2 * k + 1:
        raise DomainError(f"length {n} too short for partition of {k} (need >= {2 * k + 1})")
    b, g = rows.shape
    signs = np.resize(np.array([leading, -leading], dtype=np.int8), g)
    half = np.zeros((b, n // 2 + 1), dtype=np.int8)
    half[:, :k] = np.repeat(np.tile(signs, b), rows.ravel()).reshape(b, k)
    return expand_rows(half)


def project_partition(partition: Sequence[int], n: int,
                      leading: int = 1) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
    """(fixed prefix, forced suffix, free position count) at length n.

    The prefix is the sign-alternating run projection starting at
    `leading`; the suffix is what the skew rule forces from it.
    """
    parts = _check_partition(partition)
    k = sum(parts)
    a = _projection(np.array([parts]), k, n, leading)[0]
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
    return TernarySequence(_projection(np.array([parts]), k, n, leading)[0].tolist())


@dataclass(frozen=True)
class PotentialReport:
    partition: tuple
    potential: int
    normalized: int
    eval_length: int


def _block_potentials(rows: np.ndarray, k: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Exact int64 (U, U*) arrays for a (B, g) block of checked
    partitions of k, evaluated at odd length n >= 2k+1."""
    a = _projection(rows, k, n, 1)
    # position-major columns, one per partition; a lag sums at most k
    # products of +-1, so int32 holds every entry exactly
    p = np.ascontiguousarray(a[:, :k].T, dtype=np.int32)
    s = np.ascontiguousarray(a[:, n - k :].T, dtype=np.int32)
    c = np.zeros((n // 2 + 1, len(a)), dtype=np.int32)  # c[i] = C_{2i}; odd lags are 0
    head = c[1 : (k + 1) // 2]  # prefix and suffix self-correlations, lags 2 .. k-1
    lag_products(p, p, range(2, k, 2), head)
    head *= 2
    cross = np.empty((k, len(a)), dtype=np.int32)  # prefix-suffix terms, even lags n-k+m
    c[(n - 2 * k + 1) // 2 :] += lag_products(p, s, range(1 - k, k, 2), cross)
    total = np.einsum("ij,ij->j", c, c, dtype=np.int64)
    tail = c[1 : k // 2 + 1]  # C_2, C_4 .. of C_1 .. C_k, the last k reversed-index entries
    odd = np.flatnonzero(np.bitwise_or.reduce(tail, axis=0) & 1)
    if odd.size:
        raise DomainError(
            f"odd tail sidelobe for partition {tuple(rows[odd[0]].tolist())}: length {n} "
            f"is too short for separated head/body/tail sections (need n >= {n_star(k)})"
        )
    # every tail entry t is even, so (t/2)^2 = t^2/4 sums exactly
    return total, total - 3 * (np.einsum("ij,ij->j", tail, tail, dtype=np.int64) >> 2)


def potential(partition: Sequence[int], n: Optional[int] = None) -> PotentialReport:
    """Potential and normalized potential of a partition.

    The normalized variant halves the tail (last k reversed-index
    sidelobes, all even) before squaring; head and body enter as-is.
    """
    parts = _check_partition(partition)
    k = sum(parts)
    if n is None:
        n = n_star(k)
    total, norm = _block_potentials(np.array([parts]), k, n)
    return PotentialReport(partition=parts, potential=int(total[0]),
                           normalized=int(norm[0]), eval_length=n)


def _scan_blocks(k: int, parts: int) -> Iterator[Tuple[list, np.ndarray, np.ndarray]]:
    """(partitions, U, U*) for consecutive blocks of at most
    POTENTIAL_BLOCK non-increasing partitions of k into `parts` parts."""
    found = enumerate_partitions(k, parts=parts)
    while True:
        block = list(islice(found, POTENTIAL_BLOCK))
        if not block:
            return
        yield (block, *_block_potentials(np.array(block), k, n_star(k)))


def scan_potentials(k: int, parts: int) -> list:
    """Potential reports for every non-increasing partition of k into
    exactly `parts` parts."""
    n = n_star(k)
    return [PotentialReport(partition=p, potential=u, normalized=v, eval_length=n)
            for block, total, norm in _scan_blocks(k, parts)
            for p, u, v in zip(block, total.tolist(), norm.tolist())]


def best_partition(k: int, parts: int, objective: str = "U") -> PotentialReport:
    """Argmin of the potential (objective 'U') or normalized potential
    ('Ustar') over non-increasing partitions of k into exactly `parts`
    parts.  Ties resolve to the lexicographically largest partition.
    """
    if objective not in ("U", "Ustar"):
        raise DomainError(f"objective must be 'U' or 'Ustar', got {objective!r}")
    # partitions come in descending lexicographic order; argmin keeps the
    # first minimum of a block and the strict < the first block's
    best = None
    for block, total, norm in _scan_blocks(k, parts):
        values = total if objective == "U" else norm
        i = int(np.argmin(values))
        if best is None or values[i] < best[0]:
            best = (values[i], PotentialReport(partition=block[i], potential=int(total[i]),
                                               normalized=int(norm[i]), eval_length=n_star(k)))
    return best[1]


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
    half = _projection(np.array([parts]), k, n, leading)[0, : n // 2 + 1]
    half[k:] = 2 * rng.integers(0, 2, size=n // 2 + 1 - k) - 1
    return SkewHalf(tuple(half.tolist()))
