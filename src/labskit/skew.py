"""Skew-symmetric sequences: compact halves, incremental search state,
and exhaustive small-length optimization.

A skew-symmetric sequence of odd length n = 2l+1 satisfies

    b_{l+i} = (-1)^i * b_{l-i},   i = 1..l,

so it is determined by its first l+1 elements, and every odd-shift
autocorrelation vanishes.  Energy reduces to the even shifts.
`expand_rows` is the one implementation of that rule; everything that
expands a half or tests the rule, partition projections too, calls it.

`SkewSearchState` maintains a sequence, its full correlation array and
its energy under paired flips.  Flipping position q < l must also flip
position p = n-1-q to stay skew-symmetric; the energy delta is computed
in O(n): each even shift u changes only through the at most four
products that involve a flipped endpoint exactly once,

    C_u' = C_u - 2*T_u,
    T_u  = sum of old products b_j*b_{j+u} with exactly one of
           j, j+u in {q, p},
    E'   = E + 4 * sum_u T_u*(T_u - C_u).

For even u the skew rule gives b_{p-u}*b_p = b_q*b_{q+u} and
b_p*b_{p+u} = b_{q-u}*b_q, so the four products fold into

    T_u = 2 * b_q * (b_{q+u} + b_{q-u})

on a zero-padded sequence, minus the term pairing q with p itself
(u = n-1-2q, both endpoints flipped, hence unchanged).  The center q = l
flips a single bit and takes the factor 1 instead of 2.  One gather over
a block of candidate rows scores every neighbour of a walk step at once
(`flip_deltas`).  Exactness is enforced against full recomputation in
the test suite, and optionally at runtime via LABSKIT_DEBUG_VERIFY=1.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .core import BinarySequence, SidelobeArray
from .errors import DomainError

#: When set (env LABSKIT_DEBUG_VERIFY=1), every apply_flip re-derives the
#: correlation array from scratch and asserts agreement.
DEBUG_VERIFY = os.environ.get("LABSKIT_DEBUG_VERIFY", "") not in ("", "0")

#: Entries per block of the neighbour-scan gather in `flip_deltas`.
GATHER_ELEMENTS = 8192

#: Packed values per block of exhaustive_best.
EXHAUSTIVE_BLOCK = 1 << 16

#: Caps for exhaustive_best.
MAX_EXHAUSTIVE_SKEW = 31
MAX_EXHAUSTIVE_FULL = 24


@dataclass(frozen=True)
class SkewHalf:
    """First l+1 elements of a skew-symmetric sequence of length 2l+1."""

    elements: tuple

    def __post_init__(self):
        if len(self.elements) < 1:
            raise DomainError("skew half needs at least one element")
        for e in self.elements:
            if e not in (-1, 1):
                raise DomainError(f"binary element must be -1 or +1, got {e!r}")

    @property
    def l(self) -> int:
        return len(self.elements) - 1

    @property
    def full_length(self) -> int:
        return 2 * self.l + 1


def expand_rows(halves: np.ndarray) -> np.ndarray:
    """Skew-expand each row (last axis) of l+1 leading entries to 2l+1 by
    b_{l+i} = (-1)^i * b_{l-i}.  Zeros stay zeros, so ternary rows work too."""
    l = halves.shape[-1] - 1
    out = np.empty(halves.shape[:-1] + (2 * l + 1,), dtype=halves.dtype)
    out[..., : l + 1] = halves
    out[..., l + 1 :] = halves[..., :l][..., ::-1]
    out[..., l + 1 :: 2] *= -1
    return out


def expand(half: SkewHalf) -> BinarySequence:
    """The full length-(2l+1) sequence determined by the half."""
    return BinarySequence.from_elements(expand_rows(np.array(half.elements)).tolist())


def is_skew_symmetric(seq: BinarySequence) -> bool:
    if seq.n % 2 == 0:
        return False
    e = seq.as_array()
    return bool(np.array_equal(expand_rows(e[: seq.n // 2 + 1]), e))


def _pack_half(elements) -> int:
    """Half packed little-endian: bit q set iff element q is +1."""
    bits = 0
    for q, e in enumerate(elements):
        if e == 1:
            bits |= 1 << q
    return bits


class SkewSearchState:
    """Mutable, single-owner state for local search over skew halves.

    Keeps the expanded elements `e`, the correlation array `c`
    (c[u] = C_u, c[0] = n; odd entries identically zero) and the exact
    energy, all updated in O(n) per flip.  `e` is a view into a copy of
    the sequence zero-padded by n-1 on both sides, so that b_{q+u} and
    b_{q-u} can be gathered for every shift without bounds masks.
    """

    __slots__ = ("n", "l", "e", "c", "energy", "half_bits", "_padded", "_even_shifts")

    def __init__(self, half: SkewHalf):
        self.l = half.l
        self.n = 2 * self.l + 1
        self._padded = np.zeros(3 * self.n - 2, dtype=np.int64)
        self.e = self._padded[self.n - 1 : 2 * self.n - 1]
        self.e[:] = expand_rows(np.array(half.elements))
        corr = np.correlate(self.e, self.e, mode="full")
        self.c = corr[self.n - 1 :].astype(np.int64)
        self.energy = int(np.sum(self.c[1:] ** 2))
        self.half_bits = _pack_half(half.elements)
        self._even_shifts = np.arange(2, self.n, 2)

    @classmethod
    def from_sequence(cls, seq: BinarySequence) -> "SkewSearchState":
        if not is_skew_symmetric(seq):
            raise DomainError("sequence is not skew-symmetric")
        return cls(SkewHalf(seq.elements[: seq.n // 2 + 1]))

    def half(self) -> SkewHalf:
        return SkewHalf(tuple(int(x) for x in self.e[: self.l + 1]))

    def sequence(self) -> BinarySequence:
        return BinarySequence.from_elements(self.e.tolist())

    def sidelobes(self) -> SidelobeArray:
        return SidelobeArray(values=tuple(int(x) for x in self.c[:0:-1]), n=self.n)

    def merit_factor(self) -> Fraction:
        return Fraction(self.n * self.n, 2 * self.energy)

    def _terms(self, qs: np.ndarray) -> np.ndarray:
        """T_u for flipping each q in `qs` (one row per q, columns u = 2, 4, .., n-1)."""
        l = self.l
        base = (self.n - 1 + qs)[:, None]
        t = self._padded[base + self._even_shifts] + self._padded[base - self._even_shifts]
        # at u = n-1-2q the product b_q*b_p has both ends flipped: unchanged
        rows = np.flatnonzero(qs < l)
        paired = qs[rows]
        t[rows, l - 1 - paired] -= self.e[self.n - 1 - paired]
        t *= ((2 - (qs == l)) * self.e[qs])[:, None]
        return t

    def flip_deltas(self, qs) -> np.ndarray:
        """E(after flip at q) - E(now) for every q in `qs`, exact, without mutating.

        Rows are gathered in blocks of about `GATHER_ELEMENTS` entries, so
        a scan over all l+1 positions never allocates O(n^2).
        """
        qs = np.asarray(qs, dtype=np.int64)
        out = np.empty(qs.shape[0], dtype=np.int64)
        if not qs.shape[0]:
            return out
        lo, hi = int(qs.min()), int(qs.max())
        if lo < 0 or hi > self.l:
            bad = lo if lo < 0 else hi
            raise DomainError(f"flip index {bad} out of range [0, {self.l}]")
        c_even = self.c[2::2]
        rows = max(1, GATHER_ELEMENTS // max(self.l, 1))
        for i in range(0, qs.shape[0], rows):
            t = self._terms(qs[i : i + rows])
            out[i : i + rows] = 4 * np.einsum("ij,ij->i", t, t - c_even)
        return out

    def flip_delta(self, q: int) -> int:
        """E(after flip at q) - E(now), exact, without mutating."""
        return int(self.flip_deltas([q])[0])

    def apply_flip(self, q: int) -> None:
        """Flip position q (pairing with n-1-q for q < l), in place."""
        if not 0 <= q <= self.l:
            raise DomainError(f"flip index {q} out of range [0, {self.l}]")
        t = self._terms(np.array([q]))[0]
        c_even = self.c[2::2]
        self.energy += int(4 * np.dot(t, t - c_even))
        c_even -= 2 * t
        self.e[q] = -self.e[q]
        if q != self.l:
            self.e[self.n - 1 - q] = -self.e[self.n - 1 - q]
        self.half_bits ^= 1 << q
        if DEBUG_VERIFY:
            self._verify()

    def _verify(self) -> None:
        corr = np.correlate(self.e, self.e, mode="full")[self.n - 1 :]
        if not np.array_equal(corr, self.c):
            raise AssertionError("incremental correlations diverged from recompute")
        if self.energy != int(np.sum(corr[1:] ** 2)):
            raise AssertionError("incremental energy diverged from recompute")


# --- exhaustive search -----------------------------------------------------


def _bits_to_pm1(values: np.ndarray, width: int) -> np.ndarray:
    """(B,) uint -> (B, width) +-1 int8, bit width-1 first (MSB = element 0)."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = (values[:, None] >> shifts[None, :]) & 1
    return (2 * bits - 1).astype(np.int8)


def _block_energies(e: np.ndarray) -> np.ndarray:
    """Exact energies for a (B, n) +-1 block."""
    b, n = e.shape
    work = e.astype(np.int64)
    out = np.zeros(b, dtype=np.int64)
    for u in range(1, n):
        c = np.einsum("ij,ij->i", work[:, : n - u], work[:, u:])
        out += c * c
    return out


def exhaustive_best(n: int, skew_only: bool = False) -> Tuple[Fraction, BinarySequence]:
    """Global optimum merit factor over a full or skew-restricted length.

    Full search fixes b_0 = +1 (complementing preserves energy, so one
    representative per complement pair suffices) and scans 2^{n-1}
    sequences; the skew search scans all 2^{l+1} halves.  Deterministic:
    ties resolve to the smallest packed representative.
    """
    if skew_only:
        if n % 2 == 0:
            raise DomainError("skew-symmetric sequences have odd length")
        if not 3 <= n <= MAX_EXHAUSTIVE_SKEW:
            raise DomainError(
                f"skew exhaustive search supports 3 <= n <= {MAX_EXHAUSTIVE_SKEW}, got {n}"
            )
        width, top = n // 2 + 1, 0
    else:
        if not 2 <= n <= MAX_EXHAUSTIVE_FULL:
            raise DomainError(
                f"full exhaustive search supports 2 <= n <= {MAX_EXHAUSTIVE_FULL}, got {n}"
            )
        width, top = n, 1 << (n - 1)  # values from top up have b_0 = +1
    best_e: Optional[int] = None
    best_seq: Optional[BinarySequence] = None
    end = 1 << width
    for start in range(top, end, EXHAUSTIVE_BLOCK):
        rows = _bits_to_pm1(np.arange(start, min(start + EXHAUSTIVE_BLOCK, end),
                                      dtype=np.uint64), width)
        if skew_only:
            rows = expand_rows(rows)
        energies = _block_energies(rows)
        idx = int(np.argmin(energies))
        if best_e is None or energies[idx] < best_e:
            best_e = int(energies[idx])
            best_seq = BinarySequence.from_elements(rows[idx].tolist())
    return Fraction(n * n, 2 * best_e), best_seq
