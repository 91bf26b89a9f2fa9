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
flips a single bit and takes the factor f_q = 1 instead of 2.
`apply_flip` and `flip_delta` sum that one row of T_u.

`flip_deltas` scores every neighbour of a walk step at once by
expanding the square instead (b_q^2 = 1):

    E' - E = 4 * (f_q^2 * S_q - f_q * b_q * A_q),
    A_q    = sum_u C_u * (b_{q+u} + b_{q-u}),
    S_q    = sum_u (b_{q+u} + b_{q-u})^2
           = #{in-range b_{q+u}, b_{q-u}} + 2 * sum_u b_{q+u}*b_{q-u}.

A_q for all q is a correlation of the padded sequence with C mirrored
onto the negative lags, one per parity of q as the odd lags are zero;
the sum in S_q is read off the self-convolution of the elements of q's
parity at index 2q.  For q < l the mirror term
at u = n-1-2q comes off both: S_q loses 1 + 2*b_{q-u}*b_p (b_{q-u} = 0
below the sequence) and A_q loses b_p*C_u.

The state is one float64 buffer: elements, correlations and every
per-flip sum above are integers of magnitude at most a few n^2, far
below 2^53, so float64 holds them exactly in any summation order.  A
full energy sum can reach about n^3/3, above 2^53 for n near
`core.MAX_LENGTH`, so the energies of a fresh state and of a recompute
square and sum the correlations in int64.  Exactness is enforced
against the one-row form and full recomputation in the test suite, and
optionally at runtime via LABSKIT_DEBUG_VERIFY=1.

`exhaustive_best` scores blocks of `EXHAUSTIVE_BLOCK` packed values as
position-major (n, B) int32 columns (skew halves expanded along the
position axis) by one `core.lag_products` call over the lags 1..n-1.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .core import BinarySequence, SidelobeArray, lag_products
from .errors import DomainError

#: When set (env LABSKIT_DEBUG_VERIFY=1), every apply_flip re-derives the
#: correlation array and the energy from scratch and asserts agreement.
DEBUG_VERIFY = os.environ.get("LABSKIT_DEBUG_VERIFY", "") not in ("", "0")

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


class SkewSearchState:
    """Mutable, single-owner state for local search over skew halves.

    Keeps the expanded elements `e`, the correlation array `c`
    (c[u] = C_u, c[0] = n; odd entries identically zero) and the exact
    energy, all updated in O(n) per flip.  `e` is a view into the
    sequence zero-padded by n-1 on both sides, and `c` is the right half
    of the correlations at every lag -(n-1)..n-1, which the neighbour
    scan reads mirrored.  Both buffers are float64 and hold exact
    integers; the energy is a Python int (see the module docstring).
    """

    __slots__ = ("n", "l", "e", "c", "energy", "half_bits", "_padded", "_c_mirror")

    def __init__(self, half: SkewHalf):
        self.l = half.l
        self.n = 2 * self.l + 1
        self._padded = np.zeros(3 * self.n - 2)
        self.e = self._padded[self.n - 1 : 2 * self.n - 1]
        self.e[:] = expand_rows(np.array(half.elements))
        self._c_mirror = np.correlate(self.e, self.e, mode="full")
        self.c = self._c_mirror[self.n - 1 :]
        self.energy = _energy(self.c)
        # the half packed little-endian: bit q set iff element q is +1
        self.half_bits = int("".join(["1" if e == 1 else "0" for e in half.elements[::-1]]), 2)

    @classmethod
    def from_sequence(cls, seq: BinarySequence) -> "SkewSearchState":
        if not is_skew_symmetric(seq):
            raise DomainError("sequence is not skew-symmetric")
        return cls(SkewHalf(seq.elements[: seq.n // 2 + 1]))

    def half(self) -> SkewHalf:
        return SkewHalf(tuple(int(x) for x in self.e[: self.l + 1]))

    def sequence(self) -> BinarySequence:
        return BinarySequence.from_elements(self.e.astype(np.int64).tolist())

    def sidelobes(self) -> SidelobeArray:
        return SidelobeArray(values=tuple(int(x) for x in self.c[:0:-1]), n=self.n)

    def merit_factor(self) -> Fraction:
        return Fraction(self.n * self.n, 2 * self.energy)

    def _terms(self, q: int) -> np.ndarray:
        """T_u for flipping q, u = 2, 4, .., n-1; raises for q outside [0, l]."""
        n, l = self.n, self.l
        if not 0 <= q <= l:
            raise DomainError(f"flip index {q} out of range [0, {l}]")
        # b_{q+u} and b_{q-u} sit at padded indices n-1+q+u and n-1+q-u
        t = self._padded[n + 1 + q : 2 * n - 1 + q : 2] + self._padded[q : n - 2 + q : 2][::-1]
        if q < l:
            # at u = n-1-2q the product b_q*b_p has both ends flipped: unchanged
            t[l - 1 - q] -= self.e[n - 1 - q]
        t *= (1 if q == l else 2) * self.e[q]
        return t

    def flip_deltas(self, qs) -> np.ndarray:
        """E(after flip at q) - E(now) for every q in `qs`, exact, without mutating.

        Scores all l+1 positions at once by the correlation form of the
        module docstring, with even q and odd q in separate halves, and
        returns the entries `qs` asks for.
        """
        qs = np.asarray(qs, dtype=np.int64)
        if not qs.shape[0]:
            return np.empty(0, dtype=np.int64)
        lo, hi = int(qs.min()), int(qs.max())
        if lo < 0 or hi > self.l:
            bad = lo if lo < 0 else hi
            raise DomainError(f"flip index {bad} out of range [0, {self.l}]")
        n, l = self.n, self.l
        if not l:  # n = 1: no shifts to correlate, and its one flip keeps E = 0
            return np.zeros(qs.shape[0], dtype=np.int64)
        weights, constant, pos = _scan_tables(n)
        evens, odds = (l + 2) // 2, (l + 1) // 2  # even and odd q in 0..l
        padded, c = self._padded, self._c_mirror
        e = padded[n - 1 : 2 * n - 1]
        e0, e1 = e[0::2], e[1::2]
        lags = c[0::2]  # C_|v| at the even lags v = -(n-1)..n-1, C_0 = n included
        rows = np.concatenate((
            # 1 + 2 sum_u b_{q+u} b_{q-u}: self-convolution of q's parity class at 2q
            np.convolve(e0, e0)[: 2 * evens : 2], np.convolve(e1, e1)[: 2 * odds : 2],
            # C_u at the mirror shift u = n-1-2q
            c[0 : 4 * evens : 4], c[2 : 4 * odds : 4],
            # sum_v C_|v| b_{q+v} over the even lags
            np.correlate(padded[0::2][: evens + 2 * l], lags, "valid"),
            np.correlate(padded[1::2][: odds + 2 * l], lags, "valid"),
            # b_{q-u} at the mirror shift u = n-1-2q, 0 below the sequence
            padded[0 : 6 * evens : 6], padded[3 : 6 * odds : 6],
            e0[:evens], e1[:odds],
        )).reshape(5, l + 1)
        rows[2:4] *= rows[4]
        deltas = np.einsum("ij,ij->j", weights, rows[:4]) + constant
        return deltas.astype(np.int64)[pos[qs]]

    def flip_delta(self, q: int) -> int:
        """E(after flip at q) - E(now), exact, without mutating.

        Sums the one row of `_terms`, independently of `flip_deltas`."""
        t = self._terms(q)
        return int(4 * np.dot(t, t - self.c[2::2]))

    def apply_flip(self, q: int) -> None:
        """Flip position q (pairing with n-1-q for q < l), in place."""
        t = self._terms(q)
        n, c_even = self.n, self.c[2::2]
        self.energy += int(4 * np.dot(t, t - c_even))
        t *= 2
        c_even -= t
        self._c_mirror[n - 3 :: -2] -= t  # the same shifts on the negative lags
        for i in ((q,) if q == self.l else (q, n - 1 - q)):
            self.e[i] = -self.e[i]
        self.half_bits ^= 1 << q
        if DEBUG_VERIFY:
            self._verify()

    def _verify(self) -> None:
        corr = np.correlate(self.e, self.e, mode="full")
        if not np.array_equal(corr, self._c_mirror):
            raise AssertionError("incremental correlations diverged from recompute")
        if self.energy != _energy(corr[self.n - 1 :]):
            raise AssertionError("incremental energy diverged from recompute")


def _energy(c: np.ndarray) -> int:
    """Sum of C_u^2 over u >= 1 for correlations `c` by shift.  Squared and
    summed in int64: the sum can pass 2^53, where float64 stops being exact."""
    return int(np.sum(c[1:].astype(np.int64) ** 2))


@functools.lru_cache(maxsize=16)
def _scan_tables(n: int) -> tuple:
    """Per-length constants of `flip_deltas`, in its column order (even q,
    then odd q): the weights of its four rows, the constant term, and the
    column of each q.

    With m = n-1-2q the mirror shift, s_q = b_q*b_p = (-1)^(l-q) by the
    skew rule (0 at the centre), P_q = 1 + 2*sum_u b_{q+u}*b_{q-u} and
    A'_q = sum_v C_|v|*b_{q+v} over every even lag v, 0 included, the
    module docstring's energy change is

        4f^2*P_q + 4f*s_q*C_m - 4f*b_q*A'_q - 8f^2*s_q*b_q*b_{q-m}
        + 4f^2*(in-range count - 1 - [q < l]) + 4f*n.
    """
    l = n // 2
    q = np.concatenate((np.arange(0, l + 1, 2), np.arange(1, l + 1, 2)))
    f = np.where(q == l, 1, 2)
    paired = q < l
    sign = np.where((l - q) % 2, -1, 1) * paired  # b_q * b_p by the skew rule
    in_range = (n - 1 - q) // 2 + q // 2  # even u with b_{q+u} or b_{q-u} in range
    weights = np.stack((4 * f * f, 4 * f * sign, -4 * f, -8 * f * f * sign)).astype(np.float64)
    constant = (4 * f * f * (in_range - 1 - paired) + 4 * f * n).astype(np.float64)
    pos = np.empty(l + 1, dtype=np.int64)
    pos[q] = np.arange(l + 1)
    for table in (weights, constant, pos):
        table.setflags(write=False)
    return weights, constant, pos


# --- exhaustive search -----------------------------------------------------


def _bits_to_pm1(values: np.ndarray, width: int) -> np.ndarray:
    """(B,) int32 -> (width, B) +-1 int32 columns, bit width-1 first (MSB = element 0)."""
    x = (values >> np.arange(width - 1, -1, -1, dtype=np.int32)[:, None]) & 1
    x *= 2  # in place: these (width, B) arrays set the peak memory of a block
    x -= 1
    return x


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
        # int32 is exact: values < 2^24, |C_u| < n <= 31 and E < n^3/3 < 2^31
        x = _bits_to_pm1(np.arange(start, min(start + EXHAUSTIVE_BLOCK, end),
                                   dtype=np.int32), width)
        if skew_only:
            x = np.ascontiguousarray(expand_rows(x.T).T)
        c = lag_products(x, x, range(1, n), np.empty((n - 1, x.shape[1]), dtype=np.int32))
        energies = np.einsum("ij,ij->j", c, c)
        idx = int(np.argmin(energies))
        if best_e is None or energies[idx] < best_e:
            best_e = int(energies[idx])
            best_seq = BinarySequence.from_elements(x[:, idx].tolist())
    return Fraction(n * n, 2 * best_e), best_seq
