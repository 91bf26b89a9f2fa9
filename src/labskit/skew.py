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
`labskit.reference.ref_flip_deltas` sums that one row of T_u per q.

`flip_deltas` scores every neighbour of a walk step at once by
expanding the square instead (b_q^2 = 1):

    E' - E = 4 * (f_q^2 * S_q - f_q * b_q * A_q),
    A_q    = sum_u C_u * (b_{q+u} + b_{q-u}),
    S_q    = sum_u (b_{q+u} + b_{q-u})^2
           = #{in-range b_{q+u}, b_{q-u}} + 2 * sum_u b_{q+u}*b_{q-u}.

Summed over every lag v, negative ones and 0 included (the odd ones
vanish), both come from two rows:

    P_q  = sum_{j = q mod 2} b_j * b_{2q-j} = 1 + 2 * sum_u b_{q+u}*b_{q-u},
    A'_q = sum_v C_v * b_{q+v}              = A_q + n * b_q.

For q < l the mirror term at u = n-1-2q comes off both: S_q loses
1 + 2*b_{q-u}*b_p (b_{q-u} = 0 below the sequence) and A_q loses
b_p*C_u; `_scan_weights` has the resulting weights.

The state keeps A' and the full self-convolution K_i = sum_j b_j*b_{i-j};
P and the change of C in a flip follow from K.  Lay C out by i = v+n-1
(the mirror layout, lags v = -(n-1)..n-1, C_{-v} = C_v) and split K by
the parity of j, K = K^0 + K^1; at even i both factors of a product share
that parity.  The skew rule b_{n-1-k} = (-1)^(l-k) * b_k gives, at even i,

    C_i = sum_j b_j * b_{n-1-(i-j)} = (-1)^l * sum_j (-1)^j * b_j*b_{i-j}
        = (-1)^l * (K^0_i - K^1_i).

(1) A flip moves elements of one parity r = q mod 2 only (p = n-1-q has
    q's parity), so only K^r changes, and at even i

        dC_i = (-1)^(l+r) * dK_i = s * dK_i,   s = (-1)^(l-q) = b_q*b_p,

    with s = 1 at the centre; C stays 0 at the odd i.
(2) P_q is K^r at i = 2q, where C sits at the lag 2q-(n-1) = -m, so

        P_q = (K_{2q} + (-1)^(l+r) * C_{2q}) / 2 = (K_{2q} + (-1)^(l-q) * C_m) / 2

    for every q, the centre included.

`_scan_rows` builds A' and K from scratch, from a correlation of each
parity class of q with C and one self-convolution.  The first scan
builds them; from then on `apply_flip` keeps them in step.  Each scan
copies K_{2q} and C_m into its block of rows, and `_scan_weights` folds
P's 1/2 and C_m term into their weights.

The state keeps the exact float scores of its last scan, and
`apply_flip(q)` adds entry q to the energy: it is E' - E, computed
already.  The walk's pick reads the same scores and masks only a copy
of them.  A flip with no scan since the last one (only tests and
direct library calls make one) runs the scan first, and the first scan
builds the rows.  With F the flipped positions ({q, n-1-q}, or {l} at
the centre), D_f = -2*b_f, b and K before the flip, C before it and C'
after it, the rows change by

    dK_i  = sum_{f in F} 2*D_f * b_{i-f} + sum_{f+g = i} D_f*D_g,
    dC_i  = s * dK_i at even i, by (1),
    dA'_q = sum_{f in F} D_f * (C_{q-f} + C'_{q-f} + K_{q+f})
            + sum_{f, g in F} D_f*D_g * b_{q+g-f}.

s*dK is two windows of b and three point terms, formed in place in the
buffer, dC a strided copy of it, and the ten windows of dA' are gathered
from the one state buffer and summed by one matrix-vector product
(`_row_starts`), so a walk step does no O(n^2) work.  The state binds
the views a step reads once, when it builds the rows: the scan block's
sources K_{2q}, C_m and b_{q-m}; the even lags of s*dK and dC; the
windows of 2n-1 padded elements, of which the two of s*dK are windows q
and n-1-q; weight rows 0 and 3; and the `_row_starts` offsets of its
length.  A step then makes no view, and reads its scalars as Python
ints: b_q and b_0 from `half_bits`, its score with `item`.

A' is kept from q = -1 on, A'_{-1} = sum_v C_v * b_{v-1}, because the
pseudo-skew probes read their sums from it (`boundary_sums`; the
identities are derived in `labskit.pseudo`):

    a = (-1)^(l+1) * A'_{-1},    d = (n+1)*b_0 - A'_0   (n >= 3).

A zero precedes the elements and each of the rows C, dC, K and s*dK in
the buffer, so the windows of dA', which start at q = -1, read zeros
below their rows.  A state
that is never scanned, such as a fresh state read only for its probes
by `pseudo.probe`, never builds the rows.

The state is one float64 buffer: elements, correlations, the rows and
every per-flip sum above are integers of magnitude at most about n^2
(|A'_q| <= sum_v |C_v| <= n^2), far below 2^53 up to `core.MAX_LENGTH`,
so float64 holds them exactly in any summation order.  A full energy
sum can reach about n^3/3, above 2^53 for n near `core.MAX_LENGTH`, so
the energies of a fresh state and of a recompute square and sum the
correlations in int64.  The test suite checks every score against
`reference.ref_flip_deltas`, which builds its own C from the elements,
and against full recomputation, and the kept rows against a fresh
rebuild.  Tests re-derive a state with `_verify`.

`exhaustive_best` scores blocks of `EXHAUSTIVE_BLOCK` packed values as
position-major (n, B) int8 columns (skew halves expanded along the
position axis) by one `core.lag_products` call over the lags 1..n-1.
Every lag sum is at most n-1 <= 30 in magnitude at the length caps, so
the columns and the lag sums are int8; the energies are summed in int32.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .core import BinarySequence, _check_binary, lag_products, merit_factor_of
from .errors import DomainError

#: Packed values per block of exhaustive_best.
EXHAUSTIVE_BLOCK = 1 << 13

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
        _check_binary(self.elements)

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
    scan reads mirrored.  Each flip computes the change of K and takes
    C's change (kept in `_dc`) from it.  From the first scan on, the
    state also keeps the scan's row A' (from q = -1) and the
    self-convolution K in step with every flip, and each scan reads P
    from K and C (module docstring).  Every array is a view into one
    float64 buffer of exact integers; the energy is a Python int.  The
    first scan also binds the views every later scan and flip reads.
    """

    __slots__ = ("n", "l", "e", "c", "energy", "half_bits", "_padded", "_c_mirror", "_dc",
                 "_k", "_sdk", "_a", "_block", "_weights", "_window", "_scores", "_copies",
                 "_even", "_padded_window", "_w0", "_w3", "_starts")

    def __init__(self, half: SkewHalf):
        self.l = l = half.l
        self.n = n = 2 * l + 1
        padded_at, c_at, _, _, block_at = _offsets(n)
        # one buffer: the padded elements; C at the lags -(n-1)..n-1, the
        # change of C in the last flip, K and s times K's change in it;
        # then A'_{-1} and the scan block of rows A', K_{2q}, C_m, b_{q-m}
        # and ones.  A zero precedes the elements and each of the four rows
        # of 2n-1.  Past C it stays untouched (and, when large, unmapped)
        # until the first scan
        x = np.zeros(block_at + 5 * (l + 1))
        self._padded = x[padded_at : c_at - 1]
        self._c_mirror, self._dc, self._k, self._sdk = (
            x[c_at - 1 : block_at - 1].reshape(4, 2 * n)[:, 1:])
        self._a = x[block_at - 1 : block_at + l + 1]  # A'_q at q = -1..l
        self._block = x[block_at:].reshape(5, l + 1)
        self._weights = self._window = self._scores = None
        self.e = self._padded[n - 1 : 2 * n - 1]
        self.e[:] = expand_rows(np.array(half.elements))
        self._c_mirror[:] = np.correlate(self.e, self.e, mode="full")
        self.c = self._c_mirror[n - 1 :]
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
        # packbits fills the last byte with zero bits from the right
        packed = int.from_bytes(np.packbits(self.e > 0).tobytes(), "big")
        return BinarySequence(packed >> (-self.n % 8), self.n)

    def flip_deltas(self) -> np.ndarray:
        """E(after flip at q) - E(now) for every q = 0..l, exact, without
        mutating, as a fresh int64 array.

        Scores all l+1 positions at once by the correlation form of the
        module docstring, from the maintained rows K and A' (built on the
        first call) and C.
        """
        return self._scan().astype(np.int64)

    def _scan(self) -> np.ndarray:
        """The exact energy changes of `flip_deltas` as float64, kept
        for the next `apply_flip`."""
        if self._weights is None:
            self._build_rows()
        for row, source in self._copies:
            row[...] = source
        self._scores = np.einsum("ij,ij->j", self._weights, self._block)
        return self._scores

    def _build_rows(self) -> None:
        """Build A' and K from scratch, start keeping them in step, and
        bind the views that the scan and `apply_flip` read."""
        n, l = self.n, self.l
        x, padded = self._padded.base, self._padded
        self._a[:], self._k[:] = _scan_rows(x, self._c_mirror)
        self._block[4] = 1
        self._weights = _scan_weights(n).copy()
        self._weights[0::3] *= self.e[: l + 1]
        self._w0, self._w3 = self._weights[0], self._weights[3]
        # scan block rows 1 to 3 and what each scan copies into them: K_{2q},
        # C_m at the mirror shift m = n-1-2q, and b_{q-m} (0 below the sequence)
        self._copies = tuple(zip(self._block[1:4], (self._k[0:n:2], self._c_mirror[0:n:2],
                                                    padded[0 : 3 * l + 1 : 3])))
        self._even = (self._sdk[::2], self._dc[::2])
        # windows of 2n-1 padded elements, window i holding b_{j+i-(n-1)} at
        # j, and of l+2 buffer entries; as_strided makes each in a third of
        # sliding_window_view's time, which a restart at small n would notice
        step = x.strides[0]
        self._padded_window = np.lib.stride_tricks.as_strided(
            padded, (n, 2 * n - 1), (step, step), writeable=False)
        self._window = np.lib.stride_tricks.as_strided(
            x, (x.shape[0] - l - 1, l + 2), (step, step), writeable=False)
        self._starts = _row_starts(n)

    def boundary_sums(self) -> tuple:
        """The sums (a, d) of `pseudo.boundary_sums`, in O(1) from A'_{-1}
        and A'_0 (module docstring), for n >= 3.  Builds the rows first on
        a state that has not been scanned."""
        if self._weights is None:
            self._build_rows()
        a = self._a
        a_prev = int(a.item(0))
        return (a_prev if self.l % 2 else -a_prev,
                (self.n + 1) * (1 if self.half_bits & 1 else -1) - int(a.item(1)))

    def flip_delta(self, q: int) -> int:
        """E(after flip at q) - E(now), exact, without mutating: entry q
        of the scan."""
        if not 0 <= q <= self.l:
            raise DomainError(f"flip index {q} out of range [0, {self.l}]")
        return int(self._scan()[q])

    def apply_flip(self, q: int) -> None:
        """Flip position q (pairing with n-1-q for q < l), in place.  The
        energy change is the last scan's, which this runs if no scan has
        been made since the last flip."""
        n, l = self.n, self.l
        if not 0 <= q <= l:
            raise DomainError(f"flip index {q} out of range [0, {l}]")
        scores = self._scan() if self._scores is None else self._scores
        self.energy += int(scores.item(q))
        self._scores = None
        b = 1 if self.half_bits >> q & 1 else -1
        s = 1 - 2 * ((l - q) & 1)  # b_p = s*b_q by the skew rule; 1 at the centre
        windows, sdk = self._padded_window, self._sdk
        # K_i changes by -4*b_q*(b_{i-q} + s*b_{i-p}) plus the point terms
        # D_f*D_g at i = f+g; sdk holds s times that change, which is C's
        # change at the even i
        if q < l:
            (np.add if s > 0 else np.subtract)(windows[q], windows[n - 1 - q], out=sdk)
            sdk *= -4 * b
            sdk[4 * l - 2 * q] += 4 * s
            sdk[2 * l] += 8
        else:
            np.multiply(windows[n - 1 - q], -4 * b, out=sdk)
        sdk[2 * q] += 4 * s
        sdk_even, dc_even = self._even
        dc_even[...] = sdk_even  # the odd lags stay 0
        # A' from C, dC, K and b before the flip, then K
        np.dot(_ROW_COEFS[b, s * (q < l)], self._window[self._starts[q]], out=self._a)
        (np.add if s > 0 else np.subtract)(self._k, sdk, out=self._k)
        w0, w3 = self._w0, self._w3
        w0[q] = -w0[q]
        w3[q] = -w3[q]
        self._c_mirror += self._dc
        e = self.e
        e[q] = -b
        if q < l:
            e[n - 1 - q] = -s * b
        self.half_bits ^= 1 << q

    def _verify(self) -> None:
        """Re-derive from the elements everything the state keeps and
        raise AssertionError where it differs."""
        corr = np.correlate(self.e, self.e, mode="full")
        if not np.array_equal(corr, self._c_mirror):
            raise AssertionError("incremental correlations diverged from recompute")
        if self.energy != _energy(corr[self.n - 1 :]):
            raise AssertionError("incremental energy diverged from recompute")
        packed = np.frombuffer(self.half_bits.to_bytes(self.l // 8 + 1, "little"), np.uint8)
        bits = np.unpackbits(packed, count=self.l + 1, bitorder="little")
        if not np.array_equal(self.e[: self.l + 1], 2.0 * bits - 1):
            raise AssertionError("elements diverged from half_bits")
        if self._weights is not None:
            fresh = SkewSearchState(self.half())
            scores = fresh._scan()  # builds the rows and the weights from scratch
            if not (np.array_equal(fresh._a, self._a) and np.array_equal(fresh._k, self._k)):
                raise AssertionError("maintained scan rows diverged from rebuild")
            if not np.array_equal(fresh._weights, self._weights):
                raise AssertionError("maintained scan weights diverged from rebuild")
            if self._scores is not None and not np.array_equal(scores, self._scores):
                raise AssertionError("kept scores diverged from a fresh scan")


def _offsets(n: int) -> tuple:
    """Where the padded elements, C, its change, K and the scan block start
    in a state's buffer."""
    return 1, 3 * n, 5 * n, 7 * n, 11 * n


def _energy(c: np.ndarray) -> int:
    """Sum of C_u^2 over u >= 1 for correlations `c` by shift.  Squared and
    summed in int64: the sum can pass 2^53, where float64 stops being exact."""
    return int(np.sum(c[1:].astype(np.int64) ** 2))


def _scan_rows(x: np.ndarray, c_mirror: np.ndarray) -> tuple:
    """A' at q = -1..l and K of the module docstring, from scratch: A' from
    a correlation of each parity class of q with C over the even lags, and
    K in full.  `x` is a state's buffer, whose entry i is b_{i-n}: zero
    below the sequence."""
    n = c_mirror.shape[0] // 2 + 1
    l = n // 2
    a = np.empty(l + 2)
    lags = c_mirror[0::2]  # C_|v| at the even lags v = -(n-1)..n-1, C_0 = n included
    for j in (0, 1):
        # entry i of x[j::2] is b_{j-n+2i}, so output i is A'_q at q = j-1+2i
        m = (l + 3 - j) // 2
        a[j::2] = np.correlate(x[j::2][: m + n - 1], lags, "valid")
    e = x[n : 2 * n]
    return a, np.convolve(e, e)


@functools.lru_cache(maxsize=16)
def _scan_weights(n: int) -> np.ndarray:
    """The weights of the scan block's rows A', K_{2q}, C_m, b_{q-m} and 1
    at length n, before the b_q factor of rows 0 and 3.

    With m = n-1-2q the mirror shift, t_q = (-1)^(l-q), s_q = b_q*b_p =
    t_q by the skew rule (0 at the centre, which has no partner),
    P_q = (K_{2q} + t_q*C_m)/2 and A'_q = sum_v C_|v|*b_{q+v} over every
    even lag v, 0 included, the module docstring's energy change is

        -4f*b_q*A'_q + 2f^2*K_{2q} + (4f*s_q + 2f^2*t_q)*C_m
        - 8f^2*s_q*b_q*b_{q-m} + 4f^2*(in-range count - 1 - [q < l]) + 4f*n.
    """
    l = n // 2
    q = np.arange(l + 1)
    f = np.where(q == l, 1, 2)
    paired = q < l
    t = np.where((l - q) % 2, -1, 1)
    sign = t * paired  # b_q * b_p by the skew rule
    in_range = (n - 1 - q) // 2 + q // 2  # even u with b_{q+u} or b_{q-u} in range
    weights = np.stack((-4 * f, 2 * f * f, 4 * f * sign + 2 * f * f * t, -8 * f * f * sign,
                        4 * f * f * (in_range - 1 - paired) + 4 * f * n)).astype(np.float64)
    weights.setflags(write=False)
    return weights


def _row_coefs(b: int, s: int) -> np.ndarray:
    """Coefficients of the rows `_row_starts` gathers for the A' update of
    a flip of b_q = b with b_p = s*b (s = 0: the centre, no partner)."""
    d1, d2 = -2 * b, -2 * b * s
    return np.array((2 * d1, 2 * d2, d1, d2, d1, d2, d1 * d1 + d2 * d2, d1 * d2, d1 * d2, 1),
                    dtype=np.float64)


#: (b_q, s) -> coefficients of the A' update
_ROW_COEFS = {(b, s): _row_coefs(b, s) for b in (1, -1) for s in (1, 0, -1)}


@functools.lru_cache(maxsize=16)
def _row_starts(n: int) -> np.ndarray:
    """For each flip q, the buffer offsets of the windows of l+2 that the
    A' update gathers.  With f = q and g = n-1-q (g = q at the centre)
    they are C_{q'-f}, C_{q'-g}, dC_{q'-f}, dC_{q'-g}, K_{q'+f},
    K_{q'+g}, b_q', b_{q'+g-f}, b_{q'+f-g} and A' itself, over
    q' = -1..l.  The windows that start below their row start at the
    zero before it.
    """
    l = n // 2
    f = np.arange(l + 1)
    g = np.where(f < l, n - 1 - f, l)
    _, c, dc, k, block = _offsets(n)
    one = np.ones(l + 1, dtype=np.int64)
    # C_v sits at c+n-1+v, dC_v at dc+n-1+v, K_i at k+i, b_j at n+j and A'_q at block+q
    starts = np.stack((c + n - 2 - f, c + n - 2 - g, dc + n - 2 - f, dc + n - 2 - g,
                       k - 1 + f, k - 1 + g, (n - 1) * one, n - 1 + g - f, n - 1 + f - g,
                       (block - 1) * one), axis=1)
    starts.setflags(write=False)
    return starts


# --- exhaustive search -----------------------------------------------------


def _bits_to_pm1(values: np.ndarray, width: int) -> np.ndarray:
    """(B,) int32 -> (width, B) +-1 int8 columns, bit width-1 first (MSB = element 0)."""
    x = np.empty((width, len(values)), dtype=np.int8)
    for i, row in enumerate(x):
        # a row at a time: shifting the whole block at once makes int32
        # temporaries four times the size of x
        np.bitwise_and(values >> (width - 1 - i), 1, out=row, casting="unsafe")
    x *= 2
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
        # exact: values < 2^24 fit int32, |C_u| <= n-1 <= 30 fits int8 and
        # E < n^3/3 < 2^31 fits int32
        x = _bits_to_pm1(np.arange(start, min(start + EXHAUSTIVE_BLOCK, end),
                                   dtype=np.int32), width)
        if skew_only:
            x = np.ascontiguousarray(expand_rows(x.T).T)
        c = lag_products(x, x, range(1, n), np.empty((n - 1, x.shape[1]), dtype=np.int8))
        energies = np.einsum("ij,ij->j", c, c, dtype=np.int32)
        idx = int(np.argmin(energies))
        if best_e is None or energies[idx] < best_e:
            best_e = int(energies[idx])
            best_seq = BinarySequence.from_elements(x[:, idx].tolist())
    return merit_factor_of(n, best_e), best_seq
