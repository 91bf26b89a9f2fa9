"""Pseudo-skew-symmetric (PSS) sequences and O(n) boundary probes.

A PSS sequence is an even-length sequence that becomes skew-symmetric
after dropping its first or its last element.  Every even-index entry
of its reversed-order sidelobe array is +-1, so its energy decomposes
into a fixed floor plus the odd-index contributions.

Starting from a skew-symmetric B of odd length n = 2l+1 with energy E
and correlations C_s by shift, the adjacent PSS candidates have
closed-form energies:

    append b (length n+1):   E + n + 2*b*a,
                             a = sum_{s even, 2..n-1} C_s * b_{n-s}
    drop first (length n-1): E + n - 3 + 2*b_0*d,
                             d = -sum_{s even, 2..n-3} C_s * b_s

Prepending and dropping the last element are the same edits applied to
the reversal of B.  The skew rule b_{n-1-j} = (-1)^(l-j) * b_j makes the
reversal of B its alternating complement up to sign, so their sums are
-(-1)^l * a (prepend b: E + n - 2*(-1)^l*b*a) and (-1)^l * d (drop last,
weighted by b_{n-1} = (-1)^l * b_0).  Both drops therefore have the
same energy E + n - 3 + 2*b_0*d, and the two sums serve all six probes
(`probe_table`).  All formulas are exact integer identities, validated
against direct recomputation in the tests.

A walk state has both sums at hand, in the row A'_q = sum_v C_|v| *
b_{q+v} over the even lags v that `labskit.skew` keeps for its scan
(b = 0 outside the sequence, C_0 = n):

    A'_{-1} = sum_{v even, 2..n-1} C_v * b_{v-1} = (-1)^(l+1) * a,

since the skew rule with v even gives b_{v-1} = (-1)^(l-v+1) * b_{n-v}
= (-1)^(l+1) * b_{n-v}; and

    A'_0 = n*b_0 + sum_{v even, 2..n-3} C_v * b_v + C_{n-1}*b_{n-1}
         = n*b_0 - d + b_0,

since C_{n-1} = b_0*b_{n-1}; so d = (n+1)*b_0 - A'_0 for n >= 3.  The
walk reads both in O(1) that way (`SkewSearchState.boundary_sums`).  The
dot products of `boundary_sums` stay for `probe` on a fresh state,
which then builds no rows, and as the tests' reference.

Every probe is one of the paper's boundary edits eta, and a `PssProbe`
names its edit by its `EtaOp`.  `probe_table` scores n1..n6 in one
table indexed by eta index; the walk reads n1 (append +1), n2 (append
-1), n4 (strip the last element) and n3 (strip the first) from it
(`PROBE_EDITS`), and `probe(seq, op)` reads one entry of
`probe_energies`, the table of the dot-form sums, for a library
caller.  The candidate sequences themselves are built only by
`labskit.symmetry.apply_eta`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import BinarySequence, merit_factor_of, sidelobes
from .errors import DomainError
from .skew import SkewSearchState, is_skew_symmetric
from .symmetry import EtaOp, apply_eta

#: The eta edits the walk probes, in the order it scores them.
PROBE_EDITS = (EtaOp(1), EtaOp(2), EtaOp(4), EtaOp(3))

#: end -> eta index of appending +1 or -1 (by sign) or dropping (None) there
_END_ETA = {"last": {1: 1, -1: 2, None: 4}, "first": {1: 5, -1: 6, None: 3}}


@dataclass(frozen=True)
class PssProbe:
    """Energy/MF of the PSS sequence that the boundary edit `op` makes
    from a skew-symmetric base."""

    op: EtaOp
    delta_sum: int
    energy: int
    length: int

    @property
    def merit_factor(self) -> Fraction:
        return merit_factor_of(self.length, self.energy)


def is_pseudo_skew_symmetric(seq: BinarySequence) -> bool:
    """True iff dropping the first OR the last element leaves a
    skew-symmetric sequence (forces even length)."""
    if seq.n % 2 == 1:
        return False
    return any(is_skew_symmetric(apply_eta(EtaOp(i), seq)) for i in (4, 3))


def boundary_sums(c: np.ndarray, e: np.ndarray) -> tuple:
    """(a, d): the delta sums of appending at the end and of dropping the
    first element, from the correlations `c` by shift and the elements
    `e` of a skew-symmetric sequence.  The module docstring derives the
    other two sums and every energy from these."""
    n = e.shape[0]
    return int(c[2::2].dot(e[n - 2 : 0 : -2])), -int(c[2 : n - 2 : 2].dot(e[2 : n - 2 : 2]))


def probe_table(n: int, v: int, b0: int, a: int, d: int) -> tuple:
    """(delta sums, energies) of the boundary edits of a skew-symmetric
    base: two tuples indexed by eta index 1..6 (entry 0, strip-both, is
    None).

    `n`, `v` and `b0` are the length, the energy and the first element
    of the base, and (a, d) its `boundary_sums`; the prepend and
    drop-last entries follow from the skew rule (module docstring).
    """
    s = (-1) ** (n // 2)  # b_{n-1} = s * b_0
    w = v + n
    drop = w - 3 + 2 * b0 * d
    p = -s * a
    return ((None, a, a, d, s * d, p, p),
            (None, w + 2 * a, w - 2 * a, drop, drop, w + 2 * p, w - 2 * p))


def probe_energies(c: np.ndarray, e: np.ndarray, v: int) -> tuple:
    """The `probe_table` of the skew-symmetric base with correlations `c`
    by shift, elements `e` and energy `v`, its sums taken by
    `boundary_sums`."""
    return probe_table(e.shape[0], v, int(e[0]), *boundary_sums(c, e))


def _eta_index(end: str, sign: int | None = None) -> int:
    """Eta index of appending `sign` at `end`, or of dropping (None) there."""
    if end not in _END_ETA:
        raise DomainError(f"end must be 'last' or 'first', got {end!r}")
    return _END_ETA[end][sign]


def append_delta_arrays(c: np.ndarray, e: np.ndarray, n: int, v: int, sign: int,
                        end: str = "last") -> tuple:
    """(delta, energy) for appending `sign` at `end`, from raw state arrays."""
    return tuple(col[_eta_index(end, sign)] for col in probe_energies(c, e, v))


def truncate_delta_arrays(c: np.ndarray, e: np.ndarray, n: int, v: int,
                          end: str = "last") -> tuple:
    """(delta, energy) for dropping the element at `end`."""
    return tuple(col[_eta_index(end)] for col in probe_energies(c, e, v))


def probe(seq: BinarySequence, op: EtaOp) -> PssProbe:
    """Probe the PSS sequence that the boundary edit `op` (eta 1..6) makes
    from the skew-symmetric `seq`; `apply_eta(op, seq)` builds it."""
    if op.index == 0:
        raise DomainError("strip-both has no boundary probe; apply_eta builds it")
    length = op.result_length(seq.n)
    state = SkewSearchState.from_sequence(seq)
    deltas, energies = probe_energies(state.c, state.e, state.energy)
    return PssProbe(op, deltas[op.index], energies[op.index], length)


def pss_sidelobe_check(seq: BinarySequence) -> bool:
    """True iff every even-index reversed-order sidelobe is exactly +-1.

    Holds for every PSS sequence; raises if the input is not PSS.
    """
    if not is_pseudo_skew_symmetric(seq):
        raise DomainError("sidelobe check needs a pseudo-skew-symmetric input")
    arr = sidelobes(seq)
    return all(abs(arr[i]) == 1 for i in range(0, len(arr), 2))


def pss_energy_decomposition(seq: BinarySequence) -> tuple:
    """(floor, odd-index contribution); their sum equals the energy.

    The floor counts the n/2 even reversed indices, whose +-1 sidelobes
    add 1 each."""
    if not is_pseudo_skew_symmetric(seq):
        raise DomainError("energy floor needs a pseudo-skew-symmetric input")
    arr = sidelobes(seq)
    odd = sum(arr[i] ** 2 for i in range(1, len(arr), 2))
    return seq.n // 2, odd
