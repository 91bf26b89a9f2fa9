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
same energy E + n - 3 + 2*b_0*d, and two dot products (`boundary_sums`)
serve all six probes.  All formulas are exact integer identities,
validated against direct recomputation in the tests.

Every probe is one of the paper's boundary edits eta: the four that
`probe_energies` scores are n1 (append +1), n2 (append -1), n4 (strip
the last element) and n3 (strip the first), and prepending is n5/n6.
The candidate sequences themselves are built only by
`labskit.symmetry.apply_eta` (`PROBE_EDITS`, `materialize`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import BinarySequence, sidelobes
from .errors import DomainError
from .skew import SkewSearchState, is_skew_symmetric
from .symmetry import EtaOp, apply_eta

#: The eta edit behind each `probe_energies` entry, in its order.
PROBE_EDITS = (EtaOp(1), EtaOp(2), EtaOp(4), EtaOp(3))

#: (direction, sign) of a `PssProbe` -> eta index of the edit it scores.
_PROBE_ETA = {("append-last", 1): 1, ("append-last", -1): 2, ("prepend-first", 1): 5,
              ("prepend-first", -1): 6, ("drop-last", None): 4, ("drop-first", None): 3}


@dataclass(frozen=True)
class PssProbe:
    """Energy/MF of one PSS sequence adjacent to a skew-symmetric base."""

    direction: str
    sign: int | None
    delta_sum: int
    energy: int
    length: int

    @property
    def merit_factor(self) -> Fraction:
        return Fraction(self.length * self.length, 2 * self.energy)


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
    return int(c[2::2] @ e[n - 2 : 0 : -2]), -int(c[2 : n - 2 : 2] @ e[2 : n - 2 : 2])


def probe_energies(c: np.ndarray, e: np.ndarray, v: int) -> tuple:
    """Energies of the `probe_neighbors` candidates, in its order: append
    +1, append -1 (at the end), drop the last, drop the first element.

    One `boundary_sums` call serves all four; `v` is the energy of the
    skew-symmetric base.  The two drops tie (module docstring).
    """
    n = e.shape[0]
    a, d = boundary_sums(c, e)
    drop = v + n - 3 + 2 * int(e[0]) * d
    return v + n + 2 * a, v + n - 2 * a, drop, drop


def append_delta_arrays(c: np.ndarray, e: np.ndarray, n: int, v: int, sign: int,
                        end: str = "last") -> tuple:
    """(delta, energy) for appending `sign` at `end`, from raw state arrays.

    `c` holds C_u by shift, `e` the elements, `v` the current energy.
    """
    if end not in ("last", "first"):
        raise DomainError(f"end must be 'last' or 'first', got {end!r}")
    delta = boundary_sums(c, e)[0]
    if end == "first":
        delta *= -(-1) ** (n // 2)
    return delta, v + n + 2 * sign * delta


def truncate_delta_arrays(c: np.ndarray, e: np.ndarray, n: int, v: int,
                          end: str = "last") -> tuple:
    """(delta, energy) for dropping the element at `end`."""
    if end not in ("last", "first"):
        raise DomainError(f"end must be 'last' or 'first', got {end!r}")
    delta = boundary_sums(c, e)[1]
    if end == "last":
        delta *= (-1) ** (n // 2)
    edge = int(e[n - 1] if end == "last" else e[0])
    return delta, v + n - 3 + 2 * edge * delta


def append_delta(seq: BinarySequence, sign: int, end: str = "last") -> PssProbe:
    """Probe the PSS sequence obtained by appending `sign` at `end`."""
    if sign not in (-1, 1):
        raise DomainError(f"appended element must be -1 or +1, got {sign!r}")
    state = SkewSearchState.from_sequence(seq)
    delta, out = append_delta_arrays(state.c, state.e, seq.n, state.energy, sign, end)
    direction = "append-last" if end == "last" else "prepend-first"
    return PssProbe(direction=direction, sign=sign, delta_sum=delta,
                    energy=out, length=seq.n + 1)


def truncate_delta(seq: BinarySequence, end: str = "last") -> PssProbe:
    """Probe the PSS sequence obtained by dropping the element at `end`."""
    state = SkewSearchState.from_sequence(seq)
    if seq.n < 3:
        raise DomainError("truncation probe needs length >= 3")
    delta, out = truncate_delta_arrays(state.c, state.e, seq.n, state.energy, end)
    direction = "drop-last" if end == "last" else "drop-first"
    return PssProbe(direction=direction, sign=None, delta_sum=delta,
                    energy=out, length=seq.n - 1)


def probe_neighbors(seq: BinarySequence) -> list:
    """All four boundary probes: append both signs, drop both ends."""
    probes = [append_delta(seq, s) for s in (1, -1)]
    probes += [truncate_delta(seq, end) for end in ("last", "first")]
    return probes


def materialize(seq: BinarySequence, probe: PssProbe) -> BinarySequence:
    """Construct the PSS sequence a probe refers to."""
    index = _PROBE_ETA.get((probe.direction, probe.sign))
    if index is None:
        raise DomainError(
            f"unknown probe direction {probe.direction!r} with sign {probe.sign!r}")
    return apply_eta(EtaOp(index), seq)


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
