"""Exact evaluation of autocorrelation, sidelobes, energy and merit factor.

Definitions used throughout the package, for a sequence b_0 .. b_{n-1}:

    C_u = sum_{j=0}^{n-u-1} b_j * b_{j+u}        aperiodic autocorrelation
    E   = sum_{u=1}^{n-1} C_u^2                  energy (mainlobe excluded)
    MF  = n^2 / (2 E)                            merit factor

Sidelobes are listed in reversed indexing: entry i holds C_{n-1-i},
so index 0 is the outermost (single-product) sidelobe.  Everything here
is exact integer arithmetic; merit factors are `fractions.Fraction`.

Binary sequences are stored bit-packed (bit=1 for +1), with correlation
computed through word-level XOR + popcount.  A scalar reference path for
oracle tests lives in `labskit.reference`.

`lag_products` is the one per-lag kernel of the exact block tools
(exhaustive search, partition potentials); in its position-major
(length, B) blocks numpy vectorises each lag across the B sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Union

import numpy as np

from .errors import DomainError, ParseError

#: Hard cap on sequence length.  Keeps energies comfortably inside 64-bit
#: range (E <= n^3) and refuses absurd allocations early.
MAX_LENGTH = 10**6


def _check_length(n: int) -> None:
    if n < 1:
        raise DomainError(f"sequence length must be >= 1, got {n}")
    if n > MAX_LENGTH:
        raise DomainError(f"sequence length {n} exceeds hard cap {MAX_LENGTH}")


def _check_binary(elements: Iterable[int]) -> None:
    for e in elements:
        if e != 1 and e != -1:
            raise DomainError(f"binary element must be -1 or +1, got {e!r}")


@dataclass(frozen=True, repr=False)
class BinarySequence:
    """Immutable sequence over {-1,+1}, bit-packed into a Python int.

    Bit ``n-1-i`` of ``bits`` is 1 exactly when element i is +1, i.e. the
    packed integer read MSB-first spells the sequence (hex payloads decode
    by plain int(, 16)).
    """

    bits: int
    n: int

    def __post_init__(self):
        _check_length(self.n)
        if self.bits < 0 or self.bits >> self.n:
            raise DomainError(f"packed value does not fit in {self.n} bits")

    @classmethod
    def from_elements(cls, elements: Iterable[int]) -> "BinarySequence":
        elems = tuple(elements)
        _check_length(len(elems))
        _check_binary(elems)
        return cls(int("".join(["1" if e == 1 else "0" for e in elems]), 2), len(elems))

    @classmethod
    def from_text(cls, text: str) -> "BinarySequence":
        """Parse '+-++', '1,-1,1' or whitespace-separated +1/-1 forms."""
        stripped = text.strip()
        if not stripped:
            raise ParseError("empty sequence text")
        if set(stripped) <= {"+", "-"}:
            return cls.from_elements(1 if c == "+" else -1 for c in stripped)
        tokens = stripped.replace(",", " ").split()
        elems = []
        for pos, tok in enumerate(tokens):
            if tok in ("1", "+1", "+"):
                elems.append(1)
            elif tok in ("-1", "-"):
                elems.append(-1)
            else:
                raise ParseError(f"bad sequence token {tok!r} at position {pos}")
        return cls.from_elements(elems)

    @cached_property
    def elements(self) -> tuple:
        # one linear unpack: shifting out each bit would copy the n-bit int n times
        return tuple(1 if c == "1" else -1 for c in format(self.bits, f"0{self.n}b"))

    def as_array(self) -> np.ndarray:
        return np.array(self.elements, dtype=np.int8)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return 1 if (self.bits >> (self.n - 1 - i)) & 1 else -1

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __repr__(self) -> str:
        if self.n <= 40:
            body = "".join("+" if e == 1 else "-" for e in self.elements)
        else:
            body = f"bits=0x{self.bits:x}"
        return f"BinarySequence({body}, n={self.n})"


@dataclass(frozen=True)
class TernarySequence:
    """Immutable sequence over {-1,0,+1}; used for partition potentials.
    Accepts any iterable and stores it as a tuple."""

    elements: tuple

    def __post_init__(self):
        elems = tuple(self.elements)
        _check_length(len(elems))
        for e in elems:
            if e not in (-1, 0, 1):
                raise DomainError(f"ternary element must be -1, 0 or +1, got {e!r}")
        object.__setattr__(self, "elements", elems)

    @property
    def n(self) -> int:
        return len(self.elements)

    def as_array(self) -> np.ndarray:
        return np.array(self.elements, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i: int) -> int:
        return self.elements[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)


Sequence = Union[BinarySequence, TernarySequence]


def _require_metric_length(seq: Sequence) -> int:
    n = len(seq)
    if n < 2:
        raise DomainError(f"metric operations need length >= 2, got {n}")
    return n


def lag_products(x: np.ndarray, y: np.ndarray, lags: Iterable[int],
                 out: np.ndarray) -> np.ndarray:
    """out[i] = sum_j x[j] * y[j + lags[i]] per column of equal-shape
    position-major blocks; a negative lag shifts x instead, and x = y
    gives each column's C_u.  Returns out.

    The sums are made in out's integer dtype, which wraps silently, so
    the caller picks one that holds its bound on every entry and partial
    sum; for +-1/0 blocks a lag's product count bounds both."""
    for i, m in enumerate(lags):
        lo, hi = max(0, -m), len(x) - max(0, m)
        np.einsum("ij,ij->j", x[lo:hi], y[lo + m : hi + m], out=out[i])
    return out


def _packed_correlation(bits: int, n: int, u: int) -> int:
    """C_u of a packed binary sequence: the n-u overlapping pairs less
    twice the number that disagree (XOR + popcount)."""
    width = n - u
    return width - 2 * ((bits ^ (bits >> u)) & ((1 << width) - 1)).bit_count()


def autocorrelation(seq: Sequence, u: int) -> int:
    """C_u: correlation of the sequence with its u-shifted self."""
    n = len(seq)
    if not 0 <= u <= n - 1:
        raise DomainError(f"shift {u} out of range [0, {n - 1}]")
    if isinstance(seq, BinarySequence):
        return _packed_correlation(seq.bits, n, u)
    e = seq.elements
    return sum(e[j] * e[j + u] for j in range(n - u))


def _all_correlations(seq: Sequence) -> list:
    """[C_1, ..., C_{n-1}] exactly."""
    n = len(seq)
    if isinstance(seq, BinarySequence):
        return [_packed_correlation(seq.bits, n, u) for u in range(1, n)]
    a = seq.as_array()
    corr = np.correlate(a, a, mode="full")
    return [int(c) for c in corr[n:]]


def sidelobes(seq: Sequence) -> tuple:
    """(C_{n-1}, ..., C_1): the sidelobes in reversed indexing, outermost
    first, mainlobe excluded."""
    _require_metric_length(seq)
    return tuple(reversed(_all_correlations(seq)))


def energy(seq: Sequence) -> int:
    """E = sum of squared sidelobes, exact."""
    _require_metric_length(seq)
    return sum(c * c for c in _all_correlations(seq))


def merit_factor_of(n: int, e: int) -> Fraction:
    """MF = n^2 / (2E) as an exact rational, from the length and energy."""
    return Fraction(n * n, 2 * e)


def merit_factor(seq: BinarySequence) -> Fraction:
    """MF = n^2 / (2E) as an exact rational.

    Defined for binary sequences with n >= 2; E >= 1 always holds there
    (the outermost sidelobe is a single +-1 product), so this never
    divides by zero.
    """
    if not isinstance(seq, BinarySequence):
        raise DomainError("merit factor is defined for binary sequences")
    n = _require_metric_length(seq)
    return merit_factor_of(n, energy(seq))
