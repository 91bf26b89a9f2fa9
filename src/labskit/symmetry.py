"""Energy-preserving operator algebra on binary sequences.

Two operator families:

* delta operators -- reversal, complement and alternating complement.
  Together with the identity they generate a group of 8 transforms, all
  of which preserve energy exactly (the alternating complement negates
  C_u by (-1)^u, which squares away).  `canonical_form` picks the
  lexicographically smallest of the 8 images, giving one representative
  per symmetry class.

* eta operators -- the seven structural edits used in the record tables
  (strip both ends, append/prepend +-1, strip one end), each defined by
  one row of `ETA_TABLE` and nowhere else.

A tiny parser turns ASCII class expressions like ``"Omega_173 . n4"``
into structured chains; these annotate record provenance only and are
never used to re-derive sequences.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .core import BinarySequence
from .errors import DomainError, ParseError


@dataclass(frozen=True)
class DeltaOp:
    """One of the 8 energy-preserving transforms.

    Applied as: alternating complement (negate even positions) if
    `alternate`, then complement if `negate`, then reversal if `reverse`.
    All 8 combinations are distinct transforms and the set is closed
    under composition for any fixed length.
    """

    reverse: bool = False
    negate: bool = False
    alternate: bool = False

    def apply(self, seq: BinarySequence) -> BinarySequence:
        elems = list(seq.elements)
        if self.alternate:
            elems = [-e if i % 2 == 0 else e for i, e in enumerate(elems)]
        if self.negate:
            elems = [-e for e in elems]
        if self.reverse:
            elems.reverse()
        return BinarySequence.from_elements(elems)

    @property
    def name(self) -> str:
        if not (self.reverse or self.negate or self.alternate):
            return "identity"
        parts = []
        if self.alternate:
            parts.append("alternate")
        if self.negate:
            parts.append("complement")
        if self.reverse:
            parts.append("reverse")
        return "+".join(parts)


IDENTITY = DeltaOp()
REVERSE = DeltaOp(reverse=True)
COMPLEMENT = DeltaOp(negate=True)
ALTERNATE = DeltaOp(alternate=True)

#: The full symmetry group of order 8.
DELTA_GROUP = tuple(
    DeltaOp(reverse=r, negate=s, alternate=t)
    for r in (False, True)
    for s in (False, True)
    for t in (False, True)
)


def apply_delta(op: DeltaOp, seq: BinarySequence) -> BinarySequence:
    return op.apply(seq)


def orbit(seq: BinarySequence) -> set:
    """The distinct images of `seq` under the symmetry group (size | 8)."""
    return {op.apply(seq) for op in DELTA_GROUP}


def canonical_form(seq: BinarySequence) -> BinarySequence:
    """Lexicographically smallest group image (-1 sorts before +1)."""
    return min((op.apply(seq) for op in DELTA_GROUP), key=lambda s: s.elements)


# --- eta operators ---------------------------------------------------------

#: eta index -> (name, elements stripped at the front, stripped at the
#: back, element added at the front, added at the back; 0 adds none)
ETA_TABLE = {
    0: ("strip-both", 1, 1, 0, 0),
    1: ("append +1", 0, 0, 0, +1),
    2: ("append -1", 0, 0, 0, -1),
    3: ("strip-first", 1, 0, 0, 0),
    4: ("strip-last", 0, 1, 0, 0),
    5: ("prepend +1", 0, 0, +1, 0),
    6: ("prepend -1", 0, 0, -1, 0),
}


@dataclass(frozen=True)
class EtaOp:
    index: int

    def __post_init__(self):
        if self.index not in ETA_TABLE:
            raise DomainError(f"eta index must be in 0..{max(ETA_TABLE)}, got {self.index}")

    @property
    def name(self) -> str:
        return ETA_TABLE[self.index][0]

    @property
    def length_change(self) -> int:
        _, front, back, head, tail = ETA_TABLE[self.index]
        return abs(head) + abs(tail) - front - back

    def result_length(self, n: int) -> int:
        """Length of the edit of a length-n sequence; DomainError when the
        strips leave no element."""
        name, front, back, _, _ = ETA_TABLE[self.index]
        if n <= front + back:
            raise DomainError(f"{name} needs length >= {front + back + 1}, got {n}")
        return n + self.length_change


def apply_eta(op: EtaOp, seq: BinarySequence) -> BinarySequence:
    """The edit of `op`'s row: bit 0 of the packed value is the last
    element, so the back is stripped and added at the low end."""
    _, front, back, head, tail = ETA_TABLE[op.index]
    n = op.result_length(seq.n)
    body = (seq.bits >> back) & ((1 << (seq.n - front - back)) - 1)
    return BinarySequence((body << abs(tail)) | (tail > 0) | ((head > 0) << (n - 1)), n)


def apply_eta_chain(seq: BinarySequence, etas: Iterable[EtaOp]) -> BinarySequence:
    for op in etas:
        seq = apply_eta(op, seq)
    return seq


# --- class expressions -----------------------------------------------------

_BASE_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*(\^[0-9][0-9,]*)?$")
_ETA_RE = re.compile(r"^n([0-9])$")


@dataclass(frozen=True)
class ClassExpression:
    """Parsed provenance chain: a named base class plus eta edits.

    Grammar (ASCII rendering of the record tables):

        expr  ::= base ('.' eta)*
        base  ::= name ['^' parts]      e.g.  B_313^24,11,9,4  |  Omega_173
        eta   ::= 'n' digit0-6
    """

    base: str
    etas: tuple

    def __str__(self) -> str:
        return " . ".join([self.base] + [f"n{op.index}" for op in self.etas])


def parse_class_expression(text: str) -> ClassExpression:
    tokens = [t.strip() for t in text.split(".")]
    if not tokens or not tokens[0]:
        raise ParseError("empty class expression")
    base = tokens[0]
    if not _BASE_RE.match(base):
        raise ParseError(f"bad base token {base!r} in class expression")
    etas = []
    for tok in tokens[1:]:
        m = _ETA_RE.match(tok)
        if not m:
            raise ParseError(f"bad operator token {tok!r} in class expression")
        idx = int(m.group(1))
        if idx not in ETA_TABLE:
            raise ParseError(f"bad operator token {tok!r} in class expression")
        etas.append(EtaOp(idx))
    return ClassExpression(base=base, etas=tuple(etas))
