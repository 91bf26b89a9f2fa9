"""Hex codec, bundled record dataset, and claimed-merit-factor verifier.

Record sequences are published as hexadecimal payloads with leading
zeroes omitted.  Decoding left-pads the integer's binary expansion to
exactly n bits and maps bit 1 -> +1, bit 0 -> -1, first bit -> b_0.
Merit factor is invariant under complement and reversal, so those
conventions cannot affect verification; only the left-padding is
semantically forced.

The bundled dataset (data/records.psv) is a transcription of the record
tables, one row per record:

    n|class|hex|old_mf|new_mf|source_table

with `-` for an absent old MF and the class column in the ASCII grammar
of `labskit.symmetry.parse_class_expression`.  Verification recomputes
every energy exactly and compares against the printed new MF at 1e-9
relative tolerance; that tolerance only absorbs the print rounding of
the claimed values, since our side is exact.  Row failures (including a
couple of self-inconsistent printed rows) are reported, never fatal.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .core import BinarySequence, _check_length, energy, merit_factor_of
from .errors import DomainError, ParseError
from .pseudo import is_pseudo_skew_symmetric
from .skew import is_skew_symmetric

_HEX_DIGITS = set("0123456789abcdefABCDEF")

#: Default relative tolerance for claimed-vs-computed comparison.
DEFAULT_TOLERANCE = 1e-9

#: Acceptable failure fraction for a dataset-level pass.
FAILURE_BUDGET = 0.05


def decode_hex(payload: str, n: int) -> BinarySequence:
    """Decode a zeroes-omitted hex payload into a length-n sequence.

    Whitespace inside the payload is ignored (table rows wrap across
    lines).
    """
    compact = "".join(payload.split())
    if not compact:
        raise ParseError("empty hex payload")
    bad = next((c for c in compact if c not in _HEX_DIGITS), None)
    if bad is not None:
        raise ParseError(f"non-hex character {bad!r} in payload")
    value = int(compact, 16)
    _check_length(n)
    if value.bit_length() > n:
        raise DomainError(
            f"payload has {value.bit_length()} significant bits, exceeds length {n}"
        )
    return BinarySequence(value, n)


def encode_hex(seq: BinarySequence) -> str:
    """Inverse of decode_hex; omits leading zero digits ('0' for all -1)."""
    return format(seq.bits, "x")


def mf_fields(mf: Fraction) -> dict:
    """A merit factor's record fields: its float, then its reduced
    numerator and denominator (`--human` prints them in this order)."""
    return {"mf": float(mf), "mf_num": mf.numerator, "mf_den": mf.denominator}


def classify(seq: BinarySequence) -> str:
    if seq.n >= 3 and is_skew_symmetric(seq):
        return "skew-symmetric"
    if is_pseudo_skew_symmetric(seq):
        return "pseudo-skew-symmetric"
    return "neither"


@dataclass(frozen=True)
class RecordEntry:
    n: int
    class_expr: str
    hex: str
    old_mf: Optional[float]
    new_mf: float
    source_table: str


@dataclass(frozen=True)
class VerificationReport:
    """One row's outcome; the defaults are those of a payload that fails to decode."""
    entry: RecordEntry
    energy: Optional[int] = None
    computed_mf: Optional[float] = None
    match: bool = False
    rel_error: Optional[float] = None
    classification: Optional[str] = None
    detail: str = ""


def load_dataset(path: Optional[str] = None) -> List[RecordEntry]:
    """Parse a records file; defaults to the bundled dataset.

    A malformed row, or a claimed merit factor that is not a positive
    number, raises ParseError naming its line in the file.  A file with
    no record rows raises ParseError too.
    """
    if path is None:
        text = (
            importlib.resources.files("labskit")
            .joinpath("data/records.psv")
            .read_text(encoding="utf-8")
        )
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    # (file line number, text), numbered before blank and comment lines go
    rows = [(i, ln) for i, ln in enumerate(text.splitlines(), 1)
            if ln.strip() and not ln.startswith("#")]
    if not rows:
        raise ParseError("dataset file contains no rows")
    header_no, header = rows[0][0], rows[0][1].strip()
    if header != "n|class|hex|old_mf|new_mf|source_table":
        raise ParseError(f"line {header_no}: unexpected dataset header {header!r}")
    if len(rows) == 1:
        raise ParseError("dataset file contains no record rows")
    entries: List[RecordEntry] = []
    for line_no, ln in rows[1:]:
        fields = [f.strip() for f in ln.split("|")]
        if len(fields) != 6:
            raise ParseError(
                f"line {line_no}: dataset row has {len(fields)} fields, expected 6: {ln!r}")
        n_text, class_expr, payload, old_text, new_text, table = fields
        try:
            n = int(n_text)
            old_mf = None if old_text == "-" else float(old_text)
            new_mf = float(new_text)
        except ValueError as exc:
            raise ParseError(f"line {line_no}: {exc}") from None
        if not 0 < new_mf < math.inf:
            raise ParseError(f"line {line_no}: claimed merit factor must be positive, "
                             f"got {new_text!r}")
        entries.append(RecordEntry(n=n, class_expr=class_expr, hex=payload,
                                   old_mf=old_mf, new_mf=new_mf, source_table=table))
    return entries


def verify_entry(entry: RecordEntry, tolerance: float = DEFAULT_TOLERANCE) -> VerificationReport:
    """Decode one record, recompute its MF exactly, compare to the claim."""
    if not tolerance >= 0:  # NaN fails every comparison, so it is refused too
        raise DomainError(f"tolerance must be a number >= 0, got {tolerance!r}")
    try:
        seq = decode_hex(entry.hex, entry.n)
    except (ParseError, DomainError) as exc:
        return VerificationReport(entry, detail=str(exc))
    e = energy(seq)
    computed = float(merit_factor_of(entry.n, e))
    claim_ok = 0 < entry.new_mf < math.inf
    rel = abs(computed - entry.new_mf) / entry.new_mf if claim_ok else None
    return VerificationReport(
        entry, energy=e, computed_mf=computed,
        match=claim_ok and rel <= tolerance, rel_error=rel, classification=classify(seq),
        detail="" if claim_ok else f"claimed merit factor must be a positive finite "
                                   f"number, got {entry.new_mf!r}",
    )


def verify_all(entries: Sequence[RecordEntry],
               tolerance: float = DEFAULT_TOLERANCE) -> Tuple[List[VerificationReport], dict]:
    """Verify every row; returns (reports, summary).

    summary: total, matched, failed (list of (n, class, detail)),
    match_fraction, passed (fraction within the failure budget).
    """
    reports = [verify_entry(e, tolerance) for e in entries]
    matched = sum(1 for r in reports if r.match)
    failed = [
        (r.entry.n, r.entry.class_expr, r.detail or f"rel_error={r.rel_error:.3e}")
        for r in reports
        if not r.match
    ]
    total = len(reports)
    summary = {
        "total": total,
        "matched": matched,
        "failed": failed,
        "match_fraction": matched / total if total else 0.0,
        "passed": total > 0 and (total - matched) <= FAILURE_BUDGET * total,
    }
    return reports, summary
