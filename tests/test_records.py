import math
import random

import pytest

from labskit.core import BinarySequence, energy
from labskit.errors import DomainError, ParseError
from labskit.records import (RecordEntry, classify, decode_hex, encode_hex,
                             load_dataset, verify_all, verify_entry)
from labskit.symmetry import COMPLEMENT


def test_decode_examples():
    assert decode_hex("b", 4).elements == (1, -1, 1, 1)
    assert decode_hex("b", 6).elements == (-1, -1, 1, -1, 1, 1)
    assert decode_hex(" b ", 4) == decode_hex("b", 4)
    assert decode_hex("1f 35", 13) == BinarySequence.from_text("+++++--++-+-+")


def test_decode_errors():
    with pytest.raises(ParseError):
        decode_hex("xyz", 8)
    with pytest.raises(ParseError):
        decode_hex("", 8)
    with pytest.raises(DomainError):
        decode_hex("b", 3)  # 4 significant bits


def test_encode_examples():
    assert encode_hex(BinarySequence.from_elements([1, -1, 1, 1])) == "b"
    assert encode_hex(BinarySequence.from_elements([-1] * 8)) == "0"


def test_codec_roundtrip():
    rnd = random.Random(61)
    for _ in range(10_000):
        n = rnd.randrange(2, 600)
        seq = BinarySequence(rnd.getrandbits(n), n)
        assert decode_hex(encode_hex(seq), n) == seq


def test_classify():
    assert classify(BinarySequence.from_text("+++++--++-+-+")) == "skew-symmetric"
    assert classify(BinarySequence.from_elements([1, 1, -1, 1])) == "pseudo-skew-symmetric"
    assert classify(BinarySequence.from_elements([1, 1, 1, 1])) == "neither"


def test_bundled_dataset_loads():
    entries = load_dataset()
    assert len(entries) >= 300
    assert all(int(e.hex, 16).bit_length() <= e.n for e in entries)
    assert all(e.new_mf > 0 for e in entries)
    lengths = {e.n for e in entries}
    for n in (172, 228, 573, 1006, 1007, 1008, 1009, 1010):
        assert n in lengths


def test_dataset_parse_errors(tmp_path):
    bad = tmp_path / "bad.psv"
    bad.write_text("wrong|header\n")
    with pytest.raises(ParseError):
        load_dataset(str(bad))
    with pytest.raises(FileNotFoundError):
        load_dataset(str(tmp_path / "missing.psv"))


def _entry(entries, n, expr=None):
    rows = [e for e in entries if e.n == n and (expr is None or e.class_expr == expr)]
    assert rows, (n, expr)
    return rows[0]


def test_required_rows_verify_exactly():
    entries = load_dataset()
    e172 = _entry(entries, 172)
    r = verify_entry(e172)
    assert r.match and r.energy == 1634
    assert r.computed_mf == pytest.approx(9.052631578947368, rel=1e-12)
    assert r.classification == "pseudo-skew-symmetric"
    for n, claimed, cls in [
        (573, 6.82937432399, "skew-symmetric"),
        (1009, 6.41690827959, "skew-symmetric"),
        (1006, 6.35677047348, "pseudo-skew-symmetric"),
    ]:
        r = verify_entry(_entry(entries, n))
        assert r.match and r.classification == cls
        assert abs(r.computed_mf - claimed) / claimed <= 1e-9


def test_verify_all_bundled():
    entries = load_dataset()
    reports, summary = verify_all(entries)
    assert summary["total"] == len(entries)
    assert summary["match_fraction"] >= 0.95
    assert summary["passed"]


def test_verification_is_polarity_insensitive():
    entries = load_dataset()
    rnd = random.Random(62)
    for e in rnd.sample(entries, 12):
        seq = decode_hex(e.hex, e.n)
        flipped = COMPLEMENT.apply(seq)
        assert energy(flipped) == energy(seq)


def test_eta_derived_rows_classify_as_pss():
    # one appending/stripping edit away from a skew-symmetric base -> PSS;
    # bases named by a partition superscript or an Omega label are skew rows,
    # bare B_nnn labels may reference other derived rows and are skipped
    from labskit.symmetry import parse_class_expression
    entries = load_dataset()
    checked = 0
    for e in entries:
        if e.n % 2 == 1:
            continue
        expr = parse_class_expression(e.class_expr)
        if len(expr.etas) != 1 or expr.etas[0].index not in (1, 2, 4, 5, 6):
            continue
        if "^" not in expr.base and not expr.base.startswith("Omega"):
            continue
        r = verify_entry(e)
        if r.match:
            assert r.classification == "pseudo-skew-symmetric", e
            checked += 1
    assert checked >= 20


def test_bad_row_reported_not_fatal():
    entries = load_dataset()
    broken = entries[0].__class__(
        n=10, class_expr="B_10", hex="fff", old_mf=None, new_mf=5.0,
        source_table="IV",
    )
    reports, summary = verify_all([broken, entries[0]])
    assert summary["total"] == 2
    assert summary["matched"] == 1
    assert not reports[0].match and not reports[0].length_ok
    assert reports[0].detail


@pytest.mark.parametrize("claim", [0.0, -14.08, math.nan], ids=["zero", "negative", "nan"])
def test_non_positive_claim_is_a_failed_match(claim):
    entry = RecordEntry(n=13, class_expr="B_13", hex="1f35", old_mf=None,
                        new_mf=claim, source_table="I")
    report = verify_entry(entry)
    assert not report.match and report.rel_error is None
    assert report.energy == 6 and report.length_ok
    assert "positive finite number" in report.detail
    _, summary = verify_all([entry])
    assert summary["matched"] == 0 and summary["failed"][0][2] == report.detail


@pytest.mark.parametrize("tolerance", [math.nan, -1.0], ids=["nan", "negative"])
def test_bad_tolerance_is_domain_error(tolerance):
    entry = RecordEntry(n=13, class_expr="B_13", hex="1f35", old_mf=None,
                        new_mf=169 / 12, source_table="I")
    with pytest.raises(DomainError, match="tolerance"):
        verify_entry(entry, tolerance)
    with pytest.raises(DomainError, match="tolerance"):
        verify_all([entry], tolerance)
    assert verify_entry(entry, 0.0).match  # 0 is a valid tolerance
