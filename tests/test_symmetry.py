import random

import pytest

from labskit.core import BinarySequence, energy
from labskit.errors import DomainError, ParseError
from labskit.reference import ref_autocorrelation
from labskit.symmetry import (ALTERNATE, COMPLEMENT, DELTA_GROUP, IDENTITY,
                              REVERSE, EtaOp, apply_eta, apply_eta_chain,
                              canonical_form, orbit, parse_class_expression)


def random_binary(rnd, n):
    return BinarySequence.from_elements(rnd.choice((-1, 1)) for _ in range(n))


def test_delta_examples():
    s = BinarySequence.from_elements([1, 1, -1])
    assert REVERSE.apply(s).elements == (-1, 1, 1)
    assert COMPLEMENT.apply(s).elements == (-1, -1, 1)
    t = BinarySequence.from_elements([1, 1, -1, 1])
    alt = ALTERNATE.apply(t)
    assert alt.elements == (-1, 1, 1, 1)
    assert energy(alt) == energy(t) == 2
    assert IDENTITY.apply(s) == s


def test_group_has_eight_distinct_transforms():
    s = BinarySequence.from_elements([1, 1, -1, 1, 1, -1, -1])
    images = {op.apply(s) for op in DELTA_GROUP}
    assert len(DELTA_GROUP) == 8
    assert len(images) == 8


def test_group_closed_under_generators():
    rnd = random.Random(11)
    gens = (REVERSE, COMPLEMENT, ALTERNATE)
    for _ in range(30):
        n = rnd.randrange(2, 16)
        s = random_binary(rnd, n)
        images = orbit(s)
        for img in list(images):
            for g in gens:
                assert g.apply(img) in images


def test_energy_invariance_all_ops():
    rnd = random.Random(12)
    for _ in range(100):
        n = rnd.randrange(2, 40)
        s = random_binary(rnd, n)
        e = energy(s)
        for op in DELTA_GROUP:
            assert energy(op.apply(s)) == e


def test_alternating_complement_flips_odd_correlations():
    rnd = random.Random(13)
    for _ in range(50):
        n = rnd.randrange(2, 30)
        s = random_binary(rnd, n)
        alt = ALTERNATE.apply(s)
        for u in range(1, n):
            assert ref_autocorrelation(alt.elements, u) == \
                (-1) ** u * ref_autocorrelation(s.elements, u)


def test_canonical_form_properties():
    rnd = random.Random(14)
    for _ in range(60):
        n = rnd.randrange(2, 14)
        s = random_binary(rnd, n)
        canon = canonical_form(s)
        assert canonical_form(canon) == canon
        for op in DELTA_GROUP:
            assert canonical_form(op.apply(s)) == canon
    s = BinarySequence.from_elements([1, 1, -1])
    assert canonical_form(s) == canonical_form(REVERSE.apply(s))


def test_canonical_class_count_length_six():
    seen = set()
    for bits in range(64):
        seen.add(canonical_form(BinarySequence(bits, 6)))
    assert len(seen) == 10


def test_orbit_size_divides_eight():
    rnd = random.Random(15)
    for _ in range(80):
        n = rnd.randrange(2, 12)
        assert 8 % len(orbit(random_binary(rnd, n))) == 0


def test_eta_examples():
    assert apply_eta(EtaOp(1), BinarySequence.from_elements([1, -1])).elements == (1, -1, 1)
    assert apply_eta(EtaOp(0), BinarySequence.from_elements([1, 1, -1, 1])).elements == (1, -1)
    assert apply_eta(EtaOp(6), BinarySequence.from_elements([1])).elements == (-1, 1)
    assert apply_eta(EtaOp(5), BinarySequence.from_elements([-1])).elements == (1, -1)
    assert apply_eta(EtaOp(2), BinarySequence.from_elements([1])).elements == (1, -1)
    assert apply_eta(EtaOp(3), BinarySequence.from_elements([1, -1, 1])).elements == (-1, 1)
    assert apply_eta(EtaOp(4), BinarySequence.from_elements([1, -1, 1])).elements == (1, -1)


def test_eta_length_changes():
    rnd = random.Random(16)
    for _ in range(50):
        n = rnd.randrange(3, 20)
        s = random_binary(rnd, n)
        for idx in range(7):
            op = EtaOp(idx)
            assert apply_eta(op, s).n == n + op.length_change


def test_eta_underlength_errors():
    one = BinarySequence.from_elements([1])
    two = BinarySequence.from_elements([1, -1])
    with pytest.raises(DomainError):
        apply_eta(EtaOp(0), two)
    with pytest.raises(DomainError):
        apply_eta(EtaOp(3), one)
    with pytest.raises(DomainError):
        apply_eta(EtaOp(4), one)
    with pytest.raises(DomainError):
        EtaOp(7)


#: eta index -> (element-tuple edit, shortest length it accepts)
REFERENCE_ETA = {
    0: (lambda e: e[1:-1], 3),
    1: (lambda e: e + (1,), 1),
    2: (lambda e: e + (-1,), 1),
    3: (lambda e: e[1:], 2),
    4: (lambda e: e[:-1], 2),
    5: (lambda e: (1,) + e, 1),
    6: (lambda e: (-1,) + e, 1),
}


def test_eta_matches_element_edits():
    rnd = random.Random(17)
    for n in range(1, 25):
        for s in [random_binary(rnd, n) for _ in range(10)] + [BinarySequence(0, n)]:
            for idx, (edit, shortest) in REFERENCE_ETA.items():
                op = EtaOp(idx)
                if n < shortest:
                    with pytest.raises(DomainError):
                        apply_eta(op, s)
                    continue
                out = apply_eta(op, s)
                assert out.elements == edit(s.elements)
                assert out.n == n + op.length_change


def test_eta_chain():
    s = BinarySequence.from_elements([1, -1])
    out = apply_eta_chain(s, [EtaOp(1), EtaOp(5)])
    assert out.elements == (1, 1, -1, 1)


def test_parse_class_expression():
    expr = parse_class_expression("B_228 . n1 . n5")
    assert expr.base == "B_228"
    assert tuple(op.index for op in expr.etas) == (1, 5)
    expr = parse_class_expression("Omega_173 . n4")
    assert expr.base == "Omega_173"
    assert tuple(op.index for op in expr.etas) == (4,)
    expr = parse_class_expression("B_313^24,11,9,4")
    assert expr.base == "B_313^24,11,9,4"
    assert expr.etas == ()
    assert str(parse_class_expression("B_1 . n0")) == "B_1 . n0"


@pytest.mark.parametrize("bad", ["", "  ", "B_1 . n7", "B_1 . x2", ". n1", "B 2 . n1"])
def test_parse_class_expression_errors(bad):
    with pytest.raises(ParseError):
        parse_class_expression(bad)
