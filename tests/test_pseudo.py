import random

import pytest

from labskit.core import BinarySequence, energy, merit_factor, sidelobes
from labskit.errors import DomainError
from labskit.pseudo import (PROBE_EDITS, is_pseudo_skew_symmetric, probe,
                            pss_energy_decomposition, pss_sidelobe_check)
from labskit.skew import SkewHalf, expand
from labskit.symmetry import REVERSE, EtaOp, apply_eta

BARKER13 = BinarySequence.from_text("+++++--++-+-+")


def random_skew(rnd, lmax=40):
    l = rnd.randrange(1, lmax)
    return expand(SkewHalf(tuple(rnd.choice((-1, 1)) for _ in range(l + 1))))


def test_is_pseudo_skew_symmetric():
    assert is_pseudo_skew_symmetric(BinarySequence.from_elements([1, 1, -1, 1]))
    assert not is_pseudo_skew_symmetric(BinarySequence.from_elements([1, 1, -1]))
    assert not is_pseudo_skew_symmetric(BinarySequence.from_elements([1]))
    rnd = random.Random(31)
    for _ in range(50):
        b = random_skew(rnd)
        for sign in (1, -1):
            assert is_pseudo_skew_symmetric(
                BinarySequence.from_elements(b.elements + (sign,)))


def test_is_pseudo_skew_symmetric_matches_definition():
    def ref_is_skew(e):
        l = len(e) // 2
        return len(e) % 2 == 1 and all(e[l + i] == (-1) ** i * e[l - i]
                                       for i in range(1, l + 1))

    rnd = random.Random(36)
    seqs = [BinarySequence.from_elements(e) for e in ([1, 1, -1, 1], [1, 1, -1], [1])]
    for _ in range(100):
        b = random_skew(rnd)
        sign = rnd.choice((-1, 1))
        for e in (b.elements + (sign,), (sign,) + b.elements):
            seqs.append(BinarySequence.from_elements(e))
            # one flipped element
            i = rnd.randrange(len(e))
            seqs.append(BinarySequence.from_elements(e[:i] + (-e[i],) + e[i + 1 :]))
        n = rnd.randrange(1, 40)
        seqs.append(BinarySequence(rnd.getrandbits(n), n))
    for seq in seqs:
        e = seq.elements
        expected = len(e) % 2 == 0 and (ref_is_skew(e[:-1]) or ref_is_skew(e[1:]))
        assert is_pseudo_skew_symmetric(seq) == expected, e


#: The six boundary edits a skew-symmetric base can be probed with.
PROBE_OPS = [EtaOp(i) for i in range(1, 7)]


def test_append_probe_example():
    b = BinarySequence.from_elements([1, 1, -1])
    plus = probe(b, EtaOp(1))
    assert (plus.delta_sum, plus.energy) == (-1, 2)
    assert energy(BinarySequence.from_elements([1, 1, -1, 1])) == 2
    minus = probe(b, EtaOp(2))
    assert (minus.delta_sum, minus.energy) == (-1, 6)
    assert energy(BinarySequence.from_elements([1, 1, -1, -1])) == 6


def test_truncate_probe_example():
    b = BinarySequence.from_elements([1, 1, -1])
    last = probe(b, EtaOp(4))
    assert (last.delta_sum, last.energy) == (0, 1)
    assert energy(BinarySequence.from_elements([1, 1])) == 1


def test_probes_match_recompute():
    rnd = random.Random(32)
    for b in [BARKER13] + [random_skew(rnd) for _ in range(300)]:
        e0 = energy(b)
        for op in PROBE_OPS:
            p = probe(b, op)
            seq = apply_eta(op, b)
            assert p.op == op
            assert p.energy == energy(seq)
            assert p.length == seq.n
            assert p.merit_factor == merit_factor(seq)
            assert is_pseudo_skew_symmetric(seq)
            # the element x that the edit adds (strips) moves the energy by
            # n + 2*x*delta_sum (n - 3 + 2*x*delta_sum)
            x = op.length_change * (sum(seq.elements) - sum(b.elements))
            floor = b.n if op.length_change > 0 else b.n - 3
            assert p.energy - e0 == floor + 2 * x * p.delta_sum
        # PROBE_EDITS names the edits in the order the walk scores them
        assert [probe(b, op).op for op in PROBE_EDITS] == list(PROBE_EDITS)


def test_non_skew_inputs_rejected():
    not_skew = BinarySequence.from_elements([1, 1, 1])
    for op in PROBE_OPS:
        with pytest.raises(DomainError, match="not skew-symmetric"):
            probe(not_skew, op)
    with pytest.raises(DomainError, match="strip-both"):
        probe(BinarySequence.from_elements([1, 1, -1]), EtaOp(0))
    one = BinarySequence.from_elements([1])
    for op in (EtaOp(3), EtaOp(4)):
        with pytest.raises(DomainError, match="needs length"):
            probe(one, op)
    with pytest.raises(DomainError):
        pss_sidelobe_check(not_skew)


def test_dropping_either_end_of_skew_is_pss():
    rnd = random.Random(34)
    for _ in range(100):
        b = random_skew(rnd)
        if b.n < 3:
            continue
        first_dropped = BinarySequence.from_elements(b.elements[1:])
        last_dropped = BinarySequence.from_elements(b.elements[:-1])
        assert is_pseudo_skew_symmetric(first_dropped)
        assert is_pseudo_skew_symmetric(last_dropped)


def test_pss_sidelobes_alternate():
    p = BinarySequence.from_elements([1, 1, -1, 1])
    assert sidelobes(p) == (1, 0, -1)
    assert pss_sidelobe_check(p)
    q = BinarySequence.from_elements([1, 1, -1, -1])
    assert sidelobes(q) == (-1, -2, 1)
    assert pss_sidelobe_check(q)
    rnd = random.Random(35)
    for _ in range(200):
        b = random_skew(rnd)
        p = BinarySequence.from_elements(b.elements + (rnd.choice((-1, 1)),))
        assert pss_sidelobe_check(p)


def test_energy_decomposition():
    rnd = random.Random(36)
    for _ in range(100):
        b = random_skew(rnd)
        p = BinarySequence.from_elements(b.elements + (rnd.choice((-1, 1)),))
        floor, odd = pss_energy_decomposition(p)
        assert floor == p.n // 2
        assert floor + odd == energy(p)
    with pytest.raises(DomainError, match="pseudo-skew-symmetric"):
        pss_energy_decomposition(BinarySequence.from_elements([1, 1, 1, 1]))


def test_truncate_reversal_symmetry():
    rnd = random.Random(37)
    for _ in range(100):
        b = random_skew(rnd)
        if b.n < 3:
            continue
        rev = REVERSE.apply(b)
        assert probe(b, EtaOp(3)).energy == probe(rev, EtaOp(4)).energy
        for prepend, append in ((5, 1), (6, 2)):
            assert probe(b, EtaOp(prepend)).energy == probe(rev, EtaOp(append)).energy
