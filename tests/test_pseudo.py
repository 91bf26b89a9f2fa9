import random

import pytest

from labskit.core import BinarySequence, energy, sidelobes
from labskit.errors import DomainError
from labskit.pseudo import (PROBE_EDITS, append_delta,
                            is_pseudo_skew_symmetric, materialize, probe_neighbors,
                            pss_energy_decomposition, pss_sidelobe_check,
                            truncate_delta)
from labskit.skew import SkewHalf, expand
from labskit.symmetry import REVERSE, apply_delta, apply_eta

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


def test_append_probe_example():
    b = BinarySequence.from_elements([1, 1, -1])
    plus = append_delta(b, 1)
    assert (plus.delta_sum, plus.energy) == (-1, 2)
    assert energy(BinarySequence.from_elements([1, 1, -1, 1])) == 2
    minus = append_delta(b, -1)
    assert (minus.delta_sum, minus.energy) == (-1, 6)
    assert energy(BinarySequence.from_elements([1, 1, -1, -1])) == 6


def test_truncate_probe_example():
    b = BinarySequence.from_elements([1, 1, -1])
    probe = truncate_delta(b, "last")
    assert (probe.delta_sum, probe.energy) == (0, 1)
    assert energy(BinarySequence.from_elements([1, 1])) == 1


def test_truncate_barker13_both_ends():
    for end in ("last", "first"):
        probe = truncate_delta(BARKER13, end)
        assert probe.energy == energy(materialize(BARKER13, probe))


def test_probes_match_recompute():
    rnd = random.Random(32)
    for _ in range(300):
        b = random_skew(rnd)
        for probe in probe_neighbors(b):
            seq = materialize(b, probe)
            assert probe.energy == energy(seq)
            assert seq.n == probe.length
            assert is_pseudo_skew_symmetric(seq)
            assert probe.merit_factor.denominator > 0


def test_materialize_is_the_element_edit():
    rnd = random.Random(33)
    for _ in range(50):
        b = random_skew(rnd)
        e = b.elements
        for sign in (1, -1):
            assert materialize(b, append_delta(b, sign, "last")).elements == e + (sign,)
            assert materialize(b, append_delta(b, sign, "first")).elements == (sign,) + e
        assert materialize(b, truncate_delta(b, "last")).elements == e[:-1]
        assert materialize(b, truncate_delta(b, "first")).elements == e[1:]
        # PROBE_EDITS names the edits in probe_neighbors order
        assert [p.op for p in probe_neighbors(b)] == list(PROBE_EDITS)
        assert [materialize(b, p) for p in probe_neighbors(b)] == \
            [apply_eta(op, b) for op in PROBE_EDITS]


def test_append_parity_identity():
    # appending changes energy by n plus an even correction 2*b*delta
    rnd = random.Random(33)
    for _ in range(100):
        b = random_skew(rnd)
        e0 = energy(b)
        for sign in (1, -1):
            probe = append_delta(b, sign)
            diff = probe.energy - e0 - b.n
            assert diff % 2 == 0
            assert diff == 2 * sign * probe.delta_sum


def test_non_skew_inputs_rejected():
    not_skew = BinarySequence.from_elements([1, 1, 1])
    with pytest.raises(DomainError):
        append_delta(not_skew, 1)
    with pytest.raises(DomainError):
        truncate_delta(not_skew, "last")
    with pytest.raises(DomainError):
        append_delta(BinarySequence.from_elements([1, 1, -1]), 0)
    with pytest.raises(DomainError):
        truncate_delta(BinarySequence.from_elements([1, 1, -1]), "middle")
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
    assert sidelobes(p).values == (1, 0, -1)
    assert pss_sidelobe_check(p)
    q = BinarySequence.from_elements([1, 1, -1, -1])
    assert sidelobes(q).values == (-1, -2, 1)
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
        rev = apply_delta(REVERSE, b)
        assert truncate_delta(b, "first").energy == truncate_delta(rev, "last").energy
        assert append_delta(b, 1, end="first").energy == append_delta(rev, 1).energy
