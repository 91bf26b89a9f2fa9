import pickle
import random
import time

import numpy as np
import pytest

from labskit.core import (BinarySequence, TernarySequence, autocorrelation, energy,
                          lag_products, merit_factor, sidelobes)
from labskit.errors import DomainError, ParseError
from labskit.reference import ref_autocorrelation, ref_energy, ref_sidelobes
from labskit.skew import SkewHalf

BARKER13 = BinarySequence.from_text("+++++--++-+-+")


def random_binary(rnd, n):
    return BinarySequence.from_elements(rnd.choice((-1, 1)) for _ in range(n))


def test_autocorrelation_small():
    s = BinarySequence.from_elements([1, 1, -1])
    assert autocorrelation(s, 0) == 3
    assert autocorrelation(s, 1) == 0
    assert autocorrelation(s, 2) == -1


def test_autocorrelation_barker13():
    assert autocorrelation(BARKER13, 2) == 1
    for u in range(1, 13):
        c = autocorrelation(BARKER13, u)
        assert c == ref_autocorrelation(BARKER13.elements, u)
        assert abs(c) <= 1  # Barker property


def test_autocorrelation_shift_range():
    s = BinarySequence.from_elements([1, -1, 1])
    with pytest.raises(DomainError):
        autocorrelation(s, 3)
    with pytest.raises(DomainError):
        autocorrelation(s, -1)


def test_sidelobes_examples():
    assert sidelobes(BinarySequence.from_elements([1, 1, -1])) == (-1, 0)
    assert sidelobes(BinarySequence.from_elements([1, 1, 1, 1])) == (1, 2, 3)


def test_sidelobes_ternary_zeroed_middle():
    # length-21 ternary projection with a zeroed free region
    q = TernarySequence([1, -1, 1, 1, -1, -1] + [0] * 9 + [1, -1, -1, 1, 1, 1])
    assert sidelobes(q) == (1, 0, 1, 0, 1, 0, -5, 0, 3, 0,
                            -1, 0, 0, 0, 0, 0, 0, 0, -4, 0)
    assert energy(q) == 54


def test_sidelobes_need_length_two():
    with pytest.raises(DomainError):
        sidelobes(BinarySequence.from_elements([1]))


def test_energy_examples():
    assert energy(BinarySequence.from_elements([1, 1, -1])) == 1
    assert energy(BARKER13) == 6


def test_merit_factor_exact():
    from fractions import Fraction
    assert merit_factor(BARKER13) == Fraction(169, 12)
    assert float(merit_factor(BARKER13)) == pytest.approx(14.083333333333334)
    assert merit_factor(BinarySequence.from_elements([1, 1])) == 2
    assert energy(BARKER13) == 6
    assert merit_factor(BARKER13) == Fraction(13 * 13, 2 * energy(BARKER13))


def test_merit_factor_rejects_ternary():
    with pytest.raises(DomainError):
        merit_factor(TernarySequence([1, 0, -1]))


def test_energy_equals_sidelobe_squares():
    rnd = random.Random(101)
    for _ in range(50):
        n = rnd.randrange(2, 40)
        s = random_binary(rnd, n)
        assert energy(s) == sum(v * v for v in sidelobes(s))
    for _ in range(50):
        n = rnd.randrange(2, 40)
        t = TernarySequence([rnd.choice((-1, 0, 1)) for _ in range(n)])
        assert energy(t) == sum(v * v for v in sidelobes(t))


def test_correlation_bound_and_parity():
    rnd = random.Random(202)
    for _ in range(100):
        n = rnd.randrange(2, 50)
        s = random_binary(rnd, n)
        for u in range(1, n):
            c = autocorrelation(s, u)
            assert abs(c) <= n - u
            assert (c - (n - u)) % 2 == 0


def test_energy_at_least_one():
    rnd = random.Random(303)
    for _ in range(200):
        n = rnd.randrange(2, 30)
        assert energy(random_binary(rnd, n)) >= 1


def test_bitpacked_kernel_matches_reference_exhaustively():
    # every sequence up to n=12: packed XOR/popcount path == scalar sums
    for n in range(2, 13):
        for bits in range(1 << n):
            s = BinarySequence(bits, n)
            assert energy(s) == ref_energy(s.elements)
    s = BinarySequence(0b1011, 4)
    assert tuple(ref_sidelobes(s.elements)) == sidelobes(s)


def test_ref_energy_matches_per_lag_sums():
    rnd = random.Random(304)
    for n in [*range(0, 40), 101, 1001]:
        for _ in range(20 if n < 100 else 2):
            elements = [rnd.choice((-1, 0, 1)) for _ in range(n)]
            per_lag = sum(ref_autocorrelation(elements, u) ** 2 for u in range(1, n))
            assert ref_energy(elements) == per_lag
    assert ref_energy([1] * 1001) == sum(u * u for u in range(1, 1001))


def test_binary_validation():
    with pytest.raises(DomainError):
        BinarySequence.from_elements([1, 0, -1])
    for build in (lambda: SkewHalf((1, 0)), lambda: BinarySequence.from_elements([1, 0])):
        with pytest.raises(DomainError, match=r"^binary element must be -1 or \+1, got 0$"):
            build()
    with pytest.raises(DomainError):
        BinarySequence.from_elements([])
    with pytest.raises(DomainError):
        BinarySequence(0, 10**6 + 1)
    with pytest.raises(DomainError):
        BinarySequence(1 << 5, 5)  # value wider than n
    with pytest.raises(DomainError):
        TernarySequence([1, 2])


def test_from_text_forms():
    a = BinarySequence.from_text("+-++")
    b = BinarySequence.from_text("1,-1,1,1")
    c = BinarySequence.from_text("+1 -1 +1 +1")
    assert a == b == c
    with pytest.raises(ParseError):
        BinarySequence.from_text("")
    with pytest.raises(ParseError):
        BinarySequence.from_text("1,2,1")


def test_sequence_semantics():
    s = BinarySequence.from_elements([1, -1, 1, 1])
    assert len(s) == 4
    assert s[0] == 1 and s[1] == -1
    assert list(s) == [1, -1, 1, 1]
    assert s == BinarySequence(0b1011, 4)
    assert hash(s) == hash(BinarySequence(0b1011, 4))
    with pytest.raises(AttributeError):
        s.n = 5
    with pytest.raises(AttributeError):
        s.bits = 0
    with pytest.raises(IndexError):
        s[4]
    assert BinarySequence(5, 3) != BinarySequence(5, 4)
    for fresh in (BinarySequence(0b1011, 4), s):  # elements not yet cached, then cached
        copy = pickle.loads(pickle.dumps(fresh))
        assert copy == fresh and copy.elements == fresh.elements == (1, -1, 1, 1)


def test_elements_match_indexing():
    rnd = random.Random(5)
    for n in (1, 7, 8, 9, 63, 64, 65, 1001):
        for bits in (0, (1 << n) - 1, rnd.getrandbits(n)):
            seq = BinarySequence(bits, n)
            assert seq.elements == tuple(seq[i] for i in range(n)), (n, bits)


def test_elements_unpack_is_linear():
    # shifting each bit out of the packed int took ~14 s at this length
    n = 999_999
    seq = BinarySequence(random.Random(6).getrandbits(n), n)
    start = time.perf_counter()
    elements = seq.elements
    assert time.perf_counter() - start < 5.0
    assert len(elements) == n and elements[0] == seq[0] and elements[-1] == seq[n - 1]


def test_ternary_sequence_value_semantics():
    t = TernarySequence(x for x in [1, 0, -1])
    assert t.elements == (1, 0, -1) and len(t) == 3 and list(t) == [1, 0, -1]
    assert t == TernarySequence([1, 0, -1]) != TernarySequence([1, 0, 1])
    assert hash(t) == hash(TernarySequence((1, 0, -1)))
    assert pickle.loads(pickle.dumps(t)) == t
    with pytest.raises(AttributeError):
        t.elements = (1,)


@pytest.mark.parametrize("n", [24, 31], ids=["full-cap", "skew-cap"])
def test_lag_products_int8_holds_the_exhaustive_bound(n):
    # all-+1 columns give the largest sums, C_u = n-u, at the exhaustive caps
    x = np.ones((n, 3), dtype=np.int8)
    c = lag_products(x, x, range(1, n), np.empty((n - 1, 3), dtype=np.int8))
    assert c.tolist() == [[n - u] * 3 for u in range(1, n)]


def test_lag_products_matches_loop():
    """Every lag of -(k-1)..k-1, positive ones shifting y and negative
    ones x, against a per-column loop; with x = y the rows are C_u."""
    rnd = np.random.default_rng(7)
    for k in (1, 2, 5, 12):
        x = rnd.integers(-1, 2, size=(k, 9)).astype(np.int32)
        y = rnd.integers(-1, 2, size=(k, 9)).astype(np.int32)
        lags = range(1 - k, k)
        out = np.full((2 * k - 1, 9), 99, dtype=np.int32)
        assert lag_products(x, y, lags, out) is out
        for i, m in enumerate(lags):
            for b in range(9):
                want = sum(int(x[j, b]) * int(y[j + m, b]) for j in range(k) if 0 <= j + m < k)
                assert out[i, b] == want, (k, m, b)
        c = lag_products(x, x, range(1, k), np.empty((k - 1, 9), dtype=np.int32))
        for b in range(9):
            seq = TernarySequence(x[:, b].tolist())
            assert c[:, b].tolist() == [autocorrelation(seq, u) for u in range(1, k)]
