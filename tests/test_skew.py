import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from labskit import skew
from labskit.core import BinarySequence, energy, sidelobes
from labskit.errors import DomainError
from labskit.reference import ref_energy
from labskit.skew import (SkewHalf, SkewSearchState, exhaustive_best, expand,
                          expand_rows, is_skew_symmetric)
from labskit.solver import SolverConfig, run


def random_half(rnd, l):
    return SkewHalf(tuple(rnd.choice((-1, 1)) for _ in range(l + 1)))


def ref_expand(half):
    """b_{l+i} = (-1)^i * b_{l-i}, one element at a time."""
    l = len(half) - 1
    return [int(x) for x in half] + [(-1) ** i * int(half[l - i]) for i in range(1, l + 1)]


def ref_is_skew(elements):
    n = len(elements)
    if n % 2 == 0:
        return False
    l = n // 2
    return all(elements[l + i] == (-1) ** i * elements[l - i] for i in range(1, l + 1))


def test_expand_examples():
    assert expand(SkewHalf((1, 1))).elements == (1, 1, -1)
    # positions mirror with alternating sign: half (1,1,1) closes to Barker-5
    assert expand(SkewHalf((1, 1, 1))).elements == (1, 1, 1, -1, 1)
    assert expand(SkewHalf((1,))).elements == (1,)


def test_expand_injective():
    for l in range(0, 7):
        seen = set()
        for half in product((-1, 1), repeat=l + 1):
            seen.add(expand(SkewHalf(half)))
        assert len(seen) == 2 ** (l + 1)


def test_expansions_have_zero_odd_sidelobes():
    rnd = random.Random(21)
    for _ in range(300):
        l = rnd.randrange(1, 30)
        seq = expand(random_half(rnd, l))
        assert is_skew_symmetric(seq)
        arr = sidelobes(seq)
        assert all(arr[i] == 0 for i in range(1, len(arr), 2))


def test_expand_rows_matches_element_rule():
    rnd = np.random.default_rng(26)
    # a 2-D batch of binary halves, ternary halves with zeros, a 3-D
    # stack, and l = 0
    batches = [2 * rnd.integers(0, 2, size=(6, 9), dtype=np.int8) - 1,
               rnd.integers(-1, 2, size=(5, 12)),
               rnd.integers(-1, 2, size=(2, 3, 4)),
               np.array([[1], [-1], [0]])]
    for halves in batches:
        out = expand_rows(halves)
        assert out.dtype == halves.dtype
        assert out.shape == halves.shape[:-1] + (2 * halves.shape[-1] - 1,)
        for half, row in zip(halves.reshape(-1, halves.shape[-1]),
                             out.reshape(-1, out.shape[-1])):
            assert row.tolist() == ref_expand(half)
    assert expand_rows(np.array([1, 1, 1])).tolist() == [1, 1, 1, -1, 1]


def test_is_skew_symmetric():
    assert is_skew_symmetric(BinarySequence.from_elements([1, 1, -1]))
    assert not is_skew_symmetric(BinarySequence.from_elements([1, 1, 1]))
    assert not is_skew_symmetric(BinarySequence.from_elements([1, 1, -1, 1]))
    assert is_skew_symmetric(BinarySequence.from_text("+++++--++-+-+"))


def test_is_skew_symmetric_matches_definition():
    rnd = random.Random(27)
    seqs = [BinarySequence.from_text("+++++--++-+-+"), BinarySequence.from_elements([1])]
    for _ in range(200):
        n = rnd.randrange(1, 40)
        seqs.append(BinarySequence(rnd.getrandbits(n), n))
        skew_seq = expand(random_half(rnd, rnd.randrange(0, 20)))
        seqs.append(skew_seq)
        # one flipped element breaks the rule unless it is the centre
        flip = rnd.randrange(skew_seq.n)
        seqs.append(BinarySequence(skew_seq.bits ^ (1 << flip), skew_seq.n))
    for seq in seqs:
        assert is_skew_symmetric(seq) == ref_is_skew(seq.elements), seq.elements


def test_flip_delta_length_three():
    st = SkewSearchState(SkewHalf((1, 1)))
    assert st.energy == 1
    assert st.flip_delta(0) == 0  # pair flip lands on (-1,+1,+1), energy 1
    assert st.flip_delta(1) == 0  # center flip lands on (+1,-1,-1), energy 1


def test_flip_matches_recompute():
    rnd = random.Random(22)
    for _ in range(300):
        l = rnd.randrange(1, 50)
        st = SkewSearchState(random_half(rnd, l))
        q = rnd.randrange(0, l + 1)
        delta = st.flip_delta(q)
        before = st.energy
        st.apply_flip(q)
        seq = st.sequence()
        assert is_skew_symmetric(seq)
        assert st.energy == energy(seq)
        assert before + delta == st.energy


def test_apply_flip_is_involution():
    rnd = random.Random(23)
    st = SkewSearchState(random_half(rnd, 20))
    snapshot = (st.sequence(), st.energy, tuple(st.c))
    for q in (0, 7, 20):
        st.apply_flip(q)
        st.apply_flip(q)
    assert (st.sequence(), st.energy, tuple(st.c)) == snapshot


def test_state_sidelobes_stay_consistent():
    rnd = random.Random(24)
    st = SkewSearchState(random_half(rnd, 25))
    for _ in range(60):
        st.apply_flip(rnd.randrange(0, 26))
    recomputed = sidelobes(st.sequence())
    assert tuple(int(x) for x in st.c[:0:-1]) == recomputed
    assert st.energy == sum(v * v for v in recomputed)


def test_flip_index_range():
    st = SkewSearchState(SkewHalf((1, 1, -1)))
    before = (st.energy, st.sequence(), st.half_bits)
    with pytest.raises(DomainError):
        st.flip_delta(3)
    for q in (-1, 3):  # a refused flip leaves the state as it was
        with pytest.raises(DomainError):
            st.apply_flip(q)
    assert (st.energy, st.sequence(), st.half_bits) == before


def test_sequence_packs_the_elements():
    rnd = random.Random(27)
    for n in [*range(1, 42, 2), 1001]:
        st = SkewSearchState(random_half(rnd, n // 2))
        for q in (0, n // 2, rnd.randrange(n // 2 + 1)):
            st.apply_flip(q)
            assert st.sequence() == BinarySequence.from_elements(int(x) for x in st.e)


def test_state_roundtrip():
    half = SkewHalf((1, -1, -1, 1))
    st = SkewSearchState(half)
    assert st.half() == half
    assert SkewSearchState.from_sequence(st.sequence()).energy == st.energy
    with pytest.raises(DomainError):
        SkewSearchState.from_sequence(BinarySequence.from_elements([1, 1, 1]))


def test_exhaustive_small_optima():
    mf5, w5 = exhaustive_best(5)
    assert mf5 == Fraction(25, 4)
    assert energy(w5) == 2
    mf11, _ = exhaustive_best(11)
    assert mf11 == Fraction(121, 10)
    mf13, w13 = exhaustive_best(13)
    assert mf13 == Fraction(169, 12)
    assert energy(w13) == 6


def test_exhaustive_skew_variant():
    mf, witness = exhaustive_best(13, skew_only=True)
    assert mf == Fraction(169, 12)
    assert is_skew_symmetric(witness)
    # the skew optimum can never beat the full optimum
    for n in (5, 7, 9, 11, 13):
        assert exhaustive_best(n, skew_only=True)[0] <= exhaustive_best(n)[0]


def test_debug_verify_shadow_recompute():
    rnd = random.Random(25)
    st = SkewSearchState(random_half(rnd, 15))
    for q in (0, 5, 15, 5):
        st.apply_flip(q)
        st._verify()  # raises if the incremental update ever diverges
    assert st.energy == energy(st.sequence())


def test_debug_verify_walk_checks_correlations(monkeypatch):
    apply_flip = SkewSearchState.apply_flip

    def checked(self, q):
        apply_flip(self, q)
        self._verify()

    monkeypatch.setattr(SkewSearchState, "apply_flip", checked)
    config = SolverConfig(n=41, partition=(2, 1), t_inner=40, t_outer=2, seed=5)
    assert run(config).stats.flips > 40  # every flip re-derived and checked
    st = SkewSearchState(random_half(random.Random(26), 20))
    st._c_mirror[1] += 2  # a maintained correlation off by an update
    with pytest.raises(AssertionError, match="correlations diverged"):
        st.apply_flip(3)
    # a maintained scan row off by an update: K, A' or A'_{-1}
    for corrupt in (lambda st: st._k[7:8], lambda st: st._a[10:11], lambda st: st._a[0:1]):
        st = SkewSearchState(random_half(random.Random(26), 20))
        st.flip_deltas()  # builds the rows; from now on every flip checks them
        st.apply_flip(5)
        corrupt(st)[:] += 2
        with pytest.raises(AssertionError, match="scan rows diverged"):
            st.apply_flip(3)


@pytest.mark.parametrize("row", ["_w0", "_w3"])
def test_debug_verify_checks_weights_scores_and_elements(row):
    """A weight sign flipped through the view a flip updates, kept scores
    off by one, and elements that disagree with `half_bits` each raise."""
    st = SkewSearchState(random_half(random.Random(27), 20))
    st.flip_deltas()
    st.apply_flip(5)
    getattr(st, row)[7] *= -1  # column 7: the flip at 3 still adds the right energy
    st.apply_flip(3)
    with pytest.raises(AssertionError, match="scan weights diverged"):
        st._verify()
    st = SkewSearchState(random_half(random.Random(27), 20))
    st.flip_deltas()
    st._verify()  # a consistent state passes
    st._scores[4] += 1
    with pytest.raises(AssertionError, match="kept scores diverged"):
        st._verify()
    st = SkewSearchState(random_half(random.Random(27), 20))
    st.half_bits ^= 1 << 20
    with pytest.raises(AssertionError, match="elements diverged from half_bits"):
        st._verify()


def parity_class_rows(e):
    """P_q = sum_{j = q mod 2} b_j*b_{2q-j} for q = 0..l, from the
    self-convolution of each parity class of the sequence `e`."""
    l = len(e) // 2
    p = np.empty(l + 1)
    for r in (0, 1):
        m = (l + 2 - r) // 2  # the q = r, r+2, .. <= l
        p[r::2] = np.convolve(e[r::2], e[r::2])[: 2 * m : 2]
    return p


@strategies.composite
def halves_and_flips(draw):
    l = draw(strategies.integers(1, 49))  # n = 3..99
    elements = draw(strategies.lists(strategies.sampled_from((-1, 1)),
                                     min_size=l + 1, max_size=l + 1))
    flips = draw(strategies.lists(strategies.integers(0, l), max_size=6))
    return SkewHalf(tuple(elements)), flips + [l]  # the centre among them


@settings(max_examples=150, deadline=None)
@given(case=halves_and_flips())
@example(case=(SkewHalf((1, -1, 1)), [0, 1, 2]))  # l even
@example(case=(SkewHalf((1, 1, -1, -1)), [0, 1, 2, 3]))  # l odd
def test_c_change_and_p_follow_from_k(case):
    """After each flip, C's change at every even index of the mirror layout
    is s = b_q*b_p = (-1)^(l-q) (1 at the centre) times K's change, and 0
    at the odd ones; and P_q = (K_{2q} + (-1)^(l-q)*C_m)/2 at every state,
    with C and K recomputed and compared with the ones the state keeps."""
    half, flips = case
    l, n = half.l, half.full_length
    state = SkewSearchState(half)
    state.flip_deltas()  # from here on the state keeps K in step
    t = np.where((l - np.arange(l + 1)) % 2, -1, 1)
    c, k = np.correlate(state.e, state.e, "full"), np.convolve(state.e, state.e)
    for q in flips:
        p = (k[0:n:2] + t * c[0:n:2]) / 2  # K_{2q} and C_m at m = n-1-2q
        np.testing.assert_array_equal(p, parity_class_rows(state.e))
        state.apply_flip(q)
        c_new, k_new = np.correlate(state.e, state.e, "full"), np.convolve(state.e, state.e)
        dc, dk = c_new - c, k_new - k
        np.testing.assert_array_equal(dc[::2], (-1) ** (l - q) * dk[::2])
        assert not dc[1::2].any()
        np.testing.assert_array_equal(state._dc, dc)
        np.testing.assert_array_equal(state._k, k_new)
        c, k = c_new, k_new


def test_energy_past_float_precision_is_exact(monkeypatch):
    """A full energy sum passes 2^53 near MAX_LENGTH; it must stay exact.
    The correlations of such a length come from an FFT here, rounded to
    the integers they are, as the direct correlation would take minutes."""
    def fft_correlate(a, v, mode):
        size = 1 << (len(a) + len(v)).bit_length()  # no wrap-around
        lags = np.fft.irfft(np.fft.rfft(a, size) * np.conj(np.fft.rfft(v, size)), size)
        return np.rint(np.concatenate((lags[size - len(v) + 1 :], lags[: len(a)])))

    def no_convolve(*args, **kwargs):
        raise AssertionError("a fresh state builds no scan rows")

    monkeypatch.setattr(np, "correlate", fft_correlate)
    monkeypatch.setattr(np, "convolve", no_convolve)
    l = 499_999  # n = 999_999 <= MAX_LENGTH
    # the alternating half makes the skew tail constant: C_u ~ n - 2u.  Sums
    # of a multiple of 8 odd squares stay exact in float64 up to 2^56.
    st = SkewSearchState(SkewHalf(tuple((-1) ** (l - j) for j in range(l + 1))))
    assert st.energy > 2 ** 56
    assert st.energy == sum(x * x for x in st.c[1:].astype(np.int64).tolist())
    st._verify()  # the recompute sums exactly too


def test_exhaustive_tiny_lengths():
    mf2, w2 = exhaustive_best(2)
    assert mf2 == Fraction(2, 1) and w2.n == 2
    mf3, w3 = exhaustive_best(3, skew_only=True)
    assert mf3 == Fraction(9, 2)  # Barker-3, E=1
    assert is_skew_symmetric(w3)


@lru_cache(maxsize=None)
def brute_force_best(n, skew_only):
    """(mf, bits) over itertools.product and `ref_energy`: the smallest
    packed value among the minimum-energy sequences (b_0 = +1 for full)."""
    if skew_only:
        seqs = [ref_expand(half) for half in product((-1, 1), repeat=n // 2 + 1)]
    else:
        seqs = [[1, *rest] for rest in product((-1, 1), repeat=n - 1)]
    best = min((ref_energy(e), BinarySequence.from_elements(e).bits) for e in seqs)
    return Fraction(n * n, 2 * best[0]), best[1]


@pytest.mark.parametrize("block", [None, 7], ids=["default-block", "block-7"])
def test_exhaustive_witness_matches_brute_force(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(skew, "EXHAUSTIVE_BLOCK", block)
    cases = [(n, False) for n in range(2, 13)] + [(n, True) for n in range(3, 20, 2)]
    for n, skew_only in cases:
        mf, witness = exhaustive_best(n, skew_only=skew_only)
        assert (mf, witness.bits) == brute_force_best(n, skew_only), (n, skew_only)


def test_exhaustive_caps():
    with pytest.raises(DomainError):
        exhaustive_best(25)
    with pytest.raises(DomainError):
        exhaustive_best(33, skew_only=True)
    with pytest.raises(DomainError):
        exhaustive_best(12, skew_only=True)  # even length
    with pytest.raises(DomainError):
        exhaustive_best(1)


def test_half_bits_is_little_endian_packing():
    """`half_bits` feeds the visited keys, so its value is pinned: bit q
    set iff half element q is +1, fresh and after flips."""
    rnd = random.Random(23)
    for l in range(0, 301):
        st = SkewSearchState(random_half(rnd, l))
        for _ in range(3):
            elements = st.half().elements
            assert st.half_bits == sum(1 << q for q, e in enumerate(elements) if e == 1), l
            st.apply_flip(rnd.randrange(l + 1))
