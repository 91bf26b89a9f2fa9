"""Differential tests of the vectorised walk step against loop and
reference implementations, over random odd lengths 3..151 (the
neighbour scan up to 2001)."""

from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from labskit.pseudo import boundary_sums, probe, probe_energies, probe_table
from labskit.reference import ref_energy, ref_flip_deltas
from labskit.skew import SkewHalf, SkewSearchState, expand
from labskit.solver import (POLICIES, POLICY_STRICT_DESCENT, hash_half_bits,
                            pick_better_neighbor)
from labskit.symmetry import EtaOp, apply_eta


@st.composite
def skew_halves(draw, max_l=75, min_l=1):
    l = draw(st.integers(min_l, max_l))
    bits = draw(st.integers(0, (1 << (l + 1)) - 1))
    return SkewHalf(tuple(1 if bits >> i & 1 else -1 for i in range(l + 1)))


def flipped(elements, q):
    out = list(elements)
    n = len(out)
    out[q] = -out[q]
    if q != n // 2:
        out[n - 1 - q] = -out[n - 1 - q]
    return out


def check_scan(state, qs, ref_qs):
    """`flip_deltas` at every q of `qs` equals the one-row `ref_flip_deltas`,
    and full recomputation at each of `ref_qs`."""
    deltas = dict(zip(qs, state.flip_deltas()[qs].tolist()))
    elements = [int(x) for x in state.e]
    one_row = ref_flip_deltas(elements)
    assert deltas == {q: one_row[q] for q in qs}
    assert state.energy == ref_energy(elements)
    for q in ref_qs:
        assert deltas[q] == ref_energy(flipped(elements, q)) - state.energy


@pytest.mark.parametrize("n", range(1, 16, 2))
def test_ref_flip_deltas_match_recompute_for_every_half(n):
    for half in product((1, -1), repeat=n // 2 + 1):
        elements = expand(SkewHalf(half)).elements
        before = ref_energy(elements)
        assert ref_flip_deltas(elements) == [ref_energy(flipped(elements, q)) - before
                                             for q in range(n // 2 + 1)]


@settings(max_examples=60, deadline=None)
@given(half=skew_halves(max_l=100))
def test_ref_flip_deltas_match_recompute_up_to_201(half):
    elements = expand(half).elements
    before = ref_energy(elements)
    assert ref_flip_deltas(elements) == [ref_energy(flipped(elements, q)) - before
                                         for q in range(half.l + 1)]


def edge_rows(l, qs):
    """The scanned rows among the centre q = l and the first row whose
    mirror term pairs with an in-range b_{q-u} (3q >= n-1), and the row before it."""
    first = -(-2 * l // 3)
    return sorted({l, first, first - 1} & set(qs))


def check_drawn_scan(half, data):
    """Scan a drawn free range, in drawn order, after up to 3 drawn flips."""
    state = SkewSearchState(half)
    for q in data.draw(st.lists(st.integers(0, state.l), max_size=3)):
        state.apply_flip(q)  # the scan reads buffers that apply_flip keeps in step
    k = data.draw(st.integers(0, state.l))
    qs = data.draw(st.permutations(range(k, state.l + 1)))
    ref_qs = edge_rows(state.l, qs) + data.draw(st.lists(st.sampled_from(qs), max_size=1))
    check_scan(state, qs, ref_qs)


@settings(max_examples=150, deadline=None)
@given(half=skew_halves(), data=st.data())
def test_flip_deltas_match_single_and_reference(half, data):
    check_drawn_scan(half, data)


@settings(max_examples=40, deadline=None)
@given(half=skew_halves(min_l=76, max_l=1000), data=st.data())
def test_flip_deltas_match_at_long_lengths(half, data):
    check_drawn_scan(half, data)


#: flips of the walk in `test_flip_deltas_at_fixed_lengths`
WALK_FLIPS = 60


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 21, 101, 201, 401, 1001, 2001])
def test_flip_deltas_at_fixed_lengths(n):
    """A scan of a drawn range in drawn order, then a walk of random flips
    with the centre among them: after each flip, the scan of the whole
    half against the one-row form and the reference, and at the end the
    rows the state kept in step against a fresh build."""
    rng = np.random.default_rng(n)
    l = n // 2
    state = SkewSearchState(SkewHalf(tuple(int(x) for x in rng.choice((-1, 1), l + 1))))
    qs = rng.permutation(np.arange(rng.integers(0, l + 1), l + 1)).tolist()
    check_scan(state, qs, edge_rows(l, qs) + qs[:1])
    flips = rng.integers(0, l + 1, WALK_FLIPS)
    flips[rng.integers(0, WALK_FLIPS, 3)] = l
    every = list(range(l + 1))
    for q in flips.tolist():
        state.apply_flip(q)
        check_scan(state, every, edge_rows(l, every))
    fresh = SkewSearchState(state.half())
    fresh.flip_deltas()  # builds its rows from scratch
    for rows in ("_a", "_block", "_k", "_weights"):
        np.testing.assert_array_equal(getattr(state, rows), getattr(fresh, rows))


@settings(max_examples=150, deadline=None)
@given(half=skew_halves())
def test_folded_probes_match_probes_and_reference(half):
    seq = expand(half)
    state = SkewSearchState(half)
    a, d = boundary_sums(state.c, state.e)
    sign = (-1) ** half.l  # b_{n-1} = sign * b_0 under the skew rule
    probes = [probe(seq, EtaOp(i)) for i in range(1, 7)]
    assert [p.delta_sum for p in probes] == [a, a, d, sign * d, -sign * a, -sign * a]
    deltas, energies = probe_energies(state.c, state.e, state.energy)
    for p in probes:
        assert p.energy == ref_energy(apply_eta(p.op, seq).elements)
        assert (deltas[p.op.index], energies[p.op.index]) == (p.delta_sum, p.energy)
    assert energies[3] == energies[4]  # dropping either end costs the same


@st.composite
def halves_and_flips(draw):
    """A half of length n = 3..99 and up to 6 drawn flips, then the centre."""
    half = draw(skew_halves(max_l=49))
    return half, draw(st.lists(st.integers(0, half.l), max_size=6)) + [half.l]


#: one case each of l even and l odd, every position flipped
PARITY_CASES = ((SkewHalf((1, -1, 1)), [0, 1, 2]), (SkewHalf((1, 1, -1, -1)), [0, 1, 2, 3]))


@settings(max_examples=100, deadline=None)
@given(case=halves_and_flips())
@example(case=PARITY_CASES[0])
@example(case=PARITY_CASES[1])
def test_boundary_sums_from_rows_match_dot_form_and_reference(case):
    """After every flip, the (a, d) the state reads from A'_{-1} and A'_0
    equal the dot form, and the table of them gives every probe energy."""
    half, flips = case
    state = SkewSearchState(half)
    for q in flips:
        state.apply_flip(q)
        sums = state.boundary_sums()
        assert sums == boundary_sums(state.c, state.e)
        seq = state.sequence()
        energies = probe_table(state.n, state.energy, seq.elements[0], *sums)[1]
        for i in range(1, 7):
            assert energies[i] == ref_energy(apply_eta(EtaOp(i), seq).elements)
        # the walk compares n4 and skips n3 for this
        assert energies[3] == energies[4]


@settings(max_examples=100, deadline=None)
@given(case=halves_and_flips())
@example(case=PARITY_CASES[0])
@example(case=PARITY_CASES[1])
def test_apply_flip_without_scan_matches_scanned(case):
    """`apply_flip` takes its energy change from the last scan, or runs
    the scan itself when none is current: both give the same energy, C,
    K and A'."""
    half, flips = case
    scanned, unscanned = SkewSearchState(half), SkewSearchState(half)
    for q in flips:
        scanned.flip_deltas()
        scanned.apply_flip(q)
        unscanned.apply_flip(q)
        assert scanned.energy == unscanned.energy == ref_energy(scanned.sequence().elements)
        for rows in ("_c_mirror", "_k", "_a"):
            np.testing.assert_array_equal(getattr(scanned, rows), getattr(unscanned, rows))


def loop_pick(state, visited, policy, indices):
    """The per-candidate scan: best unvisited energy, first index on ties."""
    one_row = ref_flip_deltas(state.sequence().elements)
    best_q = best_energy = None
    for q in indices:
        if hash_half_bits(state.half_bits ^ (1 << q), state.l + 1) in visited:
            continue
        energy = state.energy + one_row[q]
        if best_energy is None or energy < best_energy:
            best_q, best_energy = q, energy
    if best_q is None:
        return None
    if policy == POLICY_STRICT_DESCENT and best_energy >= state.energy:
        return None
    return best_q


@settings(max_examples=200, deadline=None)
@given(half=skew_halves(max_l=40), data=st.data(), policy=st.sampled_from(POLICIES))
def test_pick_matches_loop_and_skips_visited(half, data, policy):
    state = SkewSearchState(half)
    k = data.draw(st.integers(0, state.l))
    free = range(k, state.l + 1)
    seen = data.draw(st.sets(st.sampled_from(list(free))))
    visited = {hash_half_bits(state.half_bits ^ (1 << q), state.l + 1) for q in seen}
    q = pick_better_neighbor(state, visited, policy, k)
    assert q == loop_pick(state, visited, policy, free)
    if q is not None:
        assert q not in seen
        one_row = ref_flip_deltas(state.sequence().elements)
        deltas = {p: one_row[p] for p in free if p not in seen}
        assert q == min(p for p in deltas if deltas[p] == min(deltas.values()))
        if policy == POLICY_STRICT_DESCENT:
            assert deltas[q] < 0


def test_pick_ties_resolve_to_smallest_index():
    state = SkewSearchState(SkewHalf((1,) * 5))
    assert state.flip_deltas().tolist() == [-8, 0, -8, 0, -16]
    visited = {hash_half_bits(state.half_bits ^ (1 << 4), state.l + 1)}
    # with q=4 visited, q=0 and q=2 tie for the best change
    for policy in POLICIES:
        assert pick_better_neighbor(state, visited, policy) == 0
        assert pick_better_neighbor(state, visited, policy, first=1) == 2


@st.composite
def halves_with_first(draw):
    """A half and a drawn first free position in 0..l+1 (l+1: none free)."""
    half = draw(skew_halves(max_l=40))
    return half, draw(st.integers(0, half.l + 1))


#: the tied all-ones half of `test_pick_ties_resolve_to_smallest_index`
TIED_HALF = SkewHalf((1,) * 5)


@settings(max_examples=100, deadline=None)
@given(case=halves_with_first())
@example(case=(TIED_HALF, 0))
@example(case=(TIED_HALF, 1))
@example(case=(TIED_HALF, 5))
def test_pick_argmin_tries_match_loop_over_visited_prefixes(case):
    """With the first m neighbours of the (delta, index) order over
    `first`..l visited, for every m, the pick equals `loop_pick` under
    both policies, and m = l+1-first visits every neighbour.  The pick
    does not mutate the state."""
    half, first = case
    state = SkewSearchState(half)
    qs = range(first, state.l + 1)
    deltas = state.flip_deltas()
    one_row = ref_flip_deltas(state.sequence().elements)
    order = sorted(qs, key=lambda q: (one_row[q], q))
    keys = [hash_half_bits(state.half_bits ^ (1 << q), state.l + 1) for q in order]
    for m in range(len(qs) + 1):
        visited = set(keys[:m])
        for policy in POLICIES:
            got = pick_better_neighbor(state, visited, policy, first)
            assert got == loop_pick(state, visited, policy, qs)
            if m == len(qs):
                assert got is None
        assert visited == set(keys[:m])
    np.testing.assert_array_equal(state.flip_deltas(), deltas)


@settings(max_examples=100, deadline=None)
@given(half=skew_halves(max_l=40), data=st.data())
def test_pick_masks_a_private_copy_of_the_scores(half, data):
    """After a pick has masked visited neighbours, a flip at the best
    masked one still adds its exact energy change: the pick's masks stay
    out of the scores the state keeps for `apply_flip`."""
    state = SkewSearchState(half)
    one_row = ref_flip_deltas(state.sequence().elements)
    order = sorted(range(state.l + 1), key=lambda q: (one_row[q], q))
    m = data.draw(st.integers(1, state.l + 1))
    visited = {hash_half_bits(state.half_bits ^ (1 << q), state.l + 1) for q in order[:m]}
    pick_better_neighbor(state, visited, data.draw(st.sampled_from(POLICIES)))
    state.apply_flip(order[0])
    assert state.energy == ref_energy(state.sequence().elements)
