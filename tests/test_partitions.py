import random
import subprocess
import sys
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labskit import partitions
from labskit.core import MAX_LENGTH, BinarySequence, energy, lag_products, sidelobes
from labskit.errors import DomainError
from labskit.partitions import (PARTITION_COUNTS, best_partition,
                                enumerate_partitions, format_potential_table,
                                n_star, potential, potential_sequence,
                                project_partition, restriction_class_size,
                                sample_member, scan_potentials,
                                symmetry_class_count)
from labskit.reference import ref_partitions, ref_sidelobes
from labskit.skew import expand
from labskit.symmetry import canonical_form


def test_enumerate_counts_match_reference():
    assert len(list(enumerate_partitions(5))) == 7
    assert list(enumerate_partitions(1)) == [(1,)]
    for k in range(1, 31):
        assert len(list(enumerate_partitions(k))) == PARTITION_COUNTS[k]


def test_enumerate_fixed_parts():
    assert list(enumerate_partitions(6, parts=2)) == [(5, 1), (4, 2), (3, 3)]
    for p in enumerate_partitions(12, parts=4):
        assert len(p) == 4 and sum(p) == 12
        assert all(a >= b for a, b in zip(p, p[1:]))


def all_compositions(k):
    # a composition of k is a choice of cut points among 1..k-1
    return [tuple(b - a for a, b in zip((0,) + cuts, cuts + (k,)))
            for p in range(k) for cuts in combinations(range(1, k), p)]


def test_enumerate_matches_recursive_reference():
    # same tuples in the same order, for every part count
    for k in range(1, 21):
        for p in [None, *range(1, k + 1)]:
            assert list(enumerate_partitions(k, p)) == list(ref_partitions(k, p)), (k, p)


def test_enumerate_is_lazy():
    # the first partition comes at once however many follow
    assert next(enumerate_partitions(10**6)) == (10**6,)
    assert next(enumerate_partitions(10**6, parts=3)) == (10**6 - 2, 1, 1)


def test_enumerate_compositions_match_itertools():
    # the enumerator against a brute-force filter, in descending
    # lexicographic order
    for k in range(1, 15):
        comps = all_compositions(k)
        for p in [None, *range(1, k + 1)]:
            expected = sorted(
                (c for c in comps
                 if (p is None or len(c) == p) and all(a >= b for a, b in zip(c, c[1:]))),
                reverse=True)
            assert list(enumerate_partitions(k, p)) == expected, (k, p)


def test_enumerate_errors():
    with pytest.raises(DomainError):
        list(enumerate_partitions(0))
    with pytest.raises(DomainError):
        list(enumerate_partitions(2, parts=5))


def test_symmetry_class_count_values():
    assert symmetry_class_count(6) == 10
    assert symmetry_class_count(7) == 20
    assert symmetry_class_count(3) == 2
    with pytest.raises(DomainError):
        symmetry_class_count(2)


def test_symmetry_class_count_matches_bruteforce():
    for k in range(3, 11):
        seen = set()
        for bits in product((-1, 1), repeat=k):
            seen.add(canonical_form(BinarySequence.from_elements(bits)))
        assert symmetry_class_count(k) == len(seen)


def test_restriction_class_sizes():
    assert restriction_class_size(21, 6) == 2 ** 15
    assert restriction_class_size(21, 6, skew=True) == 2 ** 5
    with pytest.raises(DomainError):
        restriction_class_size(20, 6, skew=True)


def test_projection_worked_example():
    prefix, suffix, free = project_partition((1, 1, 2, 2), 21)
    assert prefix == (1, -1, 1, 1, -1, -1)
    assert suffix == (1, -1, -1, 1, 1, 1)
    assert free == 9


def test_projection_boundary_and_signs():
    # at the minimum length only the center position stays free
    prefix, suffix, free = project_partition((2, 1), 7)
    assert free == 1
    # the runs start at +1
    prefix, suffix, _ = project_partition((3, 2), 15)
    assert prefix == (1, 1, 1, -1, -1)


def old_projection(parts, n):
    """The list formula `project_partition` used before the projection
    went through `skew.expand_rows`, kept as the reference."""
    prefix = []
    sign = 1
    for t in parts:
        prefix.extend([sign] * t)
        sign = -sign
    l = n // 2
    suffix = [prefix[j] if (l - j) % 2 == 0 else -prefix[j] for j in range(len(prefix))]
    suffix.reverse()
    return tuple(prefix), tuple(suffix), n - 2 * len(prefix)


def test_projection_matches_list_formula():
    rnd = random.Random(47)
    cases = [((1, 1, 2, 2), 21), ((2, 1), 7), ((3, 2), 15), ((6, 3, 3), 101)]
    for _ in range(60):
        k = rnd.randrange(1, 16)
        cuts = sorted(rnd.sample(range(1, k), rnd.randrange(0, k)))
        parts = tuple(b - a for a, b in zip([0] + cuts, cuts + [k]))
        cases += [(parts, 2 * k + 1 + 2 * rnd.randrange(0, 4)), (parts, 2 * k + 1)]
    for parts, n in cases:
        expected = old_projection(parts, n)
        assert project_partition(parts, n) == expected, (parts, n)
        prefix, suffix, free = expected
        assert potential_sequence(parts, n).elements == prefix + (0,) * free + suffix


def test_projection_errors():
    with pytest.raises(DomainError):
        project_partition((4,), 7)  # needs n >= 9
    with pytest.raises(DomainError):
        project_partition((2, 1), 8)  # even length
    with pytest.raises(DomainError):
        project_partition((0, 2), 9)


def test_potential_worked_example():
    report = potential((1, 1, 2, 2), 21)
    assert report.potential == 54
    seq = potential_sequence((1, 1, 2, 2), 21)
    assert seq.elements == (1, -1, 1, 1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                            1, -1, -1, 1, 1, 1)
    assert sidelobes(seq) == (1, 0, 1, 0, 1, 0, -5, 0, 3, 0,
                              -1, 0, 0, 0, 0, 0, 0, 0, -4, 0)
    assert energy(seq) == report.potential


def test_potential_tail_normalization_exact():
    # tail sidelobes are even, so the normalized value is an exact integer
    rnd = random.Random(41)
    for _ in range(40):
        k = rnd.randrange(2, 18)
        parts = rnd.choice(list(enumerate_partitions(k)))
        r = potential(parts)
        assert r.normalized <= r.potential
        seq = potential_sequence(parts, r.eval_length)
        values = sidelobes(seq)
        assert all(v % 2 == 0 for v in values[-k:])


def test_potential_table_rows():
    r = best_partition(39, 4, "U")
    assert r.partition == (18, 11, 6, 4) and r.potential == 3731
    r = best_partition(39, 4, "Ustar")
    assert r.partition == (18, 11, 6, 4) and r.normalized == 1082
    r = best_partition(41, 6, "U")
    assert r.partition == (17, 9, 6, 4, 3, 2) and r.potential == 2217
    # two partitions tie at the optimal normalized potential 813; the
    # lexicographically largest wins
    r = best_partition(41, 6, "Ustar")
    assert r.normalized == 813 and r.partition == (18, 9, 6, 4, 2, 2)
    assert potential((17, 9, 6, 4, 3, 2)).normalized == 813


@pytest.mark.parametrize("objective, field", [("U", "potential"), ("Ustar", "normalized")])
def test_best_partition_matches_sorted_scan(monkeypatch, objective, field):
    # (41, 6) holds a tie at U* = 813 (see test_potential_table_rows); the
    # first minimum must win also when the tied partitions sit in different
    # blocks
    for k, parts in [(6, 2), (12, 3), (17, 4), (20, 5), (24, 6), (41, 6)]:
        # lowest value first; among equal values the lexicographically largest
        ranked = sorted(scan_potentials(k, parts),
                        key=lambda r: (getattr(r, field), [-t for t in r.partition]))
        for block in (1, 7, partitions.POTENTIAL_BLOCK):
            with monkeypatch.context() as m:
                m.setattr(partitions, "POTENTIAL_BLOCK", block)
                assert best_partition(k, parts, objective) == ranked[0], (k, parts, block)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_scan_leaves_later_peak_memory_alone():
    # a scan block's buffers stay under malloc's 128 KiB mmap threshold;
    # a larger freed buffer would raise it, and an exhaustive search run
    # after the scan would then peak ~8 MB lower than one run before it
    code = ("import resource, sys\n"
            "from labskit import partitions, skew\n"
            "for tool in sys.argv[1:]:\n"
            "    if tool == 'scan':\n"
            "        partitions.best_partition(68, 7, 'U')\n"
            "    else:\n"
            "        skew.exhaustive_best(18)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")

    def peak_kib(*tools):
        out = subprocess.run([sys.executable, "-c", code, *tools], capture_output=True,
                             text=True, timeout=120, check=True)
        return int(out.stdout)

    assert abs(peak_kib("scan", "search") - peak_kib("search", "scan")) < 3 * 1024


def reference_potentials(parts, n):
    """(U, U*) from the element-level sidelobes, or None when a tail entry
    (one of the last k reversed-index sidelobes) is odd."""
    k = sum(parts)
    values = ref_sidelobes(potential_sequence(parts, n).elements)
    body, tail = values[: n - 1 - k], values[n - 1 - k :]
    if any(v % 2 for v in tail):
        return None
    return (sum(v * v for v in values),
            sum(v * v for v in body) + sum((v // 2) ** 2 for v in tail))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), block=st.sampled_from([1, 7, partitions.POTENTIAL_BLOCK]))
def test_scan_matches_reference_sidelobes(data, block):
    k = data.draw(st.integers(1, 24), label="k")
    parts = data.draw(st.integers(1, k), label="parts")
    with mock.patch.object(partitions, "POTENTIAL_BLOCK", block):
        reports = scan_potentials(k, parts)
    assert [r.partition for r in reports] == list(enumerate_partitions(k, parts))
    for r in reports:
        assert r.eval_length == n_star(k)
        assert (r.potential, r.normalized) == reference_potentials(r.partition, r.eval_length)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_potential_matches_reference_at_every_length(data):
    # compositions too: the kernel does not assume non-increasing parts
    k = data.draw(st.integers(1, 15), label="k")
    parts = data.draw(st.sampled_from(all_compositions(k)), label="parts")
    n = data.draw(st.sampled_from(range(2 * k + 1, n_star(k) + 5, 2)), label="n")
    expected = reference_potentials(parts, n)
    if expected is None:
        with pytest.raises(DomainError, match="odd tail sidelobe"):
            potential(parts, n)
    else:
        r = potential(parts, n)
        assert (r.potential, r.normalized) == expected


def test_potential_length_invariance():
    for parts in [(5, 3, 2), (7, 1), (4, 4, 4), (9, 2)]:
        base = potential(parts)
        for bump in (2, 10):
            again = potential(parts, base.eval_length + bump)
            assert (again.potential, again.normalized) == \
                (base.potential, base.normalized)


def test_potential_too_short_raises():
    with pytest.raises(DomainError):
        potential((2,), 5)
    with pytest.raises(DomainError):
        potential((4, 2), 17)


def correlate_potentials(rows, n):
    """(U, U*) per partition from an int64 `np.correlate` of its whole
    potential sequence at length n."""
    out = []
    for parts in rows:
        k = sum(parts)
        a = np.array(potential_sequence(parts, n).elements, dtype=np.int64)
        c = np.correlate(a, a, mode="full")[n:]  # C_1 .. C_{n-1}; the tail is C_1 .. C_k
        out.append((int(np.dot(c, c)),
                    int(np.dot(c[k:], c[k:])) + int(np.sum((c[:k] // 2) ** 2))))
    return out


def block_potentials_typed(monkeypatch, rows, k):
    """`_block_potentials` at n*(k) over `rows` as a list of (U, U*),
    and the dtypes its lag sums were made in."""
    dtypes = set()

    def spy(x, y, lags, out):
        dtypes.add(out.dtype)
        return lag_products(x, y, lags, out)

    monkeypatch.setattr(partitions, "lag_products", spy)
    total, norm = partitions._block_potentials(np.array(rows), k, n_star(k))
    return list(zip(total.tolist(), norm.tolist())), dtypes


@pytest.mark.parametrize("k, dtype", [(42, np.int8), (43, np.int16)])
def test_block_potentials_exact_at_the_int8_int16_switch(monkeypatch, k, dtype):
    # (k,) has the largest entry, its lag-2 head entry 2(k-2)
    rnd = random.Random(k)
    for parts in (1, 2, 3, 7, 20):
        rows = [(k,)] if parts == 1 else rnd.sample(list(enumerate_partitions(k, parts)), 12)
        got, dtypes = block_potentials_typed(monkeypatch, rows, k)
        assert dtypes == {np.dtype(dtype)}
        assert got == correlate_potentials(rows, n_star(k)), (k, parts)


def test_block_potentials_exact_past_the_int16_limit(monkeypatch):
    k = 32767 // 3 + 1  # 3k no longer fits int16
    got, dtypes = block_potentials_typed(monkeypatch, [(k,)], k)
    assert dtypes == {np.dtype(np.int32)}
    assert got == correlate_potentials([(k,)], n_star(k))


def test_potential_scans_refuse_lengths_above_the_cap():
    # n* passes the length cap between k = 333,332 and 333,333; refused
    # before any block is built
    assert n_star(333_332) <= MAX_LENGTH < n_star(333_333)
    for call in (lambda: potential((400_000,)), lambda: scan_potentials(400_000, 1),
                 lambda: best_partition(400_000, 1), lambda: potential_sequence((400_000,)),
                 lambda: potential((1,), MAX_LENGTH + 2)):
        with pytest.raises(DomainError, match="exceeds hard cap"):
            call()


def test_n_star_is_odd_and_sufficient():
    for k in range(1, 40):
        n = n_star(k)
        assert n % 2 == 1 and n >= 3 * k + 2
        potential((k,), n)  # must not raise


def test_best_partition_errors():
    with pytest.raises(DomainError):
        best_partition(2, 5)
    with pytest.raises(DomainError):
        best_partition(10, 3, objective="energy")
    with pytest.raises(DomainError):
        scan_potentials(3, 9)


def test_scan_and_table_format():
    reports = scan_potentials(6, 2)
    assert [r.partition for r in reports] == [(5, 1), (4, 2), (3, 3)]
    table = format_potential_table(reports)
    lines = table.splitlines()
    assert lines[0] == "partition|U|Ustar"
    assert lines[1].startswith("5,1|")
    assert len(lines) == 4


def test_sample_member_is_reproducible_and_respects_projection():
    prefix, suffix, _ = project_partition((1, 1, 2, 2), 21)
    a = sample_member((1, 1, 2, 2), 21, np.random.default_rng(99))
    b = sample_member((1, 1, 2, 2), 21, np.random.default_rng(99))
    assert a == b
    rng = np.random.default_rng(7)
    for _ in range(2000):
        half = sample_member((1, 1, 2, 2), 21, rng)
        seq = expand(half)
        assert seq.elements[:6] == prefix
        assert seq.elements[-6:] == suffix


def test_sample_member_boundary_class():
    # n = 2k+1 leaves only the center free: the class has two members
    members = set()
    for seed in range(40):
        half = sample_member((2, 1), 7, np.random.default_rng(seed))
        seq = expand(half)
        assert seq.elements[:3] == (1, 1, -1)
        members.add(seq)
    assert len(members) == 2
    _, _, free = project_partition((2, 1), 7)
    assert free == 1
