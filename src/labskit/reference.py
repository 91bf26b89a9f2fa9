"""Scalar reference implementations used as oracles in tests.

Plain Python integer arithmetic over +-1/0 element lists, independent
of the bit-packed kernels in `labskit.core` and of the walk state in
`labskit.skew`.  The per-lag sums are deliberately naive O(n^2);
`ref_energy` takes every lag from one exact product of Python integers,
and a test checks it against the per-lag sums.  `ref_flip_deltas` sums
the one-row form of a paired flip's energy change from those lags, in
int64 numpy rows.  `ref_walk` restates the solver's walk rule by rule;
it shares only the seeded generator and `sample_member` with it.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .partitions import sample_member


def ref_autocorrelation(elements: Sequence[int], u: int) -> int:
    n = len(elements)
    return sum(elements[j] * elements[j + u] for j in range(n - u))


def ref_sidelobes(elements: Sequence[int]) -> list:
    """[C_{n-1}, ..., C_1] (reversed indexing, mainlobe excluded)."""
    n = len(elements)
    return [ref_autocorrelation(elements, n - 1 - i) for i in range(n - 1)]


def _ref_correlations(elements: Sequence[int]) -> list:
    """[C_0, ..., C_{n-1}], exact, for 1 <= n < 2^30.

    Kronecker substitution: with the digits d_i = e_i + 1 in {0, 1, 2}
    packed in base 2^32, the product of the digit number with its
    reversal holds D_u = sum_i d_i*d_{i+u} <= 4n < 2^32 at digit n-1-u,
    with no carry, and

        C_u = D_u - (n-u) - sum_{i < n-u} e_i - sum_{i >= u} e_i.
    """
    e = [int(x) for x in elements]
    n = len(e)
    digits = [x + 1 for x in e]
    forward = int.from_bytes(struct.pack(f"<{n}I", *digits), "little")
    backward = int.from_bytes(struct.pack(f"<{n}I", *digits[::-1]), "little")
    d = struct.unpack(f"<{2 * n - 1}I", (forward * backward).to_bytes(8 * n - 4, "little"))
    prefix = [0, *accumulate(e)]  # prefix[k] = sum of e_i over i < k
    return [d[n - 1 - u] - (n - u) - prefix[n - u] - prefix[n] + prefix[u] for u in range(n)]


def ref_energy(elements: Sequence[int]) -> int:
    """Sum of C_u^2 over u = 1..n-1, exact, for n < 2^30."""
    if len(elements) < 2:
        return 0
    return sum(c * c for c in _ref_correlations(elements)[1:])


def ref_flip_deltas(elements: Sequence[int]) -> list:
    """E(after flip at q) - E(now) for every q = 0..l of a skew-symmetric
    sequence of odd length n = 2l+1, exact, one row at a time.

    Flipping q < l flips its partner p = n-1-q too; only the even shifts
    u change, through the products with exactly one flipped end:

        T_u = f_q * b_q * (b_{q+u} + b_{q-u}),   f_q = 2 (1 at the centre),
        E'  = E + 4 * sum_u T_u * (T_u - C_u),

    on a zero-padded sequence, with b_q*b_p left out of T_u at
    u = n-1-2q, where both ends flip (derived in `labskit.skew`).  C comes
    from the elements, and the rows are exact int64.
    """
    n, l = len(elements), len(elements) // 2
    c = np.array(_ref_correlations(elements)[2::2], dtype=np.int64)  # C_u, u = 2, 4, .., n-1
    e = np.array(elements, dtype=np.int64)
    padded = np.pad(e, n - 1)
    deltas = []
    for q in range(l + 1):
        # b_{q+u} and b_{q-u} sit at padded indices n-1+q+u and n-1+q-u
        t = padded[n + 1 + q : 2 * n - 1 + q : 2] + padded[q : n - 2 + q : 2][::-1]
        if q < l:
            t[l - 1 - q] -= e[n - 1 - q]
        t *= (1 if q == l else 2) * e[q]
        deltas.append(int(4 * np.dot(t, t - c)))
    return deltas


def ref_walk(config) -> Iterator[tuple]:
    """Yield (length, energy, elements, flips, restarts) for each
    improvement of worker 0's walk under the `SolverConfig` `config`.

    A restart draws a member of the partition class and scores it.  Each
    step then flips the free position q in [k, l] (and its skew partner
    n-1-q) whose unvisited neighbour has the lowest energy, ties to the
    smallest q; under strict descent only a lower energy than the
    state's qualifies.  A restart ends when no neighbour qualifies or
    after t_inner + 1 flips, and the run after t_outer + 1 restarts.  A
    state reached by a flip whose merit factor, as a float, is at least
    t_activate also scores its four adjacent-length edits.  Every energy
    is `ref_energy`'s, and visited states are kept as exact tuples.  The
    time limit and extra workers are left out.
    """
    n, l, k = config.n, config.n // 2, sum(config.partition)
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=(config.seed & ((1 << 64) - 1), 0)))
    best = {n - 1: math.inf, n: math.inf, n + 1: math.inf}
    flips = 0
    for restarts in range(1, config.t_outer + 2):
        half = sample_member(config.partition, n, rng).elements
        state = [*half, *(half[l - i] * (-1) ** i for i in range(1, l + 1))]
        visited = {tuple(state)}
        for moves in range(config.t_inner + 2):
            if moves:
                neighbours = []
                for q in range(k, l + 1):
                    nb = list(state)
                    nb[q] = -nb[q]
                    if q != l:
                        nb[n - 1 - q] = -nb[n - 1 - q]
                    if tuple(nb) not in visited:
                        neighbours.append((ref_energy(nb), q, nb))
                if not neighbours:
                    break
                nb_energy, _, nb = min(neighbours)
                if config.policy == "strict-descent" and nb_energy >= energy:
                    break
                state = nb
                visited.add(tuple(state))
                flips += 1
            energy = ref_energy(state)
            scored = [(state, energy)]
            if moves and float(Fraction(n * n, 2 * energy)) >= config.t_activate:
                # eta edits 1, 2, 4 and 3: append +1, append -1, strip the
                # last element, strip the first
                for edit in (state + [1], state + [-1], state[:-1], state[1:]):
                    scored.append((edit, ref_energy(edit)))
            for elements, e in scored:
                if e < best[len(elements)]:
                    best[len(elements)] = e
                    yield len(elements), e, tuple(elements), flips, restarts
