"""Scalar reference implementations used as oracles in tests.

Plain Python integer arithmetic over +-1/0 element lists, independent
of numpy and of the bit-packed kernels in `labskit.core`.  The per-lag
sums are deliberately naive O(n^2); `ref_energy` takes every lag from
one exact product of Python integers, and a test checks it against the
per-lag sums.
"""

from __future__ import annotations

import struct
from itertools import accumulate
from typing import Sequence


def ref_autocorrelation(elements: Sequence[int], u: int) -> int:
    n = len(elements)
    return sum(elements[j] * elements[j + u] for j in range(n - u))


def ref_sidelobes(elements: Sequence[int]) -> list:
    """[C_{n-1}, ..., C_1] (reversed indexing, mainlobe excluded)."""
    n = len(elements)
    return [ref_autocorrelation(elements, n - 1 - i) for i in range(n - 1)]


def ref_energy(elements: Sequence[int]) -> int:
    """Sum of C_u^2 over u = 1..n-1, exact, for n < 2^30.

    Kronecker substitution: with the digits d_i = e_i + 1 in {0, 1, 2}
    packed in base 2^32, the product of the digit number with its
    reversal holds D_u = sum_i d_i*d_{i+u} <= 4n < 2^32 at digit n-1-u,
    with no carry, and

        C_u = D_u - (n-u) - sum_{i < n-u} e_i - sum_{i >= u} e_i.
    """
    e = [int(x) for x in elements]
    n = len(e)
    if n < 2:
        return 0
    digits = [x + 1 for x in e]
    forward = int.from_bytes(struct.pack(f"<{n}I", *digits), "little")
    backward = int.from_bytes(struct.pack(f"<{n}I", *digits[::-1]), "little")
    d = struct.unpack(f"<{2 * n - 1}I", (forward * backward).to_bytes(8 * n - 4, "little"))
    prefix = [0, *accumulate(e)]  # prefix[k] = sum of e_i over i < k
    return sum((d[n - 1 - u] - (n - u) - prefix[n - u] - prefix[n] + prefix[u]) ** 2
               for u in range(1, n))
