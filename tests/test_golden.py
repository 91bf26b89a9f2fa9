"""Golden event streams: fixed-seed runs whose output must not change.

Each case pins the sha256 of the run's event stream (sorted-key JSON of
each event, one per line) and its flip and probe counts.  The cases
cover both policies, an activation threshold that gates some probes
but not all, and lengths where the neighbour scan is long (201 and 1001).
A deliberate change to the walk must re-record these values; a speed-up
must not.
"""

import hashlib
import json

import pytest

from labskit.solver import POLICY_STRICT_DESCENT, SolverConfig, run

GOLDEN = [
    (SolverConfig(n=21, partition=(1, 1, 2, 2), t_inner=400, t_outer=8, seed=99),
     "7484b0ecf2ff5401575f065f97a5edb55ce1b9aabb86ac95c7b7cf2c7deda193", 216, 864),
    # t_activate=5.0 gates probes off on most of the 938 flips, not all
    (SolverConfig(n=101, partition=(6, 3, 3), t_inner=2000, t_outer=150, seed=3,
                  policy=POLICY_STRICT_DESCENT, t_activate=5.0),
     "01041b23d6681683a06a9e387af4bf3e824edcd3d68a3ab27dcdebf801f49b8f", 938, 12),
    (SolverConfig(n=201, partition=(6, 3, 3), t_inner=60, t_outer=2, seed=5),
     "7dd23c35466435f1bd414810a0183c4e6efa1b41a60e35221a29bc6a182e7c90", 183, 732),
    # the length of the walk-1001 benchmark, where the pick's first argmin
    # try is unvisited on most steps
    (SolverConfig(n=1001, partition=(6, 3, 3), t_inner=100, t_outer=1, seed=7),
     "0dd04abfdc3305e4409091c53f4bec436c05636adc0b1ec893638890c5570af4", 202, 808),
]


def stream_digest(events) -> str:
    h = hashlib.sha256()
    for ev in events:
        h.update(json.dumps(ev, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("config, digest, flips, probes", GOLDEN,
                         ids=[f"n{c.n}-{c.policy}" for c, *_ in GOLDEN])
def test_golden_stream(config, digest, flips, probes):
    result = run(config)
    assert (result.stats.flips, result.stats.probes) == (flips, probes)
    assert stream_digest(result.events) == digest
