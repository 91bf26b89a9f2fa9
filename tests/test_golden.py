"""Golden event streams: fixed-seed runs whose output must not change.

Each case pins the sha256 of the run's event stream (sorted-key JSON of
each event, one per line) and its flip and probe counts.  The cases
cover both policies, an activation threshold that gates some probes
but not all, and lengths where the neighbour scan is long (201 and 1001).
A deliberate change to the walk must re-record these values; a speed-up
must not.

`labskit.reference.ref_walk` restates the walk from its documented rules.
Its stream must equal the solver's on the goldens up to n = 201 and on
drawn small configs, with activation thresholds at and next to the merit
factors the walk reaches.
"""

import dataclasses
import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labskit.records import decode_hex
from labskit.reference import ref_walk
from labskit.solver import POLICIES, POLICY_STRICT_DESCENT, SolverConfig, run

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


def solver_stream(events) -> list:
    """(length, energy, elements, flips, restarts) of each improvement,
    the form `ref_walk` yields."""
    return [(ev["target"], ev["n"] ** 2 * ev["mf_den"] // (2 * ev["mf_num"]),
             decode_hex(ev["hex"], ev["n"]).elements, ev["flips"], ev["restarts"])
            for ev in events]


#: the reference takes about 0.5 s per step at n = 1001
REFERENCE_CASES = [c for c, *_ in GOLDEN if c.n <= 201]


@pytest.mark.parametrize("config", REFERENCE_CASES,
                         ids=[f"n{c.n}-{c.policy}" for c in REFERENCE_CASES])
def test_golden_stream_matches_reference_walk(config):
    assert solver_stream(run(config).events) == list(ref_walk(config))


@st.composite
def small_configs(draw):
    parts = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    return SolverConfig(n=2 * draw(st.integers(sum(parts), 30)) + 1, partition=parts,
                        t_inner=draw(st.integers(1, 60)), t_outer=draw(st.integers(1, 5)),
                        seed=draw(st.integers(0, 2**32)),
                        policy=draw(st.sampled_from(POLICIES)))


@settings(max_examples=100, deadline=None)
@given(config=small_configs(), data=st.data())
def test_reference_walk_matches_solver_stream(config, data):
    """Thresholds equal to a merit factor the walk reaches, or one float
    away from it, sit on the edge of the activation test."""
    thresholds = [0.0, 5e-324, math.inf]
    for ev in run(config).events:  # t_activate = 0 does not change the states walked
        if ev["target"] == config.n:
            mf = ev["mf"]
            thresholds += [math.nextafter(mf, 0.0), mf, math.nextafter(mf, math.inf)]
    config = dataclasses.replace(config, t_activate=data.draw(st.sampled_from(thresholds)))
    assert solver_stream(run(config).events) == list(ref_walk(config))
