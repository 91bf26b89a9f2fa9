"""Time the walk's neighbour scan, the search throughput and the exact
tools of a source tree.

    python3 tools/bench_scan.py --label change
    python3 tools/bench_scan.py --src ../other-checkout/src --label parent

Measures, single-threaded:

* `SkewSearchState.flip_deltas` per call, as the walk of a (6,3,3)
  search calls it (free range q = 12..l), on a seeded random state, at
  n in SCAN_LENGTHS;
* one walk step, that scan plus an `apply_flip` at the next of a seeded
  cycle of free positions, at n in SCAN_LENGTHS.  A tree that keeps the
  scan's rows in step with each flip moves cost from the scan into the
  flip, so only the step compares such trees;
* one restart, a `SkewSearchState` built from a seeded half plus its
  first scan (which builds the rows a tree keeps), at n in
  RESTART_LENGTHS;
* `SkewSearchState.apply_flip` (a flip at q = l // 2 and its undo, per
  flip, on a state scanned once) and `pseudo.probe_energies` (the walk's
  probe entry) per call on the same states, and then
  `solver.pick_better_neighbor` per call (scan included) over the free
  range, after one walk step, with the state before that step visited,
  at n in LAYER_LENGTHS;
* `solver.run` flips/s with partition (6,3,3), seed 1 and a fixed flip
  budget per length, at n in RUN_LENGTHS, with the sha256 of the event
  stream, so that two trees can be checked for byte-identical output;
* the exact tools per call: `exhaustive_best` at the EXHAUSTIVE_CALLS
  (all sequences of length 22, the skew-symmetric ones of length 31)
  and `best_partition` at PARTITION_SCAN = (68, 7) for both objectives,
  each with its answer (the merit factor as a reduced [num, den] and the
  witness hex, or the best partition), so that two trees can be checked
  for equal answers.

Each number is the median of REPEATS repeats.  The result is stored under
`--label` in the JSON file `--out` (default BENCH_scan.json at the root
of the repository); other labels already in that file are kept.  Each
timed row also stores `perfbench/calibrate.reference_burst()` (seconds
per run of a fixed numpy kernel that does not use labskit), read just
before and just after that row: the host's speed moves within a label
too, so two labels' rows compare after scaling each by its own bursts.
"""

from __future__ import annotations

import os

# single-threaded numerics; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

SCAN_LENGTHS = (101, 201, 401, 1001, 2001)
LAYER_LENGTHS = (101, 1001)
RESTART_LENGTHS = (101, 1001, 4001)
#: n -> (t_inner, t_outer): (t_inner + 1) * (t_outer + 1) flips at most
RUN_BUDGETS = {101: (2000, 4), 201: (1000, 4), 401: (500, 2), 1001: (200, 1),
               4001: (100, 1)}
PARTITION = (6, 3, 3)
SEED = 1
#: (n, skew_only) and (k, parts) of the timed exact-tool calls
EXHAUSTIVE_CALLS = ((22, False), (31, True))
PARTITION_SCAN = (68, 7)
REPEATS = 5
#: seconds one timed repeat should take, roughly
SCAN_REPEAT_S = 0.2


def per_call_us(fn, per: int = 1) -> dict:
    """Median over REPEATS repeats of the time of one `fn()` call, divided
    by `per`, with the calls per repeat set so a repeat takes SCAN_REPEAT_S."""
    t0 = time.perf_counter()
    fn()
    calls = max(1, int(SCAN_REPEAT_S / max(time.perf_counter() - t0, 1e-6)))
    per_call = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - t0) / calls / per)
    return {"median_us": statistics.median(per_call) * 1e6,
            "repeats_us": [t * 1e6 for t in per_call], "calls_per_repeat": calls}


def with_bursts(time_row, *args) -> dict:
    """The row `time_row(*args)` with `reference_burst()` read just before
    and just after it."""
    from perfbench.calibrate import reference_burst

    before = reference_burst()
    row = time_row(*args)
    row["reference_burst_s"] = {"before": before, "after": reference_burst()}
    return row


def seeded_state(n: int):
    import numpy as np
    from labskit.skew import SkewHalf, SkewSearchState

    rng = np.random.default_rng(n)
    return SkewSearchState(SkewHalf(tuple(int(x) for x in rng.choice((-1, 1), n // 2 + 1))))


def walk_scan(state) -> tuple:
    """The walk's neighbour scan of `state` as a call without arguments,
    and the free range q = 12..l as the walk passes it to the pick: its
    first position, or, in trees whose `flip_deltas` takes the positions
    to score, an array of them, which the scan is then passed too."""
    import numpy as np

    first = sum(PARTITION)
    if not inspect.signature(state.flip_deltas).parameters:
        return state.flip_deltas, first
    free = np.arange(first, state.l + 1)
    return (lambda: state.flip_deltas(free)), free


def time_scan(n: int) -> dict:
    scan, _ = walk_scan(seeded_state(n))
    return {"n": n, **per_call_us(scan)}


def time_step(n: int) -> dict:
    import numpy as np

    state = seeded_state(n)
    scan, _ = walk_scan(state)
    free = np.arange(sum(PARTITION), state.l + 1)
    flips = itertools.cycle(np.random.default_rng(n).choice(free, 1000).tolist())

    def step():
        scan()
        state.apply_flip(next(flips))

    return {"n": n, **per_call_us(step)}


def time_restart(n: int) -> dict:
    from labskit.skew import SkewSearchState

    state = seeded_state(n)
    half = state.half()
    _, free = walk_scan(state)
    args = () if isinstance(free, int) else (free,)
    return {"n": n, **per_call_us(lambda: SkewSearchState(half).flip_deltas(*args))}


def time_layers(n: int) -> dict:
    from labskit import pseudo
    from labskit.solver import POLICY_SELF_AVOIDING, hash_state, pick_better_neighbor

    state = seeded_state(n)
    q = state.l // 2
    scan, free = walk_scan(state)
    scan()  # as in a walk, where every flip follows a scan

    def flip_and_undo():
        state.apply_flip(q)
        state.apply_flip(q)

    args = (state.c, state.e, state.energy)
    if hasattr(pseudo, "probe_tables"):  # trees before the two-sum probe
        args += (pseudo.probe_tables(n),)
    row = {"n": n, "apply_flip": per_call_us(flip_and_undo, per=2),
           "probe_energies": per_call_us(lambda: pseudo.probe_energies(*args))}
    # one walk step first, so that the neighbour back through it is visited
    visited = {hash_state(state)}
    state.apply_flip(pick_better_neighbor(state, visited, POLICY_SELF_AVOIDING, free))
    visited.add(hash_state(state))
    row["pick_better_neighbor"] = per_call_us(
        lambda: pick_better_neighbor(state, visited, POLICY_SELF_AVOIDING, free))
    return row


def time_run(n: int) -> dict:
    from labskit.solver import SolverConfig, run

    t_inner, t_outer = RUN_BUDGETS[n]
    config = SolverConfig(n=n, partition=PARTITION, t_inner=t_inner, t_outer=t_outer,
                          seed=SEED)
    rates, digests, flips = [], set(), set()
    for _ in range(REPEATS):
        events = []
        t0 = time.perf_counter()
        result = run(config, on_event=events.append)
        wall = time.perf_counter() - t0
        rates.append(result.stats.flips / wall)
        flips.add(result.stats.flips)
        h = hashlib.sha256()
        for ev in events:
            h.update(json.dumps(ev, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        digests.add(h.hexdigest())
    if len(digests) != 1 or len(flips) != 1:
        raise SystemExit(f"n={n}: repeats of one seeded run disagree")
    return {"n": n, "t_inner": t_inner, "t_outer": t_outer, "flips": flips.pop(),
            "median_flips_per_s": statistics.median(rates), "repeats_flips_per_s": rates,
            "events_sha256": digests.pop()}


def time_exhaustive(n: int, skew_only: bool) -> dict:
    from labskit.skew import exhaustive_best

    mf, witness = exhaustive_best(n, skew_only=skew_only)
    return {"call": f"exhaustive_best({n}, skew_only={skew_only})",
            "mf": [mf.numerator, mf.denominator], "witness": f"{witness.bits:x}",
            **per_call_us(lambda: exhaustive_best(n, skew_only=skew_only))}


def time_best_partition(objective: str) -> dict:
    from labskit.partitions import best_partition

    k, parts = PARTITION_SCAN
    report = best_partition(k, parts, objective)
    return {"call": f"best_partition({k}, {parts}, {objective!r})",
            "partition": list(report.partition),
            **per_call_us(lambda: best_partition(k, parts, objective))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="labskit source tree to time")
    ap.add_argument("--label", required=True, help="key of this run in the output file")
    ap.add_argument("--out", default=str(ROOT / "BENCH_scan.json"))
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    sys.path.insert(1, str(ROOT))
    import numpy as np

    entry = {
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "machine": platform.machine(), "cpus": os.cpu_count(),
                        "threads": 1},
        "partition": list(PARTITION),
        "seed": SEED,
        "repeats": REPEATS,
        "scan": [with_bursts(time_scan, n) for n in SCAN_LENGTHS],
        "step": [with_bursts(time_step, n) for n in SCAN_LENGTHS],
        "restart": [with_bursts(time_restart, n) for n in RESTART_LENGTHS],
        "layers": [with_bursts(time_layers, n) for n in LAYER_LENGTHS],
        "run": [with_bursts(time_run, n) for n in RUN_BUDGETS],
        "exact": [with_bursts(time_exhaustive, *call) for call in EXHAUSTIVE_CALLS]
        + [with_bursts(time_best_partition, objective) for objective in ("U", "Ustar")],
    }
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data[args.label] = entry
    out.write_text(json.dumps(data, indent=1) + "\n")
    for row in entry["scan"]:
        print(f"scan n={row['n']}: {row['median_us']:.1f} us/call")
    for row in entry["step"]:
        print(f"step n={row['n']}: {row['median_us']:.1f} us/step")
    for row in entry["restart"]:
        print(f"restart n={row['n']}: {row['median_us']:.1f} us/restart")
    for row in entry["layers"]:
        print(f"apply_flip n={row['n']}: {row['apply_flip']['median_us']:.1f} us/call, "
              f"probe_energies: {row['probe_energies']['median_us']:.1f} us/call, "
              f"pick_better_neighbor: {row['pick_better_neighbor']['median_us']:.1f} us/call")
    for row in entry["run"]:
        print(f"run n={row['n']}: {row['median_flips_per_s']:.0f} flips/s "
              f"({row['flips']} flips, events {row['events_sha256'][:12]})")
    for row in entry["exact"]:
        answer = row.get("partition") or (row["mf"], row["witness"])
        print(f"{row['call']}: {row['median_us'] / 1000:.1f} ms/call, {answer}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
