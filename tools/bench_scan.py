"""Time the walk's neighbour scan, the search throughput and the exact
tools of two source trees, interleaved in one process.

    python3 tools/bench_scan.py --parent ../parent-checkout/src

The change tree is this checkout's `src`; `--parent` names the other.
Each is imported as its own package.  Every row times both in REPEATS
pairs of repeats.  A pair is made in up to ROUNDS rounds, each of which
times both trees, the first alternating, so that the host's speed, which
drifts within seconds, moves both alike.  A row stores each tree's
median in microseconds per call, the ratio change/parent of the medians,
how many pairs the change won, the parent's interquartile range and
every repeat.  Both trees make the same calls per round, set so that a
repeat takes about SCAN_REPEAT_S.  Single-threaded:

* `scan`: `SkewSearchState.flip_deltas` per call, on a seeded random
  state, at n in SCAN_LENGTHS;
* `step`: one walk step, that scan plus an `apply_flip` at the next of a
  seeded cycle of free positions (q = 12..l, as a (6,3,3) walk flips),
  at n in SCAN_LENGTHS;
* `restart`: a `SkewSearchState` built from a seeded half plus its
  first scan, which builds the rows the state keeps, at n in
  RESTART_LENGTHS;
* `layers`: per call on a seeded state after one walk step and its scan,
  at n in LAYER_LENGTHS: `solver.pick_better_neighbor` (scan included,
  over the free range).  A flip and the walk's probes are timed within
  `step` and `run`: `apply_flip` runs a scan when none is current;
* `run`: `solver.run` with partition (6,3,3), seed 1 and a fixed flip
  budget per length, at n in RUN_BUDGETS;
* `exact`: `exhaustive_best` at the EXHAUSTIVE_CALLS (all sequences of
  length 22, the skew-symmetric ones of length 31), `best_partition`
  at PARTITION_SCAN = (68, 7) for both objectives and
  `enumerate_partitions` at PARTITION_SCAN.

The `run` and `exact` rows also store each tree's answer (the flip and
probe counts and the sha256 of the event stream; the merit factor as a
reduced [num, den] and the witness hex; the best partition; the count
and the sha256 of the enumerated tuples) and whether the two are equal.
The result is written to the JSON file `--out` (default BENCH_scan.json
at the root of the repository).
"""

from __future__ import annotations

import os

# single-threaded numerics; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

SCAN_LENGTHS = (101, 201, 401, 1001, 2001)
LAYER_LENGTHS = (101, 1001)
RESTART_LENGTHS = (101, 1001, 4001)
#: n -> (t_inner, t_outer): (t_inner + 1) * (t_outer + 1) flips at most
RUN_BUDGETS = {101: (2000, 4), 201: (1000, 4), 401: (500, 2), 1001: (200, 1),
               4001: (100, 1)}
PARTITION = (6, 3, 3)
#: the first position a PARTITION walk flips
FIRST = sum(PARTITION)
SEED = 1
#: (n, skew_only) and (k, parts) of the timed exact-tool calls
EXHAUSTIVE_CALLS = ((22, False), (31, True))
PARTITION_SCAN = (68, 7)
#: pairs of repeats per row
REPEATS = 10
#: seconds one timed repeat should take, roughly, and the most rounds it is made in
SCAN_REPEAT_S = 0.1
ROUNDS = 10


def load_tree(name: str, src):
    """The `labskit` package of the source tree `src`, imported as the
    package `labskit_<name>`, apart from any other tree's."""
    package = Path(src).resolve() / "labskit"
    spec = importlib.util.spec_from_file_location(
        f"labskit_{name}", package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # so that its relative imports resolve
    spec.loader.exec_module(module)
    return module


def paired(calls: dict) -> tuple:
    """The row of `calls["parent"]` and `calls["change"]`, timed in
    alternating rounds, and each call's first return value."""
    answers = {tree: fn() for tree, fn in calls.items()}  # and a warm-up
    t0 = time.perf_counter()
    calls["parent"]()
    once = max(time.perf_counter() - t0, 1e-6)
    rounds = max(1, min(ROUNDS, int(SCAN_REPEAT_S / once)))
    count = max(1, int(SCAN_REPEAT_S / rounds / once))  # calls per tree and round
    times = {"parent": [], "change": []}
    for i in range(REPEATS):
        spent = {"parent": 0.0, "change": 0.0}
        for r in range(rounds):
            for tree in ("parent", "change") if (i + r) % 2 == 0 else ("change", "parent"):
                fn = calls[tree]
                t0 = time.perf_counter()
                for _ in range(count):
                    fn()
                spent[tree] += time.perf_counter() - t0
        for tree, s in spent.items():
            times[tree].append(s / (rounds * count) * 1e6)
    median = {tree: statistics.median(us) for tree, us in times.items()}
    q1, _, q3 = statistics.quantiles(times["parent"], n=4)
    return {"median_us": median, "ratio": median["change"] / median["parent"],
            "wins": sum(c < p for p, c in zip(times["parent"], times["change"])),
            "pairs": REPEATS, "parent_iqr_us": q3 - q1, "rounds": rounds,
            "calls_per_round": count, "repeats_us": times}, answers


def row(trees: dict, time_fn, *args, answered: bool = False) -> dict:
    """The paired row of the calls `time_fn(package, *args)` returns, and,
    if `answered`, each tree's answer and whether the two are equal."""
    timed, answers = paired({name: time_fn(lk, *args) for name, lk in trees.items()})
    if answered:
        timed.update(answers=answers, equal=answers["parent"] == answers["change"])
    return timed


def seeded_state(lk, n: int):
    rng = np.random.default_rng(n)
    return lk.skew.SkewSearchState(
        lk.skew.SkewHalf(tuple(int(x) for x in rng.choice((-1, 1), n // 2 + 1))))


def time_scan(lk, n: int):
    return seeded_state(lk, n).flip_deltas


def time_step(lk, n: int):
    state = seeded_state(lk, n)
    free = np.arange(FIRST, state.l + 1)
    flips = itertools.cycle(np.random.default_rng(n).choice(free, 1000).tolist())

    def step():
        state.flip_deltas()
        state.apply_flip(next(flips))

    return step


def time_restart(lk, n: int):
    half = seeded_state(lk, n).half()
    return lambda: lk.skew.SkewSearchState(half).flip_deltas()


def walked_state(lk, n: int) -> tuple:
    """A seeded state after one walk step and its scan, and the walk's
    visited set, which holds the state before the step."""
    solver = lk.solver
    state = seeded_state(lk, n)
    visited = {solver.hash_state(state)}
    state.apply_flip(solver.pick_better_neighbor(state, visited, solver.POLICY_SELF_AVOIDING,
                                                 FIRST))
    visited.add(solver.hash_state(state))
    state.flip_deltas()
    return state, visited


def time_pick(lk, n: int):
    state, visited = walked_state(lk, n)
    return lambda: lk.solver.pick_better_neighbor(state, visited,
                                                  lk.solver.POLICY_SELF_AVOIDING, FIRST)


def time_run(lk, n: int):
    t_inner, t_outer = RUN_BUDGETS[n]
    config = lk.solver.SolverConfig(n=n, partition=PARTITION, t_inner=t_inner,
                                    t_outer=t_outer, seed=SEED)

    def run() -> dict:
        events = []
        result = lk.solver.run(config, on_event=events.append)
        h = hashlib.sha256()
        for ev in events:
            h.update(json.dumps(ev, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        return {"flips": result.stats.flips, "probes": result.stats.probes,
                "events_sha256": h.hexdigest()}

    return run


def time_exhaustive(lk, n: int, skew_only: bool):
    def call() -> dict:
        mf, witness = lk.skew.exhaustive_best(n, skew_only=skew_only)
        return {"mf": [mf.numerator, mf.denominator], "witness": f"{witness.bits:x}"}

    return call


def time_best_partition(lk, objective: str):
    return lambda: list(lk.partitions.best_partition(*PARTITION_SCAN, objective).partition)


def time_enumerate(lk):
    def call() -> dict:
        h, count = hashlib.sha256(), 0
        for parts in lk.partitions.enumerate_partitions(*PARTITION_SCAN):
            h.update(repr(parts).encode() + b"\n")
            count += 1
        return {"count": count, "sha256": h.hexdigest()}

    return call


def measure(trees: dict) -> dict:
    """Every row, of the trees `{"parent": package, "change": package}`."""
    k, parts = PARTITION_SCAN
    return {
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "machine": platform.machine(), "cpus": os.cpu_count(),
                        "threads": 1},
        "partition": list(PARTITION),
        "seed": SEED,
        "repeats": REPEATS,
        "scan": [{"n": n, **row(trees, time_scan, n)} for n in SCAN_LENGTHS],
        "step": [{"n": n, **row(trees, time_step, n)} for n in SCAN_LENGTHS],
        "restart": [{"n": n, **row(trees, time_restart, n)} for n in RESTART_LENGTHS],
        "layers": [{"n": n, "pick_better_neighbor": row(trees, time_pick, n)}
                   for n in LAYER_LENGTHS],
        "run": [{"n": n, "t_inner": t_inner, "t_outer": t_outer,
                 **row(trees, time_run, n, answered=True)}
                for n, (t_inner, t_outer) in RUN_BUDGETS.items()],
        "exact": [{"call": f"exhaustive_best({n}, skew_only={skew_only})",
                   **row(trees, time_exhaustive, n, skew_only, answered=True)}
                  for n, skew_only in EXHAUSTIVE_CALLS]
        + [{"call": f"best_partition({k}, {parts}, {objective!r})",
            **row(trees, time_best_partition, objective, answered=True)}
           for objective in ("U", "Ustar")]
        + [{"call": f"enumerate_partitions({k}, {parts})",
            **row(trees, time_enumerate, answered=True)}],
    }


def summary(name: str, timed: dict) -> str:
    median = timed["median_us"]
    line = (f"{name}: {median['parent']:.1f} -> {median['change']:.1f} us/call, "
            f"x{timed['ratio']:.3f}, change won {timed['wins']}/{timed['pairs']}, "
            f"parent IQR {timed['parent_iqr_us']:.1f} us")
    return line + ("" if timed.get("equal", True) else ", ANSWERS DIFFER")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True,
                    help="the labskit source tree (a src directory) to compare with this one")
    ap.add_argument("--out", default=str(ROOT / "BENCH_scan.json"))
    args = ap.parse_args(argv)
    entry = measure({"parent": load_tree("parent", args.parent),
                     "change": load_tree("change", ROOT / "src")})
    Path(args.out).write_text(json.dumps(entry, indent=1) + "\n")
    for kind in ("scan", "step", "restart", "run"):
        for r in entry[kind]:
            print(summary(f"{kind} n={r['n']}", r))
    for r in entry["layers"]:
        for layer, timed in list(r.items())[1:]:
            print(summary(f"{layer} n={r['n']}", timed))
    for r in entry["exact"]:
        print(summary(r["call"], r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
