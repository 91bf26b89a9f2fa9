"""labskit benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload tts-101 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports labskit from its
`src/`.  Prints a summary line (environment, every metric with its unit,
per-op details), then, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`.  See README.md for the
workloads, metrics and checks.

Exit status: 0 every op passed its output check; 1 at least one op
failed (the result line is still printed, with "correct": false);
2 usage error or no labskit source in the checkout (nothing printed on
stdout).  `--workload all` runs each workload in its own process and
exits with the highest of their statuses.
"""

from __future__ import annotations

import argparse
import os
import sys

# Single-threaded numerics; set before numpy is imported, and inherited
# by the set-up probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("tts-101", "walk-1001", "sieve")
SETUP_REPEATS = 7


def parse_args(argv):
    ap = argparse.ArgumentParser(description="labskit benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def environment() -> dict:
    import numpy
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "loadavg": list(os.getloadavg())}


def measure_setup(workload: str, seed: int) -> tuple:
    """(normalised, raw) median wall seconds of a fresh interpreter
    running setup_probe.py, each run rescaled by a reference burst
    taken just before it."""
    import calibrate
    norm, raw = [], []
    for _ in range(SETUP_REPEATS):
        ref = calibrate.reference_burst()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                       check=True, cwd=ROOT)
        raw.append(time.perf_counter() - t0)
        norm.append(raw[-1] * calibrate.REF_S / ref)
    return statistics.median(norm), statistics.median(raw)


def run_phase(workload: str, inputs: dict, expected: dict, seed: int,
              seconds: float, tracer=None) -> list:
    """Run ops until their summed wall time reaches `seconds` and, on
    sieve, every tool has run.  Each op gets its measured `wall`/`cpu`
    (less the calibration handler's time) and the normalised
    `wall_n`/`cpu_n`.  Each op is checked as soon as it returns, outside
    its timed window, and its bulky outputs are dropped before the next
    op starts, so peak memory does not grow with the number of ops."""
    import calibrate
    import workloads as wl
    ops = []
    measured = 0.0

    def one(call, *args, **fields):
        nonlocal measured
        if tracer is not None:
            tracer.attempt_id = len(ops)
        mark = sampler.mark()
        t0 = time.perf_counter()
        try:
            op = call(*args)
        except Exception as exc:  # a crash inside labskit is a failed op
            op = {"wall": time.perf_counter() - t0, "cpu": 0.0, "flips": 0,
                  "crash": f"{type(exc).__name__}: {exc}"}
        spent_wall, spent_cpu, op["ref"] = sampler.since(mark)
        op["wall"] -= spent_wall
        op["cpu"] -= spent_cpu
        measured += op["wall"]
        op.update(fields)
        check(workload, op, expected)
        ops.append(op)

    with calibrate.Sampler() as sampler:
        if workload == "sieve":
            rng = random.Random(seed)
            order = []
            while measured < seconds or len(ops) < len(inputs["tool_order"]):
                if not order:
                    order = list(inputs["tool_order"])
                    rng.shuffle(order)
                tool = order.pop()
                one(wl.sieve_tool, tool, inputs["dataset"], tool=tool)
        else:
            target = Fraction(*expected["tts-101"]["target_mf"])
            configs = inputs["configs"]
            while measured < seconds or not ops:
                pool_index, cfg = configs[len(ops) % len(configs)]
                if workload == "tts-101":
                    one(wl.tts_attempt, cfg, target, pool_index=pool_index)
                else:
                    one(wl.walk_run, cfg, pool_index=pool_index)
    # an op shorter than the timer interval takes the phase's mean
    fallback = statistics.fmean(sampler.samples) if sampler.samples \
        else calibrate.reference_burst()
    for op in ops:
        ref = op["ref"] if op["ref"] is not None else fallback
        op["wall_n"] = op["wall"] * calibrate.REF_S / ref
        op["cpu_n"] = op["cpu"] * calibrate.REF_S / ref
    return ops


def check(workload: str, op: dict, expected: dict) -> None:
    """Attach the op's list of problems and drop its bulky outputs."""
    import workloads as wl
    if "crash" in op:
        op["problems"] = [op.pop("crash")]
    elif workload == "sieve":
        op["problems"] = wl.sieve_problems(op, expected["sieve"])
    else:
        op["problems"] = wl.search_problems(op, expected[workload]["pool"][op["pool_index"]])
    for key in ("out", "events", "result"):
        op.pop(key, None)


def per_unit(workload: str, ops: list, counts: list) -> float:
    """A count per unit of work, from each op's count: per applied flip
    on the search workloads, per pass over the four tools on sieve (the
    mean count of each tool's ops, summed), so it does not depend on how
    many ops fit in the run."""
    if workload == "sieve":
        per_tool = {}
        for op, c in zip(ops, counts):
            per_tool.setdefault(op["tool"], []).append(c)
        return sum(statistics.fmean(v) for v in per_tool.values())
    flips = sum(op["flips"] for op in ops)
    return sum(counts) / flips if flips else 0.0


def op_times(workload: str, ops: list, expected: dict, wall: str, cpu: str) -> tuple:
    """(wall, cpu) seconds of the workload's standard op, from the ops'
    fields named `wall` and `cpu`: one pass over the four tools on sieve;
    seconds per flip times the flips of the standard op on the searches
    (the pool's mean flips-to-target on tts-101, the fixed budget on
    walk-1001).

    Means over the run, not medians of ops: even normalised, an op's
    time keeps part of the host's speed changes, and a median of a few
    ops picks one level or the other.
    """
    scale = 1 if workload == "sieve" else \
        statistics.fmean(p["flips"] for p in expected[workload]["pool"])
    return (per_unit(workload, ops, [op[wall] for op in ops]) * scale,
            per_unit(workload, ops, [op[cpu] for op in ops]) * scale)


def end_to_end(workload: str, ops: list, expected: dict, setup: tuple) -> tuple:
    """(gated metrics, informational metrics)."""
    import workloads as wl
    wall, cpu = op_times(workload, ops, expected, "wall_n", "cpu_n")
    wall_raw, cpu_raw = op_times(workload, ops, expected, "wall", "cpu")
    gated = {"setup_s": metric(setup[0], "s"), "wall_s": metric(wall, "s"),
             "cpu_s": metric(cpu, "s"),
             "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                   "MB")}
    info = {"setup_raw_s": metric(setup[1], "s"), "wall_raw_s": metric(wall_raw, "s"),
            "cpu_raw_s": metric(cpu_raw, "s")}
    if workload == "sieve":
        for tool in wl.SIEVE_TOOLS:
            walls = [op["wall"] for op in ops if op["tool"] == tool]
            info[f"{tool}_raw_s"] = metric(statistics.fmean(walls), "s")
    else:
        total_wall = sum(op["wall"] for op in ops)
        info["flips_per_s"] = metric(sum(op["flips"] for op in ops) / total_wall, "1/s")
        if workload == "tts-101":
            info["tts_s"] = metric(total_wall, "s")
            info["attempts"] = metric(len(ops), "count")
    return gated, info


def per_layer(workload: str, tracer, ops_traced: list, overhead: float) -> tuple:
    """(result-line metrics, summary-line metrics) of the traced phase."""
    import tracer as tr
    stats = tr.layer_stats(*tracer.columns())
    by_attempt = tracer.calls_by_attempt()
    attempts = range(len(ops_traced))
    timed = sum(op["wall"] for op in ops_traced)
    out, info = {}, {}
    for layer in tr.LAYERS:
        st = stats[layer]
        info[f"{layer}.calls"] = metric(st["calls"], "count")
        info[f"{layer}.self_s"] = metric(st["self_s"], "s")
        info[f"{layer}.total_s"] = metric(st["total_s"], "s")
        out[f"{layer}.share"] = metric(st["self_s"] / timed, "ratio")
        if layer != "skew.flip_delta":  # its count per flip is skew.flip_delta.per_flip
            out[f"{layer}.per_unit"] = metric(
                per_unit(workload, ops_traced, [by_attempt[layer, a] for a in attempts]),
                "calls/unit")
    calls = {layer: stats[layer]["calls"] for layer in tr.LAYERS}
    out["partitions.enumerate_partitions.items_per_unit"] = metric(per_unit(
        workload, ops_traced,
        [tracer.items["partitions.enumerate_partitions", a] for a in attempts]), "items/unit")
    flips = calls["skew.apply_flip"]
    out["skew.flip_delta.per_flip"] = metric(calls["skew.flip_delta"] / flips if flips else 0.0,
                                            "ratio")
    # every restart and every flip hashes the new state once; the other
    # hash calls are scan candidates, and those already visited skip flip_delta
    candidates = calls["solver.hash_half_bits"] - calls["skew.SkewSearchState.__init__"] - flips
    out["solver.visited_hit_ratio"] = metric(
        (candidates - calls["skew.flip_delta"]) / candidates if candidates > 0 else 0.0, "ratio")
    probes = calls["pseudo.append_delta_arrays"] + calls["pseudo.truncate_delta_arrays"]
    adjacent = sum(op.get("adjacent_events", 0) for op in ops_traced)
    out["pseudo.probe_improve_ratio"] = metric(adjacent / probes if probes else 0.0, "ratio")
    out["solver.flips_to_target"] = metric(
        ops_traced[0]["flips"] if workload == "tts-101" else 0, "count")
    ex = stats["skew.exhaustive_best"]
    out["skew.exhaustive_best.seqs_per_s"] = metric(
        ex["calls"] * 2 ** 21 / ex["total_s"] if ex["total_s"] else 0.0, "1/s")
    out["trace.overhead"] = metric(overhead, "ratio")
    return out, info


def run_workload(args) -> int:
    if not (SRC / "labskit" / "__init__.py").is_file():
        print(f"error: no labskit source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import labskit
    if Path(labskit.__file__).resolve().parent != (SRC / "labskit").resolve():
        print(f"error: imported labskit from {labskit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as wl

    env = environment()
    expected = wl.load_expected()
    if args.trace:
        import tracer as tr
        inputs = wl.build_inputs(args.workload, args.seed, expected)
        half = args.seconds / 2
        ops_u = run_phase(args.workload, inputs, expected, args.seed, half)
        tracer = tr.Tracer()
        with tr.traced(tracer):
            ops_t = run_phase(args.workload, inputs, expected, args.seed, half, tracer)
        if ops_u[0].get("digest") != ops_t[0].get("digest"):
            ops_t[0]["problems"].append("traced and untraced streams differ")
        ops = ops_u + ops_t
        overhead = (op_times(args.workload, ops_t, expected, "wall_n", "cpu_n")[0]
                    / op_times(args.workload, ops_u, expected, "wall_n", "cpu_n")[0])
        # raw counts and layer times go to the summary line only: a count
        # grows with the ops that fit in the run, and a layer the workload
        # never calls would put a constant 0 s into the result
        metrics, info = per_layer(args.workload, tracer, ops_t, overhead)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")
    else:
        setup = measure_setup(args.workload, args.seed)
        inputs = wl.build_inputs(args.workload, args.seed, expected)
        ops = run_phase(args.workload, inputs, expected, args.seed, args.seconds)
        metrics, info = end_to_end(args.workload, ops, expected, setup)

    failed = sum(1 for op in ops if op["problems"])
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env,
        "metrics": {**metrics, **info,
                    "ops": metric(len(ops), "count"),
                    "fail_frac": metric(failed / len(ops), "ratio")},
        "failures": [p for op in ops for p in op["problems"]][:20],
        "per_op": [{k: v for k, v in op.items() if k != "problems"} for op in ops],
    }
    print(json.dumps(summary))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload != "all":
        return run_workload(args)
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
