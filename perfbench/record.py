"""Re-record expected.json: the solver-seed pools of the two search
workloads, with each seed's stream digest and flip count, and the known
answers of the sieve tools.

    python3 perfbench/record.py

Run it only in a change that deliberately alters the walk, as its own
benchmark change; the digests pin the byte-identical event streams that
every other change must keep.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402

TTS_POOL = range(1001, 1049)
WALK_POOL = range(2001, 2025)
TARGET_MF = Fraction(29, 5)

SIEVE_ANSWERS = {
    "best_partition_U": {"partition": [25, 11, 10, 7, 5, 5, 5], "potential": 9596},
    "best_partition_Ustar": {"partition": [25, 12, 9, 8, 6, 4, 4], "normalized": 3040},
    "exhaustive_22": {"mf": [242, 39]},
    "verify_all": {"matched_total": [336, 336]},
}


def record_pool(workload: str, seeds) -> list:
    part = wl.search_partition()
    pool = []
    for s in seeds:
        cfg = wl.search_config(workload, part, s)
        op = wl.tts_attempt(cfg, TARGET_MF) if workload == "tts-101" else wl.walk_run(cfg)
        if not op.get("reached", True):
            sys.exit(f"{workload}: solver seed {s} hit the flip cap; choose another pool")
        problems = wl.check_final_records(op["events"])
        if problems:
            sys.exit(f"{workload}: solver seed {s}: {problems}")
        pool.append({"seed": s, "flips": op["flips"], "restarts": op["restarts"],
                     "events": len(op["events"]), "digest": op["digest"]})
        print(workload, pool[-1], f"{op['wall']:.2f}s", file=sys.stderr)
    return pool


def main() -> None:
    expected = {
        "seeds": {"default": 1, "held_out": 2},
        "tts-101": {"target_mf": [TARGET_MF.numerator, TARGET_MF.denominator],
                    "pool": record_pool("tts-101", TTS_POOL)},
        "walk-1001": {"pool": record_pool("walk-1001", WALK_POOL)},
        "sieve": SIEVE_ANSWERS,
    }
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
