"""Operator-facing command surface.

Subcommands: eval, search, exhaustive, verify, potentials.  Output is
line-delimited JSON records (one self-describing object per line);
--human switches to readable text.  Exit codes: 0 ok, 1 verification
failures beyond budget, 2 usage or parse error, 3 domain error or
refused cap, 4 I/O error, 130 interrupted.

Timing fields are only emitted under --timing so that a fixed seed and
a single worker produce byte-identical output streams.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
import time

from . import __version__
from .core import BinarySequence, energy, merit_factor_of, sidelobes
from .errors import DomainError, LabsError, ParseError
from .partitions import best_partition, format_potential_table, scan_potentials
from .records import (DEFAULT_TOLERANCE, classify, decode_hex, encode_hex,
                      load_dataset, mf_fields, verify_all)
from .skew import exhaustive_best
from .solver import POLICIES, SolverConfig, run

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4
EXIT_INTERRUPT = 130


def _emit(args, record: dict) -> None:
    """Write `record` as one line, after `"command": args.command`."""
    record = {"command": args.command, **record}
    if args.human:
        line = "  ".join(f"{k}={record[k]}" for k in record)
    else:
        line = json.dumps(record, sort_keys=True)
    # one write per record: print writes the newline separately, and a
    # Ctrl-C handled between the two would join this record to the next
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


# --- eval -------------------------------------------------------------------


def _cmd_eval(args) -> int:
    if (args.sequence is None) == (args.hex is None):
        raise ParseError("give one sequence: as text, or as --hex with --n")
    if (args.hex is None) != (args.n is None):
        raise ParseError("--n is the length of a --hex payload, and --hex needs it")
    seq = (BinarySequence.from_text(args.sequence) if args.hex is None
           else decode_hex(args.hex, args.n))
    e = energy(seq)
    record = {
        "n": seq.n,
        "energy": e,
        **mf_fields(merit_factor_of(seq.n, e)),
        "classification": classify(seq),
        "hex": encode_hex(seq),
    }
    if args.sidelobes:
        record["sidelobes"] = list(sidelobes(seq))
    _emit(args, record)
    return EXIT_OK


# --- search -----------------------------------------------------------------


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {what} {text!r}: not an integer") from None


def _parse_partition(text: str) -> tuple:
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise ParseError(f"bad partition {text!r}: {exc}") from None


def _parse_duration(text: str) -> float:
    scale = 1.0
    body = text.strip().lower()
    for suffix, mult in (("ms", 0.001), ("s", 1.0), ("m", 60.0), ("h", 3600.0)):
        if body.endswith(suffix):
            body, scale = body[: -len(suffix)], mult
            break
    try:
        return float(body) * scale
    except ValueError:
        raise ParseError(f"bad duration {text!r} (use e.g. 5s, 2m, 250ms)") from None


def _cmd_search(args) -> int:
    time_limit = None if args.budget is None else _parse_duration(args.budget)
    if time_limit == math.inf:
        time_limit = None  # no deadline, and JSON has no Infinity

    config = SolverConfig(
        n=args.n,
        partition=_parse_partition(args.partition),
        t_inner=args.ti,
        t_outer=args.to,
        t_activate=args.ta,
        workers=args.workers,
        seed=args.seed,
        time_limit=time_limit,
        policy=args.policy,
    )
    config.validate()  # before the config record, which would echo a bad value
    t0 = time.monotonic()
    header = {
        "kind": "config",
        "n": config.n,
        "partition": list(config.partition),
        "ti": config.t_inner,
        "to": config.t_outer,
        "ta": config.t_activate if math.isfinite(config.t_activate) else None,
        "seed": config.seed,
        "workers": config.workers,
        "policy": config.policy,
        "time_limit": config.time_limit,
        "version": __version__,
    }
    if args.timing:
        header["started_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    _emit(args, header)

    def on_event(ev: dict) -> None:
        if args.timing:
            ev = {**ev, "elapsed_ms": round((time.monotonic() - t0) * 1000.0, 3)}
        _emit(args, ev)

    result = run(config, on_event=on_event)
    for target_n, rec in sorted(result.best.by_length(config.n).items()):
        record = {"kind": "final", "target": target_n}
        if rec is None:
            record["mf"] = None
        else:
            record.update(mf_fields(rec.mf))
            record["hex"] = encode_hex(rec.sequence)
            record["n"] = rec.sequence.n
            if args.timing:
                record["found_elapsed_ms"] = round(rec.found_elapsed * 1000.0, 3)
        _emit(args, record)
    summary = {
        "kind": "summary",
        "restarts": result.stats.restarts,
        "flips": result.stats.flips,
        "probes": result.stats.probes,
        "seed": config.seed,
        "workers": config.workers,
        "policy": config.policy,
        "partition": list(config.partition),
        "interrupted": result.stats.interrupted,
    }
    if args.timing:
        summary["elapsed_ms"] = round(result.stats.elapsed * 1000.0, 3)
        summary["per_worker"] = result.stats.per_worker
        summary["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    _emit(args, summary)
    return EXIT_INTERRUPT if result.stats.interrupted else EXIT_OK


# --- exhaustive -------------------------------------------------------------


def _cmd_exhaustive(args) -> int:
    mf, witness = exhaustive_best(args.n, skew_only=args.skew_only)
    record = {
        "n": args.n,
        "skew_only": args.skew_only,
        **mf_fields(mf),
        "hex": encode_hex(witness),
        "energy": energy(witness),
    }
    _emit(args, record)
    return EXIT_OK


# --- verify -----------------------------------------------------------------


def _cmd_verify(args) -> int:
    entries = load_dataset(args.dataset)
    if args.rows:
        wanted = {_parse_int(t, "--rows entry") for t in args.rows.split(",") if t.strip()}
        entries = [e for e in entries if e.n in wanted]
        if not entries:
            raise DomainError(f"no dataset rows with n in {sorted(wanted)}")
    reports, summary = verify_all(entries, tolerance=args.tolerance)
    if args.per_row:
        for r in reports:
            _emit(args, {
                "kind": "row",
                "n": r.entry.n,
                "class": r.entry.class_expr,
                "source_table": r.entry.source_table,
                "claimed_mf": r.entry.new_mf,
                "computed_mf": r.computed_mf,
                "energy": r.energy,
                "match": r.match,
                "classification": r.classification,
                "detail": r.detail,
            })
    _emit(args, {
        "kind": "summary",
        "total": summary["total"],
        "matched": summary["matched"],
        "match_fraction": round(summary["match_fraction"], 6),
        "failed": [{"n": n, "class": c, "detail": d} for n, c, d in summary["failed"]],
        "passed": summary["passed"],
    })
    return EXIT_OK if summary["passed"] else EXIT_VERIFY_FAILED


# --- potentials -------------------------------------------------------------


def _potential_record(kind: str, report, **fields) -> dict:
    """One potentials line, a "best" or a scan "row", for `report`."""
    return {"kind": kind, **fields,
            "partition": list(report.partition), "U": report.potential,
            "Ustar": report.normalized, "eval_length": report.eval_length}


def _cmd_potentials(args) -> int:
    if args.all:
        reports = scan_potentials(args.k, args.parts)
        if args.human:
            print(format_potential_table(reports))
        else:
            for r in reports:
                _emit(args, _potential_record("row", r))
        return EXIT_OK
    report = best_partition(args.k, args.parts, args.objective)
    _emit(args, _potential_record("best", report, objective=args.objective))
    return EXIT_OK


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labskit",
        description="Merit-factor toolkit: evaluate sequences, search "
                    "partition-restricted skew-symmetric classes, verify "
                    "published records, scan partition potentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--human", action="store_true")

    p = sub.add_parser("eval", parents=[common], help="evaluate one sequence")
    p.add_argument("sequence", nargs="?", help="sequence text like '+-++' or '1,-1,1'")
    p.add_argument("--hex", help="hex payload (zeroes omitted)")
    p.add_argument("--n", type=int, help="length for --hex decoding")
    p.add_argument("--sidelobes", action="store_true", help="include the sidelobe array")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("search", parents=[common], help="restart local search at one length")
    p.add_argument("--n", type=int, required=True, help="odd target length")
    p.add_argument("--partition", required=True, help="comma list, e.g. 6,3,3")
    p.add_argument("--ti", type=int, default=SolverConfig.t_inner,
                   help="inner move budget, TI >= 1: at most TI+1 flips per restart")
    p.add_argument("--to", type=int, default=SolverConfig.t_outer,
                   help="outer restart budget, TO >= 1: TO+1 restarts")
    p.add_argument("--ta", type=float, default=SolverConfig.t_activate,
                   help="merit-factor threshold activating adjacent-length probes")
    p.add_argument("--seed", type=int, default=SolverConfig.seed)
    p.add_argument("--workers", type=int, default=SolverConfig.workers,
                   help="parallel worker processes")
    p.add_argument("--budget", help="wall-clock limit, e.g. 5s / 2m")
    p.add_argument("--policy", choices=list(POLICIES), default=SolverConfig.policy)
    p.add_argument("--timing", action="store_true",
                   help="add elapsed-time fields (stream no longer reproducible byte-for-byte)")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("exhaustive", parents=[common], help="exact optimum at small lengths")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--skew-only", action="store_true")
    p.set_defaults(func=_cmd_exhaustive)

    p = sub.add_parser("verify", parents=[common],
                       help="recompute claimed merit factors of the record dataset")
    p.add_argument("--dataset", help="records file (default: bundled)")
    p.add_argument("--rows", help="only rows with these lengths, comma list")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--per-row", action="store_true", help="emit one record per row")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("potentials", parents=[common], help="optimal-partition scan")
    p.add_argument("--k", type=int, required=True, help="restriction order")
    p.add_argument("--parts", type=int, required=True, help="number of parts")
    p.add_argument("--objective", choices=["U", "Ustar"],
                   default=inspect.signature(best_partition).parameters["objective"].default)
    p.add_argument("--all", action="store_true", help="emit the whole scan table")
    p.set_defaults(func=_cmd_potentials)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LabsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:
        # downstream consumer (head, grep -m) closed the pipe: not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        return EXIT_INTERRUPT


if __name__ == "__main__":
    sys.exit(main())
