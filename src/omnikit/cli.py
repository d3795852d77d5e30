"""Command-line entry point.

stdout carries only the machine payload (v1 matrix, JSON, or CSV); messages
and errors go to stderr.  Exit codes: 0 success / verified true, 2 usage,
I/O or out-of-memory error, 3 verified false (not omni, target absent,
exhausted search), 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from functools import lru_cache

from omnikit import bounds, construct, experiments, search
from omnikit.core import (
    MosaicError, check_sizes, decode_target, parse_matrix, power_exceeds, serialize_matrix,
)
from omnikit.verify import contains_target, is_omnimosaic, verify_placement

SCHEMA = "omnikit/1"

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_FALSE = 3
EXIT_BUDGET = 4

# bounds reports oneD_threshold, an exact sum of a fractions, only up to this
# a: it takes about 30 ms at 2^12 and grows faster than a^2 (1.1 s at 30 000)
ONED_THRESHOLD_MAX_A = 2**12


def _emit(payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    json.dump(payload, sys.stdout, indent=2, default=_json_default)
    sys.stdout.write("\n")


def _json_default(obj):
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _read_text(path: str) -> str:
    """A UTF-8 text file, or stdin for "-"; undecodable bytes are a usage error."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MosaicError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_matrix(path: str):
    return parse_matrix(_read_text(path))


def _cmd_construct(args) -> int:
    if args.strip:
        m = construct.thin_strip(args.k, args.a)
    else:
        m = construct.square_omnimosaic(args.k, args.a)
    sys.stdout.write(serialize_matrix(m))
    return EXIT_OK


def _cmd_verify(args) -> int:
    m = _read_matrix(args.file)
    report = is_omnimosaic(m, args.k)
    _emit(
        {
            "command": "verify",
            "k": args.k,
            "rows": m.rows,
            "cols": m.cols,
            "a": m.a,
            **asdict(report),
        }
    )
    return EXIT_OK if report.is_omni else EXIT_FALSE


def _cmd_locate(args) -> int:
    construct.check_construction(args.k, args.a)
    grid = construct.canonical_grid(args.k)
    mosaic, rm = construct.build_mosaic(grid, args.a)
    target = decode_target(args.target_code, args.k, args.a)
    placement = construct.locate(rm, grid, target)
    ok = verify_placement(mosaic, placement, target)
    _emit(
        {
            "command": "locate",
            "k": args.k,
            "a": args.a,
            "target_code": args.target_code,
            "row_idx": list(placement.row_idx),
            "col_idx": list(placement.col_idx),
            "verified": ok,
            "region_map": {
                "row_offsets": list(rm.row_offsets),
                "col_offsets": list(rm.col_offsets),
                "h_columns": [list(t) for t in rm.h_columns],
                "v_rows": [list(t) for t in rm.v_rows],
            },
        }
    )
    return EXIT_OK if ok else EXIT_FALSE


def _cmd_contains(args) -> int:
    m = _read_matrix(args.file)
    target = decode_target(args.target_code, args.k, m.a)
    placement = contains_target(m, target)
    _emit(
        {
            "command": "contains",
            "k": args.k,
            "target_code": args.target_code,
            "present": placement is not None,
            "row_idx": list(placement.row_idx) if placement else None,
            "col_idx": list(placement.col_idx) if placement else None,
        }
    )
    return EXIT_OK if placement is not None else EXIT_FALSE


def _cmd_search(args) -> int:
    budget = search.SearchBudget(
        max_nodes=args.max_nodes, max_seconds=args.max_seconds
    )
    if args.n is not None:
        result = search.exists_omnimosaic(args.n, args.k, args.a, budget=budget)
        trace = [(args.n, result)]
    else:
        trace = search.min_omnimosaic_n(args.k, args.a, budget=budget)
        result = trace[-1][1]
    _emit(
        {
            "command": "search",
            "k": args.k,
            "a": args.a,
            "trace": [
                {
                    "n": n,
                    "status": r.status,
                    "nodes": r.nodes,
                    "elapsed": r.elapsed,
                    "witness": serialize_matrix(r.witness) if r.witness else None,
                }
                for n, r in trace
            ],
            "status": result.status,
        }
    )
    if result.status == search.FOUND:
        return EXIT_OK
    if result.status == search.BUDGET_EXCEEDED:
        return EXIT_BUDGET
    return EXIT_FALSE


def _cmd_bounds(args) -> int:
    check_sizes(k=args.k, a=args.a)
    if args.n is not None and args.n < args.k:
        raise MosaicError(f"n must be >= k, got n={args.n}, k={args.k}")
    lower = bounds.asymptotic_lower(args.k, args.a)  # refuses sizes past float range
    payload = {
        "command": "bounds",
        "k": args.k,
        "a": args.a,
        "pigeonhole_min_n": bounds.pigeonhole_min_n(args.k, args.a),
        "asymptotic_lower": lower,
        "construction_upper": bounds.construction_upper(args.k, args.a),
        "ramsey_n0": bounds.ramsey_n0(args.k),
    }
    if args.a <= ONED_THRESHOLD_MAX_A:
        payload["oneD_threshold"] = float(bounds.oneD_threshold(args.a))
    payload["oneD_EX_threshold_ratio"] = bounds.oneD_EX_threshold_ratio(args.a)
    if args.k >= 2:
        est = bounds.suen_threshold_n(args.k, args.a)
        payload["suen_threshold_n"] = est.refined
        payload["suen_threshold_n_theorem_form"] = est.theorem_form
        n = args.n if args.n is not None else est.refined
        payload["suen_report"] = asdict(bounds.suen_report(n, args.k, args.a))
    _emit(payload)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    rows = []  # all computed before any output, so a bad argument prints no header
    for k in range(args.k_min, args.k_max + 1):
        n = bounds.suen_threshold_n(k, args.a).refined
        rep = bounds.suen_report(n, k, args.a)
        rows.append(
            [k, args.a, n, f"{rep.log_mu:.6f}", f"{rep.log_total_bound:.6f}",
             int(rep.certifies_existence)]
        )
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["k", "a", "n", "log_mu", "log_total_bound", "certifies"])
    writer.writerows(rows)
    return EXIT_OK


def _cmd_sample(args) -> int:
    config = experiments.ExperimentConfig(
        n=args.n, k=args.k, a=args.a, trials=args.trials, seed=args.seed
    )
    stats = experiments.estimate(config, workers=args.workers)
    _emit(
        {
            "command": "sample",
            "n": args.n,
            "k": args.k,
            "a": args.a,
            "seed": args.seed,
            **asdict(stats),
        }
    )
    return EXIT_OK


def _cmd_exact(args) -> int:
    if args.table:
        report = experiments.conjecture_table(args.n, args.k, args.a)
        stats = report.stats
    else:
        stats = experiments.exact_enumeration(args.n, args.k, args.a)
    payload = {
        "command": "exact",
        "n": args.n,
        "k": args.k,
        "a": args.a,
        "matrices": stats.trials,
        "p_omni": stats.p_omni_exact,
        "ex_missing": stats.ex_missing_exact,
    }
    if args.table:
        payload["per_target"] = [
            {"code": code, "p_missing": p} for code, p in report.table
        ]
        payload["monochromatic_codes"] = report.monochromatic_codes
        payload["maximal_all_monochromatic"] = report.maximal_all_monochromatic
    _emit(payload)
    return EXIT_OK


def _read_oned_sequence(args) -> tuple[list[int], int]:
    if args.file is not None:
        text = _read_text(args.file).replace("\n", "")  # \r\n was read as \n
        symbols = sorted(set(text))
        index = {s: i for i, s in enumerate(symbols)}
        return [index[s] for s in text], max(2, len(symbols))
    if not all(c in "0123456789" for c in args.seq):
        raise MosaicError(f"--seq must be decimal digits, got {args.seq!r}")
    check_sizes(a=args.a)
    seq = [int(c) for c in args.seq]
    return seq, args.a


def _cmd_oned(args) -> int:
    seq, a = _read_oned_sequence(args)
    collections = experiments.oneD_count_collections(seq, a)
    payload = {
        "command": "oned",
        "length": len(seq),
        "a": a,
        "collections": collections,
        "max_omni_k": collections,
    }
    if args.k is not None:
        payload["k"] = args.k
        payload["is_omni"] = experiments.oneD_is_omni(seq, args.k, a)
        if not power_exceeds(a, args.k, 2**20):
            payload["missing_words"] = experiments.oneD_missing_count(seq, args.k, a)
    _emit(payload)
    if args.k is not None and not payload["is_omni"]:
        return EXIT_FALSE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omnikit",
        description="Universal-matrix (omnimosaic) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a square omnimosaic in v1 format")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--strip", action="store_true", help="emit the thin strip instead")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a v1 matrix file for the omni property")
    p.add_argument("file", help="path to v1 matrix, or - for stdin")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("locate", help="place a target in the canonical construction")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--target-code", type=int, required=True)
    p.set_defaults(func=_cmd_locate)

    p = sub.add_parser("contains", help="search a matrix file for one target")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--target-code", type=int, required=True)
    p.set_defaults(func=_cmd_contains)

    p = sub.add_parser("search", help="exact existence search for omega(k,a)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--max-nodes", type=int)
    p.add_argument("--max-seconds", type=float)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("bounds", help="closed-form bounds and threshold report")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("sweep", help="CSV sweep of threshold certification over k")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--k-min", type=int, default=8)
    p.add_argument("--k-max", type=int, default=40)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("sample", help="Monte-Carlo estimate over random matrices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("exact", help="exhaustive enumeration of all small matrices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--table", action="store_true", help="include per-target table")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("oned", help="1-D omni sequence measurement")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--seq", help="digit string over the alphabet")
    group.add_argument(
        "--file", help="text file or - for stdin; its distinct characters but line ends "
        "form the alphabet"
    )
    p.add_argument("--a", type=int, default=2)
    p.add_argument("--k", type=int)
    p.set_defaults(func=_cmd_oned)

    return parser


# main's parser, built on its first call; parse_args keeps no state between calls
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (MosaicError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}".removesuffix(": "), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
