"""Compare two sets of benchmark runs, or summarise one.

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

Each directory holds the ``*_trace0.json`` records that run.py writes with
``--out``.  For every workload and end-to-end metric, and for each job
group's timing (``certify_s``, ``search_verdict_s``, ...; judged against the
bound of ``pass_s``), the command prints each side's median and quartiles
over its runs, the pair win fraction (runs paired
by seed; the change wins a pair when it is better, ties count for neither)
and a verdict against the metric's bound in BENCHMARK.json:

* ``unresolved``: a side's spread, (q3 - q1) / median, exceeds the bound,
  unless every change run beats every base run;
* ``WORSE``: the change's median is worse than the base's by more than the bound;
* ``gain``: the change wins at least 9 in 10 pairs and the medians differ by
  more than the base's quartile distance;
* ``within bound`` otherwise.

With one directory it prints each metric's spread next to its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> record."""
    runs: dict[str, dict[int, dict]] = defaultdict(dict)
    for path in sorted(directory.glob("*_trace0.json")):
        rec = json.loads(path.read_text())
        runs[rec["workload"]][rec["seed"]] = rec
    return runs


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else float("inf")}


def verdict(base: dict[int, float], change: dict[int, float], bound: float,
            lower_better: bool) -> tuple[str, float | None]:
    sb, sc = summary(list(base.values())), summary(list(change.values()))
    sign = 1 if lower_better else -1

    def better(x: float, y: float) -> bool:
        return sign * (x - y) < 0

    pairs = [(base[s], change[s]) for s in base if s in change]
    wins = sum(better(c, b) for b, c in pairs)
    win_frac = wins / len(pairs) if pairs else None
    every = all(better(c, b) for c in change.values() for b in base.values())
    worse_by = sign * (sc["median"] - sb["median"]) / sb["median"]
    if max(sb["spread"], sc["spread"]) > bound and not every:
        return "unresolved", win_frac
    if worse_by > bound:
        return "WORSE", win_frac
    if (win_frac is not None and win_frac >= WIN_SHARE
            and abs(sc["median"] - sb["median"]) > sb["q3"] - sb["q1"]):
        return "gain", win_frac
    return "within bound", win_frac


def _fmt(s: dict) -> str:
    return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path, nargs="?")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = load(args.base)
    change = load(args.change) if args.change else None
    if not base:
        p.error(f"no *_trace0.json records in {args.base}")

    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base:
            continue
        b_runs = base[workload]
        c_runs = change.get(workload, {}) if change else {}
        mismatched = [s for s in b_runs if s in c_runs
                      and b_runs[s]["inputs_sha256"] != c_runs[s]["inputs_sha256"]]
        if mismatched:
            print(f"{workload}: inputs differ between sides for seeds {mismatched}")
        pass_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "pass_s")
        rows = [("e2e", m["name"], m["bound"], m["better"]) for m in spec["end_to_end"]]
        rows += [("groups", g, pass_bound, "higher" if g.endswith("per_s") else "lower")
                 for g in next(iter(b_runs.values()))["groups"]]
        for section, name, bound, better in rows:
            b_vals = {s: r[section][name]["median"] for s, r in b_runs.items()}
            sb = summary(list(b_vals.values()))
            if change is None:
                flag = "steady" if sb["spread"] <= bound / 3 else (
                    "within bound" if sb["spread"] <= bound else "TOO NOISY")
                print(f"{workload:<9} {name:<16} {_fmt(sb)}  spread {sb['spread']:.1%} "
                      f"(bound {bound:.0%}) {flag}")
                continue
            if not c_runs:
                print(f"{workload:<9} {name:<16} no change runs")
                continue
            c_vals = {s: r[section][name]["median"] for s, r in c_runs.items()}
            v, win = verdict(b_vals, c_vals, bound, better == "lower")
            win_s = "n/a" if win is None else f"{win:.0%}"
            print(f"{workload:<9} {name:<16} base {_fmt(sb)} | change "
                  f"{_fmt(summary(list(c_vals.values())))} | wins {win_s} | {v}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
