"""Seeded inputs and job lists for the omnikit benchmark.

A workload is a fixed list of jobs.  Each job is one call, or one CLI
pipeline, into the package; its oracle (oracles.py) checks the answer with
code that does not share the package's algorithms.  Most jobs belong to a
group, one per user-facing timing (``certify_s``, ``locate_all_s``, ...).
``make_inputs`` turns the workload seed into every input the package
receives, so a hash of its result shows that two runs used identical inputs.

The CLI runs in-process through ``omnikit.cli.main(argv)`` with stdin,
stdout and stderr captured, so one process carries the whole load; only the
two-worker Monte-Carlo job starts a worker pool.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ["core", "construct", "verify", "search", "bounds", "experiments", "cli"]

WORKLOADS = ["certify", "enumerate"]

# certify: verify, construct, core and search; never experiments
CERTIFY_PIPES = [(3, 3), (4, 2), (3, 4)]
ROUNDTRIP = (8, 3)
LOCATE_CASES = [(3, 3), (4, 2)]
REJECT_HOSTS = [(12, 3, 3), (10, 2, 4), (14, 3, 3)]  # (side, a, k), seeded entries
REJECT_TARGETS = 50  # absent and present targets per host
# certify, search jobs: the pure-Python DFS, with a little verify for witness checks
SEARCH_FOUND = [(4, 2, 2), (5, 2, 2), (6, 2, 2), (7, 2, 2)]
SEARCH_EXHAUSTED = [(3, 2, 2), (4, 2, 3), (6, 3, 2)]  # all below the pigeonhole bound
# ω(2,3) is open: this instance only ever hits its time budget, so its
# duration is the budget and it stays out of pass_s.
SEARCH_OPEN = (5, 2, 3)
SEARCH_OPEN_SECONDS = 0.25
# enumerate: experiments with a little bounds; never verify, search or construct
ONED = (18, 3, 2)
MC_BIG = (12, 3, 2)  # kernel-bound trials
MC_BIG_TRIALS = 400
MC_SMALL = (4, 2, 2)  # per-trial overhead dominates
MC_SMALL_TRIALS = 10_000
MC_WORKERS = 2

def import_omnikit():
    """Import every omnikit module from this checkout's ``src``.

    Raises ImportError when the checkout holds no package, so the benchmark
    never measures an omnikit installed elsewhere.
    """
    if not (SRC / "omnikit" / "__init__.py").is_file():
        raise ImportError(f"no omnikit package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    omnikit = importlib.import_module("omnikit")
    if Path(omnikit.__file__).resolve().parent != (SRC / "omnikit").resolve():
        raise ImportError(f"omnikit imported from {omnikit.__file__}, not {SRC}")
    for name in MODULES:
        importlib.import_module(f"omnikit.{name}")
    return omnikit


@dataclass
class CliResult:
    code: int
    out: str


class Recorder:
    """Runs CLI commands in-process and counts exits outside a job's expected set."""

    def __init__(self):
        self.unexpected_exits = 0

    def cli(self, argv: list, stdin: str = "", expect=(0,)) -> CliResult:
        from omnikit import cli

        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([str(x) for x in argv])
        finally:
            sys.stdin = saved
        if code not in expect:
            self.unexpected_exits += 1
        return CliResult(code, out.getvalue())


@dataclass
class Job:
    """One timed call.  ``check(result, done)`` returns failure messages;
    ``done`` maps names of jobs earlier in the same pass to their results."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], list[str]]
    group: str | None = None
    timed: bool = True  # counted in pass_s
    trials: int = 0
    verdict: Callable[[Any], dict] | None = None  # recorded, never scored


@dataclass
class Inputs:
    workload: str
    seed: int
    data: dict = field(default_factory=dict)
    # oracle-side answers derived with the inputs; not sent to the package
    expected: dict = field(default_factory=dict)

    def digest(self) -> str:
        blob = json.dumps(
            {"workload": self.workload, "seed": self.seed, "data": self.data},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode()).hexdigest()


def make_inputs(workload: str, seed: int) -> Inputs:
    """Every input the package receives in this workload, from the seed alone.

    The seed varies what can vary without changing the amount of work: host
    entries and targets, target order, target codes and the Monte-Carlo seed.
    The constructions and search instances are fixed.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    salt = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "big")
    rng = np.random.default_rng([seed, salt])
    inputs = Inputs(workload, seed)
    d = inputs.data
    if workload == "certify":
        d["pipes"] = [list(p) for p in CERTIFY_PIPES]
        d["roundtrip"] = list(ROUNDTRIP)
        d["orders"] = {
            f"{k},{a}": rng.permutation(a ** (k * k)).tolist() for k, a in LOCATE_CASES
        }
        d["hosts"], inputs.expected["covered"] = [], []
        for side, a, k in REJECT_HOSTS:
            while True:
                arr = rng.integers(0, a, size=(side, side))
                covered = oracles.brute_coverage(arr.tolist(), k, a)
                if len(covered) < a ** (k * k):
                    break
            absent = np.setdiff1d(np.arange(a ** (k * k)), np.fromiter(covered, int))
            present = np.fromiter(sorted(covered), int)
            d["hosts"].append({
                "a": a,
                "k": k,
                "rows": arr.tolist(),
                "absent": rng.choice(absent, REJECT_TARGETS, replace=False).tolist(),
                "present": rng.choice(present, REJECT_TARGETS, replace=False).tolist(),
            })
            inputs.expected["covered"].append(covered)
        d["found"] = [list(x) for x in SEARCH_FOUND]
        d["exhausted"] = [list(x) for x in SEARCH_EXHAUSTED]
        d["open"] = [*SEARCH_OPEN, SEARCH_OPEN_SECONDS]
    else:
        d["single_4_2_2"] = int(rng.integers(0, 2**4))
        d["single_3_1_5"] = int(rng.integers(0, 5))
        d["oned"] = list(ONED)
        d["mc_seed"] = int(rng.integers(0, 2**31))
        d["mc_big"] = [*MC_BIG, MC_BIG_TRIALS]
        d["mc_small"] = [*MC_SMALL, MC_SMALL_TRIALS]
    return inputs


def search_verdict(res: CliResult) -> dict:
    """Status and node count of a search kept out of scoring."""
    payload = json.loads(res.out)
    return {"status": payload["status"], "nodes": payload["trace"][-1]["nodes"]}


def make_jobs(inputs: Inputs, rec: Recorder) -> list[Job]:
    if inputs.workload == "certify":
        return _certify_jobs(inputs, rec) + _search_jobs(inputs, rec)
    return _enumerate_jobs(inputs, rec)


def _certify_jobs(inputs: Inputs, rec: Recorder) -> list[Job]:
    from omnikit import construct, core, verify

    d = inputs.data
    jobs: list[Job] = []
    for k, a in d["pipes"]:
        def pipe(k=k, a=a):
            built = rec.cli(["construct", "--k", k, "--a", a])
            return built, rec.cli(["verify", "-", "--k", k], stdin=built.out)

        jobs.append(Job(f"pipe-{k}-{a}", pipe,
                        lambda r, done, k=k, a=a: oracles.check_pipe(r, k, a),
                        group="certify_s"))
    k8, a8 = d["roundtrip"]

    def roundtrip():
        built = rec.cli(["construct", "--k", k8, "--a", a8])
        m = core.parse_matrix(built.out)
        return built, m, core.serialize_matrix(m)

    jobs.append(Job(f"roundtrip-{k8}-{a8}", roundtrip,
                    lambda r, done: oracles.check_roundtrip(r, k8, a8),
                    group="certify_s"))

    for key, order in d["orders"].items():
        k, a = (int(x) for x in key.split(","))

        def locate_all(k=k, a=a, order=order):
            grid = construct.canonical_grid(k)
            mosaic, rm = construct.build_mosaic(grid, a)
            targets, rows, cols, ok = [], [], [], []
            for code in order:
                t = core.decode_target(code, k, a)
                p = construct.locate(rm, grid, t)
                ok.append(verify.verify_placement(mosaic, p, t))
                targets.append(t.entries)
                rows.append(p.row_idx)
                cols.append(p.col_idx)
            return mosaic, targets, rows, cols, ok

        jobs.append(Job(f"locate-{k}-{a}", locate_all,
                        lambda r, done, k=k, a=a, order=order:
                        oracles.check_locate_all(r, order, k, a),
                        group="locate_all_s"))

    for i, (h, covered) in enumerate(zip(d["hosts"], inputs.expected["covered"])):
        host = core.MosaicMatrix.from_rows(h["rows"], h["a"])

        def reject(h=h, host=host):
            k, a = h["k"], h["a"]
            report = verify.is_omnimosaic(host, k)
            found = {}
            for code in h["absent"] + h["present"]:
                found[code] = verify.contains_target(host, core.decode_target(code, k, a))
            return report, found

        jobs.append(Job(f"reject-{i}", reject,
                        lambda r, done, h=h, covered=covered:
                        oracles.check_reject(r, h, covered),
                        group="reject_s"))
    return jobs


def _search_jobs(inputs: Inputs, rec: Recorder) -> list[Job]:
    d = inputs.data
    jobs: list[Job] = []
    for n, k, a in d["found"]:
        jobs.append(Job(
            f"found-{n}-{k}-{a}",
            lambda n=n, k=k, a=a: rec.cli(["search", "--k", k, "--a", a, "--n", n]),
            lambda r, done, k=k, a=a: oracles.check_search(r, k, a, {0}, "found"),
            group="search_verdict_s"))
    jobs.append(Job(
        "walk-2-2",
        lambda: rec.cli(["search", "--k", 2, "--a", 2]),
        lambda r, done: oracles.check_search(r, 2, 2, {0}, "found"),
        group="search_verdict_s"))
    for n, k, a in d["exhausted"]:
        jobs.append(Job(
            f"exhausted-{n}-{k}-{a}",
            lambda n=n, k=k, a=a: rec.cli(["search", "--k", k, "--a", a, "--n", n],
                                          expect=(3,)),
            lambda r, done, k=k, a=a: oracles.check_search(r, k, a, {3}, "exhausted_none"),
            group="search_verdict_s"))
    n, k, a, secs = d["open"]
    jobs.append(Job(
        f"open-{n}-{k}-{a}",
        lambda: rec.cli(["search", "--k", k, "--a", a, "--n", n, "--max-seconds", secs],
                        expect=(0, 3, 4)),
        lambda r, done: oracles.check_search(r, k, a, {0, 3, 4}, None),
        timed=False, verdict=search_verdict))
    return jobs


def _enumerate_jobs(inputs: Inputs, rec: Recorder) -> list[Job]:
    from omnikit import experiments

    d = inputs.data
    c4, c3 = d["single_4_2_2"], d["single_3_1_5"]
    n1, k1, a1 = d["oned"]
    jobs = [
        Job("exact-4-2-2",
            lambda: rec.cli(["exact", "--n", 4, "--k", 2, "--a", 2, "--table"]),
            lambda r, done: oracles.check_exact_table(r)),
        Job("enum-3-1-5",
            lambda: experiments.exact_enumeration(3, 1, 5),
            lambda r, done: oracles.check_enum_3_1_5(r)),
        Job("single-4-2-2",
            lambda: experiments.exact_target_missing_probability(4, 2, 2, c4),
            lambda r, done: oracles.check_single_4_2_2(r, c4, done.get("exact-4-2-2"))),
        Job("single-3-1-5",
            lambda: experiments.exact_target_missing_probability(3, 1, 5, c3),
            lambda r, done: oracles.check_single_3_1_5(r, c3, done.get("enum-3-1-5"))),
        Job(f"oned-{n1}-{k1}-{a1}",
            lambda: experiments.oneD_exhaustive_mean_missing(n1, k1, a1),
            lambda r, done: oracles.check_oned(r, n1, k1, a1)),
        Job("bounds-3-2",
            lambda: rec.cli(["bounds", "--k", 3, "--a", 2]),
            lambda r, done: oracles.check_bounds(r, 3, 2)),
        Job("sweep-2",
            lambda: rec.cli(["sweep", "--a", 2]),
            lambda r, done: oracles.check_sweep(r, 2, 8, 40)),
    ]
    for job in jobs:
        job.group = "exact_s"

    seed = d["mc_seed"]
    n, k, a, trials = d["mc_big"]
    one = ["sample", "--n", n, "--k", k, "--a", a, "--trials", trials, "--seed", seed]
    first: dict = {}
    mc1 = f"mc-{n}-{k}-{a}"
    jobs.append(Job(mc1, lambda: rec.cli(one),
                    lambda r, done: oracles.check_sample_stable(r, trials, first),
                    group="mc_trials_per_s", trials=trials))
    # Two workers finish when the slower one does, so this job's time swings
    # with the load on the machine's other core; it is kept out of pass_s.
    jobs.append(Job(f"mc2-{n}-{k}-{a}", lambda: rec.cli(one + ["--workers", MC_WORKERS]),
                    lambda r, done: oracles.check_sample_same(r, done.get(mc1)),
                    group="mc2_trials_per_s", timed=False, trials=trials))
    n, k, a, small = d["mc_small"]
    jobs.append(Job(
        f"mc-{n}-{k}-{a}",
        lambda: rec.cli(["sample", "--n", n, "--k", k, "--a", a, "--trials", small,
                         "--seed", seed]),
        lambda r, done: oracles.check_sample_4_2_2(r, small),
        trials=small))
    return jobs
