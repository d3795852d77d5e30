"""omnikit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 35 --trace 0

The workloads are in workloads.py and BENCHMARK.json.  A run imports
omnikit from ``src`` of this checkout, builds its inputs from the seed, runs
one unchecked warm-up pass, then repeats passes over the workload's job list
for ``--seconds``.  Every answer is checked by an oracle; a failed check, an
exception or an unexpected CLI exit code counts as a failed job and makes
the run exit 1.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
median pass time, set-up time (median over three fresh processes, this one
and two children, each timed through importing numpy and omnikit and
through its first pass) and peak RSS of the process and its pool children.
It also prints the timing of each job group of the workload and the share
of failed jobs.  With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics of spans.py and the tracing
overhead.  The last stdout line is the JSON result; a fuller record goes to
``--out``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # before numpy and omnikit are imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import ROOT  # noqa: E402

HERE = Path(__file__).resolve().parent
# metric names and units, as the benchmark declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MIN_PASSES = 3
SETUP_SAMPLES = 3
MAX_FAILURE_NOTES = 20
EXIT_FAILED = 1
EXIT_NO_PACKAGE = 2


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Run:
    """Runs passes over one workload's jobs and tallies failures."""

    def __init__(self, jobs: list[workloads.Job], rec: workloads.Recorder):
        self.jobs = jobs
        self.rec = rec
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.job_times: dict[str, list[float]] = defaultdict(list)
        self.verdicts: dict[str, list] = defaultdict(list)

    def _fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(msg)

    def one_pass(self, tracer=None, check: bool = True) -> dict[str, float]:
        """Run every job once.  Returns ``pass_s``, the summed time of the
        timed jobs, and the summed time of each job group."""
        done: dict = {}
        sums: dict[str, float] = defaultdict(float)
        for job in self.jobs:
            if tracer is not None:
                tracer.begin_job(job.name, job.timed)
            self.attempted += 1
            exits_before = self.rec.unexpected_exits
            t0 = time.perf_counter()
            try:
                result = job.run()
            except Exception:
                self._fail(f"{job.name}: {traceback.format_exc(limit=3)}")
                continue
            elapsed = time.perf_counter() - t0
            self.job_times[job.name].append(elapsed)
            if job.timed:
                sums["pass_s"] += elapsed
            if job.group:
                sums[job.group] += elapsed
            if not check:
                continue
            done[job.name] = result
            try:
                problems = job.check(result, done)
            except Exception:
                problems = [f"oracle raised: {traceback.format_exc(limit=3)}"]
            if self.rec.unexpected_exits != exits_before and not problems:
                problems = ["unexpected CLI exit code"]
            if problems:
                self._fail(f"{job.name}: {'; '.join(problems)}")
            if job.verdict:
                self.verdicts[job.name].append(job.verdict(result))
        return sums

    def passes(self, seconds: float | None, tracer=None) -> tuple[float, list[dict]]:
        """An unchecked warm-up pass, then checked passes for ``seconds``, at
        least MIN_PASSES; ``seconds`` None stops after the warm-up.  With a
        tracer, untraced and traced passes alternate and only traced ones are
        returned, each with the untraced pass before it under ``plain_pass_s``.

        Returns the warm-up's wall time and the passes.  Every pass, the
        warm-up too, calls the jobs from the same stack depth: CPython 3.11
        allocates frame stack chunks on demand, so the deep recursion in
        search runs several times slower at some caller depths than others.
        """
        t0 = time.perf_counter()
        self.one_pass(check=False)  # caches fill and lazy set-up finishes
        warm = time.perf_counter() - t0
        self.job_times.clear()
        out: list[dict] = []
        start = time.perf_counter()
        while seconds is not None and (
                len(out) < MIN_PASSES or time.perf_counter() - start < seconds):
            if tracer is None:
                out.append(self.one_pass())
                continue
            plain = self.one_pass()["pass_s"]
            first = len(tracer.spans)
            tracer.install()
            try:
                sums = self.one_pass(tracer)
            finally:
                tracer.uninstall()
            out.append({**sums, "plain_pass_s": plain, "first_span": first})
        return warm, out


def group_metrics(jobs: list[workloads.Job], passes: list[dict]) -> dict:
    """Median and quartiles of each job group's per-pass time; a
    ``trials_per_s`` group reports its jobs' trials over that time."""
    out = {}
    for group in dict.fromkeys(j.group for j in jobs if j.group):
        q = quartiles([p[group] for p in passes])
        if group.endswith("trials_per_s"):
            trials = sum(j.trials for j in jobs if j.group == group)
            q = {"median": trials / q["median"], "q1": trials / q["q3"],
                 "q3": trials / q["q1"], "n": q["n"]}
            out[group] = (q, "trials/s")
        else:
            out[group] = (q, "s")
    return out


def context(load_start) -> dict:
    ctx = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "git_commit": git_commit(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                ctx["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            ctx[f"l{level}_cache"] = size
    return ctx


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh child processes, run one after another."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-child",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, cwd=ROOT, timeout=150, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr[-2000:]}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (the MC pool)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def _line(name: str, q: dict, unit: str) -> str:
    return (f"{name:<17} {q['median']:.6g} {unit}  "
            f"(q1 {q['q1']:.6g}, q3 {q['q3']:.6g}, n={q['n']})")


def untraced(run: Run, args, passes: list[dict], setup_self: float):
    rss = peak_rss_mb()  # before the set-up children are reaped
    setup = [setup_self] + measure_setup(args.workload, args.seed)
    e2e = {
        "pass_s": (quartiles([p["pass_s"] for p in passes]), "s"),
        "setup_s": (quartiles(setup), "s"),
        "peak_rss_mb": (quartiles([rss]), "MB"),
    }
    groups = group_metrics(run.jobs, passes)
    metrics = {m["name"]: {"value": e2e[m["name"]][0]["median"], "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    record = {
        "e2e": {name: {**q, "unit": unit} for name, (q, unit) in e2e.items()},
        "groups": {name: {**q, "unit": unit} for name, (q, unit) in groups.items()},
        "passes": [p["pass_s"] for p in passes],
        "setup_samples": setup,
    }
    lines = [_line(name, q, unit) for name, (q, unit) in {**e2e, **groups}.items()]
    return metrics, record, "\n".join(lines)


def traced(run: Run, args, tracer, passes: list[dict]):
    """Per-layer medians over traced passes, and the tracing overhead."""
    rows, selfs = [], []
    ends = [p["first_span"] for p in passes[1:]] + [len(tracer.spans)]
    for p, end in zip(passes, ends):
        row, layer_self = spans.pass_metrics(
            tracer.spans[p["first_span"]:end], p["pass_s"], tracer.untimed)
        row["trace.spans"] = end - p["first_span"]
        rows.append(row)
        selfs.append(layer_self)
    metrics = spans.median_metrics(rows)
    traced_s = statistics.median(p["pass_s"] for p in passes)
    plain_s = statistics.median(p["plain_pass_s"] for p in passes)
    metrics["trace.pass_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["cli.unexpected_exit"] = run.rec.unexpected_exits
    groups = group_metrics(run.jobs, passes)
    metrics["experiments.parallel_efficiency"] = (
        groups["mc2_trials_per_s"][0]["median"] / (2 * groups["mc_trials_per_s"][0]["median"])
        if "mc2_trials_per_s" in groups else 0.0)
    per_layer = {m["name"]: (metrics[m["name"]], m["unit"]) for m in SPEC["per_layer"]}

    args.out.mkdir(parents=True, exist_ok=True)
    spans_path = args.out / f"{args.workload}_seed{args.seed}_spans.csv.gz"
    tracer.write(spans_path)
    report = "\n".join([
        spans.self_time_table(args.workload, spans.median_metrics(selfs), traced_s),
        f"tracing overhead: {metrics['trace.overhead_s']:.4f} s per pass "
        f"(traced {traced_s:.4f} s, untraced {plain_s:.4f} s, {len(passes)} passes each)",
    ] + [f"  {name:<36} {value:.6g} {unit}" for name, (value, unit) in per_layer.items()])
    out = {name: {"value": v, "unit": unit} for name, (v, unit) in per_layer.items()}
    return out, {"per_layer": out, "spans": spans_path.name}, report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=HERE / "results",
                   help="directory for the full result record")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    load_start = os.getloadavg()
    try:
        workloads.import_omnikit()
    except ImportError as exc:
        print(f"error: cannot import omnikit: {exc}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    t_import = time.perf_counter() - T_START

    inputs = workloads.make_inputs(args.workload, args.seed)
    rec = workloads.Recorder()
    run = Run(workloads.make_jobs(inputs, rec), rec)
    tracer = spans.Tracer() if args.trace else None
    warm, passes = run.passes(None if args.setup_child else args.seconds, tracer)
    setup_self = t_import + warm
    if args.setup_child:
        print(json.dumps({"setup_s": setup_self}))
        return 0

    if args.trace:
        metrics, record, report = traced(run, args, tracer, passes)
    else:
        metrics, record, report = untraced(run, args, passes, setup_self)

    failed_frac = run.failed / run.attempted
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "inputs_sha256": inputs.digest(),
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": failed_frac,
        "failures": run.notes,
        "jobs": {name: quartiles(ts) for name, ts in run.job_times.items()},
        "verdicts": run.verdicts,
        "context": context(load_start),
    })
    args.out.mkdir(parents=True, exist_ok=True)
    out_file = args.out / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"workload {args.workload}, seed {args.seed}, inputs sha256 {inputs.digest()}")
    print(report)
    print(f"{'failed_frac':<17} {failed_frac:.6g} ratio  ({run.failed} of {run.attempted} jobs)")
    for note in run.notes:
        print(f"FAILED {note}", file=sys.stderr)
    print(f"record: {out_file}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
