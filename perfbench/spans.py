"""Spans around calls into omnikit's public functions, recorded from outside.

``Tracer.install`` swaps each traced function, in every omnikit module that
holds it, for a wrapper that records a span: job id, span id, parent span
id, name, start and end, plus counts read off the call's arguments and
result.  Calls between traced functions therefore nest (``is_omnimosaic``
inside ``exists_omnimosaic``, ``exact_enumeration`` inside
``conjecture_table``).  Spans stay in memory until ``write`` at the end of
the run.  ``uninstall`` restores the originals, so untraced passes run the
package unmodified.
"""

from __future__ import annotations

import gzip
import math
import statistics
import sys
import time
from collections import defaultdict

from workloads import MC_SMALL

# layer -> public functions whose calls are timed
TRACED = {
    "core": ["parse_matrix", "serialize_matrix", "decode_target", "MosaicMatrix.from_numpy"],
    "construct": ["build_mosaic", "square_omnimosaic", "thin_strip", "locate"],
    "verify": ["coverage", "is_omnimosaic", "contains_target", "verify_placement"],
    "search": ["exists_omnimosaic", "min_omnimosaic_n"],
    "experiments": [
        "estimate",
        "exact_enumeration",
        "exact_target_missing_probability",
        "conjecture_table",
        "oneD_exhaustive_mean_missing",
    ],
    "bounds": [
        "pigeonhole_min_n",
        "asymptotic_lower",
        "construction_upper",
        "ramsey_n0",
        "oneD_threshold",
        "oneD_EX_threshold_ratio",
        "suen_threshold_n",
        "suen_report",
    ],
    "cli": ["main"],
}
LAYERS = list(TRACED)
CHUNK = 1 << 18  # experiments' enumeration chunk, to label 1-chunk vs 8-chunk runs


def _attrs(name: str, args, kwargs, result):
    """Counts and labels of one call, read at the same boundary as its span."""
    if name == "core.parse_matrix":
        return {"cells": result.rows * result.cols}
    if name == "construct.build_mosaic":
        m = result[0]
        return {"cells": m.rows * m.cols}
    if name == "verify.is_omnimosaic":
        return {"submatrices": result.submatrices_enumerated}
    if name == "verify.contains_target":
        return {"absent": result is None}
    if name == "search.exists_omnimosaic":
        return {"nodes": result.nodes, "open": result.status == "budget_exceeded"}
    if name == "experiments.estimate":
        config = args[0]
        workers = kwargs.get("workers", args[1] if len(args) > 1 else 1)
        return {"trials": config.trials, "n": config.n, "workers": workers}
    if name == "experiments.exact_enumeration":
        return {"matrices": result.trials}
    return None


class Tracer:
    """Spans of one run, and the originals of the functions it replaced."""

    def __init__(self):
        self.spans: list[tuple] = []  # (job, id, parent, name, start, end, attrs)
        self.job = 0
        self._stack = [0]
        self._next = 1
        self._saved: list[tuple] = []
        self.job_names: list[str] = []  # job id -> job name
        self.untimed: set[int] = set()  # ids of jobs kept out of pass_s

    def begin_job(self, name: str, timed: bool) -> None:
        """Give the spans that follow a new job id."""
        self.job = len(self.job_names)
        self.job_names.append(name)
        if not timed:
            self.untimed.add(self.job)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1]
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            spans.append((self.job, sid, parent, name, t0, t1,
                          _attrs(name, args, kwargs, result)))
            return result

        return traced

    def install(self) -> None:
        from omnikit.core import MosaicMatrix

        modules = [m for n, m in sys.modules.items() if n == "omnikit" or n.startswith("omnikit.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"omnikit.{layer}"]
            for fname in names:
                if fname == "MosaicMatrix.from_numpy":
                    orig = MosaicMatrix.__dict__["from_numpy"]
                    wrapped = classmethod(self._wrap(f"{layer}.{fname}", orig.__func__))
                    self._saved.append((MosaicMatrix, "from_numpy", orig))
                    setattr(MosaicMatrix, "from_numpy", wrapped)
                    continue
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("job_id,job,span,parent,name,start,end\n")
            for job, sid, parent, name, t0, t1, _ in self.spans:
                fh.write(f"{job},{self.job_names[job]},{sid},{parent},{name},"
                         f"{t0:.9f},{t1:.9f}\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    child = defaultdict(float)
    for _, _, parent, _, t0, t1, _ in spans:
        child[parent] += t1 - t0
    return {sid: (t1 - t0) - child[sid] for _, sid, _, _, t0, t1, _ in spans}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def pass_metrics(spans, pass_s: float, untimed: set[int]) -> tuple[dict, dict]:
    """(per-layer metrics, per-layer self seconds) of one traced pass.

    Spans of the jobs in ``untimed`` (the fixed-budget open search) count
    only towards the open-instance node metrics, as they do not count in
    pass_s.
    """
    selfs = self_times(spans)
    layer_self = {layer: 0.0 for layer in LAYERS}
    by_name = defaultdict(float)
    calls = defaultdict(int)
    parent_name = {sid: name for _, sid, _, name, _, _, _ in spans}
    m: dict[str, float] = defaultdict(float)
    for job, sid, parent, name, t0, t1, attrs in spans:
        if job in untimed:
            if name == "search.exists_omnimosaic" and attrs["open"]:
                m["search.open_nodes"] += attrs["nodes"]
                m["_open_s"] += t1 - t0
            continue
        s = selfs[sid]
        layer_self[name.split(".")[0]] += s
        by_name[name] += s
        calls[name] += 1
        attrs = attrs or {}
        if name == "core.parse_matrix":
            m["core.cells_parsed"] += attrs["cells"]
        elif name == "construct.build_mosaic":
            m["construct.cells_built"] += attrs["cells"]
        elif name == "verify.is_omnimosaic":
            m["verify.submatrices"] += attrs["submatrices"]
            if parent_name.get(parent, "").startswith("search."):
                m["search.witness_check_s"] += t1 - t0
        elif name == "verify.contains_target":
            m["verify.contains_absent_calls"] += attrs["absent"]
        elif name == "search.exists_omnimosaic":
            m["search.nodes"] += attrs["nodes"]
            m["_decided_s"] += s
        elif name == "experiments.estimate" and attrs["workers"] == 1:
            kind = "_small" if attrs["n"] == MC_SMALL[0] else "_mc"
            m[f"{kind}_trials"] += attrs["trials"]
            m[f"{kind}_s"] += t1 - t0
        elif name == "experiments.exact_enumeration":
            tag = "1chunk" if attrs["matrices"] <= CHUNK else "8chunk"
            m[f"experiments.enum_{tag}_s"] += s
            m[f"experiments.matrices_{tag}"] += attrs["matrices"]

    out = {
        "core.parse_s": by_name["core.parse_matrix"],
        "core.serialize_s": by_name["core.serialize_matrix"],
        "core.cells_parsed": m["core.cells_parsed"],
        "core.decode_target_s": by_name["core.decode_target"],
        "core.decode_target_calls": calls["core.decode_target"],
        "core.from_numpy_s": by_name["core.MosaicMatrix.from_numpy"],
        "construct.build_s": by_name["construct.build_mosaic"]
        + by_name["construct.square_omnimosaic"] + by_name["construct.thin_strip"],
        "construct.cells_built": m["construct.cells_built"],
        "construct.locate_s": by_name["construct.locate"],
        "construct.locate_calls": calls["construct.locate"],
        "verify.coverage_s": by_name["verify.coverage"] + by_name["verify.is_omnimosaic"],
        "verify.submatrices": m["verify.submatrices"],
        "verify.contains_s": by_name["verify.contains_target"],
        "verify.contains_calls": calls["verify.contains_target"],
        "verify.contains_absent_calls": m["verify.contains_absent_calls"],
        "verify.placement_s": by_name["verify.verify_placement"],
        "verify.placement_checks": calls["verify.verify_placement"],
        "search.exists_s": layer_self["search"],  # decided instances only
        "search.witness_check_s": m["search.witness_check_s"],
        "search.nodes": m["search.nodes"],
        "search.nodes_per_s": _rate(m["search.nodes"], m["_decided_s"]),
        "search.open_nodes": m["search.open_nodes"],
        "search.open_nodes_per_s": _rate(m["search.open_nodes"], m["_open_s"]),
        "experiments.estimate_s": by_name["experiments.estimate"],
        "experiments.trials_per_s": _rate(m["_mc_trials"], m["_mc_s"]),
        "experiments.small_trials_per_s": _rate(m["_small_trials"], m["_small_s"]),
        "experiments.single_target_s": by_name["experiments.exact_target_missing_probability"],
        "experiments.oned_s": by_name["experiments.oneD_exhaustive_mean_missing"],
        "bounds.busy_s": layer_self["bounds"],
        "bounds.calls": sum(calls[n] for n in calls if n.startswith("bounds.")),
        "cli.calls": calls["cli.main"],
        "cli.self_s": layer_self["cli"],
    }
    out["verify.submatrices_per_s"] = _rate(out["verify.submatrices"], out["verify.coverage_s"])
    for tag in ("1chunk", "8chunk"):
        out[f"experiments.enum_{tag}_s"] = m[f"experiments.enum_{tag}_s"]
        out[f"experiments.matrices_{tag}"] = m[f"experiments.matrices_{tag}"]
        out[f"experiments.matrices_per_s_{tag}"] = _rate(
            m[f"experiments.matrices_{tag}"], m[f"experiments.enum_{tag}_s"])
    layer_self["bench"] = pass_s - sum(layer_self.values())
    return out, layer_self


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}


def self_time_table(workload: str, layer_self: dict[str, float], pass_s: float) -> str:
    lines = [f"self time per traced pass, workload {workload} ({pass_s:.4f} s):",
             f"  {'layer':<12} {'self_s':>10} {'share':>7}"]
    for layer, s in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        share = s / pass_s if pass_s > 0 else math.nan
        lines.append(f"  {layer:<12} {s:>10.4f} {share:>7.1%}")
    return "\n".join(lines)
