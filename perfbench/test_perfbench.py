"""Tests of the benchmark itself: seeded inputs repeat byte for byte, and
every oracle rejects a corrupted answer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

workloads.import_omnikit()

from omnikit import construct, core, experiments, verify  # noqa: E402



@pytest.fixture
def rec():
    return workloads.Recorder()


def _inputs_bytes(inputs: workloads.Inputs) -> bytes:
    return json.dumps(inputs.data, sort_keys=True).encode()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_fixed_seed_regenerates_identical_inputs(workload):
    a = workloads.make_inputs(workload, 11)
    b = workloads.make_inputs(workload, 11)
    assert _inputs_bytes(a) == _inputs_bytes(b)
    assert a.digest() == b.digest()
    assert workloads.make_inputs(workload, 12).digest() != a.digest()


def test_brute_coverage_matches_known_witness():
    witness = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 0], [0, 1, 1, 1]]
    assert len(oracles.brute_coverage(witness, 2, 2)) == 16
    flipped = copy.deepcopy(witness)
    flipped[3][3] = 0
    assert len(oracles.brute_coverage(flipped, 2, 2)) < 16


def test_p_omni_k1_closed_form():
    assert oracles.p_omni_k1(3, 5) == Fraction(166824, 390625)


def _with_json(res, **changes):
    payload = json.loads(res.out)
    payload.update(changes)
    return workloads.CliResult(res.code, json.dumps(payload))


def test_pipe_oracle(rec):
    built = rec.cli(["construct", "--k", "2", "--a", "2"])
    verified = rec.cli(["verify", "-", "--k", "2"], stdin=built.out)
    assert oracles.check_pipe((built, verified), 2, 2) == []
    assert oracles.check_pipe((built, _with_json(verified, is_omni=False)), 2, 2)
    assert oracles.check_pipe((built, _with_json(verified, covered=15)), 2, 2)
    assert oracles.check_pipe((built, workloads.CliResult(3, verified.out)), 2, 2)


def test_roundtrip_oracle(rec):
    built = rec.cli(["construct", "--k", "2", "--a", "3"])
    m = core.parse_matrix(built.out)
    text = core.serialize_matrix(m)
    assert oracles.check_roundtrip((built, m, text), 2, 3) == []
    bad = text.replace("\n0", "\n1", 1)
    assert oracles.check_roundtrip((built, m, bad), 2, 3)


def test_locate_oracle():
    k, a = 2, 2
    order = list(range(a ** (k * k)))
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
    result = (mosaic, targets, rows, cols, ok)
    assert oracles.check_locate_all(result, order, k, a) == []
    # swap the placements of two targets: each still verifies as a placement
    # shape, but no longer holds its own target
    swapped = rows[:]
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    assert oracles.check_locate_all((mosaic, targets, swapped, cols, ok), order, k, a)
    assert oracles.check_locate_all((mosaic, targets, rows, cols, ok[:-1] + [False]),
                                    order, k, a)


def test_reject_oracle():
    inputs = workloads.make_inputs("certify", 5)
    host = inputs.data["hosts"][0]
    covered = inputs.expected["covered"][0]
    m = core.MosaicMatrix.from_rows(host["rows"], host["a"])
    k, a = host["k"], host["a"]
    report = verify.is_omnimosaic(m, k)
    found = {c: verify.contains_target(m, core.decode_target(c, k, a))
             for c in host["absent"] + host["present"]}
    assert oracles.check_reject((report, found), host, covered) == []
    off_by_one = replace(report, covered=report.covered + 1)
    assert oracles.check_reject((off_by_one, found), host, covered)
    present = host["present"][0]
    lost = {**found, present: None}
    assert oracles.check_reject((report, lost), host, covered)
    wrong = {**found, present: found[host["present"][1]]}
    assert oracles.check_reject((report, wrong), host, covered)


def test_search_oracle_rejects_flipped_witness_cell(rec):
    res = rec.cli(["search", "--k", "2", "--a", "2", "--n", "4"])
    assert oracles.check_search(res, 2, 2, {0}, "found") == []
    payload = json.loads(res.out)
    a, rows = oracles.parse_v1(payload["trace"][0]["witness"])
    for i in range(4):
        for j in range(4):
            bad = copy.deepcopy(rows)
            bad[i][j] = 1 - bad[i][j]
            text = "\n".join([oracles.V1_MAGIC, "4 4 2"]
                             + [" ".join(map(str, r)) for r in bad]) + "\n"
            payload["trace"][0]["witness"] = text
            corrupt = workloads.CliResult(0, json.dumps(payload))
            if len(oracles.brute_coverage(bad, 2, 2)) < 16:
                assert oracles.check_search(corrupt, 2, 2, {0}, "found")


def test_search_oracle_refuses_exhaustion_above_pigeonhole_bound(rec):
    res = rec.cli(["search", "--k", "2", "--a", "2", "--n", "3"], expect=(3,))
    assert oracles.check_search(res, 2, 2, {3}, "exhausted_none") == []
    payload = json.loads(res.out)
    payload["trace"][0]["n"] = 4  # C(4,2)^2 = 36 >= 16: not a proof
    claim = workloads.CliResult(3, json.dumps(payload))
    assert oracles.check_search(claim, 2, 2, {3}, "exhausted_none")
    # the open instance is recorded, never scored
    assert oracles.check_search(claim, 2, 2, {0, 3, 4}, None) == []


def test_exact_oracles(rec):
    table = rec.cli(["exact", "--n", "4", "--k", "2", "--a", "2", "--table"])
    assert oracles.check_exact_table(table) == []
    assert oracles.check_exact_table(_with_json(table, p_omni={"num": 182, "den": 8192}))
    p5 = experiments.exact_target_missing_probability(4, 2, 2, 5)
    assert oracles.check_single_4_2_2(p5, 5, table) == []
    assert oracles.check_single_4_2_2(p5 + Fraction(1, 2**16), 5, table)

    single = Fraction(4, 5) ** 9
    stats = experiments.MissingStats(
        trials=5**9, p_omni=0.0, p_omni_stderr=0.0, ex_missing=0.0, ex_missing_stderr=0.0,
        p_omni_exact=Fraction(166824, 390625), ex_missing_exact=5 * single,
        per_target={c: single for c in range(5)})
    assert oracles.check_enum_3_1_5(stats) == []
    assert oracles.check_enum_3_1_5(replace(stats, p_omni_exact=Fraction(166825, 390625)))
    assert oracles.check_enum_3_1_5(replace(stats, per_target={**stats.per_target, 2: 0}))
    assert oracles.check_single_3_1_5(single, 1, stats) == []
    assert oracles.check_single_3_1_5(single + Fraction(1, 5**9), 1, stats)


def test_oned_oracle():
    value = experiments.oneD_exhaustive_mean_missing(10, 3, 2)
    assert oracles.check_oned(value, 10, 3, 2) == []
    assert oracles.check_oned(value + Fraction(1, 2**10), 10, 3, 2)


def test_bounds_and_sweep_oracles(rec):
    res = rec.cli(["bounds", "--k", "3", "--a", "2"])
    assert oracles.check_bounds(res, 3, 2) == []
    assert oracles.check_bounds(_with_json(res, pigeonhole_min_n=9), 3, 2)
    sweep = rec.cli(["sweep", "--a", "2", "--k-min", "8", "--k-max", "10"])
    assert oracles.check_sweep(sweep, 2, 8, 10) == []
    dropped = workloads.CliResult(0, "\n".join(sweep.out.splitlines()[:-1]) + "\n")
    assert oracles.check_sweep(dropped, 2, 8, 10)


def test_sample_oracles(rec):
    small = rec.cli(["sample", "--n", "4", "--k", "2", "--a", "2", "--trials", "2000"])
    assert oracles.check_sample_4_2_2(small, 2000) == []
    assert oracles.check_sample_4_2_2(_with_json(small, p_omni=0.05), 2000)
    assert oracles.check_sample_4_2_2(_with_json(small, trials=1999), 2000)

    argv = ["sample", "--n", "5", "--k", "2", "--a", "2", "--trials", "40"]
    one = rec.cli(argv)
    two = rec.cli(argv + ["--workers", "2"])
    assert oracles.check_sample_same(two, one) == []
    counts = json.loads(two.out)
    off = _with_json(two, ex_missing=counts["ex_missing"] + 1 / 40)
    assert oracles.check_sample_same(off, one)

    first: dict = {}
    assert oracles.check_sample_stable(one, 40, first) == []
    assert oracles.check_sample_stable(one, 40, first) == []
    assert oracles.check_sample_stable(_with_json(one, p_omni=0.0), 40, first)


def test_self_time_subtracts_children():
    # job, id, parent, name, start, end, attrs
    rows = [
        (0, 1, 0, "cli.main", 0.0, 1.0, None),
        (0, 2, 1, "search.exists_omnimosaic", 0.1, 0.9,
         {"nodes": 10, "open": False}),
        (0, 3, 2, "verify.is_omnimosaic", 0.7, 0.8, {"submatrices": 36}),
    ]
    selfs = spans.self_times(rows)
    assert selfs == pytest.approx({1: 0.2, 2: 0.7, 3: 0.1})
    metrics, layer_self = spans.pass_metrics(rows, 1.5, set())
    assert metrics["search.nodes"] == 10
    assert metrics["search.witness_check_s"] == pytest.approx(0.1)
    assert metrics["cli.self_s"] == pytest.approx(0.2)
    assert layer_self["bench"] == pytest.approx(0.5)


def test_tracer_restores_the_package(rec):
    from omnikit import cli, search

    before = (cli.is_omnimosaic, search.is_omnimosaic, core.MosaicMatrix.from_numpy)
    tracer = spans.Tracer()
    tracer.job_names.append("t")
    tracer.install()
    try:
        res = rec.cli(["search", "--k", "2", "--a", "2", "--n", "4"])
    finally:
        tracer.uninstall()
    assert res.code == 0
    names = {s[3] for s in tracer.spans}
    assert {"cli.main", "search.exists_omnimosaic", "verify.is_omnimosaic"} <= names
    assert (cli.is_omnimosaic, search.is_omnimosaic, core.MosaicMatrix.from_numpy) == before


def test_compare_verdicts():
    import compare

    base = {s: 1.0 + 0.01 * s for s in range(10)}
    assert compare.verdict(base, {s: v * 1.05 for s, v in base.items()}, 0.1, True)[0] \
        == "within bound"
    assert compare.verdict(base, {s: v * 1.3 for s, v in base.items()}, 0.1, True)[0] == "WORSE"
    verdict, wins = compare.verdict(base, {s: v * 0.8 for s, v in base.items()}, 0.1, True)
    assert (verdict, wins) == ("gain", 1.0)
    noisy = {s: 1.0 + 0.5 * (s % 2) for s in range(10)}
    assert compare.verdict(noisy, base, 0.1, True)[0] == "unresolved"
