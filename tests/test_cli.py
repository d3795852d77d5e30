import csv
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from omnikit.cli import (
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_FALSE,
    EXIT_OK,
    ONED_THRESHOLD_MAX_A,
    SCHEMA,
    main,
)
from omnikit import cli, kernel
from omnikit.construct import square_omnimosaic, thin_strip
from omnikit.core import parse_matrix, serialize_matrix
from conftest import WITNESS_4X4, v1_join


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    payload = json.loads(out)
    assert payload["schema"] == SCHEMA
    return code, payload, err


def _fraction(text):
    num, _, den = text.partition("/")
    return {"num": int(num), "den": int(den or 1)}


# `exact` payloads recorded from an enumeration of every matrix, k >= n
# included: (matrices, p_omni, ex_missing, monochromatic codes, whether just
# they are maximal, per-target table as runs of (p_missing, codes) in output
# order)
_ODD_OR_DIAGONAL = [1, 2, 4, 6, 7, 8, 9, 11, 13, 14]  # (2,2) targets: odd or diagonal
EXACT_GOLDEN = {
    (1, 1, 3): (3, "0", "2", [0, 1, 2], True, [("2/3", [0, 1, 2])]),
    (2, 2, 2): (16, "0", "15", [0, 15], False, [("15/16", list(range(16)))]),
    (1, 2, 2): (2, "0", "16", [0, 15], False, [("1", list(range(16)))]),
    (3, 2, 2): (512, "0", "165/16", [0, 15], True,
                [("167/256", [0, 15]), ("165/256", _ODD_OR_DIAGONAL), ("41/64", [3, 5, 10, 12])]),
    (4, 2, 2): (65536, "181/8192", "67603/16384", [0, 15], True,
                [("18521/65536", [0, 15]), ("16927/65536", _ODD_OR_DIAGONAL),
                 ("16025/65536", [3, 5, 10, 12])]),
    (3, 1, 5): (1953125, "166824/390625", "262144/390625", [0, 1, 2, 3, 4], True,
                [("262144/1953125", [0, 1, 2, 3, 4])]),
}


class TestConstructVerifyPipe:
    @pytest.mark.parametrize("k,a", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_pipe_fidelity(self, capsys, monkeypatch, tmp_path, k, a):
        code, out, _ = run(capsys, "construct", "--k", str(k), "--a", str(a))
        assert code == EXIT_OK
        m = parse_matrix(out)  # v1 output parses back
        path = tmp_path / "m.txt"
        path.write_text(out)
        code, payload, _ = run_json(capsys, "verify", str(path), "--k", str(k))
        assert code == EXIT_OK
        assert payload["is_omni"] is True
        assert payload["rows"] == m.rows

    def test_verify_stdin(self, capsys, monkeypatch):
        import io
        import sys

        monkeypatch.setattr(
            sys, "stdin", io.StringIO(serialize_matrix(WITNESS_4X4))
        )
        code, payload, _ = run_json(capsys, "verify", "-", "--k", "2")
        assert code == EXIT_OK
        assert payload["covered"] == 16

    def test_verify_false_exit(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("omnimosaic v1\n2 2 2\n0 0\n0 0\n")
        code, payload, _ = run_json(capsys, "verify", str(path), "--k", "2")
        assert code == EXIT_FALSE
        assert payload["is_omni"] is False
        assert payload["missing_sample"]

    def test_construct_deterministic(self, capsys):
        _, out1, _ = run(capsys, "construct", "--k", "3", "--a", "2")
        _, out2, _ = run(capsys, "construct", "--k", "3", "--a", "2")
        assert out1 == out2

    def test_strip_variant(self, capsys):
        code, out, _ = run(capsys, "construct", "--k", "2", "--a", "2", "--strip")
        m = parse_matrix(out)
        assert (m.rows, m.cols) == (8, 2)

    @pytest.mark.parametrize("a,strip", [(10, False), (11, False), (10, True)])
    def test_pipe_on_both_sides_of_one_digit_letters(self, capsys, monkeypatch, a, strip):
        # letters are one digit up to a = 10, where the text is read in bulk
        code, out, _ = run(capsys, "construct", "--k", "2", "--a", str(a), *["--strip"] * strip)
        assert code == EXIT_OK
        assert out == v1_join(thin_strip(2, a) if strip else square_omnimosaic(2, a))
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, payload, _ = run_json(capsys, "verify", "-", "--k", "2")
        assert code == EXIT_OK
        assert payload["is_omni"] is True
        assert payload["covered"] == a**4


class TestErrors:
    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a matrix\n")
        code, out, err = run(capsys, "verify", str(path), "--k", "2")
        assert code == EXIT_ERROR
        assert out == ""
        assert "error" in err

    @pytest.mark.parametrize("field", ["0_0", "+1", "-0", "\uff10"])
    def test_entry_that_only_int_takes_exit_2(self, capsys, monkeypatch, field):
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"omnimosaic v1\n2 2 2\n0 1\n1 {field}\n"))
        code, out, err = run(capsys, "verify", "-", "--k", "1")
        assert (code, out) == (EXIT_ERROR, "")
        assert f"line 4: bad entry {field!r}" in err

    @pytest.mark.parametrize("dims", ["+1 1_0 \uff12", "2 +2 2", "--1 2 2"])
    def test_dimensions_not_decimal_exit_2(self, capsys, monkeypatch, dims):
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"omnimosaic v1\n{dims}\n0 1 0 1 0 1 0 1 0 1\n"))
        code, out, err = run(capsys, "verify", "-", "--k", "1")
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: line 2: dimensions must be decimal integers\n"

    def test_verify_over_placement_guard_exits_2_at_once(self, capsys, monkeypatch):
        # 210x210: C(210,3)^2 placements, which took 856 s to score one at a time
        code, built, _ = run(capsys, "construct", "--k", "3", "--a", "10")
        assert code == EXIT_OK
        monkeypatch.setattr(sys, "stdin", io.StringIO(built))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "-", "--k", "3")
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_ERROR, "")
        assert err.startswith(f"error: {math.comb(210, 3) ** 2} placements exceed placement guard")

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "nope"), "--k", "2")
        assert code == EXIT_ERROR
        assert "error" in err

    def test_usage_error_exit_2(self, capsys):
        code, _, _ = run(capsys, "construct", "--k", "2")  # missing --a
        assert code == EXIT_ERROR

    def test_unknown_command_exit_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_ERROR

    @pytest.mark.parametrize("message,shown", [
        ("Unable to allocate 4.00 GiB", "error: out of memory: Unable to allocate 4.00 GiB\n"),
        ("", "error: out of memory\n"),
    ])
    def test_out_of_memory_exit_2(self, capsys, monkeypatch, tmp_path, message, shown):
        def exhausted(*args):
            raise MemoryError(message)

        monkeypatch.setattr(kernel, "covered", exhausted)
        path = tmp_path / "m.txt"
        path.write_text(serialize_matrix(WITNESS_4X4))
        code, out, err = run(capsys, "verify", str(path), "--k", "2")
        assert code == EXIT_ERROR
        assert out == ""
        assert err == shown


_SEQUENCE = [
    ["construct", "--k", "2", "--a", "2", "--strip"],
    ["construct", "--k", "2", "--a", "2"],
    ["oned", "--seq", "0110", "--k", "2"],
    ["oned", "--file", "-", "--a", "3"],
    ["oned", "--seq", "0110"],
    ["search", "--k", "2", "--a", "2", "--n", "3", "--max-nodes", "5"],
    ["search", "--k", "2", "--a", "2"],
    ["sample", "--n", "3", "--k", "2", "--a", "2", "--trials", "4", "--seed", "3"],
    ["sample", "--n", "3", "--k", "2", "--a", "2", "--trials", "4"],
    ["bounds", "--k", "2", "--a", "2", "--n", "5"],
    ["bounds", "--k", "2", "--a", "2"],
]


def test_one_parser_keeps_no_state_between_calls(capsys):
    for argv in _SEQUENCE + _SEQUENCE[::-1]:
        run(capsys, *argv)
        assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
    assert cli._parser() is cli._parser()
    # through main, with a usage error in between: no flag carries over
    assert run(capsys, "construct", "--k", "2", "--a", "2", "--strip")[1] == \
        serialize_matrix(thin_strip(2, 2))
    assert run(capsys, "construct", "--k", "x")[0] == EXIT_ERROR
    assert run(capsys, "construct", "--k", "2", "--a", "2")[1] == \
        serialize_matrix(square_omnimosaic(2, 2))
    assert run_json(capsys, "oned", "--seq", "0110", "--k", "2")[1]["k"] == 2
    assert "k" not in run_json(capsys, "oned", "--seq", "0110")[1]
    _, payload, _ = run_json(capsys, "search", "--k", "2", "--a", "2", "--n", "3")
    assert [t["n"] for t in payload["trace"]] == [3]
    _, payload, _ = run_json(capsys, "search", "--k", "2", "--a", "2")
    assert [t["n"] for t in payload["trace"]] == [4]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{m}", "--k", "2"],
        ["locate", "--k", "2", "--a", "2", "--target-code", "6"],
        ["contains", "{m}", "--k", "2", "--target-code", "6"],
        ["search", "--k", "2", "--a", "2", "--n", "3"],
        ["bounds", "--k", "2", "--a", "2"],
        ["sample", "--n", "4", "--k", "2", "--a", "2", "--trials", "20"],
        ["exact", "--n", "2", "--k", "1", "--a", "2", "--table"],
        ["oned", "--seq", "0110", "--k", "2"],
    ],
)
def test_payload_names_its_command_after_the_schema(capsys, tmp_path, argv):
    path = tmp_path / "m.txt"
    path.write_text(serialize_matrix(WITNESS_4X4))
    argv = [str(path) if x == "{m}" else x for x in argv]
    payload = json.loads(run(capsys, *argv)[1])
    assert list(payload)[:2] == ["schema", "command"]
    assert (payload["schema"], payload["command"]) == (SCHEMA, argv[0])


class TestLocate:
    def test_verified_placement(self, capsys):
        code, payload, _ = run_json(
            capsys, "locate", "--k", "2", "--a", "2", "--target-code", "6"
        )
        assert code == EXIT_OK
        assert payload["verified"] is True
        assert len(payload["row_idx"]) == 2
        assert payload["region_map"]["row_offsets"][0] == 0


class TestContains:
    def test_present_and_absent(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(serialize_matrix(WITNESS_4X4))
        code, payload, _ = run_json(
            capsys, "contains", str(path), "--k", "2", "--target-code", "6"
        )
        assert code == EXIT_OK and payload["present"]
        path.write_text("omnimosaic v1\n2 2 2\n0 0\n0 0\n")
        code, payload, _ = run_json(
            capsys, "contains", str(path), "--k", "2", "--target-code", "15"
        )
        assert code == EXIT_FALSE and not payload["present"]

    def test_target_larger_than_host_is_absent(self, capsys, tmp_path):
        # as verify reports the same host not omni for k = 3
        path = tmp_path / "m.txt"
        path.write_text("omnimosaic v1\n2 5 2\n0 1 0 1 0\n1 0 1 0 1\n")
        code, payload, _ = run_json(
            capsys, "contains", str(path), "--k", "3", "--target-code", "5"
        )
        assert code == EXIT_FALSE
        assert payload["present"] is False and payload["row_idx"] is None
        code, payload, _ = run_json(capsys, "verify", str(path), "--k", "3")
        assert code == EXIT_FALSE and payload["is_omni"] is False

    def test_k_below_one_names_k(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(serialize_matrix(WITNESS_4X4))
        code, out, err = run(capsys, "contains", str(path), "--k", "0", "--target-code", "0")
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error:") and "k must be >= 1" in err


class TestSearch:
    def test_found(self, capsys):
        code, payload, _ = run_json(capsys, "search", "--k", "2", "--a", "2", "--n", "4")
        assert code == EXIT_OK
        assert payload["status"] == "found"
        witness = parse_matrix(payload["trace"][0]["witness"])
        assert (witness.rows, witness.cols) == (4, 4)

    def test_exhausted(self, capsys):
        code, payload, _ = run_json(capsys, "search", "--k", "2", "--a", "2", "--n", "3")
        assert code == EXIT_FALSE
        assert payload["status"] == "exhausted_none"

    def test_budget(self, capsys):
        code, payload, _ = run_json(
            capsys, "search", "--k", "2", "--a", "3", "--n", "5",
            "--max-nodes", "5000",
        )
        assert code == EXIT_BUDGET
        assert payload["status"] == "budget_exceeded"

    def test_min_trace(self, capsys):
        code, payload, _ = run_json(capsys, "search", "--k", "2", "--a", "2")
        assert code == EXIT_OK
        assert [t["n"] for t in payload["trace"]] == [4]


class TestBoundsAndSweep:
    def test_bounds_payload(self, capsys):
        code, payload, _ = run_json(capsys, "bounds", "--k", "2", "--a", "2")
        assert code == EXIT_OK
        assert payload["pigeonhole_min_n"] == 4
        assert payload["construction_upper"] == 4
        assert payload["oneD_threshold"] == 3.0
        assert "suen_report" in payload

    def test_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "sweep", "--a", "2", "--k-min", "8", "--k-max", "10")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "k,a,n,log_mu,log_total_bound,certifies"
        assert len(lines) == 4
        assert lines[1].startswith("8,2,")


class TestColdStart:
    """What a fresh ``omnikit`` process imports.  pytest itself imports
    logging, so this runs in a new interpreter."""

    POOL_STACK = ("concurrent.futures", "multiprocessing", "logging", "socket", "queue")

    # (4,2,2)x100 is below POOL_FLOOR, so two workers run it in this process
    @pytest.mark.parametrize("work", [
        "",
        "assert cli.main(['sample', '--n', '4', '--k', '2', '--a', '2', '--trials', '100',"
        " '--workers', '2']) == 0",
    ], ids=["import", "sample-in-process"])
    def test_no_pool_stack_until_a_pool_starts(self, work):
        script = (f"import sys\nfrom omnikit import cli\n{work}\n"
                  f"print(sorted(m for m in {self.POOL_STACK!r} if m in sys.modules))")
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.splitlines()[-1] == "[]"


class TestSampleExactOned:
    def test_sample_deterministic(self, capsys):
        args = ["sample", "--n", "4", "--k", "2", "--a", "2", "--trials", "200",
                "--seed", "9"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args, "--workers", "2")
        assert out1 == out2

    def test_sample_names_its_stream_at_the_largest_alphabet(self, capsys):
        # 2^63 letters, the most target_space admits at k = 1
        code, payload, _ = run_json(capsys, "sample", "--n", "2", "--k", "1", "--a", str(2**63),
                                    "--trials", "3")
        assert code == EXIT_OK
        assert payload["stream"] == 2 and payload["ex_missing"] > 2**63 - 5

    def test_exact_payload(self, capsys, monkeypatch):
        from omnikit import experiments

        calls = []
        enumerate_all = experiments.exact_enumeration

        def counted(*args):
            calls.append(args)
            return enumerate_all(*args)

        monkeypatch.setattr(experiments, "exact_enumeration", counted)
        code, payload, _ = run_json(
            capsys, "exact", "--n", "4", "--k", "2", "--a", "2", "--table"
        )
        assert code == EXIT_OK
        assert payload["p_omni"] == {"num": 181, "den": 8192}
        assert payload["maximal_all_monochromatic"] is True
        assert len(payload["per_target"]) == 16
        assert calls == [(4, 2, 2)]  # the table reuses the one enumeration

    @pytest.mark.parametrize("table", [False, True], ids=["stats", "table"])
    @pytest.mark.parametrize("n,k,a", list(EXACT_GOLDEN))
    def test_exact_golden(self, capsys, n, k, a, table):
        matrices, p_omni, ex_missing, mono, maximal, runs = EXACT_GOLDEN[n, k, a]
        want = {"schema": SCHEMA, "command": "exact", "n": n, "k": k, "a": a,
                "matrices": matrices, "p_omni": _fraction(p_omni),
                "ex_missing": _fraction(ex_missing)}
        if table:
            want["per_target"] = [
                {"code": code, "p_missing": _fraction(p)} for p, codes in runs for code in codes
            ]
            want["monochromatic_codes"] = mono
            want["maximal_all_monochromatic"] = maximal
        argv = ["exact", "--n", str(n), "--k", str(k), "--a", str(a)] + ["--table"] * table
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert out == json.dumps(want, indent=2) + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--n", "3", "--k", "5", "--a", "2", "--trials", "4"],
            ["sample", "--n", "3", "--k", "0", "--a", "2", "--trials", "4"],
            ["exact", "--n", "3", "--k", "0", "--a", "2"],
            ["exact", "--n", "3", "--k", "-1", "--a", "2"],
            ["exact", "--n", "1", "--k", "2", "--a", "2", "--table"],
        ],
    )
    def test_bad_k_exits_cleanly(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code in (EXIT_OK, EXIT_ERROR)
        assert "Traceback" not in err
        if code == EXIT_OK:
            # k > n: no placements, so every target is missing
            payload = json.loads(out)
            assert payload["p_omni"] in (0.0, {"num": 0, "den": 1})

    def test_oned_seq(self, capsys):
        code, payload, _ = run_json(
            capsys, "oned", "--seq", "010101", "--a", "2", "--k", "3"
        )
        assert code == EXIT_OK
        assert payload["collections"] == 3
        assert payload["is_omni"] is True
        assert payload["missing_words"] == 0

    def test_oned_not_omni_exit(self, capsys):
        code, payload, _ = run_json(
            capsys, "oned", "--seq", "0101", "--a", "2", "--k", "3"
        )
        assert code == EXIT_FALSE
        assert payload["is_omni"] is False

    def test_oned_missing_words_in_one_pass(self, capsys):
        # 10^6 words against 1 000 letters: one pass, not one match a word
        start = time.perf_counter()
        code, payload, _ = run_json(capsys, "oned", "--seq", "0" * 1000, "--a", "10", "--k", "6")
        assert time.perf_counter() - start < 5
        assert (code, payload["missing_words"]) == (EXIT_FALSE, 10**6 - 1)

    def test_oned_file(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("abab")
        code, payload, _ = run_json(capsys, "oned", "--file", str(path))
        assert code == EXIT_OK
        assert payload["a"] == 2
        assert payload["collections"] == 2

    def test_oned_file_takes_a(self, capsys, tmp_path):
        # abab has every 1-letter word over its 2 letters, not over 3
        path = tmp_path / "seq.txt"
        path.write_text("abab")
        code, payload, _ = run_json(capsys, "oned", "--file", str(path), "--k", "1")
        assert (code, payload["a"], payload["is_omni"]) == (EXIT_OK, 2, True)
        code, payload, _ = run_json(capsys, "oned", "--file", str(path), "--a", "3", "--k", "1")
        assert (code, payload["a"], payload["is_omni"]) == (EXIT_FALSE, 3, False)
        assert payload["missing_words"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--k", "0", "--a", "2"],
        ["search", "--k", "-1", "--a", "2", "--n", "3"],
        ["search", "--k", "2", "--a", "2", "--n", "40", "--max-nodes", "10"],
        ["search", "--k", "5", "--a", "2"],  # pigeonhole start 17 > search.MAX_N
        ["sweep", "--a", "1"],
        ["sweep", "--a", "0", "--k-min", "9", "--k-max", "8"],  # an empty range
        ["sweep", "--a", "2", "--k-min", "9", "--k-max", "8"],
        ["sweep", "--a", "2", "--k-min", "1", "--k-max", "1"],
        ["sweep", "--a", "2", "--k-min", "-3", "--k-max", "-5"],
        ["bounds", "--k", "2", "--a", "1"],
        ["oned", "--seq", "abc"],
        ["oned", "--seq", "0101", "--k", "0"],
        ["oned", "--seq", "0101", "--k", "-1"],
        ["bounds", "--k", "-1", "--a", "0"],
        ["bounds", "--k", "2", "--a", "-2"],
        ["oned", "--seq", "", "--a", "0", "--k", "-1"],
        ["sample", "--n", "4", "--k", "2", "--a", "2", "--trials", "10", "--seed", "-1"],
        ["sample", "--n", "4", "--k", "2", "--a", "2", "--trials", "10", "--workers", "0"],
        ["sample", "--n", "4", "--k", "2", "--a", "2", "--trials", "10", "--workers", "-3"],
        ["search", "--k", "2", "--a", "2", "--n", "5", "--max-seconds", "nan"],
        ["bounds", "--k", "1", "--a", "2", "--n", "0"],
        ["bounds", "--k", "1", "--a", "2", "--n", "5"],  # --n selects the k >= 2 Suen report
        ["oned", "--file", "{abc}", "--a", "2"],  # 3 distinct characters
    ],
)
def test_bad_arguments_exit_2(capsys, tmp_path, argv):
    path = tmp_path / "abc.txt"
    path.write_text("abc")
    code, out, err = run(capsys, *(arg.format(abc=path) for arg in argv))
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


class TestInputFiles:
    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_oned_file_ignores_line_endings(self, capsys, tmp_path, ending):
        path = tmp_path / "seq.txt"
        path.write_bytes(f"abab{ending}".encode())
        code, payload, _ = run_json(capsys, "oned", "--file", str(path), "--k", "2")
        assert code == EXIT_OK
        assert payload["a"] == 2
        assert payload["length"] == 4
        assert payload["is_omni"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "{path}", "--k", "2"],
            ["contains", "{path}", "--k", "2", "--target-code", "0"],
            ["oned", "--file", "{path}", "--k", "2"],
        ],
    )
    def test_non_utf8_input_exits_2(self, capsys, tmp_path, argv):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error:") and "UTF-8" in err and "Traceback" not in err

    def test_construct_over_cell_guard_exits_2(self, capsys):
        code, out, err = run(capsys, "construct", "--k", "40", "--a", "2")
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error:") and "cells" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--k", "50", "--a", "2"],  # k > search.MAX_N, before the pigeonhole bound
        ["exact", "--n", "100", "--k", "1", "--a", "3"],  # 3^10000 matrices
        ["sweep", "--a", "2", "--k-min", "2100", "--k-max", "2100"],  # a float overflows
        ["sweep", "--a", "3", "--k-min", "1300", "--k-max", "1300"],
        ["bounds", "--k", "2100", "--a", "2"],
        ["sample", "--n", "2", "--k", "3000", "--a", "3", "--trials", "1"],  # 3^9000000 targets
        ["sample", "--n", "200", "--k", "5", "--a", "2", "--trials", "1"],  # C(200,5)^2 codes
        ["sample", "--n", "100", "--k", "3", "--a", "2", "--trials", "1"],
        ["construct", "--k", "30000", "--a", "2"],  # a 30000x30000 grid
        ["locate", "--k", "30000", "--a", "2", "--target-code", "0"],
    ],
)
def test_oversized_arguments_exit_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_bounds_at_paper_scale(capsys):
    start = time.perf_counter()
    code, payload, _ = run_json(capsys, "bounds", "--k", "40", "--a", "2")
    assert time.perf_counter() - start < 1
    assert code == EXIT_OK
    assert payload["pigeonhole_min_n"] == 16534519


@pytest.mark.parametrize(
    "argv,want,seconds",
    [
        # C(12,2)^2 placements are fewer than 30000^4 targets: settled by counting
        (["search", "--k", "2", "--a", "30000", "--n", "12", "--max-seconds", "2"], EXIT_FALSE, 1),
        (["search", "--k", "1", "--a", "200", "--n", "16"], EXIT_ERROR, 1),  # rows past 2^63
        # rows run to 10^16 values: the budget holds across blocks with no admissible row
        (["search", "--k", "2", "--a", "10", "--n", "16", "--max-seconds", "0.5"], EXIT_BUDGET, 2),
        (["bounds", "--k", "1", "--a", "1000000000"], EXIT_OK, 1),
        (["bounds", "--k", "2", "--a", "1000000000"], EXIT_OK, 1),
    ],
)
def test_large_arguments_exit_in_time(capsys, argv, want, seconds):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < seconds
    assert code == want and "Traceback" not in err
    if code == EXIT_ERROR:
        assert out == "" and err.startswith("error:")
    else:
        assert json.loads(out)["schema"] == SCHEMA


# Tall, narrow strips: verify reads the 160x5 strip transposed, five rows
# with one row subset, and contains matches a target's rows in the 324x4
# strip's one column subset; read upright, they took 159 s and about a minute
_STRIP_TARGET = random.Random(28).randrange(3**16)


@pytest.mark.parametrize(
    "k,a,argv,want,seconds",
    [
        (5, 2, ["verify", "-", "--k", "5"], EXIT_OK, 5),
        (4, 3, ["contains", "-", "--k", "4", "--target-code", str(_STRIP_TARGET)], EXIT_OK, 5),
    ],
)
def test_tall_strips_exit_in_time(capsys, monkeypatch, k, a, argv, want, seconds):
    _, strip, _ = run(capsys, "construct", "--strip", "--k", str(k), "--a", str(a))
    monkeypatch.setattr(sys, "stdin", io.StringIO(strip))
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < seconds
    assert code == want and "Traceback" not in err
    assert json.loads(out)["schema"] == SCHEMA


def test_bounds_at_an_alphabet_of_10_to_300(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "bounds", "--k", "2", "--a", str(10**300))
    assert time.perf_counter() - start < 1
    assert code in (EXIT_OK, EXIT_ERROR) and "Traceback" not in err


def test_bounds_leaves_out_the_1d_threshold_past_its_cutoff(capsys):
    _, payload, _ = run_json(capsys, "bounds", "--k", "2", "--a", str(ONED_THRESHOLD_MAX_A))
    assert "oneD_threshold" in payload
    _, payload, _ = run_json(capsys, "bounds", "--k", "2", "--a", str(ONED_THRESHOLD_MAX_A + 1))
    assert "oneD_threshold" not in payload and "oneD_EX_threshold_ratio" in payload


# Every integer argument ranges over [-2, 5] (construct's k and a up to 4).
_INT = st.integers(-2, 5).map(str)
_SMALL = st.integers(-2, 4).map(str)
_ARGVS = st.one_of(
    st.builds(lambda k, a, strip: ["construct", "--k", k, "--a", a] + ["--strip"] * strip,
              _SMALL, _SMALL, st.booleans()),
    st.builds(lambda k, a, n: ["bounds", "--k", k, "--a", a] + (["--n", n] if n else []),
              _INT, _INT, st.none() | _INT),
    st.builds(lambda a, lo, hi: ["sweep", "--a", a, "--k-min", lo, "--k-max", hi],
              _INT, _INT, _INT),
    st.builds(lambda n, k, a: ["exact", "--n", n, "--k", k, "--a", a], _INT, _INT, _INT),
    st.builds(lambda seq, a, k: ["oned", "--seq", seq, "--a", a, "--k", k],
              st.text("0123456789", max_size=8), _INT, _INT),
    st.builds(lambda n, k, a: ["search", "--k", k, "--a", a, "--n", n],
              st.integers(-2, 4).map(str), _INT, _INT),
    # no --workers: a pool is covered by test_workers_capped_at_cpu_count
    st.builds(lambda n, k, a, t, s: ["sample", "--n", n, "--k", k, "--a", a,
                                     "--trials", t, "--seed", s],
              _INT, _INT, _INT, _INT, _INT),
)
# Sizes at and past the paper's scale, where a size check must refuse before
# any work.  sample is left to the targeted tests: a legal large sample runs long.
_BIG = st.sampled_from(["40", "60", "2100", "30000"])
_BIG_ARGVS = st.one_of(
    st.builds(lambda k, a, strip: ["construct", "--k", k, "--a", a] + ["--strip"] * strip,
              _BIG, _BIG, st.booleans()),
    st.builds(lambda k, a, n: ["bounds", "--k", k, "--a", a] + (["--n", n] if n else []),
              _BIG, _BIG, st.none() | _BIG),
    st.builds(lambda a, lo, hi: ["sweep", "--a", a, "--k-min", lo, "--k-max", hi],
              _BIG, _BIG, _BIG),
    st.builds(lambda n, k, a: ["exact", "--n", n, "--k", k, "--a", a], _BIG, _BIG, _BIG),
    st.builds(lambda n, k, a: ["search", "--k", k, "--a", a] + (["--n", n] if n else []),
              st.none() | _BIG, _BIG, _BIG),
    st.builds(lambda seq, a, k: ["oned", "--seq", seq, "--a", a, "--k", k],
              st.text("0123456789", max_size=8), _BIG, _BIG),
)


@given(_ARGVS | _BIG_ARGVS)  # about 2 in 3 examples still come from _ARGVS
@settings(max_examples=450, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_argv_fuzz_exits_with_documented_codes(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_FALSE, EXIT_BUDGET), (argv, code)
    assert "Traceback" not in err
    if code == EXIT_ERROR:
        assert out == "" and err.startswith("error:")
    elif argv[0] == "construct":
        parse_matrix(out)
    elif argv[0] == "sweep":
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["k", "a", "n", "log_mu", "log_total_bound", "certifies"]
        assert all(len(r) == 6 for r in rows)
    else:
        assert json.loads(out)["schema"] == SCHEMA
