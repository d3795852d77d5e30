"""Independent checks of every benchmark answer.

Each ``check_*`` returns a list of failure messages, empty when the answer
is right.  The checks re-derive answers by brute force over
``itertools.combinations``, by numpy indexing, or from closed forms; they use
the package only where the benchmark's contract names a package value as the
reference (``parse_matrix`` for the round trip, ``bounds.oneD_EX`` for the
1-D count, the CLI's own per-target table for single-target probabilities).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

V1_MAGIC = "omnimosaic v1"
# p_omni(4,2,2): 1448 of the 2^16 binary 4x4 matrices are 2-omni.
P_OMNI_4_2_2 = Fraction(181, 8192)
MC_SIGMAS = 5


def square_side(k: int, a: int) -> int:
    lo, hi = k // 2, k - k // 2
    return hi * a**hi + lo * a**lo


def pigeonhole_n(k: int, a: int) -> int:
    n = k
    while math.comb(n, k) ** 2 < a ** (k * k):
        n += 1
    return n


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind by the triangle recurrence."""
    row = [1] + [0] * k
    for i in range(1, n + 1):
        new = [0] * (k + 1)
        for j in range(1, min(i, k) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


def p_omni_k1(n: int, a: int) -> Fraction:
    """P(an n x n matrix over a letters uses every letter) = a! S(n^2, a) / a^(n^2)."""
    return Fraction(math.factorial(a) * stirling2(n * n, a), a ** (n * n))


def code_digits(codes, k: int, a: int) -> np.ndarray:
    """Row-major base-a digits, most significant first, one row per code."""
    codes = np.asarray(codes, dtype=np.int64)
    pows = a ** np.arange(k * k - 1, -1, -1, dtype=np.int64)
    return (codes[:, None] // pows[None, :]) % a


def brute_coverage(rows: list[list[int]], k: int, a: int) -> set[int]:
    """Codes of every k x k submatrix, by plain enumeration of index subsets."""
    col_subsets = list(combinations(range(len(rows[0])), k))
    # row_words[r][j]: base-a word of row r restricted to column subset j
    row_words = []
    for row in rows:
        words = []
        for cs in col_subsets:
            w = 0
            for c in cs:
                w = w * a + row[c]
            words.append(w)
        row_words.append(words)
    shift = a**k
    seen: set[int] = set()
    for rs in combinations(range(len(rows)), k):
        codes = row_words[rs[0]]
        for r in rs[1:]:
            codes = [x * shift + y for x, y in zip(codes, row_words[r])]
        seen.update(codes)
    return seen


def parse_v1(text: str) -> tuple[int, list[list[int]]]:
    """(a, rows) of an ``omnimosaic v1`` text, parsed without the package."""
    lines = text.split("\n")
    if lines[0] != V1_MAGIC or lines[-1] != "":
        raise ValueError("not a v1 matrix")
    n_rows, n_cols, a = (int(x) for x in lines[1].split())
    rows = [[int(x) for x in line.split()] for line in lines[2:-1]]
    if len(rows) != n_rows or any(len(r) != n_cols for r in rows):
        raise ValueError("v1 shape mismatch")
    if any(not 0 <= x < a for r in rows for x in r):
        raise ValueError("v1 entry outside alphabet")
    return a, rows


def _json(res, fails: list[str]):
    if res.code != 0:
        fails.append(f"exit {res.code}, expected 0")
        return None
    try:
        return json.loads(res.out)
    except json.JSONDecodeError:
        fails.append("stdout is not JSON")
        return None


def _frac(obj) -> Fraction:
    return Fraction(obj["num"], obj["den"])


# --- certify ----------------------------------------------------------------


def check_pipe(result, k: int, a: int) -> list[str]:
    built, verified = result
    fails: list[str] = []
    if built.code != 0:
        fails.append(f"construct exit {built.code}")
    rep = _json(verified, fails)
    if rep is None:
        return fails
    side = square_side(k, a)
    total = a ** (k * k)
    if rep["is_omni"] is not True:
        fails.append("construction reported not omni")
    if rep["covered"] != total or rep["total_targets"] != total:
        fails.append(f"covered {rep['covered']}/{rep['total_targets']}, expected {total}")
    if (rep["rows"], rep["cols"]) != (side, side):
        fails.append(f"shape {rep['rows']}x{rep['cols']}, expected {side}x{side}")
    if rep["submatrices_enumerated"] != math.comb(side, k) ** 2:
        fails.append("submatrix count differs from C(n,k)^2")
    return fails


def check_roundtrip(result, k: int, a: int) -> list[str]:
    from omnikit.core import parse_matrix

    built, m, text = result
    fails: list[str] = []
    if built.code != 0:
        return [f"construct exit {built.code}"]
    if text != built.out:
        fails.append("serialize(parse(text)) != text")
    if parse_matrix(text) != m:
        fails.append("parse(serialize(m)) != m")
    side = square_side(k, a)
    la, rows = parse_v1(built.out)
    if (la, len(rows), len(rows[0])) != (a, side, side):
        fails.append("construct output has the wrong shape or alphabet")
    elif tuple(x for r in rows for x in r) != m.entries:
        fails.append("parsed entries differ from the text")
    return fails


# --- locate -----------------------------------------------------------------


def check_locate_all(result, order, k: int, a: int) -> list[str]:
    mosaic, targets, rows, cols, ok = result
    fails: list[str] = []
    total = a ** (k * k)
    if sorted(order) != list(range(total)):
        fails.append("target order is not a permutation of all codes")
    if len(ok) != len(order) or not all(ok):
        fails.append(f"verify_placement rejected {len(ok) - sum(map(bool, ok))} placements")
    want = code_digits(order, k, a)
    if not np.array_equal(np.asarray(targets), want):
        fails.append("decode_target disagrees with base-a digits")
    r, c = np.asarray(rows), np.asarray(cols)
    if (np.diff(r, axis=1) <= 0).any() or (np.diff(c, axis=1) <= 0).any():
        fails.append("placement indices not strictly increasing")
        return fails
    arr = np.asarray(mosaic.entries).reshape(mosaic.rows, mosaic.cols)
    sub = arr[r[:, :, None], c[:, None, :]].reshape(len(order), k * k)
    bad = int((sub != want).any(axis=1).sum())
    if bad:
        fails.append(f"{bad} placements do not hold their target")
    return fails


# --- reject -----------------------------------------------------------------


def check_reject(result, host: dict, covered: set[int]) -> list[str]:
    report, found = result
    k, a = host["k"], host["a"]
    side = len(host["rows"])
    fails: list[str] = []
    if report.is_omni:
        fails.append("non-omni host reported omni")
    if report.covered != len(covered):
        fails.append(f"covered {report.covered}, brute force {len(covered)}")
    if report.total_targets != a ** (k * k):
        fails.append("wrong target total")
    if report.submatrices_enumerated != math.comb(side, k) ** 2:
        fails.append("submatrix count differs from C(n,k)^2")
    if set(report.missing_sample) & covered:
        fails.append("missing_sample lists a covered target")
    arr = np.asarray(host["rows"])
    wrong_none = [c for c in host["absent"] if found.get(c, 0) is not None]
    if wrong_none:
        fails.append(f"{len(wrong_none)} absent targets reported present")
    for code in host["present"]:
        p = found.get(code)
        if p is None:
            fails.append(f"present target {code} reported absent")
            continue
        sub = arr[np.ix_(p.row_idx, p.col_idx)].ravel()
        if not np.array_equal(sub, code_digits([code], k, a)[0]):
            fails.append(f"placement for {code} does not hold it")
    return fails


# --- search -----------------------------------------------------------------


def check_search(res, k: int, a: int, codes: set[int], status: str | None) -> list[str]:
    """A found witness must pass the brute-force check.  exhausted_none counts
    only below the pigeonhole bound, C(n,k)^2 < a^(k^2): above it the search's
    symmetry breaking is not yet a proof.  With ``status`` None (the open
    instance) the verdict is recorded, not scored."""
    fails: list[str] = []
    if res.code not in codes:
        return [f"exit {res.code}, expected one of {sorted(codes)}"]
    try:
        payload = json.loads(res.out)
    except json.JSONDecodeError:
        return ["stdout is not JSON"]
    if status is not None and payload["status"] != status:
        fails.append(f"status {payload['status']}, expected {status}")
    for entry in payload["trace"]:
        n = entry["n"]
        if entry["status"] == "found":
            wa, rows = parse_v1(entry["witness"])
            if wa != a or len(rows) != n or len(rows[0]) != n:
                fails.append(f"n={n}: witness has the wrong shape")
            elif len(brute_coverage(rows, k, a)) != a ** (k * k):
                fails.append(f"n={n}: witness is not {k}-omni")
        elif entry["status"] == "exhausted_none" and status is not None:
            if math.comb(n, k) ** 2 >= a ** (k * k):
                fails.append(f"n={n}: exhausted_none at or above the pigeonhole bound")
    return fails


# --- exact ------------------------------------------------------------------


def _per_target(table_res) -> dict[int, Fraction]:
    payload = json.loads(table_res.out)
    return {e["code"]: _frac(e["p_missing"]) for e in payload["per_target"]}


def check_exact_table(res) -> list[str]:
    fails: list[str] = []
    payload = _json(res, fails)
    if payload is None:
        return fails
    if payload["matrices"] != 2**16:
        fails.append(f"{payload['matrices']} matrices, expected 65536")
    if _frac(payload["p_omni"]) != P_OMNI_4_2_2:
        fails.append(f"p_omni {payload['p_omni']}, expected 181/8192")
    per = _per_target(res)
    if sorted(per) != list(range(16)):
        fails.append("per-target table does not list the 16 targets")
    elif sum(per.values()) != _frac(payload["ex_missing"]):
        fails.append("E(missing) differs from the per-target sum")
    return fails


def check_enum_3_1_5(stats) -> list[str]:
    fails: list[str] = []
    single = Fraction(4, 5) ** 9
    if stats.trials != 5**9:
        fails.append(f"{stats.trials} matrices, expected 5^9")
    if stats.p_omni_exact != p_omni_k1(3, 5):
        fails.append(f"p_omni {stats.p_omni_exact}, expected 5! S(9,5) / 5^9")
    if stats.per_target != {c: single for c in range(5)}:
        fails.append("per-target probabilities differ from (4/5)^9")
    if stats.ex_missing_exact != 5 * single:
        fails.append("E(missing) differs from 5 (4/5)^9")
    return fails


def check_single_4_2_2(p: Fraction, code: int, table_res) -> list[str]:
    if table_res is None or table_res.code != 0:
        return ["no per-target table to compare with"]
    want = _per_target(table_res)[code]
    return [] if p == want else [f"P(target {code} missing) {p}, table says {want}"]


def check_single_3_1_5(p: Fraction, code: int, enum_stats) -> list[str]:
    fails = []
    if p != Fraction(4, 5) ** 9:
        fails.append(f"P(target {code} missing) {p}, expected (4/5)^9")
    if enum_stats is not None and p != enum_stats.per_target[code]:
        fails.append("single-target probability differs from per_target")
    return fails


def check_oned(value: Fraction, n: int, k: int, a: int) -> list[str]:
    from omnikit import bounds

    want = bounds.oneD_EX(n, k, a, exact=True)
    return [] if value == want else [f"1-D mean missing {value}, oneD_EX says {want}"]


def check_bounds(res, k: int, a: int) -> list[str]:
    fails: list[str] = []
    payload = _json(res, fails)
    if payload is None:
        return fails
    if payload["pigeonhole_min_n"] != pigeonhole_n(k, a):
        fails.append("pigeonhole_min_n differs from the counted bound")
    if payload["construction_upper"] != square_side(k, a):
        fails.append("construction_upper differs from the construction side")
    return fails


def check_sweep(res, a: int, k_min: int, k_max: int) -> list[str]:
    if res.code != 0:
        return [f"exit {res.code}"]
    lines = res.out.splitlines()
    ks = [int(line.split(",")[0]) for line in lines[1:]]
    if lines[0].split(",")[:3] != ["k", "a", "n"] or ks != list(range(k_min, k_max + 1)):
        return ["sweep CSV does not list one row per k"]
    if any(int(line.split(",")[1]) != a for line in lines[1:]):
        return ["sweep CSV has the wrong alphabet"]
    return []


# --- sample -----------------------------------------------------------------


def _mc_payload(res, trials: int, fails: list[str]):
    payload = _json(res, fails)
    if payload is None:
        return None
    if payload["trials"] != trials:
        fails.append(f"{payload['trials']} trials, expected {trials}")
    omni = payload["p_omni"] * trials
    if not (0 <= payload["p_omni"] <= 1 and abs(omni - round(omni)) < 1e-6):
        fails.append("p_omni is not a count over the trials")
    return payload


def check_sample_stable(res, trials: int, first: dict) -> list[str]:
    """Same seed, same counts, on every pass."""
    fails: list[str] = []
    payload = _mc_payload(res, trials, fails)
    if payload is None:
        return fails
    first.setdefault("payload", payload)
    if payload != first["payload"]:
        fails.append("seeded estimate changed between passes")
    return fails


def check_sample_4_2_2(res, trials: int) -> list[str]:
    fails: list[str] = []
    payload = _mc_payload(res, trials, fails)
    if payload is None:
        return fails
    p = float(P_OMNI_4_2_2)
    se = math.sqrt(p * (1 - p) / trials)
    if abs(payload["p_omni"] - p) > MC_SIGMAS * se:
        fails.append(f"p_omni {payload['p_omni']} more than {MC_SIGMAS} SE from 181/8192")
    return fails


def check_sample_same(res, one_worker) -> list[str]:
    """Two workers must give the one-worker counts exactly."""
    if one_worker is None or one_worker.code != 0:
        return ["no one-worker run to compare with"]
    reference = json.loads(one_worker.out)
    fails: list[str] = []
    payload = _mc_payload(res, reference["trials"], fails)
    if payload is not None and payload != reference:
        fails.append("workers=2 estimate differs from workers=1")
    return fails
