"""Deciding the omnimosaic property and locating targets by search.

coverage() enumerates every k-subset of rows crossed with every k-subset of
columns, encodes each induced submatrix and marks it in a bitset over the
a^(k*k) target codes.  The enumeration is exact; the only approximation
anywhere is the guard that refuses target spaces too large to bitset.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from omnikit import kernel
from omnikit.core import MosaicError, MosaicMatrix, Placement, check_sizes, target_space

COVERAGE_GUARD = 2**32  # largest target space coverage() bitsets
MISSING_SAMPLE = 32  # missing codes a report lists


@dataclass
class VerifyReport:
    is_omni: bool
    covered: int
    total_targets: int
    missing_sample: list[int] = field(default_factory=list)
    submatrices_enumerated: int = 0
    elapsed: float = 0.0


def coverage(m: MosaicMatrix, k: int) -> np.ndarray:
    """Bitset over target codes: entry c is True iff target c occurs in m."""
    check_sizes(k=k)
    size = target_space(k, m.a)
    if size > COVERAGE_GUARD:
        raise MosaicError(
            f"target space {size} exceeds coverage guard {COVERAGE_GUARD}; "
            "check individual targets with contains_target instead"
        )
    bits = np.zeros(size, dtype=bool)
    for codes in kernel.code_batches(m.to_numpy(), k, m.a):
        bits[codes] = True
    return bits


def is_omnimosaic(m: MosaicMatrix, k: int) -> VerifyReport:
    start = time.perf_counter()
    bits = coverage(m, k)
    total = len(bits)
    covered = int(np.count_nonzero(bits))
    return VerifyReport(
        is_omni=(covered == total),
        covered=covered,
        total_targets=total,
        missing_sample=[] if covered == total else np.flatnonzero(~bits)[:MISSING_SAMPLE].tolist(),
        submatrices_enumerated=math.comb(m.rows, k) * math.comb(m.cols, k),
        elapsed=time.perf_counter() - start,
    )


def contains_target(m: MosaicMatrix, t: MosaicMatrix) -> Placement | None:
    """Lexicographically least placement of target t in m, or None.

    For fixed rows, matching the target's column words greedily left to
    right against m's column words restricted to those rows is exact, since
    the column choices are order-constrained but otherwise independent.  A
    batch of row subsets, in lexicographic order, is matched at once, one
    target column at a time; subsets with no hit drop out, and the first one
    left gives the least placement.
    """
    if t.rows != t.cols:
        raise MosaicError("target must be square")
    if t.a != m.a:
        raise MosaicError("alphabet mismatch")
    k = t.rows
    if k > m.rows or k > m.cols:
        raise MosaicError("target larger than host matrix")
    rowpow, _ = kernel.powers(k, m.a)
    arr = m.to_numpy()
    twords = kernel.column_words(t.to_numpy(), kernel.subsets(k, k), rowpow)[:, 0]
    colidx = np.arange(m.cols)
    for rowsubs in kernel.subset_batches(m.rows, k, max(1, kernel.CHUNK // m.cols)):
        words = kernel.column_words(arr, rowsubs, rowpow).T  # [subset, column]
        live = np.arange(len(rowsubs))
        cols = np.full((len(rowsubs), 1), -1)  # matched columns after a -1 sentinel
        for tw in twords:
            hits = (words[live] == tw) & (colidx > cols[:, -1:])
            first = hits.argmax(axis=1)  # the leftmost hit, if any
            keep = np.flatnonzero(hits.any(axis=1))
            live, cols = live[keep], np.column_stack([cols[keep], first[keep]])
        if live.size:
            return Placement(tuple(rowsubs[live[0]].tolist()), tuple(cols[0, 1:].tolist()))
    return None


def verify_placement(m: MosaicMatrix, p: Placement, t: MosaicMatrix) -> bool:
    if len(p.row_idx) != t.rows or len(p.col_idx) != t.cols:
        return False
    if p.row_idx[-1] >= m.rows or p.col_idx[-1] >= m.cols:
        raise MosaicError("placement out of bounds")
    e, n = m.entries, m.cols
    return [e[r * n + c] for r in p.row_idx for c in p.col_idx] == list(t.entries)
