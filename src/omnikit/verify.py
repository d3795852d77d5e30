"""Deciding the omnimosaic property and locating targets by search.

coverage() enumerates every k-subset of rows crossed with every k-subset of
columns, encodes each induced submatrix and marks it in a bitset over the
a^(k*k) target codes.  First it drops every row past the k-th of a run of
equal adjacent rows: a placement takes at most k rows of a run and any k of
them are alike, so the set of codes is unchanged.  The construction pads its
odd-k squares with copies of the last row, so they shrink this way, (3,4)
from 36 to 26 rows.  The enumeration is exact; the only approximation
anywhere is the guard that refuses target spaces too large to bitset.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from omnikit import kernel
from omnikit.core import MosaicError, MosaicMatrix, Placement, target_space

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
    size = target_space(k, m.a)
    if size > kernel.COVERAGE_GUARD:
        raise MosaicError(
            f"target space {size} exceeds coverage guard {kernel.COVERAGE_GUARD}; "
            "check individual targets with contains_target instead"
        )
    return kernel.covered(_cut_runs(m.to_numpy(), k)[None], k, m.a)[0]


def _cut_runs(arr: np.ndarray, k: int) -> np.ndarray:
    """arr without every row past the k-th of a run of equal adjacent rows."""
    new = np.ones(len(arr), dtype=bool)  # row starts a run
    new[1:] = (arr[1:] != arr[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    return arr[np.arange(len(arr)) - starts[np.cumsum(new) - 1] < k]


def is_omnimosaic(m: MosaicMatrix, k: int) -> VerifyReport:
    start = time.perf_counter()
    bits = coverage(m, k)
    total = len(bits)
    covered = int(np.count_nonzero(bits))
    return VerifyReport(
        is_omni=(covered == total),
        covered=covered,
        total_targets=total,
        missing_sample=[] if covered == total else _missing_sample(bits),
        submatrices_enumerated=math.comb(m.rows, k) * math.comb(m.cols, k),
        elapsed=time.perf_counter() - start,
    )


def _missing_sample(bits: np.ndarray) -> list[int]:
    """The first MISSING_SAMPLE codes bits lacks, read a slice at a time, so
    that no copy of the whole bitset is made."""
    sample: list[int] = []
    for lo in range(0, len(bits), kernel.CHUNK):
        sample += (lo + np.flatnonzero(~bits[lo : lo + kernel.CHUNK])[:MISSING_SAMPLE]).tolist()
        if len(sample) >= MISSING_SAMPLE:
            return sample[:MISSING_SAMPLE]
    return sample


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
    twords = rowpow @ t.to_numpy()  # the target's column words
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
