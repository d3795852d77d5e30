"""Deciding the omnimosaic property and locating targets by search.

coverage() reads the covered set of a host: the code-order bitset over the
a^(k*k) targets of every k-subset of rows crossed with every k-subset of
columns.  First it drops every row past the k-th of a run of equal adjacent
rows: a placement takes at most k rows of a run and any k of them are
alike, so the set of codes is unchanged.  The construction pads its odd-k
squares with copies of the last row, so they shrink this way, (3,4) from 36
to 26 rows.  Target t occurs in the host iff its transpose occurs in the
host's transpose, so it cuts the transpose's runs too, prices both on the
kernel's two paths (``kernel.path_costs``) and reads the transpose only
where that is strictly cheaper, as on a tall, narrow host.  The direct
path encodes each placement and marks its code (``kernel.covered``); the
subsequence automaton ORs the top level of every row subset's automaton
and reads that as the bitset of the transpose of what it reads
(``kernel.automaton_covered``).  A bitset of the host's transpose is
mapped back by the digit transpose, entry (i, j) to (j, i).  Both are
exact; the only approximations anywhere are the guards that refuse target
spaces too large to bitset and hosts with too many placements to read.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from omnikit import kernel
from omnikit.core import MosaicError, MosaicMatrix, Placement, target_space

MISSING_SAMPLE = 32  # missing codes a report lists
PLACEMENT_GUARD = 2**34  # most placements, C(rows,k) * C(cols,k), that coverage() reads


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
    placements = math.comb(m.rows, k) * math.comb(m.cols, k)
    if placements > PLACEMENT_GUARD:
        raise MosaicError(
            f"{placements} placements exceed placement guard {PLACEMENT_GUARD}; "
            "check individual targets with contains_target instead"
        )
    arr = m.to_numpy()
    hosts = [_cut_runs(arr, k)[None], _cut_runs(np.ascontiguousarray(arr.T), k)[None]]
    costs = [kernel.path_costs(*host.shape, k, m.a) for host in hosts]
    turned = min(costs[1]) < min(costs[0])  # a tie keeps the host
    automaton, direct = costs[turned]
    read = kernel.automaton_covered if automaton < direct else kernel.covered
    bits = read(hosts[turned], k, m.a)[0]
    if turned != (read is kernel.automaton_covered):  # bits of the host's transpose
        order = [j * k + i for i in range(k) for j in range(k)]  # digit (i, j) <-> (j, i)
        bits = bits.reshape((m.a,) * (k * k)).transpose(order).reshape(-1)
    return bits


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
    """Lexicographically least placement of target t in m, or None (also
    when t has more rows or columns than m).

    For fixed rows, matching the target's column words greedily left to
    right against m's column words restricted to those rows is exact, since
    the column choices are order-constrained but otherwise independent.  A
    batch of row subsets, in lexicographic order, is matched at once, one
    target column at a time; subsets with no hit drop out, and the first one
    left gives the least placement.

    A tall host, C(cols,k) * rows < C(rows,k) * cols, is matched transposed
    instead: for each column subset the target's rows are matched greedily
    top to bottom, which gives its least rows, and the least (rows, cols)
    over every column subset is the least placement.
    """
    if t.rows != t.cols:
        raise MosaicError("target must be square")
    if t.a != m.a:
        raise MosaicError("alphabet mismatch")
    k = t.rows
    if k > m.rows or k > m.cols:
        return None
    arr, tarr = m.to_numpy(), t.to_numpy()
    if math.comb(m.cols, k) * m.rows < math.comb(m.rows, k) * m.cols:
        best = min(((r, c) for colsubs, rows in _greedy_matches(arr.T, tarr.T, m.a)
                    for r, c in zip(map(tuple, rows.tolist()), map(tuple, colsubs.tolist()))),
                   default=None)
        return None if best is None else Placement(*best)
    for rowsubs, cols in _greedy_matches(arr, tarr, m.a):
        if len(rowsubs):
            return Placement(tuple(rowsubs[0].tolist()), tuple(cols[0].tolist()))
    return None


def _greedy_matches(arr: np.ndarray, target: np.ndarray, a: int):
    """For each batch of row k-subsets of arr, in lexicographic order: the
    subsets where target occurs, and the least columns it occurs at in each."""
    k = len(target)
    rowpow, _ = kernel.powers(k, a)
    twords = rowpow @ target  # the target's column words
    colidx = np.arange(arr.shape[1])
    for rowsubs in kernel.subset_batches(len(arr), k, max(1, kernel.CHUNK // arr.shape[1])):
        words = kernel.column_words(arr, rowsubs, rowpow).T  # [subset, column]
        live = np.arange(len(rowsubs))
        cols = np.full((len(rowsubs), 1), -1)  # matched columns after a -1 sentinel
        for tw in twords:
            hits = (words[live] == tw) & (colidx > cols[:, -1:])
            first = hits.argmax(axis=1)  # the leftmost hit, if any
            keep = np.flatnonzero(hits.any(axis=1))
            live, cols = live[keep], np.column_stack([cols[keep], first[keep]])
        yield rowsubs[live], cols[:, 1:]


def verify_placement(m: MosaicMatrix, p: Placement, t: MosaicMatrix) -> bool:
    if t.a != m.a:
        raise MosaicError("alphabet mismatch")
    if len(p.row_idx) != t.rows or len(p.col_idx) != t.cols:
        return False
    if p.row_idx[-1] >= m.rows or p.col_idx[-1] >= m.cols:
        raise MosaicError("placement out of bounds")
    e, n = m.entries, m.cols
    return [e[r * n + c] for r in p.row_idx for c in p.col_idx] == list(t.entries)
