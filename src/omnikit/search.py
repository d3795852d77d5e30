"""Exact existence/nonexistence search for small omnimosaics.

The depth-first search fills the n-by-n matrix cell by cell in row-major
order and visits only matrices that satisfy:

* letter canonicalization: the first occurrences of letters in reading
  order are 0, 1, 2, ...;
* rows nondecreasing lexicographically.

A ``found`` verdict is a proof: its witness is checked with
``verify.is_omnimosaic``.  An ``exhausted_none`` verdict is not yet a proof
of nonexistence.  Letter canonicalization is sound, but the row order is
not: submatrix rows must be increasing, so permuting the rows of an
omnimosaic can lose the property (10 of the 24 row permutations of the
(4,2,2) witness do), and an orbit may have no sorted member that is omni.
Making the symmetry breaking sound is open work.

Pruning: placements lying entirely inside the filled rows are final, so a
branch dies as soon as the codes covered so far plus the number of
placements touching an unfilled row cannot reach a^(k*k).  The covered
codes are a Python-int bitmask.  When a row is completed it is encoded as a
base-a int (``kernel.row_digits`` order) and the masks of the row tuples
ending at it, from ``kernel.tuple_masks``, are ORed in; the searcher caches
those masks, up to a fixed number of entries.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from omnikit import bounds, kernel
from omnikit.core import MosaicError, MosaicMatrix, check_sizes
from omnikit.verify import is_omnimosaic

FOUND = "found"
EXHAUSTED_NONE = "exhausted_none"
BUDGET_EXCEEDED = "budget_exceeded"

_BUDGET_CHECK_MASK = 0xFFF
# Largest side searched.  The DFS recurses once per cell and once per row,
# n*n + n frames deep, and its tree has a^(n*n) leaves: 16 keeps the
# recursion far inside Python's default limit, at sizes no search exhausts.
MAX_N = 16
_COLUMN_ROWS = 1 << 12  # k = 2 caches whole columns while a^n is at most this
_CACHE_ENTRIES = 1 << 16  # masks a searcher caches ...
_CACHE_BITS = 1 << 28  # ... and mask bits (32 MB), whichever is fewer


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes <= 0:
            raise MosaicError("max_nodes must be positive")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise MosaicError("max_seconds must be positive")


@dataclass
class SearchResult:
    status: str
    witness: MosaicMatrix | None
    nodes: int
    elapsed: float


class _Budget(Exception):
    pass


class _Searcher:
    def __init__(self, n, k, a, budget):
        self.n, self.k, self.a = n, k, a
        self.budget = budget or SearchBudget()
        self.nodes = 0
        self.start = time.perf_counter()
        self.total_targets = a ** (k * k)
        self.total_placements = math.comb(n, k) ** 2
        # placements fully inside the first m rows, by m
        self.inside = [math.comb(m, k) * math.comb(n, k) for m in range(n + 1)]
        self.grid = [[0] * n for _ in range(n)]
        self.rowvals = [0] * n  # completed rows as base-a ints, first column most significant
        # coverage masks of row tuples: for k = 2 and small rows, one column
        # [mask of (u, r) for every row value u] per top-row value r; else one
        # mask per tuple of row values.  Emptied when it would pass its ceiling.
        self.cache = {}
        self.cache_limit = min(_CACHE_ENTRIES, _CACHE_BITS // self.total_targets)
        self.columns = k == 2 and a**n <= _COLUMN_ROWS
        self.cached = 0
        self.witness = None

    def _tick(self):
        self.nodes += 1
        if self.nodes & _BUDGET_CHECK_MASK:
            return
        b = self.budget
        if b.max_nodes is not None and self.nodes >= b.max_nodes:
            raise _Budget()
        if b.max_seconds is not None and time.perf_counter() - self.start >= b.max_seconds:
            raise _Budget()

    def _store(self, masks: dict, entries: int):
        """Cache masks, emptying the cache first if it would pass its ceiling."""
        if self.cached + entries > self.cache_limit:
            self.cache.clear()
            self.cached = 0
        self.cache.update(masks)
        self.cached += entries

    def _new_mask(self, top_row: int) -> int:
        """Mask of the codes of placements whose maximal row is top_row."""
        n, k, a = self.n, self.k, self.a
        row = self.grid[top_row]
        r = 0
        for x in row:
            r = r * a + x
        vals = self.rowvals
        vals[top_row] = r
        mask = 0
        if top_row < k - 1:
            return mask
        if self.columns:
            column = self.cache.get(r)
            if column is None:
                tuples = np.empty((a**n, 2, n), dtype=np.int64)
                tuples[:, 0] = kernel.row_digits(np.arange(a**n), n, a)
                tuples[:, 1] = row
                column = kernel.tuple_masks(tuples, a)
                self._store({r: column}, len(column))
            for v in vals[:top_row]:
                mask |= column[v]
            return mask
        missing = {}  # row values -> rows, of the tuples not cached
        for rest in combinations(range(top_row), k - 1):
            key = tuple(vals[p] for p in rest) + (r,)
            m = self.cache.get(key)
            if m is None:
                missing[key] = [self.grid[p] for p in rest] + [row]
            else:
                mask |= m
        if missing:
            masks = kernel.tuple_masks(np.array(list(missing.values())), a)
            self._store(dict(zip(missing, masks)), len(masks))
            for m in masks:
                mask |= m
        return mask

    def search(self) -> bool:
        return self._fill(0, 0, 0, False, 0)

    def _fill(self, i, j, used, tie, covered) -> bool:
        n, a = self.n, self.a
        if j == n:
            covered |= self._new_mask(i)
            count = covered.bit_count()
            if count + (self.total_placements - self.inside[i + 1]) < self.total_targets:
                return False
            if i == n - 1:
                if count == self.total_targets:
                    self.witness = MosaicMatrix.from_rows(self.grid, a)
                    return True
                return False
            return self._fill(i + 1, 0, used, True, covered)
        lo = self.grid[i - 1][j] if (tie and i > 0) else 0
        hi = min(used, a - 1)
        row = self.grid[i]
        for letter in range(lo, hi + 1):
            self._tick()
            row[j] = letter
            new_tie = tie and i > 0 and letter == self.grid[i - 1][j]
            if self._fill(i, j + 1, max(used, letter + 1), new_tie, covered):
                return True
        row[j] = 0
        return False


def _check_args(k: int, a: int, n: int | None = None) -> None:
    check_sizes(k=k, a=a)
    if n is not None and n < k:
        raise MosaicError("n must be >= k")
    # n >= k, so a k past MAX_N is refused before min_omnimosaic_n computes a start n
    for name, value in (("k", k), ("n", n)):
        if value is not None and value > MAX_N:
            raise MosaicError(f"search supports {name} <= {MAX_N}, got {value}")


def exists_omnimosaic(
    n: int,
    k: int,
    a: int,
    budget: SearchBudget | None = None,
) -> SearchResult:
    """Decide whether an O(n,k,a) omnimosaic exists, by canonical DFS.

    Requires k >= 1, a >= 2 and k <= n <= MAX_N.
    """
    _check_args(k, a, n)
    s = _Searcher(n, k, a, budget)
    try:
        found = s.search()
    except _Budget:
        return SearchResult(BUDGET_EXCEEDED, None, s.nodes, time.perf_counter() - s.start)
    elapsed = time.perf_counter() - s.start
    if found:
        report = is_omnimosaic(s.witness, k)
        if not report.is_omni:
            raise AssertionError("search produced a non-omni witness")
        return SearchResult(FOUND, s.witness, s.nodes, elapsed)
    return SearchResult(EXHAUSTED_NONE, None, s.nodes, elapsed)


def min_omnimosaic_n(
    k: int, a: int, budget: SearchBudget | None = None
) -> list[tuple[int, SearchResult]]:
    """Trace of exists_omnimosaic from the pigeonhole bound upward.

    Stops at the first found size (that size is omega(k,a) once every
    earlier exhausted_none is a proof; see the module docstring), on budget
    exhaustion, or at MAX_N.
    """
    _check_args(k, a)
    trace: list[tuple[int, SearchResult]] = []
    n = bounds.pigeonhole_min_n(k, a)
    _check_args(k, a, n)
    while True:
        result = exists_omnimosaic(n, k, a, budget=budget)
        trace.append((n, result))
        if result.status != EXHAUSTED_NONE or n >= MAX_N:
            return trace
        n += 1
