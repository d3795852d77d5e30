"""Exact existence/nonexistence search for small omnimosaics.

The depth-first search places the n-by-n matrix one row at a time, n deep.
A row is a base-a int in [0, a^n), first column most significant
(``kernel.row_digits``), so increasing values are increasing rows.  The
search visits only matrices that satisfy these rules, both applied in
``_Searcher._rows``:

* letter canonicalization: the first occurrences of letters in reading
  order are 0, 1, 2, ...;
* rows nondecreasing lexicographically.

Each depth scans the row values from the previous row's upward, a block at a
time, and scores the block's admissible rows in one vectorized step: kernel
column words give the codes of the placements through each candidate, and
so the number of targets the placed rows would then cover.  Placements
inside the placed rows are final, so a candidate survives only if that
number plus the number of placements touching a later row reaches a^(k*k);
the search recurses into the survivors in increasing order.  A node is one
admissible row tried, and the budget is checked once per block.

A ``found`` verdict is a proof: its witness is checked with
``verify.is_omnimosaic``.  So is an ``exhausted_none`` from counting: with
C(n,k)^2 < a^(k*k) there are fewer placements than targets, and the search
answers before placing any row.  Any other ``exhausted_none`` is not yet a
proof of nonexistence.  Letter canonicalization is sound, but the row order
is not: submatrix rows must be increasing, so permuting the rows of an
omnimosaic can lose the property (10 of the 24 row permutations of the
(4,2,2) witness do), and an orbit may have no sorted member that is omni.
Making the symmetry breaking sound is open work: the group it must quotient
by is ``core.symmetries``, the 8·a! letter permutations, transposes and row
and column reversals.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
import numpy as np

from omnikit import bounds, kernel
from omnikit.core import MosaicError, MosaicMatrix, check_sizes, power_exceeds
from omnikit.verify import is_omnimosaic

FOUND = "found"
EXHAUSTED_NONE = "exhausted_none"
BUDGET_EXCEEDED = "budget_exceeded"

# Largest side searched: it bounds the inputs accepted.  A search that
# counting does not settle has C(n,k)^2 >= a^(k*k), so n <= 16 leaves a <= 10
# at k = 2, a <= 4 at k = 3 and at most a = 2 beyond, and every row value,
# below a^n <= 10^16, fits in int64 for k >= 2; k = 1 is refused past it.
MAX_N = 16
_ROW_LIMIT = 2**63 - 1  # largest a^n searched
_TABLE_BYTES = 1 << 24  # admissible rows a searcher keeps, by (letters used, block)
_ENTRY_BYTES = 1 << 10  # a kept block's key, dict slot and array headers (~540 measured)


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
        self.n, self.a = n, a
        self.budget = budget or SearchBudget()
        self.nodes = 0
        self.start = time.perf_counter()
        self.total_targets = a ** (k * k)
        # placements touching a row past the first m rows, by m
        self.outside = [math.comb(n, k) * (math.comb(n, k) - math.comb(m, k)) for m in range(n + 1)]
        dtype = np.min_scalar_type(self.total_targets - 1)
        self.rowpow, self.colpow = (p.astype(dtype) for p in kernel.powers(k, a))
        self.colsubs = kernel.subsets(n, k)
        self.rest = [kernel.subsets(i, k - 1) for i in range(n)]  # by i, rows 0..i-1
        self.width = a**n  # row values
        # row values per block: a block's placement codes stay within
        # kernel.CHUNK and, as counting leaves a^(k*k) <= C(n,k)^2, its
        # [row, target] array within max(n/k * CHUNK, a^(k*k)) entries
        self.block = max(1, kernel.CHUNK // (math.comb(n - 1, k - 1) * len(self.colsubs)))
        # [r, c]: code of placed row r's letters at column subset c, as the
        # last row of a k×k target; a placement's code is the rowpow-weighted
        # sum of its rows' codes
        self.rowcodes = np.zeros((n, len(self.colsubs)), dtype=dtype)
        self.rows = [0] * n  # placed rows' values
        self.kept = {}  # (letters used, block start) -> what _rows yields for the block
        self.kept_bytes = 0
        self.witness = None

    def _tick(self, tried: int):
        """Check the budget, then count ``tried`` rows as nodes."""
        b = self.budget
        if b.max_nodes is not None and self.nodes >= b.max_nodes:
            raise _Budget()
        if b.max_seconds is not None and time.perf_counter() - self.start >= b.max_seconds:
            raise _Budget()
        self.nodes += tried

    def _rows(self, i: int, used: int):
        """The rows that may be placed as row i, letters [0, used) appearing
        above it: those of value at least row i-1's (rows nondecreasing) in
        which each letter past those first appears after every smaller one
        (first occurrences in reading order 0, 1, 2, ...).

        Yields (values, rowcodes, used) of them, increasing, one triple per
        block of values scanned, each possibly empty: rowcodes as in
        ``self.rowcodes``, used the letters in use once the row is placed.  A
        block's admissible rows are kept while they fit in _TABLE_BYTES.
        """
        n, a, size = self.n, self.a, self.block
        prev = self.rows[i - 1] if i else 0
        for lo in range(prev - prev % size, self.width, size):
            found = self.kept.get((used, lo))
            if found is None:
                values = np.arange(lo, min(lo + size, self.width), dtype=np.int64)
                letters = kernel.row_digits(values, n, a)
                # the largest letter each cell may hold: one past every letter before it
                allowed = np.maximum(used, np.maximum.accumulate(letters, axis=1) + 1)
                ok = (letters[:, 0] <= used) & np.all(letters[:, 1:] <= allowed[:, :-1], axis=1)
                letters = letters[ok].astype(self.rowcodes.dtype)
                found = (
                    values[ok],
                    kernel.column_words(letters.T, self.colsubs, self.colpow),
                    allowed[ok, -1],
                )
                entry = sum(x.nbytes for x in found) + _ENTRY_BYTES
                if self.kept_bytes + entry <= _TABLE_BYTES:
                    self.kept[used, lo] = found
                    self.kept_bytes += entry
            if lo < prev:
                first = np.searchsorted(found[0], prev)
                found = tuple(x[first:] for x in found)
            yield found

    def _place(self, i: int, used: int, missing: np.ndarray, count: int) -> bool:
        """Try row i below the placed rows 0..i-1, whose letters are [0, used)
        and whose placements cover ``count`` targets, those not in ``missing``."""
        n, a = self.n, self.a
        # [c, s]: code of placement (column subset c, rows rest[s] and i) but row i's part
        placed = kernel.column_words(self.rowcodes[:i], self.rest[i], self.rowpow[:-1])
        for values, rowcodes, after in self._rows(i, used):
            self._tick(len(values))
            if not len(values):
                continue
            # fresh[b, t]: target t is missing and covered by a placement through row b
            fresh = np.zeros((len(values), self.total_targets), dtype=bool)
            codes = (placed + rowcodes[:, :, None]).reshape(len(values), -1)
            fresh[np.arange(len(values))[:, None], codes] = True
            fresh &= missing
            counts = count + fresh.sum(axis=1)
            for b in (counts + self.outside[i + 1] >= self.total_targets).nonzero()[0]:
                self.rows[i] = int(values[b])
                self.rowcodes[i] = rowcodes[b]
                if i == n - 1:  # nothing lies outside: every target is covered
                    self.witness = MosaicMatrix.from_numpy(kernel.row_digits(self.rows, n, a), a)
                    return True
                if self._place(i + 1, int(after[b]), missing ^ fresh[b], int(counts[b])):
                    return True
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
    """Decide whether an O(n,k,a) omnimosaic exists, by a canonical row-by-row DFS.

    Requires k >= 1, a >= 2, k <= n <= MAX_N and, unless counting settles
    the answer, a^n < 2^63.
    """
    start = time.perf_counter()
    _check_args(k, a, n)
    if power_exceeds(a, k * k, math.comb(n, k) ** 2):  # fewer placements than targets
        return SearchResult(EXHAUSTED_NONE, None, 0, time.perf_counter() - start)
    if power_exceeds(a, n, _ROW_LIMIT):
        raise MosaicError(f"search supports a^n < 2^63 row values, got {a}^{n}")
    s = _Searcher(n, k, a, budget)
    try:
        found = s._place(0, 0, np.ones(s.total_targets, dtype=bool), 0)
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
