"""Grid-diagram based omnimosaic construction.

A grid diagram assigns each cell of a k-by-k grid an orientation, H or V.
With r_i = number of H cells in row i and c_j = number of V cells in column
j, the construction produces a (sum_i a^r_i)-by-(sum_j a^c_j) matrix that
contains every k-by-k target, together with a region map that lets any
target be located in O(k^2) time without search.

The index-to-word bijection used for region rows/columns is fixed to base-a
encoding, most significant letter first, and H columns are enumerated in
ascending order; outputs are therefore byte-for-byte reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate
from typing import Sequence

import numpy as np

from omnikit import bounds, kernel
from omnikit.core import MosaicError, MosaicMatrix, Placement, _Memo, check_sizes, power_exceeds

H = "H"
V = "V"

MAX_CELLS = 2**26  # 1 GiB as int64 plus the entries tuple; checked before allocating


@dataclass(frozen=True)
class GridDiagram:
    k: int
    cells: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if self.k < 1:
            raise MosaicError("grid side must be >= 1")
        if len(self.cells) != self.k or any(len(r) != self.k for r in self.cells):
            raise MosaicError("grid must be k x k")
        for row in self.cells:
            for c in row:
                if c not in (H, V):
                    raise MosaicError(f"grid cell must be 'H' or 'V', got {c!r}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[str]]) -> "GridDiagram":
        return cls(len(rows), tuple(tuple(r) for r in rows))

    def row_counts(self) -> tuple[int, ...]:
        return tuple(row.count(H) for row in self.cells)

    def col_counts(self) -> tuple[int, ...]:
        return tuple(col.count(V) for col in zip(*self.cells))

    @cached_property
    def h_columns(self) -> tuple[tuple[int, ...], ...]:
        """For each row, ascending, the columns holding an H."""
        return tuple(tuple(j for j, c in enumerate(row) if c == H) for row in self.cells)

    @cached_property
    def v_rows(self) -> tuple[tuple[int, ...], ...]:
        """For each column, ascending, the rows holding a V."""
        return tuple(tuple(i for i, c in enumerate(col) if c == V) for col in zip(*self.cells))


@dataclass(frozen=True)
class RegionMap:
    """Prefix-sum geometry of the constructed matrix plus the H/V bijections.

    h_columns[i] lists, ascending, the columns of grid row i holding an H;
    v_rows[j] lists the rows of grid column j holding a V.
    """

    a: int
    row_offsets: tuple[int, ...]
    col_offsets: tuple[int, ...]
    h_columns: tuple[tuple[int, ...], ...]
    v_rows: tuple[tuple[int, ...], ...]

    @cached_property
    def _sides(self) -> tuple[tuple[tuple[int, ...], _Memo], ...]:
        """For the rows, then the columns: the row-major indices of the target
        entries that pick them, region by region, and a memo from the base-a
        value of those entries to the index tuple, derived on first use.  A
        memo holds at most a^(#H) or a^(#V) tuples, each shared by every
        placement that picks it (tuples are immutable)."""
        k = len(self.h_columns)
        rows = tuple(i * k + j for i, h_cols in enumerate(self.h_columns) for j in h_cols)
        cols = tuple(i * k + j for j, v_rows in enumerate(self.v_rows) for i in v_rows)
        return ((rows, _Memo(partial(_split, self.row_offsets))),
                (cols, _Memo(partial(_split, self.col_offsets))))


def _split(offsets: tuple[int, ...], code: int) -> tuple[int, ...]:
    """The index each region of a side picks for code: code is one mixed-radix
    digit a region, radix the region's size hi - lo (a^r for r picking
    entries), last region least significant, added to the region's offset."""
    picked = []
    for lo, hi in zip(offsets[-2::-1], offsets[:0:-1]):
        code, d = divmod(code, hi - lo)
        picked.append(lo + d)
    return tuple(picked[::-1])


def canonical_grid(k: int) -> GridDiagram:
    """The balanced diagram: H where (i <= floor(k/2)) == (j <= ceil(k/2)), 1-based."""
    check_sizes(k=k)
    half_lo, half_hi = k // 2, k - k // 2
    return GridDiagram.from_rows(
        [[H if (i <= half_lo) == (j <= half_hi) else V for j in range(1, k + 1)]
         for i in range(1, k + 1)]
    )


def _offsets(counts: Sequence[int], a: int) -> tuple[int, ...]:
    return tuple(accumulate((a**r for r in counts), initial=0))


def build_mosaic(grid: GridDiagram, a: int) -> tuple[MosaicMatrix, RegionMap]:
    """Fill the region matrix of a grid diagram.

    Region (i, j) with an H cell repeats, across all its columns, letter t of
    the base-a word indexing the local row, where j is the t-th H column of
    grid row i; V cells are filled symmetrically by local column.
    """
    check_sizes(a=a)
    k = grid.k
    r_counts = grid.row_counts()
    c_counts = grid.col_counts()
    row_off = _offsets(r_counts, a)
    col_off = _offsets(c_counts, a)
    n_rows, n_cols = row_off[-1], col_off[-1]
    if n_rows * n_cols > MAX_CELLS:
        raise MosaicError(f"constructed matrix exceeds {MAX_CELLS} cells")

    out = np.zeros((n_rows, n_cols), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            r0, r1 = row_off[i], row_off[i + 1]
            c0, c1 = col_off[j], col_off[j + 1]
            if grid.cells[i][j] == H:
                t = grid.h_columns[i].index(j)
                digits = (np.arange(r1 - r0) // a ** (r_counts[i] - 1 - t)) % a
                out[r0:r1, c0:c1] = digits[:, None]
            else:
                t = grid.v_rows[j].index(i)
                digits = (np.arange(c1 - c0) // a ** (c_counts[j] - 1 - t)) % a
                out[r0:r1, c0:c1] = digits[None, :]

    rm = RegionMap(a, row_off, col_off, grid.h_columns, grid.v_rows)
    return MosaicMatrix.from_numpy(out, a), rm


def thin_strip(k: int, a: int) -> MosaicMatrix:
    """(k * a^k) x k matrix: all length-k words in code order, listed k times."""
    check_sizes(k=k, a=a)
    if power_exceeds(a, k, MAX_CELLS // (k * k)):  # k * k * a^k cells
        raise MosaicError("strip too large")
    block = kernel.row_digits(np.arange(a**k), k, a)
    return MosaicMatrix.from_numpy(np.tile(block, (k, 1)), a)


def check_construction(k: int, a: int) -> None:
    """Raise MosaicError, before the k-by-k grid is built, when the canonical
    construction cannot fit MAX_CELLS: it has at least a^k cells."""
    check_sizes(k=k, a=a)
    if power_exceeds(a, k, MAX_CELLS):
        raise MosaicError(f"constructed matrix exceeds {MAX_CELLS} cells")


def square_omnimosaic(k: int, a: int) -> MosaicMatrix:
    """Canonical-grid mosaic padded with duplicate last rows up to square shape."""
    check_construction(k, a)
    n = bounds.construction_upper(k, a)
    if n * n > MAX_CELLS:  # the padding can pass MAX_CELLS where the mosaic does not
        raise MosaicError(f"constructed square matrix exceeds {MAX_CELLS} cells")
    m, _ = build_mosaic(canonical_grid(k), a)
    if m.cols != n:
        raise AssertionError("canonical grid column total disagrees with formula")
    if m.rows == n:
        return m
    arr = m.to_numpy()
    pad = np.tile(arr[-1], (n - m.rows, 1))
    return MosaicMatrix.from_numpy(np.vstack([arr, pad]), a)


def locate(rm: RegionMap, grid: GridDiagram, target: MosaicMatrix) -> Placement:
    """Constructively place a k-by-k target inside the mosaic built from grid.

    The row chosen in row-region i is the base-a value of the target entries
    at the H positions of grid row i; columns are symmetric.  Each side is
    one Horner pass over the entries at the row-major indices rm derives
    once, and one lookup of that value in rm's memo of index tuples.
    Refuses a grid whose H and V cells are not rm's.
    """
    k = grid.k
    if target.rows != k or target.cols != k:
        raise MosaicError(f"target must be {k}x{k}")
    if target.a != rm.a:
        raise MosaicError("alphabet mismatch between target and region map")
    if grid.h_columns != rm.h_columns or grid.v_rows != rm.v_rows:
        raise MosaicError("grid diagram does not match the region map")
    e, a = target.entries, rm.a
    sides = []
    for idx, memo in rm._sides:
        code = 0
        for x in idx:
            code = code * a + e[x]
        sides.append(memo[code])
    return Placement(*sides)


def higher_dim_side_estimate(k: int, a: int, d: int) -> float:
    """Approximate side length k * a^(k^(d-1)/d) of the d-dimensional analog.

    Non-constructive: an estimate only, no d >= 3 builder is provided.
    """
    if d < 2:
        raise MosaicError("d must be >= 2")
    # a float power: a huge d overflows here instead of building the int k^(d-1)
    return bounds._finite("k * a^(k^(d-1)/d)", lambda: k * a ** (k ** (d - 1.0) / d))
