"""Codes of k×k placements: the one kernel behind verification, Monte-Carlo,
exact enumeration and the exact search.

A placement is a k-subset of rows crossed with a k-subset of columns, both
increasing.  Its code is the row-major base-a number of the submatrix it
induces, most significant entry first (``core.encode_target``).

* ``placement_codes`` gives the code of every placement of a matrix, or of a
  stack of matrices, through column words: for a row subset, column j's word
  holds its k entries as base-a digits k places apart (weights ``rowpow``),
  so a placement's code is the colpow-weighted sum of its k column words.
* ``code_batches`` gives the codes of one matrix's placements, at most CHUNK
  at a time, through row words: for a block of about CHUNK / rows column
  subsets, row r's word holds its entries at each subset (weights
  ``colpow``), built once per block, and a batch of row subsets sums k
  gathered whole rows of words, each a contiguous copy of the block's width.
* ``enumerate_coverage`` covers every one of the a^(n*n) n×n matrices at once
  through a row-tuple table.  Rows are base-a ints in [0, a^n), first column
  most significant.  The table T over k-tuples of rows holds what the k×n
  strip of those rows covers: a bitmask of target codes, or whether one given
  target occurs.  A matrix covers the OR of T over its C(n,k) row subsets;
  that OR is evaluated by broadcasting over the rows, a block of leading-row
  values at a time, so a step holds max(CHUNK, a^(n(n-1))) matrices.
"""

from __future__ import annotations

from itertools import combinations, islice

import numpy as np

# Codes or matrices per step.  An enumeration step holds at least one
# leading-row value's a^(n(n-1)) matrices, at most 2^20 under the 2^25
# matrix guard, so its masks never exceed 8 MB.
CHUNK = 1 << 16
BITSET_LIMIT = 1 << 22  # largest target space deduplicated with a bitset
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1  # [v, b]: bit b of v


def powers(k: int, a: int) -> tuple[np.ndarray, np.ndarray]:
    """(rowpow, colpow): weights of a k×k submatrix's rows and columns in its code."""
    rowpow = np.array([a ** (k * (k - 1 - i)) for i in range(k)], dtype=np.int64)
    colpow = np.array([a ** (k - 1 - j) for j in range(k)], dtype=np.int64)
    return rowpow, colpow


def subsets(n: int, k: int) -> np.ndarray:
    """Every increasing k-subset of range(n), lexicographic, shape (C(n,k), k)."""
    combos = list(combinations(range(n), k))
    return np.array(combos, dtype=np.int64).reshape(len(combos), k)


def subset_batches(n: int, k: int, size: int):
    """``subsets(n, k)`` in consecutive batches of at most ``size`` rows each."""
    combos = combinations(range(n), k)
    while batch := list(islice(combos, size)):
        yield np.array(batch, dtype=np.int64)


def column_words(arr: np.ndarray, rowsubs: np.ndarray, rowpow: np.ndarray) -> np.ndarray:
    """words[c, ..., s]: column c of arr (..., rows, cols) restricted to row
    subset s, its entries weighted by rowpow.  Columns come first, so that
    gathering the columns of a placement copies whole contiguous rows."""
    cols_first = np.ascontiguousarray(np.moveaxis(arr, -1, 0))
    return sum(rowpow[i] * cols_first[..., rowsubs[:, i]] for i in range(len(rowpow)))


def placement_codes(
    arr: np.ndarray, k: int, a: int, rowsubs: np.ndarray, colsubs: np.ndarray
) -> np.ndarray:
    """codes[c, ..., s]: code of placement (rowsubs[s], colsubs[c]) of arr
    (..., rows, cols), in the smallest unsigned dtype that holds a^(k*k) - 1."""
    dtype = np.min_scalar_type(a ** (k * k) - 1)
    rowpow, colpow = (p.astype(dtype) for p in powers(k, a))
    words = column_words(arr.astype(dtype), rowsubs, rowpow)
    codes = (colpow[0] * words)[colsubs[:, 0]]
    for j in range(1, k):
        codes += (colpow[j] * words)[colsubs[:, j]]
    return codes


def code_batches(arr: np.ndarray, k: int, a: int):
    """Codes of every placement of one matrix, at most CHUNK at a time.

    For a block of column subsets, each row's words over them are built once,
    times each rowpow weight; a batch of row subsets then sums k gathered
    whole rows of those words.
    """
    dtype = np.min_scalar_type(a ** (k * k) - 1)
    rowpow, colpow = (p.astype(dtype) for p in powers(k, a))
    rows = arr.shape[0]
    colsubs = subsets(arr.shape[1], k)
    transposed = arr.T.astype(dtype)
    width = max(1, CHUNK // max(1, rows))  # column subsets per block
    for lo in range(0, len(colsubs), width):
        words = column_words(transposed, colsubs[lo : lo + width], colpow)  # [r, c]
        weighted = [w * words for w in rowpow]  # [i][r, c]
        for rowsubs in subset_batches(rows, k, max(1, CHUNK // words.shape[1])):
            codes = weighted[0][rowsubs[:, 0]]
            for i in range(1, k):
                codes += weighted[i][rowsubs[:, i]]
            yield codes


def distinct_counts(codes: np.ndarray, total: int) -> np.ndarray:
    """[b]: number of distinct values in codes[:, b, :], codes < total."""
    trials = codes.shape[1]
    if total > BITSET_LIMIT:
        return np.array([np.unique(codes[:, b]).size for b in range(trials)])
    offsets = np.arange(trials, dtype=np.int64)[:, None] * total
    bits = np.zeros(trials * total, dtype=bool)
    bits[codes + offsets] = True
    return np.count_nonzero(bits.reshape(trials, total), axis=1)


def row_digits(values: np.ndarray, n: int, a: int) -> np.ndarray:
    """[..., c]: column c's entry of each row value, first column most significant."""
    return (np.asarray(values)[..., None] // a ** np.arange(n - 1, -1, -1)) % a


def _tuple_table(rowwords, lead, k: int, a: int, target, dtype) -> np.ndarray:
    """T over k-tuples of rows whose first row is in ``lead``.

    With target None, T is the mask of the codes the k×n strip covers; else
    T says whether the target code occurs in it.
    """
    width = rowwords.shape[1]
    out = np.zeros((len(lead),) + (width,) * (k - 1), dtype=dtype)
    rowpow, _ = powers(k, a)
    for words in rowwords:
        axes = np.ix_(words[lead], *[words] * (k - 1))
        code = sum(rowpow[i] * axes[i] for i in range(k))
        if target is None:
            out |= np.left_shift(dtype.type(1), code.astype(dtype))
        else:
            out |= code == target
    return out


def enumerate_coverage(n: int, k: int, a: int, target: int | None = None):
    """Yield the coverage of every n×n matrix over [0, a), a block at a time.

    Each block has shape (m, a^n, ..., a^n) with n axes, one per row; entry
    [r0, ..., r_{n-1}] belongs to the matrix with those row values.  With
    target None an entry is the mask of the target codes the matrix covers
    (at most 64 targets); else it says whether that one target occurs.
    """
    width = a**n
    _, colpow = powers(k, a)
    # [c, v]: the word of row value v at column subset c
    rowwords = column_words(row_digits(np.arange(width), n, a).T, subsets(n, k), colpow).T
    if target is None:
        dtype = np.min_scalar_type((1 << a ** (k * k)) - 1)  # a bit per target
    else:
        dtype = np.dtype(np.uint8)  # 0 or 1: ORs faster than bool
    rowsubs = subsets(n, k)
    rest = width ** (n - 1)
    step = max(1, CHUNK // rest)
    # T for all k-tuples when some row subset avoids row 0 (k < n); for k = n
    # only the tuples that start at the block's leading rows are needed
    full = _tuple_table(rowwords, np.arange(width), k, a, target, dtype) if k < n else None
    for lo in range(0, width, step):
        lead = np.arange(lo, min(lo + step, width))
        if k < n:
            head = full[lo : lo + step]
        else:  # k > n has no row subsets, hence no table
            head = _tuple_table(rowwords, lead, k, a, target, dtype) if k == n else None
        acc = np.zeros((len(lead),) + (width,) * (n - 1), dtype=dtype)
        for rows in rowsubs:
            shape = [1] * n
            for r in rows:
                shape[r] = width
            if rows[0] == 0:
                shape[0] = len(lead)
                acc |= head.reshape(shape)
            else:
                acc |= full.reshape(shape)
        yield acc


def bit_counts(masks: np.ndarray) -> np.ndarray:
    """[t]: how many masks have bit t set, for every bit of the mask dtype."""
    flat = masks.ravel()
    counts = []
    for shift in range(0, 8 * masks.itemsize, 8):
        byte = (flat >> masks.dtype.type(shift)).astype(np.uint8)
        counts.append(np.bincount(byte, minlength=256) @ _BYTE_BITS)
    return np.concatenate(counts)
