"""Codes of k×k placements: the one kernel behind verification, Monte-Carlo,
exact enumeration and the exact search.

A placement is a k-subset of rows crossed with a k-subset of columns, both
increasing.  Its code is the row-major base-a number of the submatrix it
induces, most significant entry first (``core.encode_target``).

* ``code_batches``, the one generator of placement codes, gives those of a
  stack of t matrices about CHUNK at a time, through row words: for a block
  of about CHUNK / (t * rows) column subsets, row r's word holds its entries
  at each subset (weights ``colpow``), built once per block, and a batch of
  row subsets sums k gathered whole rows of words, each a contiguous copy
  of the block's width.  ``covered`` marks them in a bitset per matrix.
* ``distinct_counts``, the one counting entry point, counts each matrix's
  codes by the automaton of ``covered_counts`` when ``path_costs`` predicts
  it cheaper than the direct path.  Otherwise it sorts each matrix's codes
  when they are fewer than its a^(k*k) targets (the counting bound,
  C(rows,k) * C(cols,k) < a^(k*k)), and marks them with ``covered`` when
  they are not.  ``path_costs`` charges the automaton its
  C(rows,k) * cols * B / 8 word-steps, B the bytes of one row subset's
  levels (``level_bytes``), and the direct path its C(rows,k) * C(cols,k)
  codes; ``trial_cost`` adds the n^2 cells of a Monte-Carlo trial's draw.
* ``enumerate_coverage`` covers every one of the a^(n*n) n×n matrices at once,
  for k < n, through one row-tuple table of tracked codes.  Rows are base-a
  ints in [0, a^n), first column most significant.  It tracks a list of at
  most 64 target codes through one lookup, ``bit[codes[j]] = 1 << j`` and 0
  for every other code; the table T over k-tuples of rows ORs ``bit[code]``
  over the codes the k×n strip of those rows covers.  A matrix covers the OR
  of T over its C(n,k) row subsets; that OR is evaluated by broadcasting
  over the rows, a block of leading-row values at a time, so a step holds
  max(CHUNK, a^(n(n-1))) matrices.  k >= n needs no enumeration (a matrix's
  one placement is itself at k = n, and it has none at k > n), so
  ``experiments`` counts it and this function refuses it.
* ``covered_counts`` counts the distinct codes of each matrix of a stack
  without enumerating column subsets.  For a row subset r_0 < ... < r_{k-1},
  column c's letter v_c = sum_i a^(k-1-i) X[r_i, c] lies in [0, a^k) and
  fixes the column's k entries, so a k×k submatrix is fixed by its k
  letters: the codes a row subset covers are in bijection with the length-k
  subsequences of v_0 ... v_{n-1}, and, as the letters give the submatrix
  back, so are the codes of all row subsets with the union of their
  subsequence sets.  One left-to-right pass builds those sets as bitsets
  L_1 ... L_k per row subset (L_j: the length-j subsequences of the prefix
  read so far): at column c, from level k down to 1, L_{j-1} is copied into
  slot v_c of L_j.  A level's slot stride is rounded up to a power of two
  while L_{j-1} fits in 64 bits, so that no slot straddles a word, and is
  the bits of L_{j-1}'s elements past that.  A level is held in as few
  bytes as that allows, as ``automaton_levels`` gives it: a level of at
  most 64 bits in one element of the narrowest unsigned dtype that holds
  it, where a step is one shift-OR; past 64 bits one element per slot (16,
  32 or 64 bits), or one run of L_{j-1}'s elements per slot, where a step
  is one scatter that overwrites the slot, since L_{j-1} only grows; only
  L_1 of more than 64 letters packs its one-bit slots in words.  Each level is
  [row subsets, trials, elements], so a slot is one contiguous run and the
  count, the popcount of the OR of L_k over the row subsets, ORs whole rows.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, islice

import numpy as np

from omnikit.core import MosaicError, power_exceeds

# Codes or matrices per step.  An enumeration step holds at least one
# leading-row value's a^(n(n-1)) matrices, at most 2^20 under the 2^25
# matrix guard, so its masks never exceed 8 MB.
CHUNK = 1 << 16
COVERAGE_GUARD = 2**32  # most bitset bytes, t * a^(k*k), that covered() allocates
# Predicted costs in automaton word-steps (8 bytes of one row subset's levels
# at one column): on a 2-core VM with numpy 2.4.6 a word-step took 0.2-0.3 ns
# where levels are wide, a placement code about 2.5 ns and a cell that
# experiments.trial_matrices draws 5-23 ns, about 10 ns for 2 < n < 33.
CODE_COST, CELL_COST = 10, 100


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
    """``subsets(n, k)`` in consecutive batches of at most ``size`` rows each.

    When all C(n,k) subsets fit one batch and at most CHUNK entries, that
    batch is one read-only table shared by every call; larger tables are
    streamed and never held whole.
    """
    if 0 < math.comb(n, k) <= min(size, CHUNK // k):
        yield _subset_table(n, k)
        return
    combos = combinations(range(n), k)
    while batch := list(islice(combos, size)):
        yield np.array(batch, dtype=np.int64)


@lru_cache(maxsize=16)  # at most CHUNK int64 entries each
def _subset_table(n: int, k: int) -> np.ndarray:
    table = subsets(n, k)
    table.flags.writeable = False
    return table


def column_words(arr: np.ndarray, rowsubs: np.ndarray, rowpow: np.ndarray) -> np.ndarray:
    """words[c, ..., s]: column c of arr (..., rows, cols) restricted to row
    subset s, its entries weighted by rowpow.  Columns come first, so that
    gathering the columns of a placement copies whole contiguous rows."""
    cols_first = np.ascontiguousarray(np.moveaxis(arr, -1, 0))
    return sum(rowpow[i] * cols_first[..., rowsubs[:, i]] for i in range(len(rowpow)))


def code_batches(arrs: np.ndarray, k: int, a: int):
    """Codes of every placement of each matrix of a stack arrs (t, rows, cols),
    in [row subset, matrix, column subset] batches of about CHUNK codes.

    For a block of column subsets, each row's words over them are built once,
    times each rowpow weight; a batch of row subsets then sums k gathered
    whole rows of those words.
    """
    dtype = np.min_scalar_type(a ** (k * k) - 1)
    rowpow, colpow = (p.astype(dtype) for p in powers(k, a))
    trials, rows, cols = arrs.shape
    # cast, then transpose: a cast of the transposed view keeps its slow layout
    transposed = arrs.astype(dtype).transpose(0, 2, 1)
    width = max(1, CHUNK // max(1, trials * rows))  # column subsets per block
    for colsubs in subset_batches(cols, k, width):
        words = column_words(transposed, colsubs, colpow)  # [r, t, c]
        weighted = [w * words for w in rowpow]  # [i][r, t, c]
        for rowsubs in subset_batches(rows, k, max(1, CHUNK // (trials * words.shape[2]))):
            codes = weighted[0][rowsubs[:, 0]]
            for i in range(1, k):
                codes += weighted[i][rowsubs[:, i]]
            yield codes


def covered(arrs: np.ndarray, k: int, a: int) -> np.ndarray:
    """[t, a^(k*k)] bool: entry [b, c] is True iff target c occurs in arrs[b],
    for a stack arrs (t, rows, cols).  Refuses, before allocating, bitsets of
    more than COVERAGE_GUARD bytes in all."""
    if power_exceeds(a, k * k, COVERAGE_GUARD // max(1, len(arrs))):
        raise MosaicError(
            f"{len(arrs)} bitsets of {a}^{k * k} targets exceed coverage guard {COVERAGE_GUARD}"
        )
    total = a ** (k * k)
    bits = np.zeros(len(arrs) * total, dtype=bool)
    offsets = np.arange(len(arrs))[:, None] * total  # [t, 1]: each matrix's bitset
    for codes in code_batches(arrs, k, a):
        bits[codes + offsets] = True
    return bits.reshape(len(arrs), total)


def path_costs(rows: int, cols: int, k: int, a: int) -> tuple[int, int]:
    """(automaton, direct): the predicted cost of counting one rows×cols
    matrix's codes by ``covered_counts`` and by the direct path, in word-steps."""
    placements = math.comb(rows, k)
    return placements * cols * level_bytes(k, a) // 8, CODE_COST * placements * math.comb(cols, k)


def trial_cost(n: int, k: int, a: int) -> int:
    """Predicted cost of one n×n Monte-Carlo trial: its draw and its count by
    the cheaper path, in word-steps."""
    return CELL_COST * n * n + min(path_costs(n, n, k, a))


def distinct_counts(arrs: np.ndarray, k: int, a: int) -> np.ndarray:
    """[t]: number of distinct placement codes of arrs[t], for a stack arrs
    (t, rows, cols), by the rule of the module docstring.  A step holds
    max(8 * CHUNK, one matrix's) bytes of automaton levels, or of codes at 8
    bytes each; a bitset holds no more bytes than its matrices' codes."""
    trials, rows, cols = arrs.shape
    if k > min(rows, cols):
        return np.zeros(trials, dtype=np.int64)
    automaton_cost, direct_cost = path_costs(rows, cols, k, a)
    automaton = automaton_cost < direct_cost
    codes = math.comb(rows, k) * math.comb(cols, k)
    held = math.comb(rows, k) * level_bytes(k, a) if automaton else 8 * codes  # bytes
    step = max(1, 8 * CHUNK // held)
    parts = [arrs[lo : lo + step] for lo in range(0, trials, step)]
    if automaton:
        return np.concatenate([covered_counts(part, k, a) for part in parts])
    if power_exceeds(a, k * k, codes):  # fewer codes than targets
        return np.concatenate([_sorted_counts(part, k, a) for part in parts])
    return np.concatenate([np.count_nonzero(covered(part, k, a), axis=1) for part in parts])


def _sorted_counts(arrs: np.ndarray, k: int, a: int) -> np.ndarray:
    """[t]: number of distinct placement codes of arrs[t], for a stack arrs
    (t, rows, cols) with at least one placement, by sorting each one's codes."""
    codes = np.concatenate(
        [c.transpose(1, 0, 2).reshape(len(arrs), -1) for c in code_batches(arrs, k, a)], axis=1
    )
    codes.sort(axis=1)
    return 1 + np.count_nonzero(codes[:, 1:] != codes[:, :-1], axis=1)


def automaton_levels(k: int, a: int) -> list[tuple[int, np.dtype, int, int]]:
    """[(slot stride in bits, dtype, units, width)] of the bitsets L_1 ... L_k
    that ``covered_counts`` keeps per row subset: L_j has a^k slots, held as
    ``units`` runs of ``width`` elements of ``dtype``: one element, its packed
    words, or one run per slot (module docstring)."""
    letters = a**k
    levels = []
    bits = 1  # L_0: the empty subsequence
    for _ in range(k):
        if bits > 64:  # a slot holds L_{j-1}'s elements
            _, dtype, units, width = levels[-1]
            stride, units, width = 8 * dtype.itemsize * units * width, letters, units * width
        else:  # a slot of L_{j-1}'s bits rounded up to a power of two
            stride, width = 1 << (bits - 1).bit_length(), 1
            if letters * stride <= 64:  # every slot in one element
                dtype, units = np.min_scalar_type((1 << letters * stride) - 1), 1
            elif stride == 1:  # one bit per slot, packed in words
                dtype, units = np.dtype(np.uint64), -(-letters // 64)
            else:  # one element per slot
                dtype, units = np.min_scalar_type((1 << stride) - 1), letters
        bits = letters * stride
        levels.append((stride, dtype, units, width))
    return levels


def level_bytes(k: int, a: int) -> int:
    """Bytes of the levels L_1 ... L_k of one row subset (``automaton_levels``)."""
    return sum(dtype.itemsize * units * width for _, dtype, units, width in automaton_levels(k, a))


def covered_counts(arrs: np.ndarray, k: int, a: int) -> np.ndarray:
    """[t]: number of distinct placement codes of arrs[t], for a stack arrs
    (t, rows, cols), by the subsequence automaton over column letters (module
    docstring).  Its state is t * C(rows,k) * ``level_bytes(k, a)`` bytes;
    letters and indices add a few words per row subset."""
    trials, rows, cols = arrs.shape
    # one batch of all row subsets, the shared table where it fits; none at k > rows
    rowsubs = next(subset_batches(rows, k, math.comb(rows, k)), np.zeros((0, k), dtype=np.int64))
    levels = automaton_levels(k, a)
    small = np.min_scalar_type(a**k - 1)
    _, letterpow = powers(k, a)
    states = trials * len(rowsubs)
    # letters[c, s, t] of row subset s in matrix t: gathers whole runs of t
    by_col = np.ascontiguousarray(arrs.astype(small).transpose(2, 1, 0))  # [c, r, t]
    letters = sum(w * np.take(by_col, rowsubs[:, i], axis=1)
                  for i, w in enumerate(letterpow.astype(small)))
    letters = letters.reshape(cols, states)
    # level j is [states, units, width], flat, so that a slot's elements are
    # consecutive; unit u of state s starts at element (first[j][s] + u) * width
    state = [np.zeros(states * units * width, dtype=dtype) for _, dtype, units, width in levels]
    first = [np.arange(0, states * units, units, dtype=np.intp) if units > 1 else None
             for _, _, units, _ in levels]
    for c in range(cols):
        v = letters[c]
        # L_j can still reach L_k only if k - j columns are left after c
        for j in range(min(k, c + 1), max(0, k - cols + c), -1):
            stride, dtype, units, width = levels[j - 1]
            level, at = state[j - 1], first[j - 1]
            prev = state[j - 2] if j > 1 else dtype.type(1)
            if units == 1:  # shift-OR into the one element; v * stride < 64
                shift = v if stride == 1 else v << small.type(stride.bit_length() - 1)
                level |= np.left_shift(prev, shift, dtype=dtype)
            elif stride == 1:  # bit v of the packed words
                at = at + np.right_shift(v, 6, dtype=np.intp)
                level[at] |= np.left_shift(prev, v & small.type(63), dtype=dtype)
            elif width == 1:  # one element per slot, overwritten: L_{j-1} only grows
                level[at + v] = prev
            else:  # the slot is a row of L_{j-1}'s elements, overwritten likewise
                level.reshape(-1, width)[at + v] = prev.reshape(states, width)
    # OR over row subsets, the leading axis of a level
    _, _, units, width = levels[-1]
    last = state[-1].reshape(len(rowsubs), trials, units * width)
    return np.bitwise_count(np.bitwise_or.reduce(last, axis=0)).sum(axis=1, dtype=np.int64)


def row_digits(values: np.ndarray, n: int, a: int) -> np.ndarray:
    """[..., c]: column c's entry of each row value, first column most significant."""
    return (np.asarray(values)[..., None] // a ** np.arange(n - 1, -1, -1)) % a


def enumerate_coverage(n: int, k: int, a: int, codes):
    """Yield which of ``codes`` (at most 64 target codes) every n×n matrix over
    [0, a) covers, for k < n, a block at a time.

    Each block has shape (m, a^n, ..., a^n) with n axes, one per row; entry
    [r0, ..., r_{n-1}] belongs to the matrix with those row values, and its
    bit j says whether codes[j] occurs in it.
    """
    if k >= n:
        raise ValueError(f"enumeration needs k < n, got k={k}, n={n}")
    width = a**n
    rowpow, colpow = powers(k, a)
    bit = np.zeros(a ** (k * k), dtype=np.min_scalar_type((1 << len(codes)) - 1))
    bit[list(codes)] = [1 << j for j in range(len(codes))]
    subs = subsets(n, k)
    # [c, v]: the word of row value v at column subset c
    rowwords = column_words(row_digits(np.arange(width), n, a).T, subs, colpow).T
    # T[v_0, ..., v_{k-1}]: the tracked codes the k×n strip of those rows covers
    table = np.zeros((width,) * k, dtype=bit.dtype)
    for words in rowwords:
        table |= bit[sum(w * axis for w, axis in zip(rowpow, np.ix_(*[words] * k)))]
    step = max(1, CHUNK // width ** (n - 1))
    for lo in range(0, width, step):
        acc = np.zeros((min(step, width - lo),) + (width,) * (n - 1), dtype=table.dtype)
        for rows in subs:
            # a row subset that starts at row 0 takes the block's leading rows
            part = table[lo : lo + step] if rows[0] == 0 else table
            shape = [1] * n
            for r in rows:
                shape[r] = width
            shape[rows[0]] = len(part)
            acc |= part.reshape(shape)
        yield acc


def bit_counts(masks: np.ndarray, tracked: int) -> np.ndarray:
    """[t]: how many masks have bit t set, for t < tracked.  Each little-endian
    byte that holds a tracked bit is gathered once, and each of its tracked
    bits b counted there with ``np.count_nonzero(byte & (1 << b))``."""
    if tracked > 8 * masks.itemsize:
        raise ValueError(f"{tracked} tracked bits do not fit {masks.dtype} masks")
    little = np.ascontiguousarray(masks, dtype=masks.dtype.newbyteorder("<"))
    columns = little.view(np.uint8).reshape(-1, masks.itemsize)  # [mask, byte]
    counts = np.zeros(tracked, dtype=np.int64)
    for t in range(0, tracked, 8):
        byte = np.ascontiguousarray(columns[:, t // 8])  # uint8 masks: no copy
        for b in range(min(8, tracked - t)):
            counts[t + b] = np.count_nonzero(byte & np.uint8(1 << b))
    return counts
