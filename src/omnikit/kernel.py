"""Codes of k×k placements: the one kernel behind verification, Monte-Carlo,
exact enumeration and the exact search.

A placement is a k-subset of rows crossed with a k-subset of columns, both
increasing.  Its code is the row-major base-a number of the submatrix it
induces, most significant entry first (``core.encode_target``).  Two paths
read the codes of a stack of t matrices, and each has two readouts: the
covered set, a code-order bool bitset per matrix, and its size.

* The direct path.  ``code_batches``, the one generator of placement codes,
  gives them about CHUNK at a time, through row words: for a block of about
  CHUNK / (t * rows) column subsets, row r's word holds its entries at each
  subset (weights ``colpow``), built once per block, and a batch of row
  subsets sums k gathered whole rows of words, each a contiguous copy of
  the block's width.  ``covered`` marks them in a bitset per matrix; below
  the counting bound, C(rows,k) * C(cols,k) < a^(k*k), ``_sorted_counts``
  sorts each matrix's codes instead and counts the changes.
* The subsequence automaton (``top_levels``) builds, for every row subset,
  the set of codes it covers without enumerating column subsets.  For a row
  subset r_0 < ... < r_{k-1}, column c's letter v_c = sum_i a^(k-1-i) X[r_i, c]
  lies in [0, a^k) and fixes the column's k entries, so a k×k submatrix is
  fixed by its k letters: the codes a row subset covers are in bijection
  with the length-k subsequences of v_0 ... v_{n-1}, and, as the letters
  give the submatrix back, so are the codes of all row subsets with the
  union of their subsequence sets.  One pass builds those sets as bitsets
  L_1 ... L_k per row subset (L_j: the length-j subsequences of the letters
  read so far): at column c, from level k down to 1, L_{j-1} is copied into
  slot v_c of L_j.  A level is one of three kinds (``automaton_levels``):
  one element of the narrowest unsigned dtype, where its slots of L_{j-1}'s
  bits rounded up to a power of two fit in 64 bits, and a step is one
  shift-OR; L_1 of more than 64 letters, its one-bit slots packed in words;
  else a slot level, whose slot holds L_{j-1}'s elements, so that its stride
  is their bits, and a step copies L_{j-1} into slot v_c as one record,
  overwriting it, since L_{j-1} only grows.  Each level is [row subsets,
  trials, elements], so a slot is one contiguous record.  The
  automaton runs in parts of row subsets × trials (``automaton_parts``) of
  at most max(32 * CHUNK, one row subset's) bytes of levels, and ORs each
  part's L_k over its row subsets into one top level per matrix.  One loop
  walks slices of the row subsets: one part's, streamed, where a matrix has
  more, else round r of a stack's table[r::rounds].  No step sets a bit of
  a slot's padding, so a top level's popcount is the number of targets its
  matrix covers, and the level is full when that is a^(k*k).  Between
  slices it drops every matrix whose top level is full, so a matrix that
  covers every target early, as most do above the paper's upper bound,
  steps no later slice.  ``covered_counts`` reads the top level's popcount.
  ``automaton_covered`` reads the set: the pass reads letters right to left,
  so bit sum_j v_j * stride_j of L_k, v_k most significant, marks the
  columns left to right; a fixed cut of each slot to the a^k slots of the
  level below and a split of each letter into its k digits give the
  column-major code order, with no table of positions.

``path_costs`` prices a stack on each path in word-steps.  The direct path
costs CODE_COST per placement code.  The automaton costs, per row subset of
a matrix, the bytes each column touches at 8 bytes a word-step: one element
of a shift-OR level, one slot and two index words of a scatter level; plus,
once, the zero-fill of its levels (``level_bytes``) and the reduction of its
top level; plus LEVEL_COST, the fixed numpy calls of one level at one
column, per level, column and part.  It prices every row subset, so it
overprices sizes whose trials fill their top level early.
``distinct_counts``, the one counting entry point, prices a stack as the
trials one part holds, so that a size takes one path whatever the length of
the block it is drawn in, and takes the cheaper path; ``verify.coverage``
prices its one host and that host's transpose.

* ``enumerate_coverage`` covers the a^(n*n-1) n×n matrices whose entry (0, 0)
  is 0 at once, for k < n, through one row-tuple table of tracked codes.
  Rows are base-a ints in [0, a^n), first column most significant, so those
  matrices are the ones whose row 0 lies in [0, a^(n-1)).  The letter
  transposition tau_l = (0 l), tau_0 the identity, maps them one-to-one onto
  the matrices whose entry (0, 0) is l, keeps the omni ones omni, and puts a
  target t in tau_l(M) iff tau_l(t) is in M, so ``experiments`` recovers
  every other matrix from this slice.  It tracks a list of at most 64
  distinct target codes through one lookup, ``bit[codes[j]] = 1 << j`` and
  0 for every other code; the table T over k-tuples of rows ORs
  ``bit[code]`` over the codes the k×n strip of those rows covers.  A matrix
  covers the OR of T over its C(n,k) row subsets; that OR is evaluated by
  broadcasting over the rows, a block of leading-row values at a time, so a
  step holds max(CHUNK, a^(n(n-1))) matrices.  k >= n needs no enumeration
  (a matrix's one placement is itself at k = n, and it has none at k > n),
  so ``experiments`` counts it and this function refuses it.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import chain, combinations, islice

import numpy as np

from omnikit.core import MosaicError, power_exceeds

# Codes or matrices per step.  An enumeration step holds at least one
# leading-row value's a^(n(n-1)) matrices, at most 2^20 under the 2^25
# matrix guard, so its masks never exceed 8 MB.
CHUNK = 1 << 16
MASK_BITS = 64  # most codes enumerate_coverage tracks: one bit each of a uint64 mask
COVERAGE_GUARD = 2**32  # most bitset bytes that covered() and automaton_covered() allocate
# Predicted costs in automaton word-steps (8 bytes that the automaton
# touches).  Fitted to both paths forced on 103 stacks, 1 to 16 384 matrices
# of 2 to 36 columns, on a 2-core AMD EPYC VM with numpy 2.4.6: a word-step
# took about 0.18 ns, a level at one column of one part about 2.0 us of
# fixed numpy calls, and a placement code on the direct path 2.1-2.4 ns.
CODE_COST, LEVEL_COST = 12, 12_000


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
    while len(batch := np.fromiter(chain.from_iterable(islice(combos, size)), np.int64)):
        yield batch.reshape(-1, k)


@lru_cache(maxsize=16)  # at most CHUNK int64 entries each
def _subset_table(n: int, k: int) -> np.ndarray:
    table = subsets(n, k)
    table.flags.writeable = False
    return table


def column_words(arr: np.ndarray, rowsubs: np.ndarray, rowpow: np.ndarray) -> np.ndarray:
    """words[c, ..., s]: column c of arr (..., rows, cols) restricted to row
    subset s, its entries weighted by rowpow.  Columns come first, so that
    gathering the columns of a placement copies whole contiguous rows."""
    if not len(rowpow):
        return 0
    cols_first = np.ascontiguousarray(arr.transpose(-1, *range(arr.ndim - 1)))
    words = rowpow[0] * cols_first[..., rowsubs[:, 0]]
    for i in range(1, len(rowpow)):
        words += rowpow[i] * cols_first[..., rowsubs[:, i]]
    return words


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


def path_costs(trials: int, rows: int, cols: int, k: int, a: int) -> tuple[int, int]:
    """(automaton, direct): the predicted cost of reading the codes of a stack
    of ``trials`` rows×cols matrices by the automaton and by the direct path,
    in word-steps (module docstring)."""
    placements = math.comb(rows, k)
    subsets_a_part, trials_a_part = automaton_parts(trials, rows, k, a)
    parts = -(-placements // subsets_a_part) * -(-trials // trials_a_part)
    levels = automaton_levels(k, a)
    # a column touches one element of a shift-OR level, one slot and two
    # index words of a scatter level
    touched = sum(dtype.itemsize * width + 16 * (units > 1) for _, dtype, units, width in levels)
    _, dtype, units, width = levels[-1]
    held = level_bytes(k, a) + dtype.itemsize * units * width  # zero-filled, then reduced
    automaton = trials * placements * (cols * touched + held) // 8 + LEVEL_COST * k * cols * parts
    return automaton, CODE_COST * trials * placements * math.comb(cols, k)


def distinct_counts(arrs: np.ndarray, k: int, a: int) -> np.ndarray:
    """[t]: number of distinct placement codes of arrs[t], for a stack arrs
    (t, rows, cols), by the rule of the module docstring.  The automaton runs
    in parts (``automaton_parts``); a direct step holds max(8 * CHUNK, one
    matrix's) bytes of codes at 8 bytes each, and a bitset holds no more
    bytes than its matrices' codes."""
    trials, rows, cols = arrs.shape
    if k > min(rows, cols):
        return np.zeros(trials, dtype=np.int64)
    # priced as the trials one automaton part holds, so that a size takes one
    # path whatever the length of the block it is drawn in
    part_trials = automaton_parts(sys.maxsize, rows, k, a)[1]
    automaton_cost, direct_cost = path_costs(part_trials, rows, cols, k, a)
    if automaton_cost < direct_cost:
        return covered_counts(arrs, k, a)
    codes = math.comb(rows, k) * math.comb(cols, k)
    step = max(1, CHUNK // codes)
    parts = [arrs[lo : lo + step] for lo in range(0, trials, step)]
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


@lru_cache(maxsize=64)
def automaton_levels(k: int, a: int) -> tuple[tuple[int, np.dtype, int, int], ...]:
    """[(slot stride in bits, dtype, units, width)] of the bitsets L_1 ... L_k
    that the automaton keeps per row subset: L_j has a^k slots, held as
    ``units`` runs of ``width`` elements of ``dtype``, in one of three kinds
    (module docstring): one element; L_1's packed words, of stride 1; or a
    slot level, a^k runs of L_{j-1}'s ``width`` elements per state."""
    letters = a**k
    levels = []
    bits = 1  # L_0: the empty subsequence
    for _ in range(k):
        stride = 1 << (bits - 1).bit_length()  # L_{j-1}'s bits rounded up to a power of two
        if letters * stride <= 64:  # every slot in one element
            dtype, units, width = np.min_scalar_type((1 << letters * stride) - 1), 1, 1
        elif stride == 1:  # L_1 past 64 letters: one bit per slot, packed in words
            dtype, units, width = np.dtype(np.uint64), -(-letters // 64), 1
        else:  # a slot holds L_{j-1}'s elements
            _, dtype, units, width = levels[-1]
            stride, units, width = 8 * dtype.itemsize * units * width, letters, units * width
        bits = letters * stride
        levels.append((stride, dtype, units, width))
    return tuple(levels)


def level_bytes(k: int, a: int) -> int:
    """Bytes of the levels L_1 ... L_k of one row subset (``automaton_levels``)."""
    return sum(dtype.itemsize * units * width for _, dtype, units, width in automaton_levels(k, a))


def automaton_parts(trials: int, rows: int, k: int, a: int) -> tuple[int, int]:
    """(row subsets, trials) of one part of the automaton over a stack of
    ``trials`` matrices of ``rows`` rows: every row subset of as many trials
    as 32 * CHUNK bytes of levels hold, else as many row subsets of one
    trial; at least one of each."""
    states = max(1, 32 * CHUNK // level_bytes(k, a))
    placements = max(1, math.comb(rows, k))
    if placements <= states:
        return placements, max(1, min(trials, states // placements))
    return states, 1


def covered_counts(arrs: np.ndarray, k: int, a: int) -> np.ndarray:
    """[t]: number of distinct placement codes of arrs[t], for a stack arrs
    (t, rows, cols): the popcount of its top level (``top_levels``)."""
    return np.bitwise_count(top_levels(arrs, k, a)).sum(axis=1, dtype=np.int64)


def automaton_covered(arrs: np.ndarray, k: int, a: int) -> np.ndarray:
    """[t, a^(k*k)] bool, as ``covered`` gives it of the transposed stack,
    read off the top level of each matrix (``top_levels``): its bits are in
    column-major code order, as the letters are read right to left, so
    cutting each slot to a^k slots of the level below and each letter into
    its k digits gives the bitset.  Refuses, before allocating, t padded top
    levels of more than COVERAGE_GUARD bits in all."""
    trials = len(arrs)
    levels = automaton_levels(k, a)
    _, dtype, units, width = levels[-1]
    if trials * 8 * dtype.itemsize * units * width > COVERAGE_GUARD:
        raise MosaicError(
            f"{trials} top levels of {a}^{k * k} targets exceed coverage guard {COVERAGE_GUARD}"
        )
    top = np.ascontiguousarray(top_levels(arrs, k, a), dtype=dtype.newbyteorder("<"))
    bits = np.unpackbits(top.view(np.uint8), axis=1, bitorder="little").view(bool)
    letters = a**k
    for stride, *_ in reversed(levels):  # [t, v_k, ..., v_j, slot]
        bits = bits[..., : letters * stride].reshape(*bits.shape[:-1], letters, stride)
    return bits.reshape(trials, a ** (k * k))  # letter v_j's k digits, v_k first


def top_levels(arrs: np.ndarray, k: int, a: int) -> np.ndarray:
    """[t, elements]: the OR of L_k over the row subsets of each matrix of a
    stack arrs (t, rows, cols), by the subsequence automaton over column
    letters (module docstring), run in parts of ``automaton_parts`` row
    subsets × trials; all zeros where there is no placement.

    Slice by slice of its row subsets (module docstring), it steps every
    matrix whose top level is not yet full, in parts of no more states.  No
    padding bit is ever set, so the popcount of a top level is its count,
    and it is full when that is a^(k*k).  A full top level cannot change, so
    a matrix that covers every target early steps no later slice, and the
    result is the same."""
    trials, rows, cols = arrs.shape
    _, dtype, units, width = automaton_levels(k, a)[-1]
    top = np.zeros((trials, units * width), dtype=dtype)
    if k > min(rows, cols):
        return top
    placements = math.comb(rows, k)
    subsets_a_part, trials_a_part = automaton_parts(trials, rows, k, a)
    if subsets_a_part < placements:  # a slice is one matrix's part, streamed
        slices = subset_batches(rows, k, subsets_a_part)
    else:  # a slice is one round, spread through the table
        table = next(subset_batches(rows, k, placements))
        rounds = min(placements, -(-trials // trials_a_part))
        slices = (table[r::rounds] for r in range(rounds))
    # letters gather whole runs of trials
    by_col = np.ascontiguousarray(arrs.astype(np.min_scalar_type(a**k - 1)).transpose(2, 1, 0))
    live, acc = np.arange(trials), top  # the matrices short of a full top level, and theirs
    for r, rowsubs in enumerate(slices):
        if r:  # drop the matrices whose top level is full
            full = np.bitwise_count(acc).sum(axis=1, dtype=np.int64) == a ** (k * k)
            if full.any():
                top[live[full]] = acc[full]
                live, acc, by_col = live[~full], acc[~full], by_col[:, :, ~full]
                if not len(live):
                    break
        step = max(1, subsets_a_part * trials_a_part // len(rowsubs))  # matrices a part
        for lo in range(0, len(live), step):
            acc[lo : lo + step] |= _automaton_part(by_col[:, :, lo : lo + step], rowsubs, k, a)
    if acc is not top:
        top[live] = acc
    return top


def _automaton_part(by_col: np.ndarray, rowsubs: np.ndarray, k: int, a: int) -> np.ndarray:
    """[t, elements]: the OR of L_k over rowsubs of each matrix of a stack
    by_col [c, r, t] of letters.  Its state is one buffer of t * len(rowsubs)
    * ``level_bytes(k, a)`` bytes, each level rounded up to whole words;
    letters and indices add a few words per row subset."""
    cols, _, trials = by_col.shape
    levels = automaton_levels(k, a)
    small = by_col.dtype
    _, letterpow = powers(k, a)
    states = trials * len(rowsubs)
    # letters[c, s, t] of row subset s in matrix t
    letters = sum(w * np.take(by_col, rowsubs[:, i], axis=1)
                  for i, w in enumerate(letterpow.astype(small)))
    letters = letters.reshape(cols, states)
    # level j is [states, units, width], flat, so that a slot's elements are
    # consecutive; unit u of state s starts at element (first[j][s] + u) * width.
    # One zeroed buffer holds every level, each from a multiple of 8 bytes.
    # glibc returns the top of its heap to the system once it passes twice
    # the largest block it has unmapped; with a block per level, the rounds'
    # smaller parts at (12,3,2) left that limit under a part's temporaries,
    # so every Monte-Carlo block faulted its memory back in
    buffer = np.zeros(states * level_bytes(k, a) + 8 * k, dtype=np.uint8)
    state, records, start = [], [], 0
    for stride, dtype, units, width in levels:
        end = start + states * units * width * dtype.itemsize
        state.append(buffer[start:end].view(dtype))
        # a slot level's L_{j-1} and L_j as [states] and [states * units] records of a slot
        record = np.dtype((np.void, dtype.itemsize * width))
        records.append([s.view(record) for s in state[-2:]] if units > 1 and stride > 1 else None)
        start = -(-end // 8) * 8
    first = [np.arange(0, states * units, units, dtype=np.intp) if units > 1 else None
             for _, _, units, _ in levels]
    for c in range(cols):  # right to left, so that L_k's bits are in column-major order
        v = letters[cols - 1 - c]
        # L_j can still reach L_k only if k - j columns are left after c
        for j in range(min(k, c + 1), max(0, k - cols + c), -1):
            stride, dtype, units, width = levels[j - 1]
            level, at = state[j - 1], first[j - 1]
            prev = state[j - 2] if j > 1 else dtype.type(1)
            if units == 1:  # shift-OR into the one element; v * stride < 64
                shift = v if stride == 1 else v << small.type(stride.bit_length() - 1)
                level |= np.left_shift(prev, shift, dtype=dtype)
            elif stride == 1:  # L_1: bit v of the packed words
                at = at + np.right_shift(v, 6, dtype=np.intp)
                level[at] |= np.left_shift(prev, v & small.type(63), dtype=dtype)
            else:  # slot v is overwritten with L_{j-1}'s record, as L_{j-1} only grows
                below, slot = records[j - 1]
                slot[at + v] = below
    # OR over row subsets, the leading axis of a level
    _, _, units, width = levels[-1]
    return np.bitwise_or.reduce(state[-1].reshape(len(rowsubs), trials, units * width), axis=0)


def row_digits(values: np.ndarray, n: int, a: int) -> np.ndarray:
    """[..., c]: column c's entry of each row value, first column most significant."""
    return (np.asarray(values)[..., None] // a ** np.arange(n - 1, -1, -1)) % a


def enumerate_coverage(n: int, k: int, a: int, codes):
    """Yield which of ``codes`` (at most 64 distinct target codes) every n×n
    matrix over [0, a) whose entry (0, 0) is 0 covers, for k < n, a block at
    a time.

    Each block has shape (m, a^n, ..., a^n) with n axes, one per row; entry
    [r0, ..., r_{n-1}] belongs to the matrix with those row values, and its
    bit j says whether codes[j] occurs in it.  The blocks' leading row values
    run over [0, a^(n-1)), the rows whose first entry is 0, so they cover
    a^(n*n-1) matrices; the letter swaps give the rest (module docstring).
    Refuses k >= n, more than 64 codes and a repeated code before allocating.
    """
    if k >= n:
        raise ValueError(f"enumeration needs k < n, got k={k}, n={n}")
    codes = [int(c) for c in codes]
    if len(codes) > MASK_BITS:
        raise ValueError(f"{len(codes)} codes do not fit {MASK_BITS}-bit masks")
    if len(set(codes)) < len(codes):
        raise ValueError("codes must be distinct: a repeated code leaves a bit unset")
    width = a**n
    rowpow, colpow = powers(k, a)
    bit = np.zeros(a ** (k * k), dtype=np.min_scalar_type((1 << len(codes)) - 1))
    bit[codes] = [1 << j for j in range(len(codes))]
    subs = subsets(n, k)
    # [c, v]: the word of row value v at column subset c
    rowwords = column_words(row_digits(np.arange(width), n, a).T, subs, colpow).T
    # T[v_0, ..., v_{k-1}]: the tracked codes the k×n strip of those rows covers
    table = np.zeros((width,) * k, dtype=bit.dtype)
    for words in rowwords:
        table |= bit[sum(w * axis for w, axis in zip(rowpow, np.ix_(*[words] * k)))]
    step, first = max(1, CHUNK // width ** (n - 1)), width // a  # row 0 < first: m00 = 0
    for lo in range(0, first, step):
        acc = np.zeros((min(step, first - lo),) + (width,) * (n - 1), dtype=table.dtype)
        for rows in subs:
            # a row subset that starts at row 0 takes the block's leading rows
            part = table[lo : lo + len(acc)] if rows[0] == 0 else table
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
