import collections
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omnikit import kernel, verify
from omnikit.construct import square_omnimosaic
from omnikit.core import MosaicError, MosaicMatrix, decode_target

from conftest import placement_codes


# tall, wide and square hosts, k = side and k = 1
BATCH_HOSTS = [(30, 6, 3, 2), (6, 30, 3, 2), (9, 9, 2, 3), (5, 5, 5, 2), (4, 7, 1, 3)]


def batch_host(rows, cols, k, a):
    return np.random.default_rng([rows, cols, k]).integers(0, a, size=(rows, cols))


@functools.cache
def brute_codes(rows, cols, k, a):
    """Sorted codes of every placement of batch_host(...), one at a time."""
    return sorted(placement_codes(batch_host(rows, cols, k, a), k, a))


@pytest.mark.parametrize("chunk", [None, 8], ids=["default-chunk", "chunk-8"])
@pytest.mark.parametrize("rows,cols,k,a", BATCH_HOSTS)
def test_code_batches_yield_each_placement_once(monkeypatch, rows, cols, k, a, chunk):
    if chunk is not None:
        monkeypatch.setattr(kernel, "CHUNK", chunk)
    batches = list(kernel.code_batches(batch_host(rows, cols, k, a)[None], k, a))
    assert max(b.size for b in batches) <= kernel.CHUNK
    got = np.sort(np.concatenate([b.ravel() for b in batches]))
    assert got.tolist() == brute_codes(rows, cols, k, a)


def test_code_batches_of_no_placements():
    assert list(kernel.code_batches(np.zeros((1, 2, 5), dtype=int), 3, 2)) == []
    assert list(kernel.code_batches(np.zeros((3, 5, 2), dtype=int), 3, 2)) == []


@st.composite
def hosts(draw):
    """(arrs, k, a, chunk): 1 or 3 matrices of up to 7x7, tall, wide or square,
    with k from 1 to rows + 1 (within _KMAX), and CHUNK at its default or at 8."""
    a = draw(st.sampled_from([2, 3]))
    trials = draw(st.sampled_from([1, 3]))
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    k = draw(st.integers(1, min(rows + 1, _KMAX[a])))
    size = trials * rows * cols
    cells = draw(st.lists(st.integers(0, a - 1), min_size=size, max_size=size))
    chunk = draw(st.sampled_from([kernel.CHUNK, 8]))
    return np.array(cells).reshape(trials, rows, cols), k, a, chunk


def _host(trials, rows, cols, k, a, chunk):
    rng = np.random.default_rng([trials, rows, cols, k])
    return rng.integers(0, a, size=(trials, rows, cols)), k, a, chunk


@given(hosts())
@example(_host(3, 7, 3, 2, 2, 8))  # tall
@example(_host(3, 3, 7, 2, 3, 8))  # wide
@example(_host(1, 6, 6, 3, 2, kernel.CHUNK))  # square, one matrix
@example(_host(3, 1, 5, 1, 3, 8))  # k = 1 = rows
@example(_host(3, 3, 5, 1, 4, 8))  # k = 1 over four letters
@example(_host(3, 4, 4, 4, 2, 8))  # k = rows: one row subset
@example(_host(3, 2, 6, 3, 2, kernel.CHUNK))  # k > rows: no placements
@settings(max_examples=60, deadline=None)
def test_code_batches_of_a_stack_match_brute_force_and_coverage(case):
    arrs, k, a, chunk = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "CHUNK", chunk)
        batches = list(kernel.code_batches(arrs, k, a))
        bits = kernel.covered(arrs, k, a)
    assert all(b.shape[1] == len(arrs) and b.size <= max(chunk, len(arrs)) for b in batches)
    for b, arr in enumerate(arrs):
        m = MosaicMatrix.from_numpy(arr, a)
        got = sorted(c for batch in batches for c in batch[:, b].ravel().tolist())
        assert got == sorted(placement_codes(arr, k, a))
        assert np.array_equal(bits[b], verify.coverage(m, k))


def test_code_batches_stream_column_subsets():
    # C(150, 3) = 551 300 column subsets, 26 blocks; the whole table peaked at 67.6 MB
    host = np.random.default_rng(3).integers(0, 2, size=(1, 3, 150))
    tracemalloc.start()
    try:
        bits = kernel.covered(host, 3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert bits.all()


def test_no_placements_when_k_exceeds_size():
    assert kernel.subsets(3, 5).shape == (0, 5)
    arrs = np.zeros((2, 3, 3), dtype=int)
    assert list(kernel.code_batches(arrs, 5, 2)) == []
    assert not kernel.covered(arrs, 5, 2).any()
    assert (kernel.distinct_counts(arrs, 5, 2) == 0).all()  # 2^25 targets: no bitset


def test_distinct_counts_bitset_matches_unique(monkeypatch, rng):
    calls = []
    for name in ("covered", "_sorted_counts"):
        def spy(arrs, k, a, name=name, real=getattr(kernel, name)):
            calls.append((name, len(arrs)))
            return real(arrs, k, a)

        monkeypatch.setattr(kernel, name, spy)
    # a matrix's 21 * 10 codes outnumber 3^4 targets, which takes the bitset,
    # and are fewer than 5^4, which sorts them
    for a, path in [(3, "covered"), (5, "_sorted_counts")]:
        arrs = rng.integers(0, a, size=(4, 7, 5))
        arrs[2] = 1  # one code
        want = [len(set(placement_codes(arr, 2, a))) for arr in arrs]
        assert list(kernel.distinct_counts(arrs, 2, a)) == want
        with monkeypatch.context() as patch:
            patch.setattr(kernel, "path_costs", lambda *args: (1, 0))  # the direct path
            calls.clear()
            assert list(kernel.distinct_counts(arrs, 2, a)) == want
            # all four in one step, then one a step
            patch.setattr(kernel, "CHUNK", 21 * 10)
            assert list(kernel.distinct_counts(arrs, 2, a)) == want
        assert calls == [(path, 4)] + [(path, 1)] * 4


def test_covered_refuses_oversized_bitsets_before_allocating(monkeypatch):
    def allocate(*args, **kwargs):
        raise AssertionError("allocated before refusing")

    column = np.zeros((1, 5, 1), dtype=int)
    with monkeypatch.context() as patch:
        patch.setattr(kernel.np, "zeros", allocate)
        with pytest.raises(MosaicError, match="coverage guard"):
            kernel.covered(column, 6, 2)  # 2^36 targets
    # the guard bounds the bytes of all t bitsets of a stack together
    monkeypatch.setattr(kernel, "COVERAGE_GUARD", 2 * 2**4)
    arrs = np.zeros((3, 3, 3), dtype=int)
    assert np.count_nonzero(kernel.covered(arrs[:2], 2, 2), axis=1).tolist() == [1, 1]
    with pytest.raises(MosaicError, match="coverage guard"):
        kernel.covered(arrs, 2, 2)


def test_row_subset_tables_are_shared_read_only_and_bounded(monkeypatch):
    kernel._subset_table.cache_clear()
    host = MosaicMatrix.from_numpy(batch_host(9, 9, 2, 2), 2)
    for code in (0, 5, 15):
        verify.contains_target(host, decode_target(code, 2, 2))
    assert kernel._subset_table.cache_info()[:2] == (2, 1)  # (hits, misses)
    table = next(kernel.subset_batches(9, 2, kernel.CHUNK))
    assert table is next(kernel.subset_batches(9, 2, kernel.CHUNK))
    assert not table.flags.writeable
    assert np.array_equal(table, kernel.subsets(9, 2))
    # past one batch, or past CHUNK entries, subsets stream in fresh batches
    for chunk, size in [(kernel.CHUNK, 10), (2 * 36 - 1, 100)]:
        monkeypatch.setattr(kernel, "CHUNK", chunk)
        batches = list(kernel.subset_batches(9, 2, size))
        assert all(b.flags.writeable and len(b) <= size for b in batches)
        assert np.array_equal(np.concatenate(batches), table)


# streamed: (60,3) past CHUNK entries, (9,2) and (7,1) past one batch; none at k > n
@pytest.mark.parametrize("n,k,size", [(60, 3, 10_000), (9, 2, 10), (7, 1, 3), (2, 3, 5)])
def test_streamed_subset_batches_match_subsets(n, k, size):
    batches = list(kernel.subset_batches(n, k, size))
    assert all(b.shape[1:] == (k,) and len(b) <= size and b.dtype == np.int64 for b in batches)
    assert len(batches) == -(-math.comb(n, k) // size)
    assert np.array_equal(np.concatenate(batches or [np.empty((0, k))]), kernel.subsets(n, k))


# k = 1 in the search: no weights, and the sum is 0
@pytest.mark.parametrize("shape,k", [((5, 7), 2), ((3, 5, 7), 3), ((4, 6), 0)])
def test_column_words_weight_rows_of_column_first_arrays(shape, k):
    arr = np.random.default_rng(list(shape)).integers(0, 3, size=shape)
    rowsubs = kernel.subsets(shape[-2], max(k, 1))[:, :k]
    rowpow = kernel.powers(max(k, 1), 3)[0][:k]
    cols_first = np.moveaxis(arr, -1, 0)
    want = sum(rowpow[i] * cols_first[..., rowsubs[:, i]] for i in range(k))
    got = kernel.column_words(arr, rowsubs, rowpow)
    assert np.array_equal(got, want) and np.shape(got) == np.shape(want)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
def test_bit_counts(rng, dtype):
    bits = 8 * np.dtype(dtype).itemsize
    masks = rng.integers(0, 2**bits, size=(10, 100), dtype=dtype)
    popcounts = [sum(int(m) >> t & 1 for m in masks.ravel()) for t in range(bits)]
    swapped = masks.astype(masks.dtype.newbyteorder(">"))  # same values, other byte order
    for tracked in sorted({1, bits - 3, bits}):
        assert kernel.bit_counts(masks, tracked).tolist() == popcounts[:tracked]
        assert kernel.bit_counts(swapped, tracked).tolist() == popcounts[:tracked]
        assert kernel.bit_counts(masks[:, ::3], tracked).tolist() == [
            sum(int(m) >> t & 1 for m in masks[:, ::3].ravel()) for t in range(tracked)
        ]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
def test_bit_counts_refuses_more_bits_than_a_mask_holds(dtype):
    masks = np.zeros(4, dtype=dtype)
    bits = 8 * masks.itemsize
    assert kernel.bit_counts(masks, bits).tolist() == [0] * bits
    with pytest.raises(ValueError, match="do not fit"):
        kernel.bit_counts(masks, bits + 1)


# target None tracks every target; (5,4,2) is the largest k < n at the guard
@pytest.mark.parametrize("n,k,a,target", [(5, 2, 2, None), (5, 3, 2, 77), (5, 4, 2, 7)])
def test_enumeration_blocks_are_bounded(n, k, a, target):
    # at the 2^25 matrix guard every step stays within 8 MB, and the steps
    # hold the a^(n*n-1) matrices whose entry (0, 0) is 0
    codes = range(a ** (k * k)) if target is None else [target]
    matrices = 0
    for block in kernel.enumerate_coverage(n, k, a, codes):
        assert block.nbytes <= 8 * 2**20
        matrices += block.size
    assert matrices == a ** (n * n - 1)


@pytest.mark.parametrize("n,k,a", [(2, 2, 2), (1, 2, 2), (5, 5, 2), (3, 7, 3)])
def test_enumeration_refuses_k_at_least_n_before_allocating(monkeypatch, n, k, a):
    def allocate(*args, **kwargs):
        raise AssertionError("allocated before refusing")

    monkeypatch.setattr(kernel.np, "zeros", allocate)
    with pytest.raises(ValueError, match="k < n"):
        next(kernel.enumerate_coverage(n, k, a, [0]))


# 65 codes would need 65-bit masks; a repeated code would leave a bit unset:
# at (3,1,2) codes [1, 1] read codes[0] as covered by no matrix, though 511
# of the 512 contain it
@pytest.mark.parametrize("codes,match", [(range(65), "64-bit"), ([1, 1], "distinct"),
                                         ([0, 3, 2, 3], "distinct")])
def test_enumeration_refuses_bad_codes_before_allocating(monkeypatch, codes, match):
    def allocate(*args, **kwargs):
        raise AssertionError("allocated before refusing")

    monkeypatch.setattr(kernel.np, "zeros", allocate)
    with pytest.raises(ValueError, match=match):
        next(kernel.enumerate_coverage(3, 1, 2, codes))


U8, U16, U32, U64 = np.uint8, np.uint16, np.uint32, np.uint64


@pytest.mark.parametrize("k,a,levels", [
    (1, 3, [(1, U8, 1, 1)]),
    (2, 2, [(1, U8, 1, 1), (4, U16, 1, 1)]),  # L_2: 4 slots of 4 bits, one element
    (3, 2, [(1, U8, 1, 1), (8, U64, 1, 1), (64, U64, 8, 1)]),  # L_2 is exactly one word
    (2, 3, [(1, U16, 1, 1), (16, U16, 9, 1)]),  # 9 letters: slots padded to 16 bits
    # past 64 bits a slot holds L_{j-1}'s elements: 27 uint32, 864 bits
    (3, 3, [(1, U32, 1, 1), (32, U32, 27, 1), (864, U32, 27, 27)]),
    (4, 2, [(1, U16, 1, 1), (16, U16, 16, 1), (256, U16, 16, 16), (4096, U16, 16, 256)]),
])
def test_automaton_levels(k, a, levels):
    assert kernel.automaton_levels(k, a) == tuple(levels)


# every size with k <= 8 and a^k <= 2^20, but k = 1 only up to a = 1024
LEVEL_GRID = [(k, a) for k in range(1, 9) for a in range(2, 1025) if a**k <= 2**20]


def test_every_level_is_one_of_three_kinds():
    assert len(LEVEL_GRID) == 2211
    for k, a in LEVEL_GRID:
        letters, bits = a**k, 1  # L_0: the empty subsequence
        levels = kernel.automaton_levels(k, a)
        for j, (stride, dtype, units, width) in enumerate(levels):
            if units == 1:  # one element: a^k slots of a power of two >= L_{j-1}'s bits
                assert width == 1 and letters * stride <= 8 * dtype.itemsize <= 64
                assert stride >= bits and stride & (stride - 1) == 0
            elif stride == 1:  # L_1 past 64 letters, its bits packed in words
                assert (j, dtype, units, width) == (0, U64, -(-letters // 64), 1) and letters > 64
            else:  # a slot level: one record a slot, of L_{j-1}'s bytes per state
                _, below, below_units, below_width = levels[j - 1]
                assert j > 0 and units == letters and dtype == below
                assert dtype.itemsize * width == below.itemsize * below_units * below_width
                assert stride == 8 * dtype.itemsize * width >= bits
            bits = letters * stride


# the slot levels' record bytes at the sizes the count and readout tests run
@pytest.mark.parametrize("k,a,records", [
    (2, 3, [2]), (2, 5, [4]), (3, 2, [8]), (2, 9, [16]), (3, 3, [4, 108]), (4, 2, [2, 32, 512]),
    (3, 4, [8, 512]),
])
def test_slot_level_records(k, a, records):
    assert [dtype.itemsize * width for stride, dtype, units, width in kernel.automaton_levels(k, a)
            if units > 1 and stride > 1] == records


def direct_counts(arrs, k, a):
    """Each matrix's targets in the bitset of every placement's code."""
    return np.count_nonzero(kernel.covered(arrs, k, a), axis=1)


# largest k per alphabet with a^(k*k) <= 2^16, which keeps L_k small
_KMAX = {2: 4, 3: 3, 5: 2}


@st.composite
def stacks(draw):
    """(arrs, k, a): 1 to 3 matrices of up to 6x6, or as many all-equal ones."""
    a = draw(st.sampled_from(sorted(_KMAX)))
    k = draw(st.integers(1, _KMAX[a]))
    trials, rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    letter = st.integers(0, a - 1)
    if draw(st.booleans()):
        fills = draw(st.lists(letter, min_size=trials, max_size=trials))
        arrs = np.repeat(np.array(fills), rows * cols)
    else:
        arrs = np.array(draw(st.lists(letter, min_size=trials * rows * cols,
                                      max_size=trials * rows * cols)))
    return arrs.reshape(trials, rows, cols), k, a


def _stack(seed, trials, side, k, a):
    return np.random.default_rng(seed).integers(0, a, size=(trials, side, side)), k, a


@given(stacks())
@example(_stack(1, 3, 4, 1, 2))  # k = 1
@example(_stack(2, 3, 4, 4, 2))  # k = n: one row subset
@example(_stack(3, 3, 3, 4, 2))  # k > n: no row subsets, count 0
@example((np.ones((2, 6, 6), dtype=np.int64), 3, 3))  # all equal
@settings(max_examples=300, deadline=None)
def test_covered_counts_match_placement_codes_and_brute_force(case):
    arrs, k, a = case
    got = kernel.covered_counts(arrs, k, a)
    assert got.tolist() == direct_counts(arrs, k, a).tolist()
    assert got.tolist() == [len(set(placement_codes(arr, k, a))) for arr in arrs]


# (6,3,3): L_2 of 14 words of 32-bit slots, L_3 of whole-word slots;
# (7,4,2): L_2 to L_4 past one word; (12,3,2): L_2 exactly one word;
# (6,2,5): 25 letters, L_2 of 13 words
@pytest.mark.parametrize("n,k,a", [(6, 3, 3), (7, 4, 2), (12, 3, 2), (6, 2, 5)])
def test_covered_counts_on_multiword_levels(n, k, a):
    arrs = np.random.default_rng([n, k, a]).integers(0, a, size=(4, n, n))
    arrs[0] = 0  # all equal: one code
    got = kernel.covered_counts(arrs, k, a)
    assert got[0] == 1
    assert got.tolist() == direct_counts(arrs, k, a).tolist()
    if n <= 6:
        assert got.tolist() == [len(set(placement_codes(arr, k, a))) for arr in arrs]


# one size per slot layout of the automaton's levels: L_k in one element;
# slot levels of one uint16, uint32 or uint64 of L_{k-1}, and of L_{k-1}'s
# 27 uint32
@pytest.mark.parametrize("n,k,a,layout", [
    (4, 2, 2, [(1, U8, 1, 1), (4, U16, 1, 1)]),
    (9, 2, 4, [(1, U16, 1, 1), (16, U16, 16, 1)]),
    (6, 2, 5, [(1, U32, 1, 1), (32, U32, 25, 1)]),
    (8, 3, 2, [(1, U8, 1, 1), (8, U64, 1, 1), (64, U64, 8, 1)]),
    (7, 3, 3, [(1, U32, 1, 1), (32, U32, 27, 1), (864, U32, 27, 27)]),
])
def test_covered_counts_per_slot_layout(n, k, a, layout):
    assert kernel.automaton_levels(k, a) == tuple(layout)
    arrs = np.random.default_rng([n, k, a, 1]).integers(0, a, size=(6, n, n))
    arrs[2] = a - 1  # all equal: one code
    want = [len(set(placement_codes(arr, k, a))) for arr in arrs]
    assert want[2] == 1
    assert kernel.covered_counts(arrs, k, a).tolist() == want
    # a trial's count does not depend on the trials it is counted with
    parts = [kernel.covered_counts(arrs[lo : lo + 4], k, a) for lo in (0, 4)]
    assert np.concatenate(parts).tolist() == want


def _letters(arr, k, a):
    """Every column letter of arr over its row subsets, one at a time."""
    return {sum(a ** (k - 1 - i) * int(arr[r, c]) for i, r in enumerate(rows))
            for rows in itertools.combinations(range(len(arr)), k) for c in range(arr.shape[1])}


def _every_letter(n, k, a):
    """An n×n matrix whose columns hold all a^k letters: the entries 0, 1, ...
    mod a in row-major order, or else the first seeded one that does."""
    candidates = itertools.chain(
        [np.arange(n * n).reshape(n, n) % a],
        (np.random.default_rng([n, k, a, seed]).integers(0, a, size=(n, n))
         for seed in range(1000)),
    )
    return next(arr for arr in candidates if len(_letters(arr, k, a)) == a**k)


# the level dtypes at each width of a one-element level: L_1 of 4 and L_2 of
# 16 bits at (2,2), L_1 of 9 bits at (1,9) and at (2,3), where L_2 has 16-bit
# slots, 25 at (2,5), 40 at (1,40), 64 at (1,64); (1,65) packs bits in words,
# and so does (2,9), whose L_2 slots are records of those 2 words
@pytest.mark.parametrize("n,k,a,dtypes", [
    (4, 2, 2, [U8, U16]),
    (5, 1, 9, [U16]),
    (5, 2, 3, [U16, U16]),
    (6, 2, 5, [U32, U32]),
    (7, 1, 40, [U64]),
    (8, 1, 64, [U64]),
    (9, 1, 65, [U64]),
    (9, 2, 9, [U64, U64]),
])
def test_covered_counts_across_level_dtypes(n, k, a, dtypes):
    assert [dtype for _, dtype, _, _ in kernel.automaton_levels(k, a)] == dtypes
    rng = np.random.default_rng([n, k, a, 2])
    arrs = np.stack([np.full((n, n), a - 1), np.zeros((n, n), dtype=np.int64),
                     _every_letter(n, k, a), *rng.integers(0, a, size=(3, n, n))])
    want = [len(set(placement_codes(arr, k, a))) for arr in arrs]
    assert want[:2] == [1, 1]
    assert kernel.covered_counts(arrs, k, a).tolist() == want
    parts = [kernel.covered_counts(arrs[lo : lo + 3], k, a) for lo in (0, 3)]
    assert np.concatenate(parts).tolist() == want


# one size per kind of top level: one element (1,2), (2,2); packed words
# (1,70); slot levels whose records are L_{k-1}'s one element, (2,3) and
# (3,2), or its words or run of elements, (2,9), (3,3) and (4,2)
@pytest.mark.parametrize("k,a", [(1, 2), (1, 70), (2, 2), (2, 3), (2, 9), (3, 2), (3, 3), (4, 2)])
def test_full_top_is_the_top_level_of_an_omnimosaic(k, a):
    full = kernel.full_top(k, a)
    assert not full.flags.writeable
    assert np.bitwise_count(full).sum() == a ** (k * k)  # no padding bit
    host = square_omnimosaic(k, a).to_numpy()
    assert np.array_equal(kernel.top_levels(host[None], k, a)[0], full)


def _small_chunk(n, k, a):
    """A CHUNK at which an automaton part holds every row subset of 3 n×n matrices."""
    return 3 * math.comb(n, k) * kernel.level_bytes(k, a) // 32 + 1


def _spy_parts(monkeypatch, arrs):
    """[(matrices, row subsets, top levels)] of each automaton part, matrices
    as indices into arrs."""
    index = {arr.tobytes(): t for t, arr in enumerate(arrs.astype(np.uint8))}
    calls, real = [], kernel._automaton_part

    def spy(by_col, rowsubs, k, a):
        trials = [index[by_col[:, :, j].T.astype(np.uint8).tobytes()]
                  for j in range(by_col.shape[2])]
        top = real(by_col, rowsubs, k, a)
        calls.append((trials, [tuple(s) for s in rowsubs.tolist()], top))
        return top

    monkeypatch.setattr(kernel, "_automaton_part", spy)
    return calls


# (12,3,2) and (10,3,2) mix matrices that cover every target with ones that
# do not; at the small CHUNK every (12,3,2) and (13,3,2) matrix covers them
# all and no (9,3,2) one does
@pytest.mark.parametrize("n,k,a", [(12, 3, 2), (13, 3, 2), (10, 3, 2), (9, 3, 2)])
@pytest.mark.parametrize("chunk", ["default", "small"])
def test_covered_counts_in_rounds_match_the_bitset(monkeypatch, n, k, a, chunk):
    if chunk == "small":
        monkeypatch.setattr(kernel, "CHUNK", _small_chunk(n, k, a))
        trials = 20
    else:
        trials = 2 * kernel.automaton_parts(10**9, n, k, a)[1] + 1
    arrs = np.random.default_rng([n, k, a]).integers(0, a, size=(trials, n, n))
    want = kernel.covered(arrs, k, a)
    calls = _spy_parts(monkeypatch, arrs)
    got = kernel.covered_counts(arrs, k, a)
    assert got.tolist() == np.count_nonzero(want, axis=1).tolist()
    assert len(calls) > 1 and all(len(subs) < math.comb(n, k) for _, subs, _ in calls)  # rounds
    assert kernel.covered_counts(arrs[:0], k, a).shape == (0,)
    if n in (12, 10) and chunk == "default":
        assert 0 < np.count_nonzero(got == a ** (k * k)) < trials
    _, dtype, units, width = kernel.automaton_levels(k, a)[-1]
    if trials * 8 * dtype.itemsize * units * width <= kernel.COVERAGE_GUARD:
        assert np.array_equal(kernel.automaton_covered(arrs, k, a),
                              kernel.covered(arrs.transpose(0, 2, 1), k, a))


# at the small CHUNK the stack runs in ceil(trials / 3) rounds; no (12,3,3)
# matrix covers every target, and some (12,3,2) and (10,3,2) ones do before
# their last round
@pytest.mark.parametrize("n,k,a,trials", [(12, 3, 2, 20), (10, 3, 2, 20), (12, 3, 3, 10)])
def test_rounds_drop_matrices_whose_top_level_is_full(monkeypatch, n, k, a, trials):
    monkeypatch.setattr(kernel, "CHUNK", _small_chunk(n, k, a))
    arrs = np.random.default_rng([n, k, a, trials]).integers(0, a, size=(trials, n, n))
    calls = _spy_parts(monkeypatch, arrs)
    top = kernel.top_levels(arrs, k, a)
    subsets = [tuple(s) for s in kernel.subsets(n, k).tolist()]
    # a part holds no more states than one of every row subset of 3 matrices
    assert max(len(ts) * len(subs) for ts, subs, _ in calls) <= 3 * len(subsets)
    stepped = collections.Counter((t, s) for ts, subs, _ in calls for t in ts for s in subs)
    assert max(stepped.values()) == 1
    full = kernel.full_top(k, a)
    filled = (top == full).all(axis=1)
    if not filled.any():  # every row subset of every matrix, in as many parts as before
        assert set(stepped) == set(itertools.product(range(trials), subsets))
        assert len(calls) == -(-trials // 3)
        return
    # a matrix takes no part after the one that fills its top level
    acc = np.zeros_like(top)
    for ts, _, part in calls:
        assert not (acc[ts] == full).all(axis=1).any()
        acc[ts] |= part
    assert np.array_equal(acc, top)
    assert len(stepped) < trials * len(subsets)
    for t in np.flatnonzero(~filled):
        assert {s for (u, s) in stepped if u == t} == set(subsets)


def test_one_matrix_steps_every_row_subset(monkeypatch):
    # an omnimosaic fills its top level early, but one matrix takes one part
    host = square_omnimosaic(3, 2).to_numpy()[None]
    calls = _spy_parts(monkeypatch, host)
    assert np.array_equal(kernel.top_levels(host, 3, 2)[0], kernel.full_top(3, 2))
    assert [(ts, len(subs)) for ts, subs, _ in calls] == [([0], math.comb(len(host[0]), 3))]


def test_more_rounds_than_row_subsets(monkeypatch):
    # at CHUNK = 8 a (3,3) part holds one state, so three 3×5 matrices of one
    # row subset each take one round, in three parts
    monkeypatch.setattr(kernel, "CHUNK", 8)
    arrs = np.random.default_rng(3).integers(0, 3, size=(3, 3, 5))
    calls = _spy_parts(monkeypatch, arrs)
    want = [len(set(placement_codes(arr, 3, 3))) for arr in arrs]
    assert kernel.covered_counts(arrs, 3, 3).tolist() == want
    assert [(ts, len(subs)) for ts, subs, _ in calls] == [([0], 1), ([1], 1), ([2], 1)]

def test_one_matrix_larger_than_a_part_stops_once_full(monkeypatch):
    # the (4,2) construction's 1 820 row subsets stream in parts of 240; its
    # top level fills before the last part
    host = square_omnimosaic(4, 2).to_numpy()[None]
    placements = math.comb(host.shape[1], 4)
    subsets_a_part = kernel.automaton_parts(1, host.shape[1], 4, 2)[0]
    assert subsets_a_part < placements
    calls = _spy_parts(monkeypatch, host)
    assert np.array_equal(kernel.top_levels(host, 4, 2)[0], kernel.full_top(4, 2))
    assert 0 < len(calls) < -(-placements // subsets_a_part)
    stepped = [s for _, subs, _ in calls for s in subs]
    assert stepped == [tuple(s) for s in kernel.subsets(host.shape[1], 4)[: len(stepped)].tolist()]
    bits = kernel.covered(host.transpose(0, 2, 1), 4, 2)
    assert bits.all()
    assert np.array_equal(kernel.automaton_covered(host, 4, 2), bits)


def test_a_host_that_never_fills_steps_every_row_subset_once(monkeypatch):
    # 4 845 row subsets in parts of 240, and at most 5 codes each: fewer than
    # the 2^16 targets, so the top level never fills
    host = np.random.default_rng(4).integers(0, 2, size=(1, 20, 5))
    subsets_a_part = kernel.automaton_parts(1, 20, 4, 2)[0]
    calls = _spy_parts(monkeypatch, host)
    top = kernel.top_levels(host, 4, 2)
    stepped = [s for _, subs, _ in calls for s in subs]
    assert stepped == [tuple(s) for s in kernel.subsets(20, 4).tolist()]
    assert len(calls) == -(-len(stepped) // subsets_a_part) > 1
    assert np.bitwise_count(top).sum() == len(set(placement_codes(host[0], 4, 2)))
