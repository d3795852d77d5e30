import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omnikit import kernel
from omnikit.core import MosaicMatrix, encode_target


@pytest.mark.parametrize("rows,cols,k,a", [(5, 6, 2, 3), (4, 4, 3, 2), (3, 5, 1, 4)])
def test_placement_codes_encode_every_submatrix(rng, rows, cols, k, a):
    arr = rng.integers(0, a, size=(rows, cols))
    m = MosaicMatrix.from_numpy(arr, a)
    rowsubs, colsubs = kernel.subsets(rows, k), kernel.subsets(cols, k)
    codes = kernel.placement_codes(arr, k, a, rowsubs, colsubs)
    assert codes.shape == (len(colsubs), len(rowsubs))
    for (s, r), (c, cs) in itertools.product(enumerate(rowsubs), enumerate(colsubs)):
        assert codes[c, s] == encode_target(m.submatrix(r, cs))


def test_placement_codes_of_a_stack(rng):
    arrs = rng.integers(0, 2, size=(3, 5, 5))
    subs = kernel.subsets(5, 2)
    stacked = kernel.placement_codes(arrs, 2, 2, subs, subs)
    for b in range(3):
        assert (stacked[:, b] == kernel.placement_codes(arrs[b], 2, 2, subs, subs)).all()


# tall, wide and square hosts, k = side and k = 1
BATCH_HOSTS = [(30, 6, 3, 2), (6, 30, 3, 2), (9, 9, 2, 3), (5, 5, 5, 2), (4, 7, 1, 3)]


def batch_host(rows, cols, k, a):
    return np.random.default_rng([rows, cols, k]).integers(0, a, size=(rows, cols))


@functools.cache
def brute_codes(rows, cols, k, a):
    """Sorted codes of every placement of batch_host(...), one at a time."""
    m = MosaicMatrix.from_numpy(batch_host(rows, cols, k, a), a)
    return sorted(
        encode_target(m.submatrix(r, c))
        for r in itertools.combinations(range(rows), k)
        for c in itertools.combinations(range(cols), k)
    )


@pytest.mark.parametrize("chunk", [None, 8], ids=["default-chunk", "chunk-8"])
@pytest.mark.parametrize("rows,cols,k,a", BATCH_HOSTS)
def test_code_batches_yield_each_placement_once(monkeypatch, rows, cols, k, a, chunk):
    if chunk is not None:
        monkeypatch.setattr(kernel, "CHUNK", chunk)
    batches = list(kernel.code_batches(batch_host(rows, cols, k, a), k, a))
    assert max(b.size for b in batches) <= kernel.CHUNK
    got = np.sort(np.concatenate([b.ravel() for b in batches]))
    assert got.tolist() == brute_codes(rows, cols, k, a)


def test_code_batches_of_no_placements():
    assert list(kernel.code_batches(np.zeros((2, 5), dtype=int), 3, 2)) == []
    assert list(kernel.code_batches(np.zeros((5, 2), dtype=int), 3, 2)) == []


def test_no_placements_when_k_exceeds_size():
    assert kernel.subsets(3, 5).shape == (0, 5)
    codes = kernel.placement_codes(np.zeros((2, 3, 3), dtype=int), 5, 2,
                                   kernel.subsets(3, 5), kernel.subsets(3, 5))
    assert codes.size == 0
    assert (kernel.distinct_counts(codes, 2**25) == 0).all()


def test_distinct_counts_bitset_matches_unique(rng):
    total = 300
    codes = rng.integers(0, total, size=(7, 4, 50))
    want = [np.unique(codes[:, b]).size for b in range(4)]
    assert list(kernel.distinct_counts(codes, total)) == want
    # a target space above the bitset limit takes the np.unique path
    assert list(kernel.distinct_counts(codes, kernel.BITSET_LIMIT + 1)) == want


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint64])
def test_bit_counts(rng, dtype):
    bits = 8 * np.dtype(dtype).itemsize
    masks = rng.integers(0, 2**bits, size=1000, dtype=dtype)
    want = [sum(int(m) >> t & 1 for m in masks) for t in range(bits)]
    assert list(kernel.bit_counts(masks)) == want


@pytest.mark.parametrize("n,k,a,target", [(5, 2, 2, None), (5, 3, 2, 77), (5, 5, 2, 7)])
def test_enumeration_blocks_are_bounded(n, k, a, target):
    # at the 2^25 matrix guard every step stays within 8 MB
    matrices = 0
    for block in kernel.enumerate_coverage(n, k, a, target):
        assert block.nbytes <= 8 * 2**20
        matrices += block.size
    assert matrices == a ** (n * n)



@pytest.mark.parametrize("k,a,levels", [
    (1, 3, [(1, 1)]),
    (2, 2, [(1, 1), (4, 1)]),  # L_2 fills 16 of 64 bits
    (3, 2, [(1, 1), (8, 1), (64, 8)]),  # L_2 is exactly one word
    (2, 3, [(1, 1), (16, 3)]),  # 9 letters: slots padded to 16 bits, 4 a word
    (3, 3, [(1, 1), (32, 14), (896, 378)]),  # past one word, whole words
    (4, 2, [(1, 1), (16, 4), (256, 64), (4096, 1024)]),
])
def test_automaton_levels(k, a, levels):
    assert kernel.automaton_levels(k, a) == levels


def brute_count(arr, k, a):
    """Distinct codes of one matrix, one placement at a time."""
    m = MosaicMatrix.from_numpy(arr, a)
    return len({
        encode_target(m.submatrix(r, c))
        for r in itertools.combinations(range(m.rows), k)
        for c in itertools.combinations(range(m.cols), k)
    })


def direct_counts(arrs, k, a):
    """distinct_counts over the codes of every placement of each matrix."""
    rowsubs, colsubs = kernel.subsets(arrs.shape[1], k), kernel.subsets(arrs.shape[2], k)
    codes = kernel.placement_codes(arrs, k, a, rowsubs, colsubs)
    return kernel.distinct_counts(codes, a ** (k * k))


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
    got = kernel.covered_counts(arrs, k, a, kernel.subsets(arrs.shape[1], k))
    assert got.tolist() == direct_counts(arrs, k, a).tolist()
    assert got.tolist() == [brute_count(arr, k, a) for arr in arrs]


# (6,3,3): L_2 of 14 words of 32-bit slots, L_3 of whole-word slots;
# (7,4,2): L_2 to L_4 past one word; (12,3,2): L_2 exactly one word;
# (6,2,5): 25 letters, L_2 of 13 words
@pytest.mark.parametrize("n,k,a", [(6, 3, 3), (7, 4, 2), (12, 3, 2), (6, 2, 5)])
def test_covered_counts_on_multiword_levels(n, k, a):
    arrs = np.random.default_rng([n, k, a]).integers(0, a, size=(4, n, n))
    arrs[0] = 0  # all equal: one code
    got = kernel.covered_counts(arrs, k, a, kernel.subsets(n, k))
    assert got[0] == 1
    assert got.tolist() == direct_counts(arrs, k, a).tolist()
    if n <= 6:
        assert got.tolist() == [brute_count(arr, k, a) for arr in arrs]
