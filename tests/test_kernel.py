import functools
import itertools

import numpy as np
import pytest

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

