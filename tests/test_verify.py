import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnikit import kernel, verify
from omnikit.construct import Placement, square_omnimosaic
from omnikit.core import (
    MosaicError,
    MosaicMatrix,
    decode_target,
    encode_target,
    symmetries,
)
from omnikit.verify import (
    contains_target,
    coverage,
    is_omnimosaic,
    verify_placement,
)
from conftest import WITNESS_4X4


def random_matrix(n, a, rng):
    return MosaicMatrix.from_numpy(rng.integers(0, a, size=(n, n)), a)


class TestCoverage:
    def test_witness_matrix_covers_everything(self):
        bits = coverage(WITNESS_4X4, 2)
        assert bits.dtype == bool and bits.shape == (16,)
        assert bits.all()

    def test_all_zero_covers_one(self):
        m = MosaicMatrix.from_rows([[0] * 3] * 3, a=2)
        bits = coverage(m, 2)
        assert np.count_nonzero(bits) == 1
        assert bits[0]

    def test_popcount_capped_by_placements(self, rng):
        m = random_matrix(3, 2, rng)
        assert np.count_nonzero(coverage(m, 2)) <= 9

    def test_guard(self, monkeypatch):
        m = MosaicMatrix.from_rows([[0] * 6] * 6, a=3)
        monkeypatch.setattr(verify, "COVERAGE_GUARD", 50)

        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before the coverage guard")

        monkeypatch.setattr(np, "zeros", no_alloc)
        with pytest.raises(MosaicError, match="contains_target"):
            coverage(m, 2)


def brute_coverage(arr, k, a):
    """Codes of every k×k submatrix, one placement at a time."""
    rows = arr.tolist()
    seen = set()
    for r in combinations(range(len(rows)), k):
        for c in combinations(range(len(rows[0])), k):
            seen.add(tuple(rows[i][j] for i in r for j in c))
    return {encode_target(MosaicMatrix(k, k, a, t)) for t in seen}


@st.composite
def hosts_with_runs(draw):
    """(arr, k, a): random rows and columns, each repeated 1..k+2 times."""
    k = draw(st.integers(1, 3))
    a = draw(st.sampled_from([2, 3]))
    runs = st.lists(st.integers(1, k + 2), min_size=1, max_size=4 - k // 2)
    rowruns, colruns = draw(runs), draw(runs)
    letters = draw(st.integers(1, a))  # one letter makes an all-equal host
    seed = draw(st.integers(0, 2**32 - 1))
    base = np.random.default_rng(seed).integers(0, letters, size=(len(rowruns), len(colruns)))
    return base.repeat(rowruns, axis=0).repeat(colruns, axis=1), k, a


class TestCoverageOfRepeatedRuns:
    """Rows past the k-th of a run of equal rows are dropped before the
    enumeration; the covered set must not change.  Repeated columns are
    kept and must be scored as they are."""

    @given(hosts_with_runs())
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, host):
        arr, k, a = host
        bits = coverage(MosaicMatrix.from_numpy(arr, a), k)
        assert set(np.flatnonzero(bits).tolist()) == brute_coverage(arr, k, a)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_all_equal_host(self, k):
        m = MosaicMatrix.from_numpy(np.ones((k + 3, k + 2), dtype=int), 2)
        bits = coverage(m, k)
        assert np.flatnonzero(bits).tolist() == [2 ** (k * k) - 1]

    @pytest.mark.parametrize("k,a", [(3, 3), (3, 4)])
    def test_padded_squares_stay_omni(self, k, a):
        m = square_omnimosaic(k, a)
        assert (m.to_numpy()[-2] == m.to_numpy()[-1]).all()  # padded with copies
        r = is_omnimosaic(m, k)
        assert r.is_omni
        assert r.submatrices_enumerated == math.comb(m.rows, k) ** 2


class TestIsOmnimosaic:
    def test_witness_matrix(self):
        assert is_omnimosaic(WITNESS_4X4, 2).is_omni

    def test_3x3_never_omni(self, rng):
        # 9 placements cannot cover 16 targets
        for _ in range(20):
            r = is_omnimosaic(random_matrix(3, 2, rng), 2)
            assert not r.is_omni
            assert r.missing_sample == sorted(r.missing_sample)

    def test_constructed_6x6(self):
        assert is_omnimosaic(square_omnimosaic(2, 3), 2).is_omni

    def test_report_counts(self):
        r = is_omnimosaic(WITNESS_4X4, 2)
        assert r.covered == r.total_targets == 16
        assert r.submatrices_enumerated == 36


class TestContainsTarget:
    def test_present_in_witness_matrix(self):
        t = decode_target(6, 2, 2)
        p = contains_target(WITNESS_4X4, t)
        assert p is not None
        assert verify_placement(WITNESS_4X4, p, t)

    def test_absent(self):
        m = MosaicMatrix.from_rows([[0] * 3] * 3, a=2)
        assert contains_target(m, decode_target(15, 2, 2)) is None

    def test_identity_when_equal(self):
        p = contains_target(WITNESS_4X4, WITNESS_4X4)
        assert p == Placement((0, 1, 2, 3), (0, 1, 2, 3))

    def test_lexicographically_least(self, rng):
        # brute force least placement must agree
        from itertools import combinations

        for _ in range(30):
            m = random_matrix(5, 2, rng)
            t = decode_target(int(rng.integers(16)), 2, 2)
            best = None
            for rows in combinations(range(5), 2):
                for cols in combinations(range(5), 2):
                    if m.submatrix(rows, cols) == t:
                        cand = (rows, cols)
                        if best is None or cand < best:
                            best = cand
                        break  # first cols for these rows is least
            got = contains_target(m, t)
            if best is None:
                assert got is None
            else:
                assert (got.row_idx, got.col_idx) == best

    def test_oracle_agreement_with_coverage(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, min(3, n) + 1))
            m = random_matrix(n, 2, rng)
            t = decode_target(int(rng.integers(2 ** (k * k))), k, 2)
            present = contains_target(m, t) is not None
            assert present == coverage(m, k)[encode_target(t)]


class TestVerifyPlacement:
    def test_identity(self):
        p = Placement((0, 1, 2, 3), (0, 1, 2, 3))
        assert verify_placement(WITNESS_4X4, p, WITNESS_4X4)

    def test_out_of_bounds(self):
        with pytest.raises(MosaicError):
            verify_placement(
                WITNESS_4X4, Placement((0, 4), (0, 1)), decode_target(0, 2, 2)
            )

    def test_shifted_placement_fails_somewhere(self, rng):
        hits = 0
        for _ in range(50):
            m = random_matrix(4, 2, rng)
            p = contains_target(m, decode_target(6, 2, 2))
            if p is None or p.col_idx[-1] + 1 >= 4:
                continue
            shifted = Placement(p.row_idx, tuple(c + 1 for c in p.col_idx))
            if not verify_placement(m, shifted, decode_target(6, 2, 2)):
                hits += 1
        assert hits > 0


class TestSymmetryInvariance:
    # positions of the group's generators in the fixed order of symmetries(m):
    # m, its row, column and double reversal, the same four of its transpose,
    # then those eight again under each further letter permutation
    GENERATORS = {
        "letters": slice(8, None, 8),
        "transpose": slice(4, 5),
        "row_reversal": slice(1, 2),
        "col_reversal": slice(2, 3),
    }

    @pytest.mark.parametrize("kind", list(GENERATORS))
    def test_is_omni_invariant(self, kind, rng):
        # each generator keeps the number of covered targets, so the whole
        # group does
        for _ in range(50):
            n = int(rng.integers(3, 6))
            a = int(rng.integers(2, 4))
            m = random_matrix(n, a, rng)
            covered = is_omnimosaic(m, 2).covered
            images = list(symmetries(m))[self.GENERATORS[kind]]
            assert all(is_omnimosaic(image, 2).covered == covered for image in images)

    def test_column_order_matters(self):
        # submatrices keep index order, so permuting columns can create or
        # destroy targets: this 5x5 matrix misses one target until its
        # columns are reordered
        m = MosaicMatrix.from_rows(
            [
                [1, 0, 1, 1, 1],
                [0, 0, 0, 1, 0],
                [0, 0, 1, 0, 0],
                [1, 0, 0, 0, 0],
                [1, 0, 1, 1, 0],
            ],
            a=2,
        )
        swapped = MosaicMatrix.from_numpy(m.to_numpy()[:, [1, 0, 4, 3, 2]], 2)
        assert not is_omnimosaic(m, 2).is_omni
        assert is_omnimosaic(swapped, 2).is_omni


class TestMonotonicity:
    def test_extension_preserves(self, rng):
        m = square_omnimosaic(2, 2)
        arr = m.to_numpy()
        grown = np.vstack([arr, rng.integers(0, 2, size=(2, 4))])
        grown = np.hstack([grown, rng.integers(0, 2, size=(6, 1))])
        assert is_omnimosaic(MosaicMatrix.from_numpy(grown, 2), 2).is_omni


def brute_least_placement(arr, t):
    """Least (rows, cols) over every placement in lexicographic order, or None."""
    k = len(t)
    for rows in combinations(range(arr.shape[0]), k):
        for cols in combinations(range(arr.shape[1]), k):
            if (arr[np.ix_(rows, cols)] == t).all():
                return rows, cols
    return None


class TestContainsTargetBruteForce:
    """The batched match against an independent brute force, host by host."""

    # (rows, cols, a, k): k = 1, k = rows, k = cols, square and non-square hosts
    HOSTS = [
        (5, 5, 2, 1),
        (4, 6, 3, 1),
        (3, 6, 2, 3),
        (6, 4, 2, 2),
        (5, 7, 3, 2),
        (7, 3, 2, 3),
        (6, 6, 2, 3),
        (4, 4, 2, 4),
    ]

    @pytest.mark.parametrize("chunk", [None, 8], ids=["one-batch", "many-batches"])
    @pytest.mark.parametrize("rows,cols,a,k", HOSTS)
    def test_agrees_with_brute_force(self, monkeypatch, rows, cols, a, k, chunk):
        if chunk is not None:  # batches of CHUNK // cols row subsets: one to two
            monkeypatch.setattr(kernel, "CHUNK", chunk)
        rng = np.random.default_rng([rows, cols, a, k])
        total = a ** (k * k)
        outcomes = set()
        for letters in (a, a, a - 1):  # the last host lacks letter a - 1
            arr = rng.integers(0, letters, size=(rows, cols))
            m = MosaicMatrix.from_numpy(arr, a)
            codes = list(range(total) if total <= 32 else rng.choice(total, 24, replace=False))
            for _ in range(8):  # targets taken from the host itself
                r = np.sort(rng.choice(rows, k, replace=False))
                c = np.sort(rng.choice(cols, k, replace=False))
                codes.append(encode_target(MosaicMatrix.from_numpy(arr[np.ix_(r, c)], a)))
            for code in codes:
                t = decode_target(int(code), k, a)
                want = brute_least_placement(arr, t.to_numpy())
                got = contains_target(m, t)
                assert (None if got is None else (got.row_idx, got.col_idx)) == want
                outcomes.add(want is None)
        assert outcomes == {True, False}  # both absent and present targets were seen
