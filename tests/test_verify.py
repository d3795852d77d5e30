import math
import tracemalloc
from dataclasses import asdict
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omnikit import bounds, kernel, verify
from omnikit.construct import (
    Placement,
    build_mosaic,
    canonical_grid,
    locate,
    square_omnimosaic,
    thin_strip,
)
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
from conftest import WITNESS_4X4, placement_codes


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
        monkeypatch.setattr(kernel, "COVERAGE_GUARD", 50)

        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before the coverage guard")

        monkeypatch.setattr(np, "zeros", no_alloc)
        with pytest.raises(MosaicError, match="contains_target"):
            coverage(m, 2)


class TestPlacementGuard:
    def test_refuses_before_allocating(self, monkeypatch):
        m = square_omnimosaic(2, 3)  # 6x6: C(6,2)^2 = 225 placements

        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before the placement guard")

        monkeypatch.setattr(verify, "PLACEMENT_GUARD", 224)
        with monkeypatch.context() as patch:
            for name in ("zeros", "array", "empty"):
                patch.setattr(np, name, no_alloc)
            with pytest.raises(MosaicError, match="^225 placements exceed placement guard 224;"):
                coverage(m, 2)
        monkeypatch.setattr(verify, "PLACEMENT_GUARD", 225)
        assert coverage(m, 2).all()

    @pytest.mark.parametrize("k,a", [(3, 6), (4, 3)])
    def test_largest_verified_constructions_stay_under(self, k, a):
        # about 5.8e9 and 3.5e9 placements; (3,7) has 3.5e10 and is refused
        n = bounds.construction_upper(k, a)
        assert math.comb(n, k) ** 2 <= verify.PLACEMENT_GUARD
        n = bounds.construction_upper(3, 7)
        assert math.comb(n, 3) ** 2 > verify.PLACEMENT_GUARD


# (k, a) per kind of automaton level: k = 1; shift-OR levels at (2,2) and
# (3,2); packed words at (2,9), 81 letters; slot levels whose records are
# 2 bytes at (2,3), 4 at (2,5), 8 at (3,2), 16 at (2,9), 4 and 108 at (3,3),
# 2, 32 and 512 at (4,2), and 8 and 512 at (3,4)
READOUT_SIZES = [(1, 2), (1, 5), (2, 2), (2, 3), (2, 5), (3, 2), (2, 9), (3, 3), (4, 2),
                 (3, 4)]


@st.composite
def readout_hosts(draw):
    """(arr, k, a): 1 to 9 rows, in runs of 1 to k + 1 equal rows, by 1 to 9
    columns, over all a letters or fewer."""
    k, a = draw(st.sampled_from(READOUT_SIZES))
    runs = draw(st.lists(st.integers(1, k + 1), min_size=1, max_size=9))
    cols, letters = draw(st.integers(1, 9)), draw(st.integers(1, a))
    seed = draw(st.integers(0, 2**32 - 1))
    base = np.random.default_rng(seed).integers(0, letters, size=(len(runs), cols))
    return base.repeat(runs, axis=0)[:9], k, a


def _readout_host(rows, cols, k, a):
    return np.random.default_rng([rows, cols, k, a]).integers(0, a, size=(rows, cols)), k, a


class TestAutomatonReadout:
    """The OR of the automaton's top level over row subsets, read as a
    column-major code-order bitset, against the direct bitset and brute
    force of the transposed host; verify reports the same on both paths."""

    # CHUNK = 8 runs the automaton in parts of one row subset
    @given(readout_hosts(), st.sampled_from([kernel.CHUNK, 8]))
    @example(_readout_host(9, 2, 2, 2), 8)  # tall
    @example(_readout_host(2, 9, 2, 9), kernel.CHUNK)  # wide, packed words
    @example(_readout_host(2, 9, 3, 3), kernel.CHUNK)  # rows < k
    @example(_readout_host(9, 9, 3, 4), 8)  # run slots of 64 uint64
    @example(_readout_host(4, 7, 1, 5), kernel.CHUNK)  # k = 1
    @example((np.ones((9, 5), dtype=np.int64), 3, 3), 8)  # one run of equal rows
    @settings(max_examples=150, deadline=None)
    def test_matches_direct_bitset_and_brute_force(self, host, chunk):
        arr, k, a = host
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "CHUNK", chunk)
            self._check(arr, k, a)

    @staticmethod
    def _check(arr, k, a):
        # the automaton reads the host transposed
        bits = kernel.automaton_covered(arr[None], k, a)[0]
        assert bits.dtype == bool and bits.shape == (a ** (k * k),)
        assert np.array_equal(bits, kernel.covered(arr.T[None], k, a)[0])
        assert set(np.flatnonzero(bits).tolist()) == set(placement_codes(arr.T, k, a))
        m = MosaicMatrix.from_numpy(arr, a)
        reports = {}
        for path, costs in [("automaton_covered", (0, 1)), ("covered", (1, 0))]:
            called = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernel, "path_costs", lambda *args, costs=costs: costs)
                real = getattr(kernel, path)
                mp.setattr(kernel, path, lambda *args, real=real: called.append(args) or real(*args))
                reports[path] = asdict(is_omnimosaic(m, k))
            assert len(called) == 1
            del reports[path]["elapsed"]
        assert reports["automaton_covered"] == reports["covered"]

    def test_padded_top_level_is_guarded_before_allocating(self, monkeypatch):
        # at (2,3) L_2 holds 9 slots of 16 bits: 144 bits for 81 targets
        arrs = np.zeros((2, 3, 3), dtype=int)

        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before the coverage guard")

        monkeypatch.setattr(kernel, "COVERAGE_GUARD", 2 * 144 - 1)
        assert np.count_nonzero(kernel.covered(arrs, 2, 3), axis=1).tolist() == [1, 1]
        assert np.count_nonzero(kernel.automaton_covered(arrs[:1], 2, 3)) == 1
        with monkeypatch.context() as patch:
            patch.setattr(np, "zeros", no_alloc)
            with pytest.raises(MosaicError, match="coverage guard"):
                kernel.automaton_covered(arrs, 2, 3)
        monkeypatch.setattr(kernel, "COVERAGE_GUARD", 2 * 144)
        assert np.array_equal(kernel.automaton_covered(arrs, 2, 3),
                              kernel.covered(arrs.transpose(0, 2, 1), 2, 3))


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
        assert set(np.flatnonzero(bits).tolist()) == set(placement_codes(arr, k, a))

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


def _read_shapes(monkeypatch):
    """Record the shape of every stack verify.coverage hands either path."""
    shapes = []
    for name in ("covered", "automaton_covered"):
        def spy(arrs, k, a, real=getattr(kernel, name)):
            shapes.append(arrs.shape)
            return real(arrs, k, a)

        monkeypatch.setattr(kernel, name, spy)
    return shapes


class TestCoverageOrientation:
    """A tall host is read transposed where that is strictly cheaper, and its
    bitset mapped back by the digit transpose; either orientation on either
    path gives the same bitset."""

    # (rows, cols, k, a): tall, narrow random hosts whose transpose the
    # automaton reads for less than either path reads the host
    TALL = [(30, 5, 4, 2), (40, 6, 3, 3), (50, 4, 4, 2), (80, 4, 3, 2), (60, 5, 3, 3)]

    @staticmethod
    def _brute_bits(arr, k, a):
        """The code-order bitset of arr, every placement listed by
        itertools.combinations: its row words at each column subset, read
        base a^k at each row subset."""
        bits = np.zeros(a ** (k * k), dtype=bool)
        rowsubs = np.array(list(combinations(range(len(arr)), k)))
        for cols in combinations(range(arr.shape[1]), k):
            words = arr[:, cols] @ (a ** np.arange(k - 1, -1, -1))
            bits[words[rowsubs] @ (a**k) ** np.arange(k - 1, -1, -1)] = True
        return bits

    @pytest.mark.parametrize("rows,cols,k,a", TALL)
    def test_tall_hosts_match_brute_force(self, monkeypatch, rows, cols, k, a):
        arr = np.random.default_rng([rows, cols, k, a]).integers(0, a, size=(rows, cols))
        shapes = _read_shapes(monkeypatch)
        bits = coverage(MosaicMatrix.from_numpy(arr, a), k)
        assert shapes == [(1, cols, rows)]  # no run of more than k equal columns
        assert np.array_equal(bits, self._brute_bits(arr, k, a))

    @pytest.mark.parametrize("k,a", [(4, 2), (3, 4)])
    def test_strips_read_transposed(self, monkeypatch, k, a):
        m = thin_strip(k, a)
        shapes = _read_shapes(monkeypatch)
        assert coverage(m, k).all()
        assert shapes == [(1, k, m.rows)]

    @pytest.mark.parametrize("k,a", [(3, 3), (4, 2), (3, 4), (2, 2)])
    def test_constructions_keep_their_orientation(self, monkeypatch, k, a):
        m = square_omnimosaic(k, a)
        shapes = _read_shapes(monkeypatch)
        assert coverage(m, k).all()
        assert shapes[0][2] == m.cols

    @given(st.one_of(readout_hosts(), hosts_with_runs()))
    @settings(max_examples=60, deadline=None)
    def test_forced_orientations_agree(self, host):
        # coverage prices the host, then its transpose; the cheaper is read,
        # on the cheaper of its two paths
        arr, k, a = host
        m = MosaicMatrix.from_numpy(arr, a)
        want = set(placement_codes(arr, k, a))
        for prices in [[(1, 2), (3, 3)], [(2, 1), (3, 3)], [(3, 3), (1, 2)], [(3, 3), (2, 1)]]:
            with pytest.MonkeyPatch.context() as mp:
                answers = iter(prices)
                mp.setattr(kernel, "path_costs", lambda *args: next(answers))
                shapes = _read_shapes(mp)
                bits = coverage(m, k)
            assert set(np.flatnonzero(bits).tolist()) == want
            assert shapes[0][1:] == (verify._cut_runs(arr if prices[0] < prices[1] else arr.T,
                                                      k).shape)


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

    def test_missing_sample_copies_no_bitset(self, rng):
        # 2^25 targets and one placement: a 32 MiB bitset, whose missing codes
        # are read a slice at a time
        m = MosaicMatrix.from_numpy(rng.integers(0, 2, size=(5, 5)), 2)
        code = encode_target(m)
        tracemalloc.start()
        try:
            r = is_omnimosaic(m, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.covered == 1
        assert r.missing_sample == [c for c in range(33) if c != code][:verify.MISSING_SAMPLE]
        assert peak < 2 * 2**25

    @pytest.mark.parametrize("chunk", [4, 8])
    def test_missing_sample_across_slices(self, monkeypatch, rng, chunk):
        hosts = [random_matrix(3, 2, rng) for _ in range(5)] + [random_matrix(4, 3, rng)]
        want = [np.flatnonzero(~coverage(m, 2))[:verify.MISSING_SAMPLE].tolist() for m in hosts]
        monkeypatch.setattr(kernel, "CHUNK", chunk)
        assert [is_omnimosaic(m, 2).missing_sample for m in hosts] == want


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

    def test_alphabet_mismatch(self):
        # a=3 entries that are all 0/1 held in the a=2 (2,2) construction
        m, rm = build_mosaic(canonical_grid(2), 2)
        t = decode_target(5, 2, 2)
        p = locate(rm, canonical_grid(2), t)
        assert verify_placement(m, p, t)
        with pytest.raises(MosaicError, match="alphabet mismatch"):
            verify_placement(m, p, MosaicMatrix(2, 2, 3, t.entries))

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
        # tall: matched transposed
        (12, 3, 2, 2),
        (13, 4, 2, 3),
        (9, 5, 3, 2),
        (10, 4, 2, 4),
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


@pytest.mark.parametrize("rows,cols,k,transposed", [
    (7, 3, 3, True), (6, 4, 2, True), (324, 4, 4, True),
    (6, 6, 2, False), (4, 6, 1, False), (3, 6, 3, False),
])
def test_contains_target_matches_tall_hosts_transposed(monkeypatch, rows, cols, k, transposed):
    # transposed iff C(cols,k) * rows < C(rows,k) * cols; square hosts never
    assert (math.comb(cols, k) * rows < math.comb(rows, k) * cols) == transposed
    arr = np.random.default_rng([rows, cols, k]).integers(0, 2, size=(rows, cols))
    t = arr[-k:, -k:]
    seen = []

    def spy(host, target, a, real=verify._greedy_matches):
        seen.append(host.shape)
        return real(host, target, a)

    monkeypatch.setattr(verify, "_greedy_matches", spy)
    got = contains_target(MosaicMatrix.from_numpy(arr, 2), MosaicMatrix.from_numpy(t, 2))
    assert seen == [(cols, rows) if transposed else (rows, cols)]
    if rows * cols <= 64:
        assert (got.row_idx, got.col_idx) == brute_least_placement(arr, t)
    else:
        assert verify_placement(MosaicMatrix.from_numpy(arr, 2), got, MosaicMatrix.from_numpy(t, 2))
