import itertools
import math
import time
import weakref

import numpy as np
import pytest

from omnikit import kernel, search
from omnikit.core import MosaicMatrix, MosaicError
from omnikit.search import (
    BUDGET_EXCEEDED,
    EXHAUSTED_NONE,
    FOUND,
    MAX_N,
    SearchBudget,
    exists_omnimosaic,
    min_omnimosaic_n,
)
from omnikit.verify import is_omnimosaic

from conftest import placement_codes


def brute_force_exists(n, k, a):
    """Independent oracle: enumerate every a^(n*n) matrix."""
    for entries in itertools.product(range(a), repeat=n * n):
        m = MosaicMatrix(n, n, a, entries)
        if is_omnimosaic(m, k).is_omni:
            return True
    return False


class TestExistence:
    def test_k1_a2(self):
        assert exists_omnimosaic(1, 1, 2).status == EXHAUSTED_NONE
        r = exists_omnimosaic(2, 1, 2)
        assert r.status == FOUND

    def test_k2_a2_n3_none(self):
        r = exists_omnimosaic(3, 2, 2)
        assert r.status == EXHAUSTED_NONE
        assert r.witness is None

    def test_k2_a2_n4_found(self):
        r = exists_omnimosaic(4, 2, 2)
        assert r.status == FOUND
        assert is_omnimosaic(r.witness, 2).is_omni

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (2, 1), (3, 3)])
    def test_agrees_with_brute_force_a2(self, n, k):
        expected = brute_force_exists(n, k, 2)
        got = exists_omnimosaic(n, k, 2).status
        assert got == (FOUND if expected else EXHAUSTED_NONE)

    def test_monotone_in_n(self):
        # once found at n, found at n+1 as well
        assert exists_omnimosaic(4, 2, 2).status == FOUND
        assert exists_omnimosaic(5, 2, 2).status == FOUND

    def test_rejects_bad_args(self):
        for n, k, a in [(1, 2, 2), (3, 2, 1), (2, 0, 2), (3, -1, 2), (MAX_N + 1, 2, 2), (40, 2, 2)]:
            with pytest.raises(MosaicError):
                exists_omnimosaic(n, k, a, budget=SearchBudget(max_nodes=10))

    def test_largest_side_runs(self):
        # the deepest recursion allowed stays inside Python's limit
        r = exists_omnimosaic(MAX_N, 2, 2, budget=SearchBudget(max_nodes=10))
        assert r.status == BUDGET_EXCEEDED


class TestMinN:
    def test_omega_2_2_is_4(self):
        trace = min_omnimosaic_n(2, 2)
        assert [(n, r.status) for n, r in trace] == [(4, FOUND)]
        # the pigeonhole start already equals the answer here; push lower
        assert exists_omnimosaic(3, 2, 2).status == EXHAUSTED_NONE

    def test_omega_1_2_is_2(self):
        trace = min_omnimosaic_n(1, 2)
        assert trace[-1][0] == 2
        assert trace[-1][1].status == FOUND

    @pytest.mark.parametrize("k,a", [(0, 2), (-1, 2), (2, 1), (5, 2)])
    def test_rejects_bad_args(self, k, a):
        # (5,2): the pigeonhole start, 17, is beyond MAX_N
        with pytest.raises(MosaicError):
            min_omnimosaic_n(k, a)

    def test_budget_propagates(self):
        budget = SearchBudget(max_nodes=50_000)
        trace = min_omnimosaic_n(2, 3, budget=budget)
        assert trace[0][0] == 5  # pigeonhole start for k=2, a=3
        assert trace[-1][1].status in (FOUND, BUDGET_EXCEEDED)


class TestBudget:
    def test_node_budget_triggers(self):
        r = exists_omnimosaic(5, 2, 3, budget=SearchBudget(max_nodes=5_000))
        assert r.status == BUDGET_EXCEEDED
        assert r.nodes >= 4_096  # checked before each block of rows

    def test_invalid_budget(self):
        with pytest.raises(MosaicError):
            SearchBudget(max_nodes=0)
        with pytest.raises(MosaicError):
            SearchBudget(max_seconds=0.0)
        with pytest.raises(MosaicError):
            SearchBudget(max_seconds=float("nan"))


class TestWitnessQuality:
    def test_witness_is_canonical_shape(self):
        r = exists_omnimosaic(4, 2, 2)
        firsts = list(dict.fromkeys(r.witness.entries))
        assert firsts == list(range(len(firsts)))  # letters first appear as 0, 1, 2, ...
        assert r.witness.entries[0] == 0  # first entry relabeled to 0


# (status, nodes, witness entries): a node is one admissible row tried, and
# sizes with fewer placements than targets are settled with no node
GOLDEN = {
    (4, 2, 2): (FOUND, 2152, (0,) * 5 + (1, 1, 1, 1, 1, 0, 0, 0, 1, 0, 1)),
    (5, 2, 2): (FOUND, 3120, (0,) * 13 + (1, 0, 1, 1, 0, 1, 1, 0, 1, 0, 0, 1)),
    (6, 2, 2): (FOUND, 3616, (0,) * 24 + (1, 1, 0, 0, 1, 1, 0, 1, 0, 1, 0, 1)),
    (7, 2, 2): (FOUND, 7360, (0,) * 36 + (1, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1)),
    (3, 2, 2): (EXHAUSTED_NONE, 0, None),
    (4, 2, 3): (EXHAUSTED_NONE, 0, None),
    (6, 3, 2): (EXHAUSTED_NONE, 0, None),
}


class TestGolden:
    @pytest.mark.parametrize("n,k,a", list(GOLDEN))
    def test_tree_unchanged(self, n, k, a):
        r = exists_omnimosaic(n, k, a)
        entries = r.witness.entries if r.witness else None
        assert (r.status, r.nodes, entries) == GOLDEN[n, k, a]
        if r.witness:
            assert len(set(placement_codes(r.witness.to_rows(), k, a))) == a ** (k * k)

    def test_min_trace(self):
        trace = min_omnimosaic_n(2, 2)
        got = [(n, r.status, r.nodes, r.witness.entries) for n, r in trace]
        assert got == [(4,) + GOLDEN[4, 2, 2]]

    def test_open_instance_budget(self):
        r = exists_omnimosaic(5, 2, 3, budget=SearchBudget(max_nodes=8192))
        assert (r.status, r.nodes) == (BUDGET_EXCEEDED, 8304)


class TestCounting:
    @pytest.mark.parametrize(
        "n,k,a", [(1, 1, 2), (2, 1, 5), (3, 2, 2), (4, 2, 3), (6, 3, 2), (12, 2, 30000), (16, 1, 300)]
    )
    def test_settled_before_any_row(self, monkeypatch, n, k, a):
        assert math.comb(n, k) ** 2 < a ** (k * k)
        monkeypatch.setattr(search, "_Searcher", None)  # no searcher is built
        r = exists_omnimosaic(n, k, a)
        assert (r.status, r.nodes, r.witness) == (EXHAUSTED_NONE, 0, None)

    def test_rows_past_int64_refused_before_any_work(self, monkeypatch):
        monkeypatch.setattr(search, "_Searcher", None)
        for a in (16, 200, 256):  # a^16 >= 2^64, and n^2 = 256 >= a
            with pytest.raises(MosaicError, match="2\\^63"):
                exists_omnimosaic(16, 1, a)

    @pytest.mark.parametrize("n,a", [(2, 4), (3, 9), (4, 16)])
    def test_as_many_placements_as_targets_is_searched(self, n, a):
        # n^2 distinct letters make an n×n 1-omnimosaic
        r = exists_omnimosaic(n, 1, a)
        assert r.status == FOUND and sorted(r.witness.entries) == list(range(a))

    def test_largest_rows_searched(self):
        assert 15**16 < 2**63
        r = exists_omnimosaic(16, 1, 15, budget=SearchBudget(max_nodes=10))
        assert r.status == BUDGET_EXCEEDED


@pytest.mark.parametrize(
    "n,k,a,max_nodes",
    [(3, 1, 5, None), (5, 1, 4, None), (4, 2, 2, None), (5, 2, 3, 500), (7, 3, 2, 3000)],
)
def test_carried_coverage_matches_brute_force(monkeypatch, n, k, a, max_nodes):
    # (7,3,2): prefixes of up to 6 rows against 512 targets
    place = search._Searcher._place
    depths = []

    def checked(self, i, used, missing, count):
        if len(depths) < 40:
            rows = kernel.row_digits(self.rows[:i], n, a).tolist()
            assert count == self.total_targets - np.count_nonzero(missing)
            assert count == len(set(placement_codes(rows, k, a)))
            assert used == (max(map(max, rows)) + 1 if rows else 0)
            depths.append(i)
        return place(self, i, used, missing, count)

    monkeypatch.setattr(search._Searcher, "_place", checked)
    budget = SearchBudget(max_nodes=max_nodes) if max_nodes else None
    exists_omnimosaic(n, k, a, budget=budget)
    assert max(depths) >= min(n - 1, k + 1)  # prefixes past the first placements


def test_budget_checked_once_per_block_and_empty_blocks_skipped(monkeypatch):
    # (16,2,10): rows run to 10^16 values, and most blocks hold no admissible
    # row; _rows jumps past them, so none is yielded, every block yielded is
    # ticked, and the node count is the one a scan of every block reached
    rows, tick = search._Searcher._rows, search._Searcher._tick
    seen = {"blocks": 0, "empty": 0, "ticks": 0}

    def counted_rows(self, used):
        for found in rows(self, used):
            seen["blocks"] += 1
            seen["empty"] += not len(found[0])
            yield found

    def counted_tick(self, tried):
        seen["ticks"] += 1
        tick(self, tried)

    monkeypatch.setattr(search._Searcher, "_rows", counted_rows)
    monkeypatch.setattr(search._Searcher, "_tick", counted_tick)
    start = time.perf_counter()
    r = exists_omnimosaic(16, 2, 10, budget=SearchBudget(max_seconds=0.3))
    assert r.status == BUDGET_EXCEEDED
    assert time.perf_counter() - start < 1.5
    assert seen["ticks"] == seen["blocks"] and seen["empty"] == 0
    seen.update(blocks=0, ticks=0)
    r = exists_omnimosaic(16, 2, 10, budget=SearchBudget(max_nodes=3000))
    # a scan of every block took 33 717 blocks, 33 397 of them empty
    assert (r.status, r.nodes, seen["blocks"], seen["empty"]) == (BUDGET_EXCEEDED, 3009, 320, 0)
    assert seen["ticks"] == seen["blocks"]


def canonical_rows(n, a, used):
    """Independent oracle: {row value: letters in use after it} over the rows
    in which each letter is at most one past every letter before it."""
    rows = {}
    for value in range(a**n):
        top = used - 1
        for digit in kernel.row_digits(value, n, a).tolist():
            if digit > top + 1:
                break
            top = max(top, digit)
        else:
            rows[value] = top + 1
    return rows


def admitted_rows(searcher, used):
    """Every value _rows(used) yields, over all its blocks, with the letters
    in use once each is placed."""
    return {
        int(v): int(after)
        for values, _, afters in searcher._rows(used)
        for v, after in zip(values.tolist(), afters.tolist())
    }


@pytest.mark.parametrize("n,a", [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3), (4, 3)])
@pytest.mark.parametrize("block", [None, 2])
def test_rows_are_every_canonical_row(n, a, block):
    # no row order: the rows below a placed prefix depend only on its letters
    s = search._Searcher(n, min(n, 2), a, None)
    if block:
        s.block = block  # many blocks, most of them skipped
    for used in range(a + 1):
        assert admitted_rows(s, used) == canonical_rows(n, a, used)


def test_search_admits_every_canonical_omnimosaic():
    # brute force over all 2^16 (4,2,2) matrices, independent of the kernel
    bits = (np.arange(1 << 16)[:, None] >> np.arange(15, -1, -1)) & 1
    grids = bits.reshape(-1, 4, 4)
    covered = np.zeros(len(grids), dtype=np.int64)
    for r1, r2 in itertools.combinations(range(4), 2):
        for c1, c2 in itertools.combinations(range(4), 2):
            code = grids[:, [r1, r1, r2, r2], [c1, c2, c1, c2]] @ [8, 4, 2, 1]
            covered |= 1 << code
    omni = grids[covered == (1 << 16) - 1]
    canonical = omni[omni[:, 0, 0] == 0]  # at a = 2, letter-canonical is entry 0 being 0
    assert (len(omni), len(canonical)) == (1448, 724)
    s = search._Searcher(4, 2, 2, None)
    admitted = [admitted_rows(s, used) for used in range(3)]
    for grid in canonical:
        used = 0
        for row in grid.tolist():
            value = int("".join(map(str, row)), 2)
            assert value in admitted[used], grid
            used = admitted[used][value]


@pytest.mark.parametrize("n,a", [(1, 2), (3, 2), (4, 2), (2, 3), (3, 3), (3, 4), (2, 5)])
def test_next_canonical_is_the_least_admissible_value(n, a):
    for used in range(a + 1):
        admissible = sorted(canonical_rows(n, a, used))
        for value in range(a**n + 2):
            least = next((v for v in admissible if v >= value), None)
            assert search._next_canonical(value, used, n, a) == least


def test_kept_blocks_stay_under_their_byte_bound(monkeypatch):
    rows = search._Searcher._rows
    held = []

    def checked(self, used):
        for found in rows(self, used):
            size = sum(sum(x.nbytes for x in f) + search._ENTRY_BYTES for f in self.kept.values())
            assert size == self.kept_bytes <= search._TABLE_BYTES
            held.append(len(self.kept))
            yield found

    monkeypatch.setattr(search._Searcher, "_rows", checked)
    r = exists_omnimosaic(7, 2, 2)
    assert max(held) == 3  # one block for each count of letters used, 0 to 2
    held.clear()
    monkeypatch.setattr(search, "_TABLE_BYTES", 5_000)  # room for the first block only
    r = exists_omnimosaic(7, 2, 2)
    assert max(held) == 1
    assert (r.status, r.nodes, r.witness.entries) == GOLDEN[7, 2, 2]


def test_nothing_held_after_return(monkeypatch):
    init = search._Searcher.__init__
    refs = []

    def tracked(self, *args):
        init(self, *args)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(search._Searcher, "__init__", tracked)
    assert exists_omnimosaic(4, 2, 2).status == FOUND
    assert exists_omnimosaic(5, 2, 3, budget=SearchBudget(max_nodes=100)).status == BUDGET_EXCEEDED
    assert len(refs) == 2 and all(ref() is None for ref in refs)


@pytest.mark.parametrize("n,k,a", [key for key, value in GOLDEN.items() if value[0] == FOUND])
def test_letter_permutations_of_a_witness_stay_omni(n, k, a):
    # letter permutations are the group the search quotients by
    entries = GOLDEN[n, k, a][2]
    for perm in itertools.permutations(range(a)):
        image = MosaicMatrix(n, n, a, tuple(perm[e] for e in entries))
        assert is_omnimosaic(image, k).is_omni, perm


def test_some_row_permutation_of_a_witness_is_not_omni():
    # submatrix rows must increase, so rows are not a symmetry: 18 of the
    # 24 row orders of the (4,2,2) witness lose the property
    rows = MosaicMatrix(4, 4, 2, GOLDEN[4, 2, 2][2]).to_rows()
    lost = [
        perm
        for perm in itertools.permutations(range(4))
        if not is_omnimosaic(MosaicMatrix.from_rows([rows[p] for p in perm], 2), 2).is_omni
    ]
    assert lost


@pytest.mark.parametrize("n,k,a", [(3, 2, 2), (4, 2, 3), (6, 3, 2)])
def test_dfs_exhausts_where_counting_proves_none(monkeypatch, n, k, a):
    # counting already proves no O(n,k,a) exists; with that shortcut patched
    # out (the row guard kept), the DFS must agree on its own
    real = search.power_exceeds

    def row_guard_only(base, e, limit):
        return limit == search._ROW_LIMIT and real(base, e, limit)

    monkeypatch.setattr(search, "power_exceeds", row_guard_only)
    r = exists_omnimosaic(n, k, a)
    assert r.status == EXHAUSTED_NONE and r.witness is None and r.nodes > 0


def test_min_trace_steps_past_an_exhausted_size(monkeypatch):
    real = search.bounds.pigeonhole_min_n
    monkeypatch.setattr(search.bounds, "pigeonhole_min_n", lambda k, a: real(k, a) - 1)
    trace = min_omnimosaic_n(2, 2)
    assert [(n, r.status) for n, r in trace] == [(3, EXHAUSTED_NONE), (4, FOUND)]
    assert trace[-1][1].witness.entries == GOLDEN[4, 2, 2][2]
