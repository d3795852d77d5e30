import math

import numpy as np
import pytest

from omnikit import bounds, construct
from omnikit.construct import (
    MAX_CELLS,
    H,
    V,
    GridDiagram,
    build_mosaic,
    canonical_grid,
    higher_dim_side_estimate,
    locate,
    square_omnimosaic,
    thin_strip,
)
from omnikit.core import MosaicError, MosaicMatrix, Placement, decode_target, encode_target
from omnikit.verify import is_omnimosaic, verify_placement


def random_grid(k, rng):
    cells = [["H" if rng.integers(2) else "V" for _ in range(k)] for _ in range(k)]
    return GridDiagram.from_rows(cells)


def locate_by_definition(grid, a, t):
    """The placement read off the grid alone: row region i takes the base-a
    value of t's entries at the H positions of grid row i, after the a^r
    rows of the regions above it; columns likewise with V positions."""
    k, rows = grid.k, t.to_rows()
    row_idx, col_idx, row_off, col_off = [], [], 0, 0
    for i in range(k):
        digits = [rows[i][j] for j in range(k) if grid.cells[i][j] == H]
        row_idx.append(row_off + sum(d * a ** (len(digits) - 1 - s) for s, d in enumerate(digits)))
        row_off += a ** len(digits)
    for j in range(k):
        digits = [rows[i][j] for i in range(k) if grid.cells[i][j] == V]
        col_idx.append(col_off + sum(d * a ** (len(digits) - 1 - s) for s, d in enumerate(digits)))
        col_off += a ** len(digits)
    return Placement(tuple(row_idx), tuple(col_idx))


class TestCanonicalGrid:
    def test_k2(self):
        g = canonical_grid(2)
        assert g.cells == (("H", "V"), ("V", "H"))
        assert g.row_counts() == (1, 1)
        assert g.col_counts() == (1, 1)

    def test_k3(self):
        g = canonical_grid(3)
        assert g.cells == (("H", "H", "V"), ("V", "V", "H"), ("V", "V", "H"))
        assert g.row_counts() == (2, 1, 1)
        assert g.col_counts() == (2, 2, 1)

    def test_k1(self):
        g = canonical_grid(1)
        assert g.row_counts()[0] + g.col_counts()[0] == 1

    @pytest.mark.parametrize("k", range(1, 10))
    def test_count_multisets(self, k):
        g = canonical_grid(k)
        lo, hi = k // 2, k - k // 2
        assert sorted(g.row_counts()) == [lo] * hi + [hi] * lo
        assert sorted(g.col_counts()) == [lo] * lo + [hi] * hi


class TestBuildMosaic:
    @pytest.mark.parametrize("k,a", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_canonical_outputs_are_omni(self, k, a):
        m, _ = build_mosaic(canonical_grid(k), a)
        r = is_omnimosaic(m, k)
        assert r.is_omni, r.missing_sample

    def test_dimensions_figure_case(self):
        m, _ = build_mosaic(canonical_grid(3), 2)
        assert (m.rows, m.cols) == (8, 10)

    def test_all_h_single_cell(self):
        grid = GridDiagram.from_rows([["H"]])
        m, _ = build_mosaic(grid, 3)
        assert m.to_rows() == [[0], [1], [2]]

    def test_random_grids_dims_and_locate(self, rng):
        for a in (2, 3):
            for k in range(1, 5):
                grids = [random_grid(k, rng) for _ in range(100)]
                grids += [GridDiagram.from_rows([[c] * k] * k) for c in (H, V)]
                # grid row 0 with no H cell, then grid column k-1 with no V cell
                cells = [random_grid(k, rng).cells for _ in range(10)]
                grids += [GridDiagram.from_rows([(V,) * k] + list(c[1:])) for c in cells[:5]]
                grids += [GridDiagram.from_rows([r[:-1] + (H,) for r in c]) for c in cells[5:]]
                for grid in grids:
                    m, rm = build_mosaic(grid, a)
                    assert m.rows == sum(a**r for r in grid.row_counts())
                    assert m.cols == sum(a**c for c in grid.col_counts())
                    for _ in range(10):
                        code = int(rng.integers(a ** (k * k)))
                        t = decode_target(code, k, a)
                        p = locate(rm, grid, t)
                        assert p == locate_by_definition(grid, a, t)
                        assert verify_placement(m, p, t)


class TestThinStrip:
    def test_shape_and_words_k2_a2(self):
        m = thin_strip(2, 2)
        assert (m.rows, m.cols) == (8, 2)
        assert m.to_rows() == [[0, 0], [0, 1], [1, 0], [1, 1]] * 2

    def test_k1_a2(self):
        assert thin_strip(1, 2).to_rows() == [[0], [1]]

    def test_k2_a3_shape(self):
        m = thin_strip(2, 3)
        assert (m.rows, m.cols) == (18, 2)
        words = [tuple(r) for r in m.to_rows()]
        assert all(words.count(w) == 2 for w in set(words))
        assert len(set(words)) == 9

    @pytest.mark.parametrize("k,a", [(1, 2), (2, 2), (2, 3), (3, 2)])
    def test_is_omni(self, k, a):
        assert is_omnimosaic(thin_strip(k, a), k).is_omni


class TestSquareOmnimosaic:
    @pytest.mark.parametrize(
        "k,a,n", [(2, 3, 6), (3, 2, 10), (2, 2, 4)]
    )
    def test_known_sides(self, k, a, n):
        m = square_omnimosaic(k, a)
        assert (m.rows, m.cols) == (n, n)

    def test_side_formula(self):
        for k in range(1, 9):
            for a in range(2, 5):
                lo, hi = k // 2, k - k // 2
                assert bounds.construction_upper(k, a) == hi * a**hi + lo * a**lo

    @pytest.mark.parametrize("k,a", [(2, 2), (2, 3), (3, 2)])
    def test_padded_is_omni(self, k, a):
        assert is_omnimosaic(square_omnimosaic(k, a), k).is_omni


class TestLocate:
    def test_all_zero_target_first_rows(self):
        grid = canonical_grid(2)
        m, rm = build_mosaic(grid, 2)
        p = locate(rm, grid, decode_target(0, 2, 2))
        assert p.row_idx == (rm.row_offsets[0], rm.row_offsets[1])
        assert p.col_idx == (rm.col_offsets[0], rm.col_offsets[1])

    def test_exhaustive_k2_a2(self):
        grid = canonical_grid(2)
        m, rm = build_mosaic(grid, 2)
        for code in range(16):
            t = decode_target(code, 2, 2)
            assert verify_placement(m, locate(rm, grid, t), t)

    def test_idempotence_on_readback(self):
        grid = canonical_grid(3)
        m, rm = build_mosaic(grid, 2)
        t = decode_target(0b101_010_110, 3, 2)
        p = locate(rm, grid, t)
        readback = m.submatrix(p.row_idx, p.col_idx)
        assert locate(rm, grid, readback) == p

    @pytest.mark.parametrize("k,a", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
    def test_locate_every_target_by_definition(self, k, a):
        grid = canonical_grid(k)
        _, rm = build_mosaic(grid, a)
        for code in range(a ** (k * k)):
            t = decode_target(code, k, a)
            assert locate(rm, grid, t) == locate_by_definition(grid, a, t)

    def test_placements_share_index_tuples(self):
        # (3,3): 4 H cells and 5 V cells, so 3^4 row and 3^5 column choices
        grid = canonical_grid(3)
        _, rm = build_mosaic(grid, 3)
        placements = [locate(rm, grid, decode_target(c, 3, 3)) for c in range(3**9)]
        assert len({id(p.row_idx) for p in placements}) == 3**4
        assert len({id(p.col_idx) for p in placements}) == 3**5

    def test_equal_h_entries_share_the_row_tuple(self):
        grid = canonical_grid(3)
        _, rm = build_mosaic(grid, 2)
        h = [i * 3 + j for i, cols in enumerate(grid.h_columns) for j in cols]
        t = decode_target(300, 3, 2)
        flipped = [1 - e if x not in h else e for x, e in enumerate(t.entries)]
        u = MosaicMatrix(3, 3, 2, tuple(flipped))
        p, q = locate(rm, grid, t), locate(rm, grid, u)
        assert p.row_idx is q.row_idx
        assert p.col_idx != q.col_idx

    def test_memo_holds_only_the_choices_seen(self, rng):
        grid = canonical_grid(4)
        _, rm = build_mosaic(grid, 2)
        (_, row_memo), (_, col_memo) = rm._sides
        rows, cols = set(), set()
        for code in rng.integers(2**16, size=300).tolist():
            p = locate(rm, grid, decode_target(code, 4, 2))
            rows.add(p.row_idx)
            cols.add(p.col_idx)
            assert (len(row_memo), len(col_memo)) == (len(rows), len(cols))

    def test_alphabet_mismatch(self):
        grid = canonical_grid(2)
        _, rm = build_mosaic(grid, 2)
        with pytest.raises(MosaicError):
            locate(rm, grid, decode_target(0, 2, 3))

    def test_refuses_a_grid_that_is_not_the_maps(self):
        grid = canonical_grid(3)
        m, rm = build_mosaic(grid, 2)
        t = decode_target(300, 3, 2)
        assert locate(rm, grid, t) == Placement((2, 5, 6), (3, 4, 8))
        all_h = GridDiagram.from_rows([["H"] * 3] * 3)
        with pytest.raises(MosaicError, match="does not match the region map"):
            locate(rm, all_h, t)
        # an equal grid built anew is the map's grid
        assert locate(rm, canonical_grid(3), t) == Placement((2, 5, 6), (3, 4, 8))

    def test_grid_derives_h_columns_and_v_rows_once(self):
        grid = GridDiagram.from_rows([["H", "V"], ["V", "V"]])
        assert grid.h_columns == ((0,), ())
        assert grid.v_rows == ((1,), (0, 1))
        assert grid.h_columns is grid.h_columns
        _, rm = build_mosaic(grid, 2)
        assert (rm.h_columns, rm.v_rows) == (grid.h_columns, grid.v_rows)

    @pytest.mark.parametrize("k,a", [(2, 2), (2, 3), (3, 2)])
    def test_certificate_path_every_target(self, k, a):
        """decode_target -> locate -> verify_placement against encode_target
        and numpy indexing, for every target."""
        grid = canonical_grid(k)
        m, rm = build_mosaic(grid, a)
        arr = m.to_numpy()
        total = a ** (k * k)
        weights = a ** np.arange(k * k - 1, -1, -1)
        for code in range(total):
            t = decode_target(code, k, a)
            assert encode_target(t) == code
            assert t.entries == tuple(((code // weights) % a).tolist())
            p = locate(rm, grid, t)
            assert arr[np.ix_(p.row_idx, p.col_idx)].ravel().tolist() == list(t.entries)
            assert verify_placement(m, p, t)
            assert not verify_placement(m, p, decode_target((code + 1) % total, k, a))


class TestSizeGuard:
    def test_cell_guard_fires_before_allocation(self, monkeypatch):
        # each side of the k = 40 construction is under MAX_CELLS, their product is not
        grid = canonical_grid(40)

        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before the size guard")

        monkeypatch.setattr(np, "zeros", no_alloc)
        with pytest.raises(MosaicError, match="exceeds"):
            build_mosaic(grid, 2)
        with pytest.raises(MosaicError, match="exceeds"):
            square_omnimosaic(40, 2)

    @pytest.mark.parametrize("k,a", [(30000, 2), (3, 64)])
    def test_square_guard_fires_before_the_grid(self, monkeypatch, k, a):
        # (30000, 2): 9e8 grid cells; (3, 64): the 4224x8256 mosaic fits
        # MAX_CELLS, its 8256x8256 padded square does not
        def no_alloc(*args, **kwargs):
            raise AssertionError("built before the size guard")

        monkeypatch.setattr(np, "zeros", no_alloc)
        monkeypatch.setattr(construct, "canonical_grid", no_alloc)
        with pytest.raises(MosaicError, match="exceeds"):
            square_omnimosaic(k, a)

    def test_strip_guard_counts_cells(self, monkeypatch):
        monkeypatch.setattr(np, "arange", None)  # the guard runs before any array
        with pytest.raises(MosaicError, match="too large"):
            thin_strip(20, 2)  # 2^20 * 20 rows of 20 cells

    def test_largest_benchmark_size_passes(self):
        assert bounds.construction_upper(8, 3) ** 2 <= MAX_CELLS


class TestPadding:
    def test_appending_preserves_omni(self, rng):
        m = square_omnimosaic(2, 2)
        arr = m.to_numpy()
        extra_rows = rng.integers(0, 2, size=(3, arr.shape[1]))
        extra_cols = rng.integers(0, 2, size=(arr.shape[0] + 3, 2))
        padded = np.hstack([np.vstack([arr, extra_rows]), extra_cols])
        assert is_omnimosaic(MosaicMatrix.from_numpy(padded, 2), 2).is_omni


class TestHigherDim:
    def test_d2_reduces(self):
        assert higher_dim_side_estimate(3, 2, 2) == pytest.approx(3 * 2**1.5)

    def test_d3_example(self):
        assert higher_dim_side_estimate(2, 2, 3) == pytest.approx(2 * 2 ** (4 / 3))

    def test_rejects_d1(self):
        with pytest.raises(MosaicError):
            higher_dim_side_estimate(2, 2, 1)

    def test_overflow_is_refused(self):
        # 10^(100^2/3) is past any float, and so is 2^(10^12 - 1), which is
        # not built as an int
        for k, a, d in [(100, 10, 3), (2, 2, 10**12)]:
            with pytest.raises(MosaicError, match="overflows a float"):
                higher_dim_side_estimate(k, a, d)
