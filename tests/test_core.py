import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnikit.core import (
    MosaicError,
    MosaicMatrix,
    ParseError,
    decode_target,
    check_sizes,
    encode_target,
    parse_matrix,
    serialize_matrix,
    symmetries,
)
from omnikit import kernel
from omnikit.experiments import exact_enumeration
from conftest import WITNESS_4X4, matrices


def M(rows, a=2):
    return MosaicMatrix.from_rows(rows, a)


class TestCheckSizes:
    @pytest.mark.parametrize("name,value", [("n", 0), ("k", 0), ("k", -1), ("a", 1), ("a", -2)])
    def test_rejects(self, name, value):
        with pytest.raises(MosaicError, match=f"^{name} must be >= "):
            check_sizes(**{name: value})

    def test_accepts_smallest_and_omitted(self):
        check_sizes(1, 1, 2)
        check_sizes()


class TestEncodeDecode:
    def test_all_zero(self):
        assert encode_target(M([[0, 0], [0, 0]])) == 0

    def test_all_ones(self):
        assert encode_target(M([[1, 1], [1, 1]])) == 15

    def test_antidiagonal(self):
        t = M([[0, 1], [1, 0]])
        assert encode_target(t) == 6
        assert decode_target(6, 2, 2) == t

    def test_decode_examples(self):
        assert decode_target(0, 2, 2) == M([[0, 0], [0, 0]])
        assert decode_target(15, 2, 2) == M([[1, 1], [1, 1]])

    def test_decode_out_of_range(self):
        with pytest.raises(MosaicError):
            decode_target(16, 2, 2)

    def test_overflow_guard(self):
        with pytest.raises(MosaicError, match="too large"):
            encode_target(MosaicMatrix(8, 8, 36, tuple([0] * 64)))

    @pytest.mark.parametrize("k,a", [(2, 2), (2, 3), (1, 7), (2, 16)])
    def test_roundtrip_exhaustive(self, k, a):
        # every code, whenever the space fits 2^16
        assert a ** (k * k) <= 2**16
        for code in range(a ** (k * k)):
            assert encode_target(decode_target(code, k, a)) == code

    def test_roundtrip_random_large_space(self, rng):
        k, a = 3, 4  # 4^9 codes, too many to enumerate here
        size = a ** (k * k)
        for code in rng.integers(0, size, size=10_000):
            assert encode_target(decode_target(int(code), k, a)) == int(code)


class TestSymmetry:
    @given(matrices())
    @settings(max_examples=60)
    def test_group_order_with_m_first(self, m):
        images = list(symmetries(m))
        assert len(images) == 8 * math.factorial(m.a)
        assert images[0] == m

    @pytest.mark.parametrize(
        "m", [WITNESS_4X4, M([[0, 0, 0], [0, 0, 0], [0, 1, 2]], a=3)]
    )
    def test_trivial_stabilizer_gives_distinct_images(self, m):
        assert len(set(symmetries(m))) == 8 * math.factorial(m.a)

    @given(matrices(), st.data())
    @settings(max_examples=60)
    def test_images_share_one_orbit(self, m, data):
        # closure: an image's images are m's images again
        image = data.draw(st.sampled_from(list(symmetries(m))))
        assert set(symmetries(image)) == set(symmetries(m))

    def test_reversals(self):
        m = MosaicMatrix.from_rows([[0, 1, 2], [3, 4, 5]], a=6)
        images = [img.to_rows() for img in itertools.islice(symmetries(m), 1, 4)]
        assert images == [
            [[3, 4, 5], [0, 1, 2]],
            [[2, 1, 0], [5, 4, 3]],
            [[5, 4, 3], [2, 1, 0]],
        ]

    def test_transpose(self):
        m = MosaicMatrix.from_rows([[0, 1], [2, 3]], a=4)
        assert list(symmetries(m))[4].to_rows() == [[0, 2], [1, 3]]

    def test_letter_swap(self):
        m = M([[0, 1], [1, 0]])
        assert list(symmetries(m))[8].to_rows() == [[1, 0], [0, 1]]

    def test_burnside_at_4_2_2(self):
        # omni 4x4 binary matrices, read off the enumeration kernel: the
        # group maps the set to itself, and counting orbits directly and by
        # Burnside's lemma agree, which a missing or repeated element breaks
        n, k, a = 4, 2, 2
        full = (1 << a ** (k * k)) - 1
        omni, lo = set(), 0
        for block in kernel.enumerate_coverage(n, k, a):
            values = np.argwhere(block == full)  # [matrix, row]: row values
            values[:, 0] += lo
            omni.update(MosaicMatrix.from_numpy(kernel.row_digits(v, n, a), a) for v in values)
            lo += len(block)
        assert len(omni) == 1448 == exact_enumeration(n, k, a).p_omni_exact * a ** (n * n)
        fixed = [0] * (8 * math.factorial(a))
        orbits, seen = 0, set()
        for m in omni:
            images = list(symmetries(m))
            assert omni.issuperset(images)
            fixed = [f + (image == m) for f, image in zip(fixed, images)]
            if m not in seen:
                orbits += 1
                seen.update(images)
        assert orbits == 99
        assert Fraction(sum(fixed), len(fixed)) == 99


class TestFormat:
    def test_parse_basic(self):
        m = parse_matrix("omnimosaic v1\n2 2 2\n0 1\n1 0\n")
        assert m == M([[0, 1], [1, 0]])

    def test_entry_out_of_alphabet(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_matrix("omnimosaic v1\n2 2 2\n0 2\n1 0\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_matrix("mosaic v2\n2 2 2\n0 1\n1 0\n")

    def test_ragged_row(self):
        with pytest.raises(ParseError, match="line 4"):
            parse_matrix("omnimosaic v1\n2 2 2\n0 1\n1\n")

    def test_missing_trailing_newline(self):
        with pytest.raises(ParseError):
            parse_matrix("omnimosaic v1\n2 2 2\n0 1\n1 0")

    def test_unary_alphabet_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_matrix("omnimosaic v1\n1 1 1\n0\n")

    def test_witness_matrix_roundtrip(self):
        assert parse_matrix(serialize_matrix(WITNESS_4X4)) == WITNESS_4X4

    @given(matrices(alphabets=(2, 3, 5, 36)))
    @settings(max_examples=80)
    def test_roundtrip(self, m):
        assert parse_matrix(serialize_matrix(m)) == m


class TestMatrixBasics:
    def test_entry_validation(self):
        with pytest.raises(MosaicError):
            MosaicMatrix(1, 2, 2, (0, 2))

    def test_length_validation(self):
        with pytest.raises(MosaicError):
            MosaicMatrix(2, 2, 2, (0, 1, 0))

    def test_submatrix(self):
        m = MosaicMatrix.from_rows([[0, 1, 2], [3, 4, 5], [6, 7, 8]], a=9)
        assert m.submatrix([0, 2], [1, 2]).to_rows() == [[1, 2], [7, 8]]


class TestLetterRange:
    """Entries of -1 and of a are rejected on every way into a matrix."""

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_constructor_names_first_bad_entry(self, bad):
        with pytest.raises(MosaicError, match=rf"^entry {bad} outside alphabet \[0, 3\)$"):
            MosaicMatrix(2, 2, 3, (0, bad, 2, 1))
        other = 3 if bad == -1 else -1
        with pytest.raises(MosaicError, match=rf"^entry {bad} outside"):
            MosaicMatrix(1, 3, 3, (bad, other, 0))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, bool])
    def test_from_numpy_gives_int_entries(self, dtype):
        arr = np.array([[0, 1], [1, 0]], dtype=dtype)
        m = MosaicMatrix.from_numpy(arr, 2)
        assert m.entries == (0, 1, 1, 0)
        assert all(type(e) is int for e in m.entries)

    @pytest.mark.parametrize(
        "dtype,bad", [(np.int64, -1), (np.int64, 3), (np.uint8, 3)]
    )
    def test_from_numpy_rejects(self, dtype, bad):
        arr = np.array([[0, 1, 2], [bad, 0, 1]], dtype=dtype)
        with pytest.raises(MosaicError, match=rf"^entry {bad} outside alphabet \[0, 3\)$"):
            MosaicMatrix.from_numpy(arr, 3)

    @pytest.mark.parametrize("bad", ["-1", "3"])
    def test_parse_names_line_and_entry(self, bad):
        text = f"omnimosaic v1\n3 3 3\n0 1 2\n2 1 0\n0 {bad} x\n"
        with pytest.raises(ParseError) as exc:
            parse_matrix(text)
        assert exc.value.line == 5
        assert str(exc.value) == f"line 5: entry {bad} outside alphabet [0, 3)"

    def test_parse_bad_field_before_range(self):
        with pytest.raises(ParseError, match=r"^line 4: bad entry 'x'$"):
            parse_matrix("omnimosaic v1\n2 3 3\n0 1 2\n1 x 9\n")

    def test_parse_same_spelling_on_a_later_line(self):
        # a spelling seen valid on one line stays valid; a bad one fails anew
        m = parse_matrix("omnimosaic v1\n3 2 3\n+1 01\n+1 2\n01 0\n")
        assert m.entries == (1, 1, 1, 2, 1, 0)
        with pytest.raises(ParseError, match="^line 5: entry 7"):
            parse_matrix("omnimosaic v1\n3 2 3\n0 1\n1 2\n2 7\n")


class TestToNumpy:
    def test_read_only_and_cached(self):
        m = MosaicMatrix.from_rows([[0, 1, 2], [2, 1, 0]], a=3)
        arr = m.to_numpy()
        assert arr.dtype == np.int64 and arr.shape == (2, 3)
        assert not arr.flags.writeable
        assert m.to_numpy() is arr
        with pytest.raises(ValueError):
            arr[0, 0] = 1

    def test_copy_mutation_leaves_matrix(self):
        m = MosaicMatrix.from_rows([[0, 1, 2], [2, 1, 0]], a=3)
        copy = m.to_numpy().copy()
        copy[:] = 0
        assert m.entries == (0, 1, 2, 2, 1, 0)
        assert m.to_numpy().tolist() == [[0, 1, 2], [2, 1, 0]]
        assert m == MosaicMatrix.from_rows([[0, 1, 2], [2, 1, 0]], a=3)
