import itertools
import math
import re
import tracemalloc
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
from conftest import WITNESS_4X4, matrices, v1_fields, v1_join


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

    @pytest.mark.parametrize("k,a", [(1, 2), (3, 3), (4, 2), (7, 2), (2, 1000), (1, 2**31)])
    def test_roundtrip_at_chunk_boundaries(self, rng, k, a):
        # digit tables for a <= 2^8 (chunks of 8, 5+4, 8+8 and 7 x 7 digits),
        # the digit loop above; each code is checked against its base-a digits
        size = a ** (k * k)
        codes = {0, size - 1} | {int(c) for c in rng.integers(0, size, size=200, dtype=np.uint64)}
        for p in range(1, k * k):
            codes |= {a**p - 1, a**p, a**p + 1}
        for code in sorted(codes):
            t = decode_target(code, k, a)
            assert t.entries == tuple(code // a**p % a for p in range(k * k - 1, -1, -1))
            assert encode_target(t) == code
        if (k, a) == (7, 2):
            assert decode_target(2**49 - 1, 7, 2).entries == (1,) * 49


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
        # omni 4x4 binary matrices, read off the enumeration kernel, which
        # gives those with entry (0, 0) = 0, closed under the letter swap: the
        # group maps the set to itself, and counting orbits directly and by
        # Burnside's lemma agree, which a missing or repeated element breaks
        n, k, a = 4, 2, 2
        full = (1 << a ** (k * k)) - 1
        omni, lo = set(), 0
        for block in kernel.enumerate_coverage(n, k, a, range(a ** (k * k))):
            values = np.argwhere(block == full)  # [matrix, row]: row values
            values[:, 0] += lo
            for v in values:
                digits = kernel.row_digits(v, n, a)
                assert digits[0, 0] == 0
                omni.update(MosaicMatrix.from_numpy(d, a) for d in (digits, 1 - digits))
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


def _outcome(read, text):
    try:
        return read(text)
    except ParseError as exc:
        return exc.line, str(exc)


@st.composite
def _v1_matrices(draw):
    """Matrices of shape 1x1, 1xc, rx1 or rxc at a = 2..12, both sides of
    the one-digit letters that serialize_matrix writes in bulk."""
    a = draw(st.integers(2, 12))
    r, c = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    rows, cols = draw(st.sampled_from([(1, 1), (1, c), (r, 1), (r, c)]))
    letters = st.lists(st.integers(0, a - 1), min_size=rows * cols, max_size=rows * cols)
    return MosaicMatrix(rows, cols, a, tuple(draw(letters)))


@st.composite
def _perturbed_v1(draw):
    """A v1 text with one fault or one accepted variant at a drawn place."""
    m = draw(_v1_matrices())
    text = v1_join(m)
    start = len(text) - 2 * m.rows * m.cols  # where row 1 starts
    i, j = draw(st.integers(0, m.rows - 1)), draw(st.integers(0, m.cols - 1))
    at = start + 2 * (i * m.cols + j)  # the letter (i, j); its separator follows
    end = start + 2 * (i + 1) * m.cols - 1  # the "\n" of row i
    kind = draw(st.sampled_from([
        "tab", "double space", "other separator", "leading zero", "short row", "long row",
        "letter a", "no trailing newline", "extra newline", "non-ASCII", "blank line",
    ]))
    if kind == "tab":  # in place of a space or a "\n"
        return text[: at + 1] + "\t" + text[at + 2 :]
    if kind == "double space":
        return text[: at + 1] + " " + text[at + 1 :]
    if kind == "other separator":  # same length: "0 1" becomes "001" or "0,1"
        return text[: at + 1] + draw(st.sampled_from("0,x")) + text[at + 2 :]
    if kind == "leading zero":
        return text[:at] + "0" + text[at:]
    if kind == "short row":  # drop letter (i, j) and a separator beside it, if it has one
        cut, to = (at, at + 2) if j < m.cols - 1 else (at - (j > 0), at + 1)
        return text[:cut] + text[to:]
    if kind == "long row":
        return text[:end] + f" {draw(st.integers(0, m.a - 1))}" + text[end:]
    if kind == "letter a":
        return text[:at] + str(m.a) + text[at + 1 :]
    if kind == "no trailing newline":
        return text[:-1]
    if kind == "extra newline":
        return text + "\n"
    if kind == "non-ASCII":  # a letter or a separator: a fullwidth or Arabic-Indic digit, Unicode spaces
        place = at + draw(st.integers(0, 1))
        return text[:place] + draw(st.sampled_from("\u00e9\uff10\u0663\u00a0\u2003")) + text[place + 1 :]
    line = start + 2 * m.cols * draw(st.integers(0, m.rows))  # blank line: before a row or at the end
    return text[:line] + "\n" + text[line:]


class TestBulkText:
    """serialize_matrix and parse_matrix take one byte buffer at a <= 10 and
    one field at a time otherwise; both agree with the references in
    conftest."""

    @given(_v1_matrices())
    @settings(max_examples=150)
    def test_serialize_and_parse_match_the_references(self, m):
        text = serialize_matrix(m)
        assert text == v1_join(m)
        assert parse_matrix(text) == m

    @given(_perturbed_v1())
    @settings(max_examples=600)
    def test_perturbed_texts_read_as_field_by_field(self, text):
        assert _outcome(parse_matrix, text) == _outcome(v1_fields, text)

    @pytest.mark.parametrize("field", ["0_0", "+1", "-0", "\uff10", "\u0661"])
    def test_refuses_spellings_only_int_takes(self, field):
        text = f"omnimosaic v1\n2 2 2\n0 1\n1 {field}\n"
        with pytest.raises(ParseError, match=rf"^line 4: bad entry {re.escape(repr(field))}$"):
            parse_matrix(text)

    @pytest.mark.parametrize("dims,message", [
        ("+1 1_0 \uff12", "dimensions must be decimal integers"),
        ("2 +2 2", "dimensions must be decimal integers"),
        ("2 2 \u0663", "dimensions must be decimal integers"),
        ("--1 2 2", "dimensions must be decimal integers"),
        ("- 2 2", "dimensions must be decimal integers"),
        ("-1 2 2", "dimensions must be positive"),
        ("2 -0 2", "dimensions must be positive"),
        ("2 2 -3", "alphabet size must be >= 2, got -3"),
    ])
    def test_dimension_spellings(self, dims, message):
        text = f"omnimosaic v1\n{dims}\n" + "0 1 0 1 0 1 0 1 0 1\n"
        with pytest.raises(ParseError, match=rf"^line 2: {re.escape(message)}$"):
            parse_matrix(text)
        with pytest.raises(ParseError, match=rf"^line 2: {re.escape(message)}$"):
            v1_fields(text)
        assert parse_matrix("omnimosaic v1\n01 002 2\n0 1\n").entries == (0, 1)

    @pytest.mark.parametrize("entries", [(True, 1, 0), (1, True, 0)])
    def test_bool_entries_are_written_as_ints(self, entries):
        m = MosaicMatrix(1, 3, 11, entries)
        text = serialize_matrix(m)
        assert text.endswith("\n1 1 0\n")
        assert parse_matrix(text) == MosaicMatrix(1, 3, 11, (1, 1, 0))

    def test_leading_zeros_stay_letters(self):
        assert parse_matrix("omnimosaic v1\n1 3 3\n00 01 0002\n").entries == (0, 1, 2)

    def test_memory_stays_under_the_field_by_field_peaks(self):
        # tracemalloc peaks of the one-call-a-cell writer and reader on this
        # 1024x1024 binary matrix (Python 3.11.7, numpy 2.4.6): the byte
        # buffer may hold no more
        m = MosaicMatrix.from_numpy(np.random.default_rng(0).integers(0, 2, size=(1024, 1024)), 2)

        def peak(call, arg):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = call(arg)
            return out, tracemalloc.get_traced_memory()[1] - before

        tracemalloc.start()
        try:
            text, written = peak(serialize_matrix, m)
            read, parsed = peak(parse_matrix, text)
        finally:
            tracemalloc.stop()
        assert read == m
        assert written <= 6_349_813
        assert parsed <= 21_100_001


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
    """Entries of -1 and of a, and entries that are not integers, are rejected
    on every way into a matrix."""

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_constructor_names_first_bad_entry(self, bad):
        with pytest.raises(MosaicError, match=rf"^entry {bad} outside alphabet \[0, 3\)$"):
            MosaicMatrix(2, 2, 3, (0, bad, 2, 1))
        other = 3 if bad == -1 else -1
        with pytest.raises(MosaicError, match=rf"^entry {bad} outside"):
            MosaicMatrix(1, 3, 3, (bad, other, 0))

    @pytest.mark.parametrize("entries", [(0, 0.5, 1, 0), (0, 1.0, 1, 0), (0, "1", 1, 0), (0, None, 1, 0)])
    def test_refuses_entries_that_are_not_integers(self, entries):
        with pytest.raises(MosaicError, match="^matrix entries must be integers$"):
            MosaicMatrix(2, 2, 3, entries)
        with pytest.raises(MosaicError, match="^matrix entries must be integers$"):
            MosaicMatrix.from_rows([entries[:2], entries[2:]], 3)

    def test_from_rows_takes_integer_types(self):
        m = M([[np.int64(1), np.uint8(0)], [True, 1]])
        assert m.entries == (1, 0, 1, 1)
        assert all(type(e) is int for e in m.entries)

    def test_alphabets_past_one_byte(self):
        # entries past 255 leave the one-pass byte check for min and max
        assert MosaicMatrix(1, 3, 300, (299, 0, 256)).entries == (299, 0, 256)
        assert MosaicMatrix(1, 1, 2**31, (2**31 - 1,)).entries == (2**31 - 1,)
        for bad, entries in [(300, (299, 300, 5)), (-1, (299, -1, 300)), (300, (300, 0, -1))]:
            with pytest.raises(MosaicError, match=rf"^entry {bad} outside alphabet \[0, 300\)$"):
                MosaicMatrix(1, 3, 300, entries)
        with pytest.raises(MosaicError, match=rf"^entry 300 outside alphabet \[0, 256\)$"):
            MosaicMatrix(1, 3, 256, (255, 300, 0))
        with pytest.raises(MosaicError, match="^matrix entries must be integers$"):
            MosaicMatrix(1, 3, 300, (299, 256, 0.5))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, bool])
    def test_from_numpy_gives_int_entries(self, dtype):
        arr = np.array([[0, 1], [1, 0]], dtype=dtype)
        m = MosaicMatrix.from_numpy(arr, 2)
        assert m.entries == (0, 1, 1, 0)
        assert all(type(e) is int for e in m.entries)

    @pytest.mark.parametrize(
        "dtype,bad",
        [(np.int64, -1), (np.int64, 3), (np.uint8, 3), (np.float64, 0.5), (np.float64, 1.0)],
    )
    def test_from_numpy_rejects(self, dtype, bad):
        # a float entry is refused, not truncated, even when it is integral
        arr = np.array([[0, 1, 2], [bad, 0, 1]], dtype=dtype)
        if dtype is np.float64:
            message = "matrix entries must be integers"
        else:
            message = rf"entry {bad} outside alphabet \[0, 3\)"
        with pytest.raises(MosaicError, match=f"^{message}$"):
            MosaicMatrix.from_numpy(arr, 3)

    @pytest.mark.parametrize("bad", ["-1", "3"])
    def test_parse_names_line_and_entry(self, bad):
        text = f"omnimosaic v1\n3 3 3\n0 1 2\n2 1 0\n0 {bad} x\n"
        with pytest.raises(ParseError) as exc:
            parse_matrix(text)
        assert exc.value.line == 5
        # "-1" is no digit string; "3" is one, past the alphabet
        message = "bad entry '-1'" if bad == "-1" else "entry 3 outside alphabet [0, 3)"
        assert str(exc.value) == f"line 5: {message}"

    def test_parse_bad_field_before_range(self):
        with pytest.raises(ParseError, match=r"^line 4: bad entry 'x'$"):
            parse_matrix("omnimosaic v1\n2 3 3\n0 1 2\n1 x 9\n")

    def test_parse_same_spelling_on_a_later_line(self):
        # a spelling seen valid on one line stays valid; a bad one fails anew
        m = parse_matrix("omnimosaic v1\n3 2 3\n001 01\n001 2\n01 0\n")
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
