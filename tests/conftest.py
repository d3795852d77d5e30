import itertools
import re

import numpy as np
import pytest
from hypothesis import strategies as st

from omnikit.core import MosaicMatrix, ParseError

# a known 4x4 binary omnimosaic: the omega(2,2)=4 witness
WITNESS_4X4 = MosaicMatrix.from_rows(
    [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 0], [0, 1, 1, 1]], a=2
)


def placement_codes(arr, k, a):
    """Codes of every k×k placement of arr (rows of letters), one placement at
    a time, with repeats: the row-major base-a number of the submatrix, most
    significant entry first, as ``core.encode_target`` defines it."""
    rows = np.asarray(arr).tolist()
    codes = []
    for r in itertools.combinations(range(len(rows)), k):
        for c in itertools.combinations(range(len(rows[0])), k):
            code = 0
            for i in r:
                for j in c:
                    code = code * a + rows[i][j]
            codes.append(code)
    return codes


def matrices(min_side=1, max_side=5, alphabets=(2, 3)):
    """Hypothesis strategy for small MosaicMatrix values."""

    @st.composite
    def build(draw):
        a = draw(st.sampled_from(list(alphabets)))
        rows = draw(st.integers(min_side, max_side))
        cols = draw(st.integers(min_side, max_side))
        entries = draw(
            st.lists(
                st.integers(0, a - 1), min_size=rows * cols, max_size=rows * cols
            )
        )
        return MosaicMatrix(rows, cols, a, tuple(entries))

    return build()


def v1_join(m):
    """The omnimosaic v1 text of m, one join a row: the reference for
    ``core.serialize_matrix``."""
    lines = ["omnimosaic v1", f"{m.rows} {m.cols} {m.a}"]
    lines += [" ".join(map(str, m.row(i))) for i in range(m.rows)]
    return "".join(line + "\n" for line in lines)


def v1_fields(text):
    """Read an omnimosaic v1 text one field at a time: the reference for
    ``core.parse_matrix``, raising the ParseError, line and message, that
    the README's format gives for the first fault."""
    lines = text.split("\n")
    if lines[0] != "omnimosaic v1":
        raise ParseError("expected header 'omnimosaic v1'", 1)
    if len(lines) < 2:
        raise ParseError("missing dimension line", 2)
    dims = lines[1].split()
    if len(dims) != 3:
        raise ParseError("dimension line must be '<rows> <cols> <a>'", 2)
    try:
        if not all(re.fullmatch("-?[0-9]+", field) for field in dims):
            raise ValueError
        rows, cols, a = map(int, dims)
    except ValueError:  # also past int()'s limit on digits
        raise ParseError("dimensions must be decimal integers", 2) from None
    if rows < 1 or cols < 1:
        raise ParseError("dimensions must be positive", 2)
    if a < 2:
        raise ParseError(f"alphabet size must be >= 2, got {a}", 2)
    entries = []
    for line in range(3, 3 + rows):
        if line > len(lines):
            raise ParseError(f"missing row {line - 2}", line)
        fields = lines[line - 1].split()
        if len(fields) != cols:
            raise ParseError(f"expected {cols} entries, got {len(fields)}", line)
        for field in fields:
            if not all(c in "0123456789" for c in field):
                raise ParseError(f"bad entry {field!r}", line)
            if int(field) >= a:
                raise ParseError(f"entry {int(field)} outside alphabet [0, {a})", line)
            entries.append(int(field))
    if lines[2 + rows :] != [""]:
        raise ParseError("expected single trailing newline after last row", 3 + rows)
    return MosaicMatrix(rows, cols, a, tuple(entries))


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)
