import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from omnikit.core import MosaicMatrix

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


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)
