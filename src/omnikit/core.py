"""Domain types shared by every module: size checks, matrices, target codes,
the symmetry group of the omni property and the on-disk v1 matrix format.

Letters are 0-based internally ({0, ..., a-1}); any 1-based display is a
presentation concern only.  All types are immutable and safe to share.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

MAX_TARGET_SPACE = 2**63
LETTERS = bytes(range(256))  # LETTERS[:a]: the letters of an alphabet a <= 2^8


class MosaicError(ValueError):
    """Invalid matrix, alphabet or operation arguments."""


class ParseError(MosaicError):
    """Malformed matrix file; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def check_sizes(n: int | None = None, k: int | None = None, a: int | None = None) -> None:
    """Raise MosaicError unless each size given is valid: n >= 1, k >= 1, a >= 2."""
    for name, value, least in (("n", n, 1), ("k", k, 1), ("a", a, 2)):
        if value is not None and value < least:
            raise MosaicError(f"{name} must be >= {least}, got {value}")


def power_exceeds(a: int, e: int, limit: int) -> bool:
    """Whether a**e > limit, for a, e >= 0; a**e is built only when it has at
    most about twice limit's bits, so a size check costs nothing however
    large the size it refuses."""
    if e * (a.bit_length() - 1) > limit.bit_length():
        return True  # a**e >= 2**(e * (bits(a) - 1)) > limit
    return a**e > limit


@dataclass(frozen=True)
class MosaicMatrix:
    """Dense rectangular matrix over letters [0, a)."""

    rows: int
    cols: int
    a: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise MosaicError("matrix dimensions must be positive")
        if self.a < 2:
            raise MosaicError(f"alphabet size must be >= 2, got {self.a}")
        if len(self.entries) != self.rows * self.cols:
            raise MosaicError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        # one C pass: the entries as bytes, less every letter, are empty
        try:
            try:
                bad = bytes(self.entries).translate(None, LETTERS[: self.a])
            except ValueError:  # an entry outside [0, 256): a letter only if a > 256
                lo = min(map(operator.index, self.entries))
                bad = self.a <= 256 or lo < 0 or max(self.entries) >= self.a
        except TypeError:
            raise MosaicError("matrix entries must be integers") from None
        if bad:
            first = next(e for e in self.entries if not 0 <= e < self.a)
            raise MosaicError(f"entry {first} outside alphabet [0, {self.a})")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], a: int) -> "MosaicMatrix":
        c = len(rows[0]) if len(rows) else 0
        if any(len(row) != c for row in rows):
            raise MosaicError("ragged rows")
        try:
            entries = tuple(map(operator.index, itertools.chain.from_iterable(rows)))
        except TypeError:
            raise MosaicError("matrix entries must be integers") from None
        return cls(len(rows), c, a, entries)

    @classmethod
    def from_numpy(cls, arr: np.ndarray, a: int) -> "MosaicMatrix":
        arr = np.asarray(arr)
        if arr.dtype == bool:
            arr = arr.view(np.uint8)
        return cls(arr.shape[0], arr.shape[1], a, tuple(arr.ravel().tolist()))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def to_numpy(self) -> np.ndarray:
        """The entries as a read-only int64 array, built on the first call."""
        return self._array

    @cached_property
    def _array(self) -> np.ndarray:
        arr = np.array(self.entries, dtype=np.int64).reshape(self.rows, self.cols)
        arr.flags.writeable = False
        return arr

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "MosaicMatrix":
        sub = self.to_numpy()[np.ix_(list(row_idx), list(col_idx))]
        return MosaicMatrix.from_numpy(sub, self.a)


@dataclass(frozen=True)
class Placement:
    """Strictly increasing row and column indices selecting a submatrix."""

    row_idx: tuple[int, ...]
    col_idx: tuple[int, ...]

    def __post_init__(self):
        for idx in (self.row_idx, self.col_idx):
            if not all(map(operator.lt, idx, idx[1:])):
                raise MosaicError("placement indices must be strictly increasing")
            if idx and idx[0] < 0:
                raise MosaicError("placement indices must be non-negative")


@lru_cache(maxsize=256)
def target_space(k: int, a: int) -> int:
    """Number of k-by-k targets, a**(k*k); rejects k < 1, a < 2 and over 2**63."""
    check_sizes(k=k, a=a)
    if power_exceeds(a, k * k, MAX_TARGET_SPACE):
        raise MosaicError(f"target space {a}^{k * k} too large, over 2^63 codes")
    return a ** (k * k)


def encode_target(t: MosaicMatrix) -> int:
    """Row-major base-a code of a square target, most significant entry first."""
    if t.rows != t.cols:
        raise MosaicError("target must be square")
    target_space(t.rows, t.a)
    code = 0
    for e in t.entries:
        code = code * t.a + e
    return code


@lru_cache(maxsize=16)  # a^w <= 2^8 words of w <= 8 digits: under 30 KB each
def _digit_table(a: int, w: int) -> tuple[tuple[int, ...], ...]:
    """The base-a digits of each word in [0, a**w), most significant first."""
    return tuple(itertools.product(range(a), repeat=w))


@lru_cache(maxsize=16)  # once per target; the two caches keep <= 48 tables, 1.4 MB
def _digit_chunks(k: int, a: int) -> tuple[int, tuple | None]:
    """(a**(k*k), chunks): the k*k digits of a target code, most significant
    first, in balanced chunks of at most w digits, a**w <= 2^8; each chunk is
    (its place value, the digits of every word).  None for a > 2^8."""
    size, digits = target_space(k, a), k * k
    if a > 256:
        return size, None
    count = -(-digits // max(w for w in range(1, 9) if a**w <= 256))
    chunks, later = [], digits  # later: the digits after the chunk
    for i in range(count):
        width = digits // count + (i < digits % count)
        later -= width
        chunks.append((a**later, _digit_table(a, width)))
    return size, tuple(chunks)


def decode_target(code: int, k: int, a: int) -> MosaicMatrix:
    size, chunks = _digit_chunks(k, a)
    if not 0 <= code < size:
        raise MosaicError(f"target code {code} out of range [0, {size})")
    if chunks is None:
        entries = tuple([code // a**p % a for p in range(k * k - 1, -1, -1)])
    else:
        entries = ()
        for place, words in chunks:
            word, code = divmod(code, place)
            entries += words[word]
    return MosaicMatrix(k, k, a, entries)


def symmetries(m: MosaicMatrix) -> Iterator[MosaicMatrix]:
    """m's images under each of the 8·a! maps known to keep the omni property,
    lazily, in a fixed order with m first and repeats kept.

    Each element composes a letter permutation (a! of them) with one of the
    8 maps that transpose, row reversal and column reversal generate.  These
    map targets to targets and keep a placement's rows and columns in order
    or reverse them all, so a placement of t becomes a placement of t's
    image.  A submatrix takes its rows and columns in increasing order,
    so any other row or column permutation can reorder a placement's rows
    and lose the property: 10 of the 24 row permutations of the (4,2,2)
    search witness do.
    """
    arr = m.to_numpy()
    for perm in itertools.permutations(range(m.a)):
        relabeled = np.array(perm)[arr]
        for img in (relabeled, relabeled.T):
            for flipped in (img, img[::-1], img[:, ::-1], img[::-1, ::-1]):
                yield MosaicMatrix.from_numpy(flipped, m.a)


MAGIC = "omnimosaic v1"


class _Memo(dict):
    """fn(key), called once per distinct key: a matrix repeats a few letters,
    and the placements of a construction a few index tuples."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def serialize_matrix(m: MosaicMatrix) -> str:
    head = f"{MAGIC}\n{m.rows} {m.cols} {m.a}\n"
    if m.a > 10:  # letters of several characters: one join a row
        name = _Memo(lambda e: str(operator.index(e))).__getitem__  # True == 1: both "1"
        lines = [" ".join(map(name, m.row(i))) for i in range(m.rows)]
        return head + "\n".join(lines) + "\n"
    # one ASCII digit a letter: the whole text in one byte buffer, decoded once
    buf = np.full(len(head) + 2 * m.rows * m.cols, ord(" "), np.uint8)
    buf[: len(head)] = np.frombuffer(head.encode(), np.uint8)
    body = buf[len(head) :].reshape(m.rows, 2 * m.cols)
    body[:, -1] = ord("\n")
    body[:, ::2] = np.frombuffer(bytes(m.entries), np.uint8).reshape(m.rows, m.cols)
    body[:, ::2] += ord("0")
    return str(buf, "ascii")


def _bulk_letters(text: str, start: int, rows: int, cols: int, a: int) -> tuple[int, ...] | None:
    """The letters of the rows from text[start:] if they are exactly as
    serialize_matrix writes them at a <= 10, read with one pass of numpy:
    each letter one digit below a, single spaces between, one "\n" at the
    end of each row and none after the last.  None for any other text."""
    if not start or a > 10 or not text.isascii() or len(text) - start != 2 * rows * cols:
        return None
    body = np.frombuffer(text.encode("ascii"), np.uint8, offset=start).reshape(rows, 2 * cols)
    letters = body[:, ::2] - np.uint8(ord("0"))  # a byte below "0" wraps to over 200
    seps = body[:, 1::2]
    if (letters >= a).any() or (seps[:, :-1] != ord(" ")).any() or (seps[:, -1] != ord("\n")).any():
        return None
    return tuple(letters.tobytes())


def parse_matrix(text: str) -> MosaicMatrix:
    """The matrix of a v1 text.  Rows exactly as serialize_matrix writes them
    at a <= 10 are read in bulk, any other text field by field; both give the
    same matrix, and the field-by-field reader names the line of a fault."""
    if not text.startswith(MAGIC + "\n"):
        if text == MAGIC:
            raise ParseError("missing dimension line", 2)
        raise ParseError(f"expected header {MAGIC!r}", 1)
    dims = len(MAGIC) + 1  # where the dimension line starts
    start = text.find("\n", dims) + 1  # where row 1 starts; 0 if no line follows
    parts = text[dims : start - 1 if start else len(text)].split()
    if len(parts) != 3:
        raise ParseError("dimension line must be '<rows> <cols> <a>'", 2)
    unsigned = [p.removeprefix("-") for p in parts]
    try:  # int() alone also takes "+1", "1_0" and non-ASCII digits
        if not all(u.isascii() and u.isdigit() for u in unsigned):
            raise ValueError
        rows, cols, a = map(int, parts)
    except ValueError:  # also past int()'s limit on digits
        raise ParseError("dimensions must be decimal integers", 2) from None
    if rows < 1 or cols < 1:
        raise ParseError("dimensions must be positive", 2)
    if a < 2:
        raise ParseError(f"alphabet size must be >= 2, got {a}", 2)
    bulk = _bulk_letters(text, start, rows, cols, a)
    if bulk is not None:
        return MosaicMatrix(rows, cols, a, bulk)

    def letter(field: str) -> int:
        try:  # int() alone also takes "+1", "1_0" and non-ASCII digits
            if not (field.isascii() and field.isdigit()):
                raise ValueError
            e = int(field)
        except ValueError:  # also past int()'s limit on digits
            raise MosaicError(f"bad entry {field!r}") from None
        if not 0 <= e < a:
            raise MosaicError(f"entry {e} outside alphabet [0, {a})")
        return e

    lines = text.split("\n")
    entries: list[int] = []
    letters = _Memo(letter).__getitem__  # each distinct spelling is checked once
    for i in range(rows):
        lineno = 3 + i
        if lineno - 1 >= len(lines):
            raise ParseError(f"missing row {i + 1}", lineno)
        fields = lines[lineno - 1].split()
        if len(fields) != cols:
            raise ParseError(f"expected {cols} entries, got {len(fields)}", lineno)
        try:
            entries += map(letters, fields)
        except MosaicError as exc:
            raise ParseError(str(exc), lineno) from None
    tail = lines[2 + rows :]
    if tail != [""]:
        raise ParseError("expected single trailing newline after last row", 3 + rows)
    return MosaicMatrix(rows, cols, a, tuple(entries))
