"""Dense GF(2) linear algebra on machine-word-packed rows.

Rows are Python ints used as bit vectors: bit j of ``rows[i]`` is the matrix
entry (i, j), so the lowest bit of a row is column 0.  Python ints give
single-instruction XOR/popcount on vectors of a few hundred bits, which is
the regime everything in this package lives in.

``xor_rows`` (v M) and ``parities`` (M v) are the two vector products; a
``BinMatrix`` method that applies a matrix to a vector calls one of them.
All matrices are immutable after construction.  ``RowReducer`` is the one
row reduction: it always pivots on the leftmost nonzero column, so ranks,
kernels, inverses and membership certificates are deterministic functions of
their inputs.  Every insertion, of one row or of a whole matrix, runs one
loop over the rows, so filling a reducer pays no Python call per row.  Its
kernel vectors are drawn lazily, each by back-substitution over the stored
echelon rows, so a caller that needs a few of them pays for those few alone.
Only ``inverse`` and callers that key a span by its reduced rows read the
reduced form.  ``leading_bits`` is the one elimination on the highest set
bit, which a lowest-pivot reducer cannot do.
"""

from __future__ import annotations

import re
from bisect import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class ShapeError(ValueError):
    """Raised when matrix dimensions are incompatible."""


def _mask(n_cols: int) -> int:
    return (1 << n_cols) - 1


def xor_rows(rows: Sequence[int], v: int) -> int:
    """v M for the matrix M with these rows: the XOR of the rows at the set bits of v."""
    out = 0
    while v:
        c = v.bit_length() - 1
        out ^= rows[c]
        v ^= 1 << c
    return out


def parities(rows: Iterable[int], v: int) -> int:
    """M v for the matrix M with these rows: bit i is the parity of rows[i] & v."""
    out = 0
    for i, r in enumerate(rows):
        out |= ((r & v).bit_count() & 1) << i
    return out


def leading_bits(rows: Iterable[int]) -> int:
    """The highest set bits of the nonzero vectors in the span of the rows, as a mask.

    Elimination pivoting on the highest set bit: a row is reduced until its
    highest bit is no stored pivot, and a nonzero residual is stored at it.
    Every nonzero vector of the span then has its highest bit at a pivot, and
    there is one pivot per dimension.
    """
    stored: dict[int, int] = {}
    for v in rows:
        while v:
            c = v.bit_length() - 1
            row = stored.get(c)
            if row is None:
                stored[c] = v
                break
            v ^= row
    return sum(1 << c for c in stored)


@dataclass(frozen=True)
class BinMatrix:
    """An n_rows x n_cols matrix over GF(2), one int per row.  Entries, columns and weights
    are read off ``rows``: column j is ``parities(rows, 1 << j)``, the weight of row i is
    ``rows[i].bit_count()``; the methods are what the package computes with."""

    n_rows: int
    n_cols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_rows < 0 or self.n_cols < 0:
            raise ShapeError(f"negative shape ({self.n_rows}, {self.n_cols})")
        if len(self.rows) != self.n_rows:
            raise ShapeError(f"{len(self.rows)} rows for declared n_rows={self.n_rows}")
        rows = self.rows
        if rows and (min(rows) < 0 or max(rows) >> self.n_cols):
            m = _mask(self.n_cols)
            i = next(i for i, r in enumerate(rows) if r & ~m)
            raise ShapeError(f"row {i} has bits beyond column {self.n_cols - 1}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_ints(cls, rows: Iterable[int], n_cols: int) -> "BinMatrix":
        rows = tuple(rows)
        return cls(len(rows), n_cols, rows)

    @classmethod
    def identity(cls, n: int) -> "BinMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    # -- arithmetic --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.rows)

    def mul(self, other: "BinMatrix") -> "BinMatrix":
        """Matrix product over GF(2)."""
        if self.n_cols != other.n_rows:
            raise ShapeError(
                f"cannot multiply {self.n_rows}x{self.n_cols} by {other.n_rows}x{other.n_cols}"
            )
        return BinMatrix(self.n_rows, other.n_cols, tuple(xor_rows(other.rows, r) for r in self.rows))

    def __matmul__(self, other: "BinMatrix") -> "BinMatrix":
        return self.mul(other)

    def mul_vec(self, v: int) -> int:
        """Apply to a column vector (int over self.n_cols bits); returns int over n_rows."""
        return parities(self.rows, v)

    def vec_mul(self, v: int) -> int:
        """Row vector times matrix, bits from n_rows up ignored; returns int over n_cols.
        Equals transpose().mul_vec(v)."""
        return xor_rows(self.rows, v & _mask(self.n_rows))

    def transpose(self) -> "BinMatrix":
        cols = [0] * self.n_cols
        for i, r in enumerate(self.rows):
            bit = 1 << i
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= bit
                r ^= low
        return BinMatrix(self.n_cols, self.n_rows, tuple(cols))

    def hstack(self, other: "BinMatrix") -> "BinMatrix":
        if self.n_rows != other.n_rows:
            raise ShapeError(f"hstack row mismatch {self.n_rows} vs {other.n_rows}")
        rows = tuple(a | (b << self.n_cols) for a, b in zip(self.rows, other.rows))
        return BinMatrix(self.n_rows, self.n_cols + other.n_cols, rows)

    def vstack(self, other: "BinMatrix") -> "BinMatrix":
        if self.n_cols != other.n_cols:
            raise ShapeError(f"vstack column mismatch {self.n_cols} vs {other.n_cols}")
        return BinMatrix(self.n_rows + other.n_rows, self.n_cols, self.rows + other.rows)

    # -- rank / kernel -----------------------------------------------------

    def rank(self) -> int:
        """Rank over GF(2); the input is never mutated."""
        return len(RowReducer(self.n_cols, self.rows))

    def kernel_basis(self) -> "BinMatrix":
        """Basis of the right kernel {v : self @ v^T = 0}, one vector per row:
        ``RowReducer.kernel_vectors`` drawn at every free column, ascending."""
        return BinMatrix.from_ints(RowReducer(self.n_cols, self.rows).kernel_vectors(), self.n_cols)

    def left_kernel_basis(self) -> "BinMatrix":
        """Basis of {f : f @ self = 0}: the tags left by the rows that cancel in one reducer, row i
        tagged with bit n_cols + i.  Each has its own row as highest bit, so they are independent."""
        n = self.n_cols
        residuals = RowReducer(n)._insert(r | 1 << (n + i) for i, r in enumerate(self.rows))
        return BinMatrix.from_ints((v >> n for v in residuals if not v & _mask(n)), self.n_rows)

    def inverse(self) -> "BinMatrix":
        """The matrix inverse over GF(2); raises ValueError when singular."""
        if self.n_rows != self.n_cols:
            raise ShapeError(f"cannot invert a non-square {self.n_rows}x{self.n_cols} matrix")
        n = self.n_cols  # row i carries the tag bit n + i; the reduced form of (M | I) is (I | M^-1)
        rref = RowReducer(n, (r | 1 << (n + i) for i, r in enumerate(self.rows))).reduced_rows()
        if len(rref) != n:
            raise ValueError("matrix is singular over GF(2)")
        return BinMatrix(n, n, tuple(rref[c] >> n for c in range(n)))

    # -- debug serialization ------------------------------------------------

    def to_text(self) -> str:
        """Serialize as '<rows>x<cols>' header plus one hex row per line.

        Bit order inside the hex: the row int is encoded little-end first,
        i.e. hex digit 0 carries columns 0..3.
        """
        width = max((self.n_cols + 3) // 4, 1)
        lines = [f"{self.n_rows}x{self.n_cols}"]
        for r in self.rows:
            lines.append(format(r, f"0{width}x")[::-1])
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "BinMatrix":
        """Read what ``to_text`` writes: an ASCII '<rows>x<cols>' header and exactly that
        many rows, each of the ASCII hex digits it writes for cols; ValueError for anything else."""
        header, *lines = [ln.strip() for ln in text.strip().splitlines()]
        shape = re.fullmatch("([0-9]+)x([0-9]+)", header)
        n_rows, n_cols = map(int, shape.groups()) if shape else (-1, 0)
        width = max((n_cols + 3) // 4, 1)
        if len(lines) != n_rows or not all(len(ln) == width and re.fullmatch("[0-9a-fA-F]+", ln) for ln in lines):
            raise ValueError("matrix text is not an ASCII <rows>x<cols> header and exactly that many hex rows")
        return cls(n_rows, n_cols, tuple(int(ln[::-1], 16) for ln in lines))

    def __str__(self) -> str:
        return "\n".join(
            "".join("1" if (r >> j) & 1 else "." for j in range(self.n_cols)) for r in self.rows
        )


class RowReducer:
    """Incremental row-echelon form: the one GF(2) elimination of the package.

    Each stored row has its lowest set bit at a distinct pivot column below
    ``n_cols``, which makes ``reduce`` a loop over set bits instead of a full
    elimination.  Bits at ``n_cols`` and above are carried along but never
    become pivots: a tag bit per inserted row records which rows each stored
    row combines.  Rows go in through ``_insert``, one loop over them that
    returns their residuals: ``__init__``, ``add`` and
    ``BinMatrix.left_kernel_basis`` all call it, so no row costs a call.
    """

    def __init__(self, n_cols: int, rows: Iterable[int] = ()) -> None:
        self.n_cols = n_cols
        self._mask = _mask(n_cols)
        self._pivot_rows: dict[int, int] = {}
        self._insert(rows)

    def __len__(self) -> int:
        return len(self._pivot_rows)

    def reduce(self, v: int) -> int:
        """Residual of v after elimination against the stored rows."""
        pr = self._pivot_rows
        while v:
            c = (v & -v).bit_length() - 1
            row = pr.get(c)
            if row is None:
                return v
            v ^= row
        return 0

    def add(self, v: int) -> int:
        """Insert v; returns its residual, which has no bit below n_cols exactly when v was
        already in the span: then only tag bits are left, none in a reducer without tags."""
        return self._insert((v,))[0]

    def _insert(self, rows: Iterable[int]) -> list[int]:
        """Insert the rows in order and return the residual of each.  A residual with a
        bit below n_cols is stored at its lowest bit; one without is a row already in the span."""
        pr, n = self._pivot_rows, self.n_cols
        residuals = []
        for v in rows:
            while v:
                c = (v & -v).bit_length() - 1
                row = pr.get(c)
                if row is None:
                    if c < n:
                        pr[c] = v
                    break
                v ^= row
            residuals.append(v)
        return residuals

    def contains(self, v: int) -> bool:
        """True iff v (a vector of n_cols bits) is in the span of the inserted rows."""
        if v >> self.n_cols:
            raise ShapeError(f"vector has bits beyond column {self.n_cols - 1}")
        return not self.reduce(v) & self._mask

    @property
    def pivot_mask(self) -> int:
        """The pivot columns as a mask: bit c is set when a stored row has its lowest bit at c."""
        return sum(1 << c for c in self._pivot_rows)

    def reduced_rows(self) -> dict[int, int]:
        """Reduced row echelon form: pivot column -> row with every other pivot
        column cleared.  The stored rows are left as they are."""
        pivots = self.pivot_mask
        out: dict[int, int] = {}
        for c in sorted(self._pivot_rows, reverse=True):
            v = self._pivot_rows[c]
            # rows with higher pivots are already reduced, so each clears one bit
            x = (v >> (c + 1) << (c + 1)) & pivots
            while x:
                v ^= out[(x & -x).bit_length() - 1]
                x &= x - 1
            out[c] = v
        return out

    def kernel_vectors(self, cols: Iterable[int] | None = None) -> Iterator[int]:
        """Kernel vectors of the stored rows, one per free column f in cols (default:
        every free column, ascending), built as drawn: bit f, then each pivot c below
        f, descending, set when the stored row at c meets the vector built so far
        oddly.  Its only free bit is f, so it is the same vector for every echelon
        form of the span.  A pivot column, or one outside 0..n_cols-1, is refused:
        no kernel vector has it as its only free bit."""
        pr = self._pivot_rows
        pivots = sorted(pr)
        if cols is None:
            cols = [f for f in range(self.n_cols) if f not in pr]
        for f in cols:
            if f in pr or not 0 <= f < self.n_cols:
                raise ValueError(f"column {f} is not a free column below {self.n_cols}")
            v = 1 << f
            for c in reversed(pivots[: bisect(pivots, f)]):
                if (pr[c] & v).bit_count() & 1:
                    v |= 1 << c
            yield v
