"""Arithmetic in F2[x, y] / (x^l - 1, y^m - 1).

Monomials are reduced exponent pairs; a polynomial is the bitmask of its
support (coefficients live in F2, so equal terms cancel in pairs), and its
one product, ``Poly.mul_mask``, XORs windows of a doubled mask, one or two a
term.  The basis index of x^a y^b is a*m + b throughout the package: polynomial
masks, vectors, matrix columns and serialized supports all use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

from .gf2 import BinMatrix, parities


class PolyParseError(ValueError):
    """Syntax error in the polynomial grammar; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ContextMismatch(ValueError):
    """Raised when combining polynomials over different rings."""


def _rotate(v: int, s: int, n: int) -> int:
    """Cyclic left rotation of an n-bit vector by s places."""
    return ((v << s) | (v >> (n - s))) & ((1 << n) - 1) if s else v


@dataclass(frozen=True, order=True)
class RingContext:
    """Ring parameters: x has order l, y has order m."""

    l: int
    m: int

    def __post_init__(self) -> None:
        if self.l < 1 or self.m < 1:
            raise ValueError(f"ring orders must be positive, got l={self.l}, m={self.m}")

    @property
    def dim(self) -> int:
        return self.l * self.m

    def index(self, a: int, b: int) -> int:
        """Basis index of x^a y^b (x-major)."""
        return (a % self.l) * self.m + (b % self.m)

    @cached_property
    def _block_ones(self) -> int:
        """The vector with bit a*m set for every a: one bit per m-block."""
        return ((1 << self.dim) - 1) // ((1 << self.m) - 1)

    def shift(self, v: int, a: int, b: int) -> int:
        """Basis vector of x^a y^b times the polynomial with basis vector v.

        y^b rotates every m-bit block by b places, then x^a rotates the whole
        vector by a*m places.
        """
        m = self.m
        b %= m
        if b:
            low = self._block_ones * ((1 << (m - b)) - 1)  # y-exponents below m - b
            v = ((v & low) << b) | ((v & ~low) >> (m - b))
        return _rotate(v, (a % self.l) * m, self.dim)

    def antipode(self, v: int) -> int:
        """The image of v under the antipode x^a y^b -> x^-a y^-b, a ring automorphism: bit
        reversal sends index a*m + b to (l-1-a)*m + (m-1-b), then x y adds (1, 1)."""
        return self.shift(int(format(v, f"0{self.dim}b")[::-1], 2), 1, 1)

    def monomials(self) -> Iterator["Monomial"]:
        for a in range(self.l):
            for b in range(self.m):
                yield Monomial(a, b)


class Monomial(NamedTuple):
    """x^a y^b as its exponent pair, stored reduced."""

    a: int
    b: int

    def render(self) -> str:
        if self.a == 0 and self.b == 0:
            return "1"
        parts = []
        if self.a:
            parts.append("x" if self.a == 1 else f"x^{self.a}")
        if self.b:
            parts.append("y" if self.b == 1 else f"y^{self.b}")
        return "".join(parts)


@dataclass(frozen=True)
class Poly:
    """A polynomial as its support bitmask over the lm monomial basis.

    Bit a*m + b of ``mask`` is set iff x^a y^b is a term, so addition is XOR
    and a monomial shift is a rotation of each m-bit block (y) followed by a
    rotation of the whole vector by a multiple of m (x).  ``terms`` lists the
    monomials in ascending basis index, which is ascending (a, b).
    """

    ctx: RingContext
    mask: int

    @classmethod
    def make(cls, ctx: RingContext, terms: Iterable[tuple[int, int]]) -> "Poly":
        """Reduce exponent pairs mod (l, m) and cancel repeated terms pairwise."""
        l, m = ctx.l, ctx.m
        v = 0
        for a, b in terms:
            v ^= 1 << ((a % l) * m + b % m)
        return cls(ctx, v)

    @classmethod
    def zero(cls, ctx: RingContext) -> "Poly":
        return cls(ctx, 0)

    @classmethod
    def one(cls, ctx: RingContext) -> "Poly":
        return cls(ctx, 1)

    @cached_property
    def terms(self) -> tuple[Monomial, ...]:
        """The monomials of the support, in ascending basis index."""
        m = self.ctx.m
        out = []
        v = self.mask
        while v:
            low = v & -v
            out.append(Monomial(*divmod(low.bit_length() - 1, m)))
            v ^= low
        return tuple(out)

    def _check_ctx(self, other: "Poly") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch(f"ring mismatch: {self.ctx} vs {other.ctx}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_ctx(other)
        return Poly(self.ctx, self.mask ^ other.mask)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_ctx(other)
        return Poly(self.ctx, self.mul_mask(other.mask))

    def mul_mask(self, v: int) -> int:
        """The mask of self times the polynomial whose mask is v, an lm-bit vector."""
        n, windows = self._plan
        doubled, out = v | v << n, 0
        for window, r in windows:
            out ^= (doubled & window) >> r
        return out & ((1 << n) - 1)

    @cached_property
    def _plan(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """lm, and each term x^a y^b, at index i = a*m + b, as (window, shift) pairs on v
        doubled to 2lm bits: cell a'*m + b' goes to (a + a')*m + b + b' mod lm, which v
        doubled, shifted right by lm - i, holds when b + b' < m; the rest shifts m more."""
        m, n, v = self.ctx.m, self.ctx.dim, self.mask
        ones = self.ctx._block_ones * ((1 << n) + 1)  # bit a*m of both copies, for every a
        windows = []
        while v:  # the cells with y-exponent below m - b, then the others
            i = v.bit_length() - 1
            v, b = v ^ 1 << i, i % m
            windows.append((ones * ((1 << (m - b)) - 1), n - i))
            if b:
                windows.append((ones * ((1 << m) - (1 << (m - b))), n - i + m))
        return n, tuple(windows)

    def shift(self, mono: Monomial) -> "Poly":
        """Multiply by a single monomial."""
        return Poly(self.ctx, self.ctx.shift(self.mask, *mono))

    def transpose(self) -> "Poly":
        """Negate all exponents; matches transposing the circulant matrix."""
        return self._transpose

    @cached_property
    def _transpose(self) -> "Poly":
        return Poly(self.ctx, self.ctx.antipode(self.mask))

    @property
    def weight(self) -> int:
        return self.mask.bit_count()

    def is_zero(self) -> bool:
        return not self.mask

    @classmethod
    def from_vector(cls, ctx: RingContext, v: int) -> "Poly":
        if v < 0 or v >> ctx.dim:
            raise ValueError(f"vector has bits beyond index {ctx.dim - 1}")
        return cls(ctx, v)

    def to_matrix(self) -> BinMatrix:
        """The lm x lm matrix whose row r is the support of r * self, built once.

        Equals the sum over terms of C_l^a (x) C_m^b in the a*m + b basis,
        with C_k oriented so that row i of C_k is the support of x^(i+1).
        Row r of A.to_matrix() is then exactly the left half of the X-check
        labelled r, which is the convention the worked logical-operator
        examples in this package rely on.
        """
        return self._matrix

    @cached_property
    def _matrix(self) -> BinMatrix:
        ctx = self.ctx
        l, m, n = ctx.l, ctx.m, ctx.dim
        full = (1 << n) - 1
        rows = [0] * n
        for b in range(m):
            yb = ctx.shift(self.mask, 0, b)
            doubled = yb | (yb << n)
            # row a*m + b is yb rotated by a*m: a window of the doubled vector
            rows[b::m] = [(doubled >> (n - a * m)) & full for a in range(l)]
        return BinMatrix(n, n, tuple(rows))

    @cached_property
    def _column_0_is_transpose(self) -> bool:
        """Whether column 0 of the matrix, M(p) e_0, is the mask of transpose().
        Both matrices are circulants, so is the transpose of one, and circulants
        with equal row 0 are equal: this certifies M(p)^T = M(p^T)."""
        return parities(self._matrix.rows, 1) == self.transpose().mask

    def render(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(t.render() for t in self.terms)

    def __str__(self) -> str:
        return self.render()


# --- parsing ----------------------------------------------------------------

def _exponent(rest: str, end: int, order: int) -> tuple[int, str]:
    """The exponent of the x or y just read, 1 when no "^" follows, else reduced mod
    its ``order``, and the text after it; ``rest`` is a suffix of the text ending
    at offset ``end``."""
    head = rest.lstrip()
    if not head.startswith("^"):
        return 1, rest
    digits = head[1:].lstrip()
    if digits.startswith("-"):
        raise PolyParseError("negative exponent rejected", end - len(digits))
    after = digits.lstrip("0123456789")
    if len(after) == len(digits):
        raise PolyParseError("expected unsigned integer exponent", end - len(digits))
    number, value = digits[: len(digits) - len(after)], 0
    for i in range(0, len(number), 4000):  # Horner's rule on chunks: int() converts at most 4,300 digits
        chunk = number[i : i + 4000]
        value = (value * pow(10, len(chunk), order) + int(chunk)) % order
    return value, after


def parse_poly(text: str, ctx: RingContext) -> Poly:
    """Parse the ASCII polynomial grammar.

    poly := term ("+" term)* ; term := "0" | "1" | xfac [ "*"? yfac ] | yfac ;
    xfac := "x" ["^" uint] ; yfac := "y" ["^" uint] ; uint := [0-9]+.
    Whitespace is insignificant between tokens and exponents may exceed l or m
    (they reduce on parse).  Terms are read one "+"-separated chunk at a time;
    every rest of a chunk is a suffix of it, so its offset is ``end - len(rest)``.
    """
    terms = []
    end = -1
    for chunk in text.split("+"):
        end += len(chunk) + 1  # the offset of the "+" after the chunk, or len(text)
        rest = chunk.lstrip()
        if not rest:
            raise PolyParseError("expected term" if end == len(text) else "unexpected character '+'", end)
        if rest[0] in "01":
            if rest[0] == "1":
                terms.append((0, 0))
            rest = rest[1:]
        elif rest[0] in "xy":
            a = b = 0
            if rest[0] == "x":
                a, rest = _exponent(rest[1:], end, ctx.l)
                rest = rest.lstrip()
                if rest.startswith("*"):
                    rest = rest[1:].lstrip()
                    if not rest.startswith("y"):
                        raise PolyParseError("expected y factor after '*'", end - len(rest))
            if rest.startswith("y"):
                b, rest = _exponent(rest[1:], end, ctx.m)
            terms.append((a, b))
        rest = rest.lstrip()
        if rest:
            raise PolyParseError(f"unexpected character {rest[0]!r}", end - len(rest))
    return Poly.make(ctx, terms)
