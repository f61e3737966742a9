"""Arithmetic in F2[x, y] / (x^l - 1, y^m - 1).

Monomials are reduced exponent pairs; a polynomial is the bitmask of its
support (coefficients live in F2, so equal terms cancel in pairs).  The basis
index of x^a y^b is a*m + b throughout the package: polynomial masks,
vectors, matrix columns and serialized supports all use this convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .gf2 import BinMatrix


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

    def monomials(self) -> Iterator["Monomial"]:
        for a in range(self.l):
            for b in range(self.m):
                yield Monomial(a, b)


@dataclass(frozen=True, order=True)
class Monomial:
    """x^a y^b with exponents stored reduced."""

    a: int
    b: int

    def mul(self, other: "Monomial", ctx: RingContext) -> "Monomial":
        return Monomial((self.a + other.a) % ctx.l, (self.b + other.b) % ctx.m)

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
    def make(cls, ctx: RingContext, terms: Iterable[tuple[int, int] | Monomial]) -> "Poly":
        """Reduce exponents mod (l, m) and cancel repeated terms pairwise."""
        l, m = ctx.l, ctx.m
        v = 0
        for t in terms:
            a, b = (t.a, t.b) if isinstance(t, Monomial) else t
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
        m = self.ctx.m
        v, x = 0, other.mask
        while x:
            low = x & -x
            v ^= self.ctx.shift(self.mask, *divmod(low.bit_length() - 1, m))
            x ^= low
        return Poly(self.ctx, v)

    def shift(self, mono: Monomial) -> "Poly":
        """Multiply by a single monomial."""
        return Poly(self.ctx, self.ctx.shift(self.mask, mono.a, mono.b))

    def transpose(self) -> "Poly":
        """Negate all exponents; matches transposing the circulant matrix."""
        return self._transpose

    @cached_property
    def _transpose(self) -> "Poly":
        ctx = self.ctx
        # reversal sends index a*m + b to (l-1-a)*m + (m-1-b); x y then adds (1, 1)
        reversed_mask = int(format(self.mask, f"0{ctx.dim}b")[::-1], 2)
        return Poly(ctx, ctx.shift(reversed_mask, 1, 1))

    @property
    def weight(self) -> int:
        return self.mask.bit_count()

    def is_zero(self) -> bool:
        return not self.mask

    def to_vector(self) -> int:
        """Support bitmask over the lm-dimensional monomial basis."""
        return self.mask

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
        """Whether column 0 of the matrix is the mask of transpose().  Both
        matrices are circulants, so is the transpose of one, and circulants with
        equal row 0 are equal: this certifies M(p)^T = M(p^T)."""
        return self._matrix.column(0) == self.transpose().mask

    def render(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(t.render() for t in self.terms)

    def __str__(self) -> str:
        return self.render()


# --- parsing ----------------------------------------------------------------

def parse_poly(text: str, ctx: RingContext) -> Poly:
    """Parse the ASCII polynomial grammar.

    poly := term ("+" term)* ; term := "0" | "1" | xfac [ "*"? yfac ] | yfac ;
    xfac := "x" ["^" uint] ; yfac := "y" ["^" uint].  Whitespace is
    insignificant and exponents may exceed l or m (they reduce on parse).
    """
    pos = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_uint() -> int:
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise PolyParseError("expected unsigned integer exponent", start)
        return int(text[start:pos])

    def parse_exponent() -> int:
        nonlocal pos
        mark = pos
        skip_ws()
        if pos < n and text[pos] == "^":
            pos += 1
            skip_ws()
            if pos < n and text[pos] == "-":
                raise PolyParseError("negative exponent rejected", pos)
            return parse_uint()
        pos = mark
        return 1

    def parse_term() -> tuple[int, int] | None:
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise PolyParseError("expected term", pos)
        ch = text[pos]
        if ch == "0":
            pos += 1
            return None
        if ch == "1":
            pos += 1
            return (0, 0)
        a = b = 0
        seen = False
        if ch == "x":
            pos += 1
            a = parse_exponent()
            seen = True
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                skip_ws()
                if pos >= n or text[pos] != "y":
                    raise PolyParseError("expected y factor after '*'", pos)
            ch = text[pos] if pos < n else ""
        if ch == "y":
            pos += 1
            b = parse_exponent()
            seen = True
        if not seen:
            raise PolyParseError(f"unexpected character {text[pos]!r}", pos)
        return (a, b)

    terms: list[tuple[int, int]] = []
    t = parse_term()
    if t is not None:
        terms.append(t)
    skip_ws()
    while pos < n:
        if text[pos] != "+":
            raise PolyParseError(f"unexpected character {text[pos]!r}", pos)
        pos += 1
        t = parse_term()
        if t is not None:
            terms.append(t)
        skip_ws()
    return Poly.make(ctx, terms)
