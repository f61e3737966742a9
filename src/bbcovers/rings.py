"""Arithmetic in F2[x, y] / (x^l - 1, y^m - 1).

Monomials are reduced exponent pairs, polynomials are canonically ordered
term sets (coefficients live in F2, so equal terms cancel in pairs).  The
basis index of x^a y^b is a*m + b throughout the package: vectors, matrix
columns and serialized supports all use this convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .gf2 import BinMatrix


class PolyParseError(ValueError):
    """Syntax error in the polynomial grammar; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ContextMismatch(ValueError):
    """Raised when combining polynomials over different rings."""


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

    def monomial_at(self, index: int) -> "Monomial":
        a, b = divmod(index, self.m)
        return Monomial(a, b)

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

    def inverse(self, ctx: RingContext) -> "Monomial":
        return Monomial((-self.a) % ctx.l, (-self.b) % ctx.m)

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
    """A polynomial as a canonically ordered set of monomials."""

    ctx: RingContext
    terms: tuple[Monomial, ...]

    @classmethod
    def make(cls, ctx: RingContext, terms: Iterable[tuple[int, int] | Monomial]) -> "Poly":
        """Reduce exponents mod (l, m) and cancel repeated terms pairwise."""
        seen: set[Monomial] = set()
        for t in terms:
            if isinstance(t, Monomial):
                mono = Monomial(t.a % ctx.l, t.b % ctx.m)
            else:
                mono = Monomial(t[0] % ctx.l, t[1] % ctx.m)
            seen.symmetric_difference_update({mono})
        return cls(ctx, tuple(sorted(seen)))

    @classmethod
    def zero(cls, ctx: RingContext) -> "Poly":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx: RingContext) -> "Poly":
        return cls(ctx, (Monomial(0, 0),))

    @classmethod
    def monomial(cls, ctx: RingContext, a: int, b: int) -> "Poly":
        return cls.make(ctx, [(a, b)])

    def _check_ctx(self, other: "Poly") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch(f"ring mismatch: {self.ctx} vs {other.ctx}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_ctx(other)
        return Poly.make(self.ctx, self.terms + other.terms)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_ctx(other)
        prods = [p.mul(q, self.ctx) for p in self.terms for q in other.terms]
        return Poly.make(self.ctx, prods)

    def shift(self, mono: Monomial) -> "Poly":
        """Multiply by a single monomial."""
        return Poly.make(self.ctx, [t.mul(mono, self.ctx) for t in self.terms])

    def transpose(self) -> "Poly":
        """Negate all exponents; matches transposing the circulant matrix."""
        return Poly.make(self.ctx, [t.inverse(self.ctx) for t in self.terms])

    @property
    def weight(self) -> int:
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def to_vector(self) -> int:
        """Support bitmask over the lm-dimensional monomial basis."""
        v = 0
        for t in self.terms:
            v |= 1 << self.ctx.index(t.a, t.b)
        return v

    @classmethod
    def from_vector(cls, ctx: RingContext, v: int) -> "Poly":
        terms = []
        while v:
            i = (v & -v).bit_length() - 1
            terms.append(ctx.monomial_at(i))
            v &= v - 1
        return cls.make(ctx, terms)

    def to_matrix(self) -> BinMatrix:
        """The lm x lm matrix whose row r is the support of r * self.

        Equals the sum over terms of C_l^a (x) C_m^b in the a*m + b basis,
        with C_k oriented so that row i of C_k is the support of x^(i+1).
        Row r of A.to_matrix() is then exactly the left half of the X-check
        labelled r, which is the convention the worked logical-operator
        examples in this package rely on.
        """
        ctx = self.ctx
        l, m = ctx.l, ctx.m
        rows = [0] * ctx.dim
        for t in self.terms:
            ta, tb = t.a, t.b
            for a in range(l):
                ra = a * m
                ca = ((a + ta) % l) * m
                for b in range(m):
                    rows[ra + b] |= 1 << (ca + (b + tb) % m)
        return BinMatrix(ctx.dim, ctx.dim, tuple(rows))

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
