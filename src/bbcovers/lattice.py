"""Lattice maps: the cell maps g -> phi(g) + s between the lattices Z_l x Z_m of two
rings, for a lattice homomorphism phi and a translation s.

A cover's covering map p, which reduces exponents, is one; so are the shifts,
the antipode and the block swap of autos.  A map builds its cell table and its
fibres, the source cells over each target cell, once, and reads its other
tables off the fibres: the sheets, sections of p with one cell of each fibre,
and the lifts of a mask, one cell of the fibre over each of its set bits,
which cover enumeration and the weight-preserving lift search both draw.  Its
chain squares are decided from phi's images of a code's two polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

from .codes import InternalConsistencyError
from .rings import Poly, RingContext


@dataclass(frozen=True)
class LatticeMap:
    """The cell map g -> phi(g) + s from the lattice Z_l x Z_m of ``source`` into
    that of ``target``, for phi(x) = x^x[0] y^x[1], phi(y) = x^y[0] y^y[1] and s =
    x^s[0] y^s[1], all three reduced into the target; by default phi reduces
    exponents and s = 0.  With ``swap`` each qubit block goes to the other one."""

    source: RingContext
    target: RingContext
    x: tuple[int, int] = (1, 0)
    y: tuple[int, int] = (0, 1)
    s: tuple[int, int] = (0, 0)
    swap: bool = False

    def __post_init__(self) -> None:
        for name in ("x", "y", "s"):
            a, b = getattr(self, name)
            object.__setattr__(self, name, (a % self.target.l, b % self.target.m))
        if self.point(self.source.l, 0, 0) != (0, 0) or self.point(0, self.source.m, 0) != (0, 0):
            raise ValueError("phi is no homomorphism: x^l or y^m does not go to 1")

    def point(self, a: int, b: int, c: int = 1) -> tuple[int, int]:
        """Reduced target exponents of phi(x^a y^b) x^(c s[0]) y^(c s[1]): the
        image of the cell x^a y^b for c = 1, of the vector (a, b) for c = 0."""
        (xa, xb), (ya, yb), (sa, sb) = self.x, self.y, self.s
        return (a * xa + b * ya + c * sa) % self.target.l, (a * xb + b * yb + c * sb) % self.target.m

    @cached_property
    def cells(self) -> tuple[int, ...]:
        """Cell table of one lattice block: cell a*m + b goes to the target cell of ``point(a, b)``.
        x-row a depends only on phi(x)^a, so one period of rows is built and repeated, and
        each row repeats with the order q of phi(y)."""
        (xa, xb), (ya, yb), (sa, sb) = self.x, self.y, self.s
        l, m = self.target.l, self.target.m
        q = lcm(l // gcd(l, ya), m // gcd(m, yb))
        out = []
        for a in range(self.source.l):
            ra, rb = (a * xa + sa) % l, (a * xb + sb) % m
            if a and (ra, rb) == (sa, sb):
                return tuple(out * (self.source.l // a))
            out += [(ra + b * ya) % l * m + (rb + b * yb) % m for b in range(q)] * (self.source.m // q)
        return tuple(out)

    @cached_property
    def fibres(self) -> tuple[int, ...]:
        """The transposed cell table: the mask of the source cells over each target cell."""
        out = [0] * self.target.dim
        for g, c in enumerate(self.cells):
            out[c] |= 1 << g
        return tuple(out)

    @cached_property
    def sheets(self) -> tuple[tuple[int, ...], ...]:
        """Sections of the map: sheet j translates the lowest cell of each fibre by the
        j-th lift of target cell 0, the j-th cell of the kernel, ascending (on a diagonal cover
        sheet (g1, g2) at j = g1 t + g2).  Entry i of a sheet is its source cell over target
        cell i.  It raises unless each fibre is the kernel translated by the fibre's lowest cell."""
        ctx, fibres = self.source, self.fibres
        lows = [divmod((f & -f).bit_length() - 1, ctx.m) for f in fibres]
        if any(ctx.shift(fibres[0], a, b) != f for f, (a, b) in zip(fibres, lows)):
            raise InternalConsistencyError("the fibres of p are not the translates of its kernel")
        kernel = [divmod(c.bit_length() - 1, ctx.m) for c in self.lifts(1)]
        return tuple(tuple(ctx.index(la + a, lb + b) for la, lb in lows) for a, b in kernel)

    def lifts(self, v: int) -> list[int]:
        """Every mask that takes one cell of the fibre over each set bit of v: cells go
        in ascending order within a fibre, and the fibre over v's highest bit varies
        fastest.  The cells are ORed, so fibres that share a cell give a lighter mask."""
        out = [0]
        for i, f in enumerate(self.fibres):
            if v >> i & 1:
                cells = [1 << c for c in range(f.bit_length()) if f >> c & 1]
                out = [mask | c for mask in out for c in cells]
        return out

    @cached_property
    def _sign(self) -> int:
        """1 or -1 when phi is that multiple of the identity of one lattice, else 0 (-1
        where the two coincide, l and m at most 2, as the antipode is then the identity)."""
        l, m = self.target.l, self.target.m
        units = {((1 % l, 0), (0, 1 % m)): 1, ((-1 % l, 0), (0, -1 % m)): -1}
        return units.get((self.x, self.y), 0) if self.source == self.target else 0

    @property
    def bijective(self) -> bool:
        """Whether distinct cells go to distinct cells of a lattice of the same size:
        at once for phi = 1 or -1, by the cell table for any other phi."""
        return self._sign != 0 or self.source.dim == self.target.dim == len(set(self.cells))

    def image(self, v: int) -> int:
        """The mask of the images of the cells in v, cells on one target cell cancelling
        in pairs: phi = 1 shifts v by s, phi = -1 shifts its antipode, and any other
        phi XORs v's cells through the cell table."""
        ctx, sign = self.target, self._sign
        if sign:
            return ctx.shift(ctx.antipode(v) if sign < 0 else v, *self.s)
        out, cells = 0, self.cells
        while v:
            c = v.bit_length() - 1
            out ^= 1 << cells[c]
            v ^= 1 << c
        return out

    def after(self, other: LatticeMap) -> LatticeMap:
        """The lattice map self . other."""
        x, y, s = self.point(*other.x, 0), self.point(*other.y, 0), self.point(*other.s)
        return LatticeMap(other.source, self.target, x, y, s, self.swap != other.swap)

    def sends(self, source: tuple[Poly, Poly], target: tuple[Poly, Poly]) -> bool:
        """Whether every chain square commutes from the complex of the pair ``source``
        into that of ``target`` (see ``chainmaps._pair``), every degree being this map.
        A pair (a, b) has d2 = (b; a) and d1 = (a | b), and a degree sends cell g to
        g' = phi(g) + s, so column g of either square compares phi(a) x^g' with the
        target's a' x^g' in the block where a lands, and likewise b: the translations
        cancel, and the squares commute exactly when phi, term by term, sends a onto
        a' and b onto b', or under a block swap a onto b' and b onto a'."""
        images = tuple(Poly.make(self.target, [self.point(*t, 0) for t in p.terms]) for p in source)
        return images == (target[::-1] if self.swap else target)
