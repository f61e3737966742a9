"""Projection and lifting chain maps between a cover and its base code.

The projection p sends a cover monomial x^a y^b to x^(a mod l) y^(b mod m);
the lifting map tau = p^T sends a base monomial to the sum of its fiber.
Both extend to chain maps of the code complexes (degreewise p, p(+)p, p) and
therefore act on logical operators.  Sections of the covering give
weight-preserving lifts, which certify distance upper bounds when they land
on nontrivial logicals.

A chain map is stored degreewise as column tables: column j of a degree is
the image of basis vector j, a mask over the target basis.  Applying a map
XORs columns, and a square deg_(i-1) . d_i = d'_i . deg_i is compared column
by column, column j of d_i being row j of H_Z, H_X^T, H_X or H_Z^T.  Most maps
here send each cell to one cell: those built from cells (p, the constant
sections, and the shifts, antipode, block swap and lifts of autos) carry
their cell tables from construction, and any other map decodes its tables
from its columns once.  Most of these are affine on the lattice with one
common lattice homomorphism phi: f(g + v) = f(g) + phi(v), in every degree
(p, shifts, the antipode, block swaps, lifts of base shifts).  The
boundaries are translation-equivariant, so both sides of each square of
such a map are twisted-equivariant maps out of a free module over the group
algebra (rank 1 on checks, rank 2 on qubits), fixed by their values on its
generators: column 0 on checks, columns 0 and lm on qubits decide the
square.  Table compositions over every cell for the generators x and y
certify the premise; any other map, such as a constant section or a matrix
read from JSON, is compared on every column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product, repeat
from operator import itemgetter
from typing import TYPE_CHECKING

from .codes import BBCode, Classification, InternalConsistencyError, PauliOp, Refusal
from .covers import CoverWitness
from .gf2 import BinMatrix, ShapeError, xor_rows
from .rings import ContextMismatch, Poly, RingContext

if TYPE_CHECKING:  # distance imports autos, which imports this module
    from .distance import DistanceResult


@dataclass(frozen=True)
class ChainMap:
    """Degreewise column tables of a map between two code complexes; a chain
    map wherever its squares were checked (constant sections are not checked).
    cols2 acts on Z-checks, cols1 on qubits and cols0 on X-checks; the
    matrices deg2, deg1 and deg0 are built when read."""

    cols2: tuple[int, ...]
    cols1: tuple[int, ...]
    cols0: tuple[int, ...]
    source: BBCode
    target: BBCode
    # "own" or "dual", set once every square into that complex of the target was
    # checked: the map then sends the kernel vectors of each sector into the same
    # sector ("own") or the other one ("dual"), and class images of that sector
    # pairing skip the kernel test
    _verified_into: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        src, tgt = self.source, self.target
        shapes = ((src.ctx.dim, tgt.ctx.dim), (src.n, tgt.n), (src.ctx.dim, tgt.ctx.dim))
        for name, (n_src, n_tgt) in zip(("cols2", "cols1", "cols0"), shapes):
            deg = getattr(self, name)
            if len(deg) != n_src or (deg and (min(deg) < 0 or max(deg) >> n_tgt)):
                raise ShapeError(f"a degree of {len(deg)} columns, expected {n_src} over {n_tgt} rows")

    @property
    def columns(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        return (self.cols2, self.cols1, self.cols0)

    @cached_property
    def deg2(self) -> BinMatrix:
        return _matrix(self.cols2, self.target.ctx.dim)

    @cached_property
    def deg1(self) -> BinMatrix:
        return _matrix(self.cols1, self.target.n)

    @cached_property
    def deg0(self) -> BinMatrix:
        return _matrix(self.cols0, self.target.ctx.dim)

    def apply(self, v: int) -> int:
        """deg1 applied to a qubit vector, in time proportional to its weight."""
        if v < 0 or v >> self.source.n:
            raise ShapeError(f"vector has bits beyond qubit {self.source.n - 1}")
        return xor_rows(self.cols1, v)

    @cached_property
    def _cell_tables(self) -> tuple[tuple[int, ...] | None, ...]:
        """``_cell_table`` of each degree of ``columns``, decoded here for a map
        given as columns (``_cell_map`` sets it on the maps it builds); cols0
        shares that of cols2 when it is cols2."""
        top = _cell_table(self.cols2)
        return top, _cell_table(self.cols1), top if self.cols0 is self.cols2 else _cell_table(self.cols0)

    @cached_property
    def _step(self) -> int:
        """Stride of the source columns that decide every square: lm when every
        degree is a cell map, affine with one phi, else 1 (all columns)."""
        return self.source.ctx.dim if _affine(self._cell_tables, self.source.ctx, self.target.ctx) else 1

    def commutes(self, dual_target: bool = False) -> bool:
        """Whether every chain square commutes exactly, into the target's complex
        or, with ``dual_target``, into its dual complex (X and Z swapped)."""
        target = _boundaries(self.target, dual_target)
        return _is_chain_map(self.columns, _boundaries(self.source), target, self._step)


def _mark_verified(cm: ChainMap, dual_target: bool = False) -> ChainMap:
    """Mark cm as a map whose squares into the target's own or, with
    ``dual_target``, dual complex were all checked; returns it."""
    object.__setattr__(cm, "_verified_into", "dual" if dual_target else "own")
    return cm


@dataclass(frozen=True)
class HomologyMap:
    """Induced map on logical classes, in the deterministic bases of each code."""

    matrix: BinMatrix  # k_target x k_source
    side: str  # "Z" (homology) or "X" (cohomology)
    source: BBCode
    target: BBCode


def _unit_columns(table) -> tuple[int, ...]:
    """Columns of the cell map j -> table[j]: column j is the unit vector table[j]."""
    return tuple([1 << i for i in table])


def _cell_map(cls, tables, source: BBCode, target: BBCode, columns=(None, None, None)) -> ChainMap:
    """The map of type cls sending cell j of degree i to tables[i][j], carrying
    these tables as its ``_cell_tables``; a degree whose table is None takes
    its entry of ``columns``.  Its cols0 is its cols2 when the two tables are
    one."""
    top, mid, bottom = tables
    cols2, cols1 = (c if t is None else _unit_columns(t) for t, c in zip((top, mid), columns))
    if bottom is top is not None:
        cols0 = cols2
    else:
        cols0 = columns[2] if bottom is None else _unit_columns(bottom)
    cm = cls(cols2, cols1, cols0, source, target)
    cm.__dict__["_cell_tables"] = tables  # what the cached property would decode
    return cm


def _both_blocks(cells: tuple[int, ...], shift: int) -> tuple[int, ...]:
    """Cell table of q (+) q, for the cell table of q into ``shift`` cells."""
    return cells + tuple(map(shift.__add__, cells))


def _compose_cells(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """Cell table of f . g: cell j goes to f[g[j]]."""
    # itemgetter of a single index returns the bare item
    return itemgetter(*g)(f) if len(g) != 1 else (f[g[0]],)


def _matrix(cols: tuple[int, ...], n_rows: int) -> BinMatrix:
    return BinMatrix(len(cols), n_rows, cols).transpose()


def _compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """Columns of f . g."""
    return tuple(xor_rows(f, c) for c in g)


def _block_diag(q: tuple[int, ...], shift: int) -> tuple[int, ...]:
    """Columns of q (+) q, for q with ``shift`` rows."""
    return q + tuple(c << shift for c in q)


def _boundaries(code: BBCode, dual: bool = False) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Columns of (d2, d1) of the complex Z-checks -> qubits -> X-checks, that is
    of (H_Z^T, H_X); the dual complex X-checks -> qubits -> Z-checks swaps the X
    and Z sectors.  Column j of a matrix is row j of its transpose."""
    return (code.hx.rows, code.hz_t.rows) if dual else (code.hz.rows, code.hx_t.rows)


def _square_commutes(lo, hi, d, dt, index) -> bool:
    """Whether column j of lo . d equals column j of dt . hi for every j in index."""
    return all(xor_rows(lo, d[j]) == xor_rows(dt, hi[j]) for j in index)


def _is_chain_map(degs, source, target, step: int) -> bool:
    """Whether column tables degs = (deg_top, ..., deg_0) commute with the boundaries.

    ``source`` and ``target`` list the boundary columns (d_top, ..., d_1) of the
    two complexes; square i, deg_(i-1) . d_i == d'_i . deg_i, is compared on
    every ``step``-th source column of deg_i.
    """
    return all(
        _square_commutes(lo, hi, d, dt, range(0, len(hi), step))
        for hi, lo, d, dt in zip(degs, degs[1:], source, target)
    )


def _translation(ctx: RingContext, a: int, b: int) -> tuple[int, ...]:
    """Index table of multiplication by x^a y^b on the lattice cells, x-row by x-row."""
    return _translations(ctx, a % ctx.l, b % ctx.m)[0]


@lru_cache(maxsize=16)  # a laws item, a cover with its base and their maps, reads at most 11
def _translations(ctx: RingContext, a: int, b: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cell tables of multiplication by x^a y^b, 0 <= a < l and 0 <= b < m, on
    the lattice cells and on both qubit blocks."""
    l, m = ctx.l, ctx.m
    out: list[int] = []
    for row in (i % l * m for i in range(a, a + l)):
        out += (*range(row + b, row + m), *range(row, row + b))
    cells = tuple(out)
    return cells, _both_blocks(cells, ctx.dim)


def _cell_table(cols: tuple[int, ...]) -> tuple[int, ...] | None:
    """j -> i for columns that are each one bit 1 << i, so that each cell goes to
    one cell; None when a column has no bit or more than one."""
    if 0 in cols or sum(map(int.bit_count, cols)) != len(cols):
        return None
    return tuple(map(int.__sub__, map(int.bit_length, cols), repeat(1)))


def _affine(tables, src: RingContext, tgt: RingContext) -> bool:
    """Whether every degree is a cell map, given by its cell table, with
    f(g + v) = phi(f(g)) within each lattice block, for the generators v = x, y
    and one translation phi read off the check degree tables[0].  A block whose
    cells obey this stays in one target block, as x and y generate the lattice."""
    if None in tables:
        return False
    checks = tables[0]
    for v in ((1, 0), (0, 1)):
        move, moves = _translations(src, *v)
        (a0, b0), (a1, b1) = divmod(checks[0], tgt.m), divmod(checks[move[0]], tgt.m)
        phi = _translations(tgt, (a1 - a0) % tgt.l, (b1 - b0) % tgt.m)[1]  # on both qubit blocks
        for t in dict.fromkeys(tables):
            if _compose_cells(t, move if len(t) == src.dim else moves) != _compose_cells(phi, t):
                return False
    return True


def projection_map(witness: CoverWitness) -> ChainMap:
    """The chain map p_* : cover -> base, with all four commuting squares checked
    exactly: its chain squares, and its cochain squares as the chain squares
    between the dual complexes."""
    object.__setattr__(witness, "_projection_verified", False)
    cm = _degreewise_cells(witness.projection, witness.cover, witness.base)
    if not cm.commutes():
        raise InternalConsistencyError("chain-map square failed")
    dual = (_boundaries(cm.source, True), _boundaries(cm.target, True))
    if not _is_chain_map(cm.columns[::-1], *dual, cm._step):
        raise InternalConsistencyError("cochain-map square failed")
    object.__setattr__(witness, "_projection_verified", True)
    return _mark_verified(cm)


def _degreewise(q: tuple[int, ...], source: BBCode, target: BBCode) -> ChainMap:
    """The map (q, q (+) q, q) of a map q between monomial spaces, given by its columns."""
    return ChainMap(q, _block_diag(q, target.ctx.dim), q, source, target)


def _degreewise_cells(cells: tuple[int, ...], source: BBCode, target: BBCode) -> ChainMap:
    """The map (q, q (+) q, q) of a map q between monomial spaces, given by its cell table."""
    return _cell_map(ChainMap, (cells, _both_blocks(cells, target.ctx.dim), cells), source, target)


def lifting_map(witness: CoverWitness) -> ChainMap:
    """The chain map tau_* : base -> cover; the transpose of p_*, so p_*'s squares
    verify it, checked here unless their last check on this witness passed.
    Its columns are the rows of p: the fibres."""
    if not witness._projection_verified:
        projection_map(witness)
    return _mark_verified(_degreewise(witness.fibres, witness.base, witness.cover))


def compose_p_tau(witness: CoverWitness) -> str:
    """p . tau equals the identity for odd h and zero for even h.

    Column i of p . tau is the p-image of the fibre over i: h times e_i.
    """
    p = _unit_columns(witness.projection)
    cols = [xor_rows(p, fibre) for fibre in witness.fibres]
    if all(c == 1 << i for i, c in enumerate(cols)):
        result = "identity"
    elif not any(cols):
        result = "zero"
    else:
        raise InternalConsistencyError("p . tau is neither identity nor zero")
    expected = "identity" if witness.h % 2 == 1 else "zero"
    if result != expected:
        raise InternalConsistencyError(f"p . tau = {result}, expected {expected} for h={witness.h}")
    return result


# --- polynomials under p and tau ---------------------------------------------

def _over(ctx: RingContext, p: Poly) -> Poly:
    """p, or ContextMismatch when p is not a polynomial over ctx."""
    if p.ctx != ctx:
        raise ContextMismatch(f"ring mismatch: {p.ctx} vs {ctx}")
    return p


def project_poly(witness: CoverWitness, p: Poly) -> Poly:
    """Termwise exponent reduction of a cover polynomial into the base ring."""
    return Poly.make(witness.base.ctx, _over(witness.cover.ctx, p).terms)


def lift_poly(witness: CoverWitness, p: Poly) -> Poly:
    """tau of a base polynomial: the XOR of tau's columns, the fibres, at the set
    bits of p, in time proportional to its weight; weight multiplies by h."""
    return Poly(witness.cover.ctx, xor_rows(witness.fibres, _over(witness.base.ctx, p).mask))


@dataclass(frozen=True)
class ClassifiedOp:
    op: PauliOp
    classification: Classification


def project_logical(witness: CoverWitness, op: PauliOp) -> ClassifiedOp:
    """Apply p termwise to a cover logical; classification is in the base code."""
    if witness.cover.syndrome(op) != 0:
        raise Refusal("operator is not in the cover code's kernel")
    out = PauliOp(op.basis, project_poly(witness, op.left), project_poly(witness, op.right))
    return ClassifiedOp(out, witness.base.classify(out))


def lift_logical(witness: CoverWitness, op: PauliOp) -> ClassifiedOp:
    """Apply tau termwise to a base logical; weight is h times the input's."""
    if witness.base.syndrome(op) != 0:
        raise Refusal("operator is not in the base code's kernel")
    out = PauliOp(op.basis, lift_poly(witness, op.left), lift_poly(witness, op.right))
    if out.weight != witness.h * op.weight:
        raise InternalConsistencyError("lifted weight is not h times the base weight")
    return ClassifiedOp(out, witness.cover.classify(out))


# --- induced maps on logical classes -------------------------------------------

def induced_homology_map(cm: ChainMap, side: str = "Z") -> HomologyMap:
    """Images of the source logical basis expressed in the target basis.

    Column j holds the coordinates of the image of the j-th source basis
    class; images are reduced modulo the target's stabilizers.
    """
    src = cm.source
    basis = src.logical_basis
    try:
        images = _class_images(cm, side, side, basis.z_vectors if side == "Z" else basis.x_vectors)
    except Refusal:
        raise InternalConsistencyError("chain-map image left the target kernel") from None
    return HomologyMap(images.transpose(), side, src, cm.target)


def _class_matrix(code: BBCode, side: str, vectors, check: bool = True) -> BinMatrix:
    """Rows: coordinates of kernel vectors of one sector in the code's logical basis."""
    return BinMatrix(len(vectors), code.k, tuple(code._class_coords(side, v, check) for v in vectors))


def _class_images(cm: ChainMap, src_side: str, side: str, vectors) -> BinMatrix:
    """Rows: target coordinates, in the ``side`` sector, of the qubit images of
    kernel vectors of the source's ``src_side`` sector.  A map verified into the
    complex that pairs these sectors (its own for equal sides, the dual for
    swapped ones) sends them into the target kernel; the images of any other
    map are tested, with Refusal when one leaves the target kernel."""
    images = [xor_rows(cm.cols1, v) for v in vectors]
    trusted = cm._verified_into == ("own" if src_side == side else "dual")
    return _class_matrix(cm.target, side, images, check=not trusted)


# --- distance bounds -----------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Distance bounds transported along a cover witness."""

    h: int
    base_distance: int
    upper_bound: int  # h * d, from a concrete lifted logical
    upper_witness: PauliOp
    upper_witness_classification: Classification
    lower_bound: int | None  # d when h is odd and k_h = k
    conjectural: bool  # even h: the bounds are observed, not proven


def distance_bounds(witness: CoverWitness, base_d: DistanceResult, cover_k: int) -> BoundReport:
    """Bounds on the cover distance from the base distance.

    Odd h gives d_h <= h*d with the tau-lift of a base minimum-weight logical
    as witness; odd h with k_h = k adds d <= d_h.  For even h the same
    inequalities are reported but flagged as conjectural.
    """
    if base_d.kind != "exact" or base_d.witness is None:
        raise Refusal("distance bounds need an exact base distance with a witness")
    h = witness.h
    lifted = lift_logical(witness, base_d.witness)
    lower = None
    if h % 2 == 1 and cover_k == witness.base.k:
        lower = base_d.value
    return BoundReport(
        h=h,
        base_distance=base_d.value,
        upper_bound=h * base_d.value,
        upper_witness=lifted.op,
        upper_witness_classification=lifted.classification,
        lower_bound=lower,
        conjectural=h % 2 == 0,
    )


# --- sections and weight-preserving lifts ---------------------------------------

def constant_section(witness: CoverWitness, g: int, d: int) -> ChainMap:
    """The section (sigma, sigma (+) sigma, sigma): base -> cover that puts every base
    cell on sheet (g mod u, d mod t); p . sigma is the identity in each degree."""
    base, cover = witness.base, witness.cover
    o = witness.sheet_offsets[(g % witness.u) * witness.t + d % witness.t]
    return _degreewise_cells(tuple(map(o.__add__, witness.embedding)), base, cover)


def weight_preserving_lift_search(
    witness: CoverWitness, op: PauliOp, limit: int = 1 << 20
) -> list[ClassifiedOp]:
    """Classify every weight-preserving lift of a base logical operator.

    Enumerates all h^w sheet assignments over the support and returns the
    candidates that are nontrivial logicals of the cover; any hit certifies
    d_h <= w.  Refuses when h^w exceeds the budget.
    """
    if witness.base.classify(op) != Classification.LOGICAL:
        raise Refusal("weight-preserving lifts are searched for nontrivial base logicals only")
    h = witness.h
    w = op.weight
    total = h**w
    if total > limit:
        raise Refusal(f"section space h^w = {total} exceeds the budget {limit}")
    cover = witness.cover
    # (block, cover index on sheet (0, 0)) of every support term, left block first
    blocks = (op.left.mask, op.right.mask)
    support = [(j, e) for j in (0, 1) for i, e in enumerate(witness.embedding) if blocks[j] >> i & 1]
    hits = []
    for assignment in product(witness.sheet_offsets, repeat=w):
        masks = [0, 0]
        for (block, e), o in zip(support, assignment):
            masks[block] |= 1 << (e + o)
        cand = PauliOp(op.basis, Poly(cover.ctx, masks[0]), Poly(cover.ctx, masks[1]))
        if cand.weight != w:
            raise InternalConsistencyError("sheet assignment collapsed the support")
        if cover.classify(cand) == Classification.LOGICAL:
            hits.append(ClassifiedOp(cand, Classification.LOGICAL))
    return hits


def classical_inherited_check(code: BBCode, op: PauliOp) -> bool:
    """Whether a single-block operator lies in its classical code's kernel.

    The zero-syndrome condition for X(p, q) is Bp + Aq = 0 and for Z(p, q)
    it is A^T p + B^T q = 0, so single-block operators are kernel vectors of
    one classical check polynomial: Z-left against A^T, Z-right against B^T,
    X-left against B, X-right against A.
    """
    if not op.left.is_zero() and not op.right.is_zero():
        raise Refusal("classical inheritance applies to single-block operators only")
    if op.basis == "Z":
        matrix_poly = code.a.transpose() if op.right.is_zero() else code.b.transpose()
    else:
        matrix_poly = code.b if op.right.is_zero() else code.a
    block = op.left if op.right.is_zero() else op.right
    return (matrix_poly * block).is_zero()
