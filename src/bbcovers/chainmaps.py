"""Projection and lifting chain maps between a cover and its base code.

The projection p sends a cover monomial x^a y^b to x^(a mod l) y^(b mod m);
the lifting map tau = p^T sends a base monomial to the sum of its fibre.
Both extend to chain maps of the code complexes (degreewise p, p(+)p, p) and
therefore act on logical operators.  Sections of the covering, p's sheets,
and weight-preserving lifts, p's lifts (one cell of p's fibre per support
term), certify distance upper bounds when they land on nontrivial logicals.

A chain map is stored degreewise as column tables: column j of a degree is
the image of basis vector j, a mask over the target basis.  Applying a map
XORs columns, and a square deg_(i-1) . d_i = d'_i . deg_i is compared column
by column, column j of d_i being row j of H_Z, H_X^T, H_X or H_Z^T.  p, and
the shifts, antipode, block swap and lifts of base shifts that are cover
shifts in autos, are lattice maps instead: g -> phi(g) + s on the cells of
every degree, for a lattice homomorphism phi and a translation s, the qubit
blocks kept or swapped.  They are built from a ``lattice.LatticeMap`` that
they keep, which no public constructor takes, and their squares are decided
in O(w) from phi's images of A and B, where the translations cancel; p is
the witness's own ``p``, and tau keeps the p it transposes for its O(w)
squares.  Every other map, the sections, the y-swap and any matrix read from
JSON, is compared on every column.  Class images skip the kernel test only for
a lattice map or tau commuting into the complex pairing their sectors.

A lattice map and tau hold no columns: they, and the cell tables, are built
when first read (``to_json``, column lifts, comparisons).  ``apply`` and class
images act on whole masks instead, one qubit block at a time: a shift is
``RingContext.shift``, the antipode ``RingContext.antipode`` then the shift by
s, the block swap exchanges the blocks, p XORs its cell table's targets at the
set bits, and tau XORs p's fibres there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import product, repeat
from typing import TYPE_CHECKING, Callable

from .codes import BBCode, Classification, InternalConsistencyError, PauliOp, Refusal
from .covers import CoverWitness
from .gf2 import BinMatrix, ShapeError, xor_rows
from .lattice import LatticeMap
from .rings import ContextMismatch, Poly, RingContext

if TYPE_CHECKING:  # distance imports autos, which imports this module
    from .distance import DistanceResult


@dataclass(frozen=True)
class ChainMap:
    """Degreewise column tables of a map between two code complexes, a chain
    map exactly when ``commutes`` says so (constant sections need not be one).
    cols2 acts on Z-checks, cols1 on qubits and cols0 on X-checks; the
    matrices deg2, deg1 and deg0 are built when read, and so are the columns
    of a lattice map or of tau, which ``_symbolic`` builds without them."""

    cols2: tuple[int, ...]
    cols1: tuple[int, ...]
    cols0: tuple[int, ...]
    source: BBCode
    target: BBCode
    # the lattice map of every degree, or the one it transposes in every degree: commutes decides
    # the squares from it alone, and the columns are derived from it, so only _symbolic sets them
    _lattice: LatticeMap | None = field(default=None, init=False, repr=False, compare=False)
    _transpose_of: LatticeMap | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        src, tgt = self.source, self.target
        shapes = ((src.ctx.dim, tgt.ctx.dim), (src.n, tgt.n), (src.ctx.dim, tgt.ctx.dim))
        for name, (n_src, n_tgt) in zip(("cols2", "cols1", "cols0"), shapes):
            deg = getattr(self, name)
            if len(deg) != n_src or (deg and (min(deg) < 0 or max(deg) >> n_tgt)):
                raise ShapeError(f"a degree of {len(deg)} columns, expected {n_src} over {n_tgt} rows")

    def __getattr__(self, name: str) -> tuple[int, ...]:
        """The columns of a lattice map or of tau, built on first read: unit columns
        of its cell tables, or p's fibres, each block's own; cols0 is cols2."""
        if name not in ("cols2", "cols1", "cols0") or (self._lattice or self._transpose_of) is None:
            raise AttributeError(name)
        if self._lattice is not None:
            top, qubits = map(_unit_columns, self._cell_tables[:2])
        else:
            top = self._transpose_of.fibres
            qubits = _block_diag(top, self.target.ctx.dim)
        self.__dict__.update(cols2=top, cols1=qubits, cols0=top)
        return self.__dict__[name]

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
        """deg1 applied to a qubit vector, in time proportional to its weight (to n for
        phi = 1 or -1).  A lattice map maps the mask of each qubit block by
        ``LatticeMap.image`` into its own block or, under a swap, the other one; tau XORs
        p's fibres at each block's set bits; any other map XORs its columns at v's bits."""
        n, dim, shift, image, swap = self._action
        if v < 0 or v >> n:
            raise ShapeError(f"vector has bits beyond qubit {n - 1}")
        if image is None:
            return xor_rows(self.cols1, v)
        lo, hi = v & ((1 << dim) - 1), v >> dim
        if swap:
            lo, hi = hi, lo
        return image(lo) | image(hi) << shift

    @cached_property
    def _action(self) -> tuple[int, int, int, Callable[[int], int] | None, bool]:
        """What ``apply`` reads on every call: the source's n and block size, the target's
        block size, and the map of one block with the swap flag, or None for columns."""
        lat, image = self._lattice, None
        if lat is not None:
            image = lat.image
        elif self._transpose_of is not None:
            image = partial(xor_rows, self._transpose_of.fibres)
        return self.source.n, self.source.ctx.dim, self.target.ctx.dim, image, lat is not None and lat.swap

    @cached_property
    def _cell_tables(self) -> tuple[tuple[int, ...] | None, ...]:
        """``_cell_table`` of each degree: a lattice map's cell table on the checks and
        its qubit table, built from ``LatticeMap.cells``; decoded from ``columns`` for any
        other map, cols0 sharing the table of cols2 when it is cols2."""
        if self._lattice is not None:
            cells = self._lattice.cells
            moved = tuple(map(self.target.ctx.dim.__add__, cells))
            return cells, moved + cells if self._lattice.swap else cells + moved, cells
        top = _cell_table(self.cols2)
        return top, _cell_table(self.cols1), top if self.cols0 is self.cols2 else _cell_table(self.cols0)

    def commutes(self, dual_target: bool = False) -> bool:
        """Whether every chain square commutes exactly, into the target's complex
        or, with ``dual_target``, into its dual complex (X and Z swapped): from phi's
        images of A and B for a lattice map or its transpose, on every column otherwise."""
        if self._lattice is not None:
            return self._lattice.sends(_pair(self.source), _pair(self.target, dual_target))
        if self._transpose_of is not None:
            return self._transpose_of.sends(_pair(self.target, not dual_target), _pair(self.source, True))
        return _is_chain_map(self.columns, _boundaries(self.source), _boundaries(self.target, dual_target))


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


def _symbolic(cls, source: BBCode, target: BBCode, **kept: LatticeMap) -> ChainMap:
    """A map of type cls that keeps ``_lattice`` or ``_transpose_of`` and no columns:
    they are built on first read, and its shapes hold by construction."""
    cm = object.__new__(cls)
    cm.__dict__.update(source=source, target=target, **kept)
    return cm


def _lattice_map(cls, lat: LatticeMap, source: BBCode, target: BBCode) -> ChainMap:
    """The map of type cls that is ``lat`` in every degree, on the checks and
    from each qubit block into the same block or, under a swap, the other one."""
    return _symbolic(cls, source, target, _lattice=lat)


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


def _pair(code: BBCode, dual: bool = False) -> tuple[Poly, Poly]:
    """The pair (a, b) of the code's complex, whose boundaries are d2 = (b; a)
    and d1 = (a | b): (A, B), or (B^T, A^T) for the dual complex."""
    return (code.b.transpose(), code.a.transpose()) if dual else (code.a, code.b)


def _is_chain_map(degs, source, target) -> bool:
    """Whether column tables degs = (deg_top, ..., deg_0) commute with the boundaries.

    ``source`` and ``target`` list the boundary columns (d_top, ..., d_1) of the
    two complexes; square i, deg_(i-1) . d_i == d'_i . deg_i, is compared on
    every source column j of deg_i: column j of d_i mapped by deg_(i-1) against
    column j of deg_i mapped by d'_i.
    """
    squares = zip(degs, degs[1:], source, target)
    return all(xor_rows(lo, c) == xor_rows(dt, h) for hi, lo, d, dt in squares for c, h in zip(d, hi))


def _cell_table(cols: tuple[int, ...]) -> tuple[int, ...] | None:
    """j -> i for columns that are each one bit 1 << i, so that each cell goes to
    one cell; None when a column has no bit or more than one."""
    if 0 in cols or sum(map(int.bit_count, cols)) != len(cols):
        return None
    return tuple(map(int.__sub__, map(int.bit_length, cols), repeat(1)))


def projection_map(witness: CoverWitness) -> ChainMap:
    """The chain map p_* : cover -> base of the witness's p, all four squares checked exactly."""
    for dual in (False, True):
        if not witness.p.sends(_pair(witness.cover, dual), _pair(witness.base, dual)):
            raise InternalConsistencyError(f"{'cochain' if dual else 'chain'}-map square failed")
    return _lattice_map(ChainMap, witness.p, witness.cover, witness.base)


def _degreewise(q: tuple[int, ...], source: BBCode, target: BBCode) -> ChainMap:
    """The map (q, q (+) q, q) of a map q between monomial spaces, given by its columns."""
    return ChainMap(q, _block_diag(q, target.ctx.dim), q, source, target)


def lifting_map(witness: CoverWitness) -> ChainMap:
    """The map tau_* : base -> cover, p_* transposed in every degree: its columns are p's fibres,
    and its squares are p's, transposed, from the cover's other complex into the base's dual."""
    return _symbolic(ChainMap, witness.base, witness.cover, _transpose_of=witness.p)


def compose_p_tau(witness: CoverWitness) -> str:
    """p . tau equals the identity for odd h and zero for even h.

    Column i of p . tau is the p-image of the fibre over i, its size times e_i,
    so every fibre must have exactly h cells.
    """
    if any(fibre.bit_count() != witness.h for fibre in witness.p.fibres):
        raise InternalConsistencyError(f"a fibre of p does not have h={witness.h} cells")
    return "identity" if witness.h % 2 else "zero"


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
    """tau of a base polynomial: the XOR of tau's columns, p's fibres, at the set
    bits of p, in time proportional to its weight; weight multiplies by h."""
    return Poly(witness.cover.ctx, xor_rows(witness.p.fibres, _over(witness.base.ctx, p).mask))


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

    Column j holds the coordinates of the image of the j-th source basis class,
    reduced modulo the target's stabilizers; side "Z" (homology) or "X" (cohomology).
    """
    if side not in ("X", "Z"):
        raise Refusal(f"side must be 'X' or 'Z', not {side!r}")
    basis = cm.source.logical_basis
    try:
        images = _class_images(cm, side, side, basis.z_vectors if side == "Z" else basis.x_vectors)
    except Refusal:
        raise InternalConsistencyError("chain-map image left the target kernel") from None
    return HomologyMap(images.transpose(), side, cm.source, cm.target)


def _class_matrix(code: BBCode, side: str, vectors, check: bool = True) -> BinMatrix:
    """Rows: coordinates of kernel vectors of one sector in the code's logical basis."""
    return BinMatrix(len(vectors), code.k, tuple(code._class_coords(side, v, check) for v in vectors))


def _class_images(cm: ChainMap, src_side: str, side: str, vectors) -> BinMatrix:
    """Rows: target coordinates, in the ``side`` sector, of the qubit images of
    kernel vectors of the source's ``src_side`` sector.  A lattice map or its transpose
    commuting into the complex pairing these sectors (its own for equal sides, the dual for
    swapped ones), an O(w) decision, sends both sectors into the target kernel, as phi commutes
    with negation; every other map's images are tested, Refusal when one leaves the kernel."""
    images = list(map(cm.apply, vectors))
    trusted = (cm._lattice or cm._transpose_of) is not None and cm.commutes(src_side != side)
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
    inequalities are reported but flagged as conjectural.  ``cover_k`` must
    be the cover's k; Refusal otherwise.
    """
    if base_d.kind != "exact" or base_d.witness is None:
        raise Refusal("distance bounds need an exact base distance with a witness")
    if cover_k != witness.cover.k:
        raise Refusal(f"cover_k = {cover_k} is not the cover's k = {witness.cover.k}")
    h = witness.h
    lifted = lift_logical(witness, base_d.witness)
    return BoundReport(
        h=h,
        base_distance=base_d.value,
        upper_bound=h * base_d.value,
        upper_witness=lifted.op,
        upper_witness_classification=lifted.classification,
        lower_bound=base_d.value if h % 2 == 1 and cover_k == witness.base.k else None,
        conjectural=h % 2 == 0,
    )


# --- sections and weight-preserving lifts ---------------------------------------

def constant_section(witness: CoverWitness, g: int, d: int) -> ChainMap:
    """The section (sigma, sigma (+) sigma, sigma): base -> cover that puts every base
    cell on the witness's sheet (g mod u, d mod t); p . sigma is the identity in each degree."""
    sheet = witness.p.sheets[(g % witness.u) * witness.t + d % witness.t]
    return _degreewise(_unit_columns(sheet), witness.base, witness.cover)


def weight_preserving_lift_search(
    witness: CoverWitness, op: PauliOp, limit: int = 1 << 20
) -> list[ClassifiedOp]:
    """Classify every weight-preserving lift of a base logical operator.

    Enumerates all h^w lifts of the support, p's ``lifts`` of each block (one cell
    of p's fibre per support term), the right block's varying fastest, and returns
    the candidates that are nontrivial logicals of the cover; any hit certifies
    d_h <= w.  Refuses when h^w exceeds the budget, before drawing any lift.
    """
    if witness.base.classify(op) != Classification.LOGICAL:
        raise Refusal("weight-preserving lifts are searched for nontrivial base logicals only")
    h = witness.h
    w = op.weight
    total = h**w
    if total > limit:
        raise Refusal(f"section space h^w = {total} exceeds the budget {limit}")
    cover, p = witness.cover, witness.p
    hits = []
    for left, right in product(p.lifts(op.left.mask), p.lifts(op.right.mask)):
        cand = PauliOp(op.basis, Poly(cover.ctx, left), Poly(cover.ctx, right))
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
