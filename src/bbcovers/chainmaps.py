"""Projection and lifting chain maps between a cover and its base code.

The projection p sends a cover monomial x^a y^b to x^(a mod l) y^(b mod m);
the lifting map tau = p^T sends a base monomial to the sum of its fiber.
Both extend to chain maps of the code complexes (degreewise p, p(+)p, p) and
therefore act on logical operators.  Sections of the covering give
weight-preserving lifts, which certify distance upper bounds when they land
on nontrivial logicals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import TYPE_CHECKING

from .codes import BBCode, Classification, InternalConsistencyError, PauliOp, Refusal
from .covers import CoverWitness
from .gf2 import BinMatrix, ShapeError
from .rings import Poly

if TYPE_CHECKING:  # distance imports autos, which imports this module
    from .distance import DistanceResult


@dataclass(frozen=True)
class ChainMap:
    """Degreewise matrices of a map between two code complexes; a chain map
    wherever its squares were checked (constant sections are not checked).
    deg2 acts on Z-checks, deg1 on qubits and deg0 on X-checks."""

    deg2: BinMatrix
    deg1: BinMatrix
    deg0: BinMatrix
    source: BBCode
    target: BBCode

    def __post_init__(self) -> None:
        src, tgt = self.source, self.target
        shapes = ((tgt.ctx.dim, src.ctx.dim), (tgt.n, src.n), (tgt.ctx.dim, src.ctx.dim))
        for deg, shape in zip(self.degrees, shapes):
            if (deg.n_rows, deg.n_cols) != shape:
                raise ShapeError(f"a degree of shape {deg.n_rows}x{deg.n_cols}, expected {shape}")

    @property
    def degrees(self) -> tuple[BinMatrix, BinMatrix, BinMatrix]:
        return (self.deg2, self.deg1, self.deg0)

    @cached_property
    def _columns(self) -> tuple[int, ...]:
        """Columns of deg1: the image of every source qubit."""
        return self.deg1.transpose().rows

    def apply(self, v: int) -> int:
        """deg1 applied to a qubit vector, in time proportional to its weight."""
        cols = self._columns
        out = 0
        while v:
            low = v & -v
            out ^= cols[low.bit_length() - 1]
            v ^= low
        return out

    def commutes(self, dual_target: bool = False) -> bool:
        """Whether every chain square commutes exactly, into the target's complex
        or, with ``dual_target``, into its dual complex (X and Z swapped)."""
        target = _boundaries(self.target, dual_target)
        return _is_chain_map(self.degrees, _boundaries(self.source), target)


@dataclass(frozen=True)
class HomologyMap:
    """Induced map on logical classes, in the deterministic bases of each code."""

    matrix: BinMatrix  # k_target x k_source
    side: str  # "Z" (homology) or "X" (cohomology)
    source: BBCode
    target: BBCode


def projection_matrix(witness: CoverWitness) -> BinMatrix:
    """p: F2^(l~ m~) -> F2^(lm) on check/monomial spaces; row i is the fibre over i."""
    return BinMatrix(witness.base.ctx.dim, witness.cover.ctx.dim, witness.fibres)


def _block_diag(p: BinMatrix) -> BinMatrix:
    zero_tr = BinMatrix.zeros(p.n_rows, p.n_cols)
    return p.hstack(zero_tr).vstack(zero_tr.hstack(p))


def _boundaries(code: BBCode, dual: bool = False) -> tuple[BinMatrix, BinMatrix]:
    """(d2, d1) of the complex Z-checks -> qubits -> X-checks; the dual
    complex X-checks -> qubits -> Z-checks swaps the X and Z sectors."""
    return (code.hx_t, code.hz) if dual else (code.hz_t, code.hx)


def _is_chain_map(degs, source, target) -> bool:
    """Whether degs = (deg_top, ..., deg_0) commute with the boundary maps.

    ``source`` and ``target`` list the boundaries (d_top, ..., d_1) of the two
    complexes; square i is deg_(i-1) . d_i == d'_i . deg_i, checked exactly.
    """
    return all(lo @ d == dt @ hi for hi, lo, d, dt in zip(degs, degs[1:], source, target))


def _verified_projection(witness: CoverWitness) -> ChainMap:
    """p_* with all four commuting squares checked exactly: its chain squares, and
    its cochain squares as the chain squares between the dual complexes."""
    cm = _degreewise(projection_matrix(witness), witness.cover, witness.base)
    if not cm.commutes():
        raise InternalConsistencyError("chain-map square failed")
    if not _is_chain_map(cm.degrees[::-1], _boundaries(cm.source, True), _boundaries(cm.target, True)):
        raise InternalConsistencyError("cochain-map square failed")
    return cm


def _degreewise(q: BinMatrix, source: BBCode, target: BBCode) -> ChainMap:
    """The map (q, q (+) q, q) of a map q between monomial spaces."""
    return ChainMap(q, _block_diag(q), q, source, target)


def projection_map(witness: CoverWitness) -> ChainMap:
    """The chain map p_* : cover -> base, with commutativity verified."""
    return _verified_projection(witness)


def lifting_map(witness: CoverWitness) -> ChainMap:
    """The chain map tau_* : base -> cover; the transpose of p_*, so p_*'s squares verify it."""
    return _degreewise(_verified_projection(witness).deg0.transpose(), witness.base, witness.cover)


def compose_p_tau(witness: CoverWitness) -> str:
    """p . tau equals the identity for odd h and zero for even h."""
    p = projection_matrix(witness)
    prod = p @ p.transpose()
    if prod == BinMatrix.identity(witness.base.ctx.dim):
        result = "identity"
    elif prod.is_zero():
        result = "zero"
    else:
        raise InternalConsistencyError("p . tau is neither identity nor zero")
    expected = "identity" if witness.h % 2 == 1 else "zero"
    if result != expected:
        raise InternalConsistencyError(f"p . tau = {result}, expected {expected} for h={witness.h}")
    return result


# --- polynomials under p and tau ---------------------------------------------

def project_poly(witness: CoverWitness, p: Poly) -> Poly:
    """Termwise exponent reduction into the base ring."""
    base = witness.base
    return Poly.make(base.ctx, [(t.a, t.b) for t in p.terms])


def lift_poly(witness: CoverWitness, p: Poly) -> Poly:
    """Termwise fiber sum into the cover ring; weight multiplies by h."""
    v = witness.embed(p.mask)
    out = 0
    for o in witness.sheet_offsets:
        out |= v << o
    return Poly(witness.cover.ctx, out)


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
    ops = src.logical_basis.z_ops if side == "Z" else src.logical_basis.x_ops
    try:
        images = _class_images(cm, side, [op.support_vector() for op in ops])
    except Refusal:
        raise InternalConsistencyError("chain-map image left the target kernel") from None
    return HomologyMap(images.transpose(), side, src, cm.target)


def _class_matrix(code: BBCode, side: str, vectors: list[int]) -> BinMatrix:
    """Rows: coordinates of kernel vectors of one sector in the code's logical basis."""
    coords = code.x_class_coords if side == "X" else code.z_class_coords
    return BinMatrix(len(vectors), code.k, tuple(coords(v) for v in vectors))


def _class_images(cm: ChainMap, side: str, vectors: list[int]) -> BinMatrix:
    """Rows: target coordinates, in the ``side`` sector, of the deg1 images of
    source kernel vectors; Refusal when an image leaves the target kernel."""
    return _class_matrix(cm.target, side, [cm.apply(v) for v in vectors])


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

    def as_dict(self) -> dict:
        return {
            "h": self.h,
            "base_distance": self.base_distance,
            "upper_bound": self.upper_bound,
            "upper_witness": str(self.upper_witness),
            "upper_witness_classification": self.upper_witness_classification.value,
            "lower_bound": self.lower_bound,
            "conjectural": self.conjectural,
        }


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
    rows = [0] * cover.ctx.dim
    for i, e in enumerate(witness.embedding):
        rows[e + o] = 1 << i
    return _degreewise(BinMatrix(cover.ctx.dim, base.ctx.dim, tuple(rows)), base, cover)


def section_chain_map_commutes(witness: CoverWitness, g: int, d: int) -> bool:
    """Whether the constant-offset section forms a chain map base -> cover.

    Constant sections are multiplication by x^(lg) y^(md) composed with the
    exponent embedding; they are the one family where commutativity is
    mechanically decidable, so only they are checked here.
    """
    return constant_section(witness, g, d).commutes()


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
