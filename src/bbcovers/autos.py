"""CSS code automorphisms, ZX-dualities, their lifts, and logical actions.

Automorphisms are supplied rather than discovered: verification, sheet-wise
lifting along a cover witness, and logical-action computation are offered for
given candidates, with the shift family and two worked constructions built in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import (
    BBCode,
    Classification,
    InternalConsistencyError,
    LogicalBasis,
    PauliOp,
    Refusal,
    pairing_matrix,
)
from .covers import CoverWitness
from .chainmaps import _block_diag, _boundaries, _class_matrix, _is_chain_map, lift_poly, projection_matrix
from .gf2 import BinMatrix
from .rings import Monomial


def _perm_matrix(perm: tuple[int, ...]) -> BinMatrix:
    n = len(perm)
    rows = [0] * n
    for j, i in enumerate(perm):
        rows[i] |= 1 << j
    return BinMatrix(n, n, tuple(rows))


@dataclass(frozen=True)
class CodeAutomorphism:
    """Qubit permutation f with check transformations W_X, W_Z.

    Together they are a chain map (W_Z, f, W_X) of the complex Z-checks ->
    qubits -> X-checks to itself.  The permutation is stored as an image map:
    qubit j goes to qubit f[j].  Kind "tanner" additionally promises W_X and
    W_Z are permutation matrices.
    """

    f: tuple[int, ...]
    w_x: BinMatrix
    w_z: BinMatrix
    kind: str = "general"

    def f_matrix(self) -> BinMatrix:
        return _perm_matrix(self.f)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "f": list(self.f),
            "w_x": self.w_x.to_text(),
            "w_z": self.w_z.to_text(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "CodeAutomorphism":
        return cls(
            tuple(data["f"]),
            BinMatrix.from_text(data["w_x"]),
            BinMatrix.from_text(data["w_z"]),
            data.get("kind", "general"),
        )


class ZXDuality(CodeAutomorphism):
    """Chain map from a code to its dual complex, swapping X and Z sectors.

    W_X maps the X-check space to the Z-check space and W_Z the Z-check space
    to the X-check space.  Every function of this module that takes a
    CodeAutomorphism reads the sector swap from this type.
    """


def _verify(code: BBCode, m: CodeAutomorphism) -> bool:
    """Invertible W's and exact chain squares into the code's own or dual complex."""
    lm = code.ctx.dim
    if len(m.f) != code.n or m.w_x.n_cols != lm or m.w_z.n_cols != lm:
        raise Refusal("map shapes do not match the code")
    if m.kind == "tanner":
        if not (m.w_x.is_permutation() and m.w_z.is_permutation()):
            return False
    elif m.w_x.rank() != lm or m.w_z.rank() != lm:
        return False
    target = _boundaries(code, isinstance(m, ZXDuality))
    return _is_chain_map((m.w_z, m.f_matrix(), m.w_x), _boundaries(code), target)


def verify_automorphism(code: BBCode, aut: CodeAutomorphism) -> bool:
    """Check W_X H_X = H_X f and H_Z^T W_Z = f H_Z^T exactly; W's must be invertible."""
    return _verify(code, aut)


def verify_zx_duality(code: BBCode, dual: ZXDuality) -> bool:
    """Check f H_Z^T = H_X^T W_Z and W_X H_X = H_Z f exactly; W's must be invertible."""
    return _verify(code, dual)


# --- built-in constructions -----------------------------------------------------

def shift_automorphism(code: BBCode, mono: Monomial) -> CodeAutomorphism:
    """Shift all check and qubit labels by a monomial; works on every BB code."""
    ctx = code.ctx
    lm = ctx.dim
    table = [0] * lm
    for m in ctx.monomials():
        table[ctx.index(m.a, m.b)] = ctx.index(m.a + mono.a, m.b + mono.b)
    perm = tuple(table) + tuple(lm + i for i in table)
    w = _perm_matrix(tuple(table))
    return CodeAutomorphism(perm, w, w, kind="tanner")


def y_exponent_swap_automorphism(code: BBCode, b0: int = 0, b1: int = 1) -> CodeAutomorphism:
    """Relabel monomials by swapping two y-exponents on checks and both blocks.

    This is a Tanner-graph automorphism for codes whose polynomials make the
    two exponents interchangeable; callers should verify it.
    """
    ctx = code.ctx
    lm = ctx.dim

    def sigma(b: int) -> int:
        if b == b0:
            return b1
        if b == b1:
            return b0
        return b

    table = [ctx.index(m.a, sigma(m.b)) for m in ctx.monomials()]
    block = [table[ctx.index(m.a, m.b)] for m in ctx.monomials()]
    perm = tuple(block) + tuple(lm + i for i in block)
    w = _perm_matrix(tuple(block))
    return CodeAutomorphism(perm, w, w, kind="tanner")


def block_swap_zx_duality(code: BBCode) -> ZXDuality:
    """f swaps the left and right qubit blocks, W_X = W_Z = I.

    A ZX-duality exactly when A and B are self-transpose; callers verify.
    """
    lm = code.ctx.dim
    perm = tuple(lm + i for i in range(lm)) + tuple(range(lm))
    ident = BinMatrix.identity(lm)
    return ZXDuality(perm, ident, ident)


def antipode_zx_duality(code: BBCode) -> ZXDuality:
    """Block swap composed with exponent negation; a duality of every BB code."""
    ctx = code.ctx
    lm = ctx.dim
    neg = [ctx.index(-m.a, -m.b) for m in ctx.monomials()]
    perm = tuple(lm + neg[i] for i in range(lm)) + tuple(neg[i] for i in range(lm))
    w = _perm_matrix(tuple(neg))
    return ZXDuality(perm, w, w)


# --- lifting along a cover -------------------------------------------------------

def _lift_check_matrix(witness: CoverWitness, w: BinMatrix) -> BinMatrix:
    """Sheet-wise block lift: repeat the base map on every sheet."""
    rows = [0] * witness.cover.ctx.dim
    for e, row in zip(witness.embedding, w.rows):
        lifted = witness.embed(row)
        for o in witness.sheet_offsets:
            rows[e + o] = lifted << o
    return BinMatrix(len(rows), len(rows), tuple(rows))


def _lift_qubit_perm(witness: CoverWitness, f: tuple[int, ...]) -> tuple[int, ...]:
    """Sheet-wise lift of a qubit permutation: each sheet maps to itself."""
    lm_b, lm_c = witness.base.ctx.dim, witness.cover.ctx.dim
    emb = witness.embedding
    out = [0] * (2 * lm_c)
    for j, image in enumerate(f):
        block, jb = divmod(j, lm_b)
        img_block, ib = divmod(image, lm_b)
        for o in witness.sheet_offsets:
            out[block * lm_c + emb[jb] + o] = img_block * lm_c + emb[ib] + o
    return tuple(out)


def _lift(witness: CoverWitness, m: CodeAutomorphism) -> CodeAutomorphism:
    """Sheet-wise lift; verified on the cover and intertwining with p in every degree."""
    if not _verify(witness.base, m):
        raise Refusal("the supplied map does not verify on the base code")
    lifted = type(m)(
        _lift_qubit_perm(witness, m.f),
        _lift_check_matrix(witness, m.w_x),
        _lift_check_matrix(witness, m.w_z),
        kind=m.kind,
    )
    if not _verify(witness.cover, lifted):
        raise Refusal("sheet-wise lift does not verify on the cover code")
    # p . lifted = base . p says (lifted, base) is a chain map cover --p--> base
    p = projection_matrix(witness)
    squares = (
        (_block_diag(p), lifted.f_matrix(), m.f_matrix()),
        (p, lifted.w_x, m.w_x),
        (p, lifted.w_z, m.w_z),
    )
    if not all(_is_chain_map((up, down), (q,), (q,)) for q, up, down in squares):
        raise InternalConsistencyError("lift does not intertwine with the projection")
    return lifted


def lift_automorphism(witness: CoverWitness, aut: CodeAutomorphism) -> CodeAutomorphism:
    """Sheet-wise lift; verified as a cover automorphism intertwining with p."""
    return _lift(witness, aut)


def lift_zx_duality(witness: CoverWitness, dual: ZXDuality) -> ZXDuality:
    """Sheet-wise lift of a ZX-duality; verified on the cover."""
    return _lift(witness, dual)


# --- logical actions --------------------------------------------------------------

@dataclass(frozen=True)
class LogicalAction:
    """k x k matrices of an automorphism on X and Z logical classes.

    Row i of ax holds the coordinates of the image of the i-th X basis class;
    az likewise for Z.  Pairing preservation forces ax az^T = I.
    """

    ax: BinMatrix
    az: BinMatrix


@dataclass(frozen=True)
class DualityAction:
    """Class maps of a ZX-duality: X classes land in the Z basis and dually."""

    dx: BinMatrix  # X basis -> Z-class coordinates
    dz: BinMatrix  # Z basis -> X-class coordinates


def _apply_perm_vec(perm: tuple[int, ...], v: int) -> int:
    out = 0
    while v:
        j = (v & -v).bit_length() - 1
        out |= 1 << perm[j]
        v &= v - 1
    return out


def _class_action(code: BBCode, m: CodeAutomorphism, basis: LogicalBasis):
    """Images of the X and of the Z basis classes, in the given paired basis.

    An automorphism keeps each sector; a ZX-duality sends X classes to Z
    classes and Z classes to X classes.
    """
    k = basis.k
    if k != code.k or pairing_matrix(basis.x_ops, basis.z_ops) != BinMatrix.identity(k):
        raise Refusal("logical action needs a symplectically paired basis of the code")
    swap = isinstance(m, ZXDuality)
    vecs = {
        "X": [op.support_vector() for op in basis.x_ops],
        "Z": [op.support_vector() for op in basis.z_ops],
    }
    # (images, caller basis) per source sector, all classified before any inverse:
    # with every vector in its kernel, a paired basis has invertible coordinates
    parts = [
        (
            _class_matrix(code, side, [_apply_perm_vec(m.f, v) for v in vecs[src]]),
            _class_matrix(code, side, vecs[side]),
        )
        for src, side in zip("XZ", "ZX" if swap else "XZ")
    ]
    on_x, on_z = (images @ change.inverse() for images, change in parts)
    if on_x @ on_z.transpose() != BinMatrix.identity(k):
        raise InternalConsistencyError("action does not preserve the symplectic pairing")
    return DualityAction(on_x, on_z) if swap else LogicalAction(on_x, on_z)


def logical_action(code: BBCode, aut: CodeAutomorphism, basis: LogicalBasis) -> LogicalAction:
    """Action on logical classes relative to the given paired basis."""
    return _class_action(code, aut, basis)


def duality_action(code: BBCode, dual: ZXDuality, basis: LogicalBasis) -> DualityAction:
    """Class maps of a duality: X images in the Z basis, Z images in the X basis."""
    return _class_action(code, dual, basis)


# --- base vs lifted comparison ------------------------------------------------------

def tau_lifted_basis(witness: CoverWitness, base_basis: LogicalBasis) -> LogicalBasis:
    """Lift a paired base basis through tau; valid when h is odd and k_h = k."""
    if witness.h % 2 == 0:
        raise Refusal("tau-lifted bases exist for odd h only (pairing degenerates mod 2)")
    cover = witness.cover
    if cover.k != witness.base.k:
        raise Refusal(f"k_h = {cover.k} != k = {witness.base.k}; lifted set is not a basis")
    x_ops = tuple(
        PauliOp("X", lift_poly(witness, op.left), lift_poly(witness, op.right))
        for op in base_basis.x_ops
    )
    z_ops = tuple(
        PauliOp("Z", lift_poly(witness, op.left), lift_poly(witness, op.right))
        for op in base_basis.z_ops
    )
    lifted = LogicalBasis(x_ops, z_ops)
    if pairing_matrix(x_ops, z_ops) != BinMatrix.identity(base_basis.k):
        raise InternalConsistencyError("tau-lifted basis does not pair as identity")
    for op in x_ops + z_ops:
        if cover.classify(op) != Classification.LOGICAL:
            raise InternalConsistencyError("tau-lifted operator is not a nontrivial logical")
    return lifted


def _compare(witness, m, lifted, base_basis) -> bool:
    if witness.h % 2 == 0:
        raise Refusal("comparison hypothesis unmet: h must be odd")
    if witness.cover.k != witness.base.k:
        raise Refusal("comparison hypothesis unmet: k_h must equal k")
    basis = base_basis if base_basis is not None else witness.base.logical_basis
    lifted_basis = tau_lifted_basis(witness, basis)
    base_action = _class_action(witness.base, m, basis)
    return base_action == _class_action(witness.cover, lifted, lifted_basis)


def compare_base_and_lifted_action(
    witness: CoverWitness,
    aut: CodeAutomorphism,
    lifted_aut: CodeAutomorphism,
    base_basis: LogicalBasis | None = None,
) -> bool:
    """Base action in a base basis equals the lifted action in the tau-lifted basis.

    Requires odd h and k_h = k, the hypothesis under which the lifted basis is
    a basis at all; refuses otherwise.
    """
    return _compare(witness, aut, lifted_aut, base_basis)


def compare_base_and_lifted_duality_action(
    witness: CoverWitness,
    dual: ZXDuality,
    lifted_dual: ZXDuality,
    base_basis: LogicalBasis | None = None,
) -> bool:
    """Duality counterpart of compare_base_and_lifted_action."""
    return _compare(witness, dual, lifted_dual, base_basis)
