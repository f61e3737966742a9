"""CSS code automorphisms, ZX-dualities, their lifts, and logical actions.

Both are chain maps (W_Z, f, W_X) of a code's complex Z-checks -> qubits ->
X-checks, into the complex itself or into its dual.  They are supplied rather
than discovered: verification, sheet-wise lifting along a cover witness, and
logical-action computation are offered for given candidates, with the shift
family and two worked constructions built in.  The automorphism-named
functions take both kinds; the duality-named ones refuse any other map.

Like every ChainMap they are column tables.  The shifts, the block swap and
the antipode are lattice maps (``lattice.LatticeMap``, see chainmaps), whose
squares are decided from phi's images of A and B, whose images act on masks
and whose columns are built only when read.  Such a map is a permutation in
every degree exactly when phi is bijective, which phi = 1 or -1 is at once.
A lattice map with phi = 1 whose translation moves no cell across a sheet
lifts to the cover's lattice map with the same translation and swap, and
intertwines with the witness's p when the two composites with p are one
lattice map.  Every other map, the y-swap and any map read from JSON among
them, lifts block by block on its columns, through p's sheets (its
sections), and is verified and intertwined with p's cell table on columns; a
degree of such a map whose cell table sends distinct cells to distinct cells
is a permutation with no rank to compute.  Verification is a
predicate and stores nothing: a logical action trusts a lattice map's class
images by its own O(w) squares and kernel-tests every other map's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .codes import BBCode, Classification, InternalConsistencyError, LogicalBasis, Refusal
from .codes import _overlap_matrix, pairing_matrix
from .covers import CoverWitness
from .chainmaps import ChainMap, _block_diag, _class_images, _class_matrix, _compose
from .chainmaps import _lattice_map, _unit_columns, lift_logical
from .gf2 import BinMatrix, xor_rows
from .lattice import LatticeMap
from .rings import Monomial


def _is_permutation(cells: tuple[int, ...] | None) -> bool:
    """Whether a square degree's cell table exists and sends distinct cells to distinct cells."""
    return cells is not None and len(set(cells)) == len(cells)


@dataclass(frozen=True)
class CodeAutomorphism(ChainMap):
    """Chain map (deg2, deg1, deg0) = (W_Z, f, W_X) of a code's complex to itself.

    deg1 is the matrix of a qubit permutation, whose columns are read back as
    the image map ``f``.  The JSON form is {"type", "kind", "f", "w_x",
    "w_z"}, with type "automorphism" or "zx-duality" and kind "tanner" when
    W_X and W_Z are permutation matrices, else "general".
    """

    @cached_property
    def f(self) -> tuple[int, ...]:
        """The qubit permutation of deg1 as an image map: qubit j goes to qubit f[j]."""
        cells = self._cell_tables[1]
        if not _is_permutation(cells):
            raise ValueError("the qubit degree is not a permutation matrix")
        return cells

    def to_json(self) -> dict:
        return {
            "type": "zx-duality" if isinstance(self, ZXDuality) else "automorphism",
            "kind": _kind(self),
            "f": list(self.f),
            "w_x": self.deg0.to_text(),
            "w_z": self.deg2.to_text(),
        }

    @staticmethod
    def from_json(data: dict, code: BBCode) -> "CodeAutomorphism":
        """The map of ``code`` that ``to_json`` wrote, of the type it records
        (an automorphism when none is); Refusal for a malformed form, or for a
        kind that is neither "general" nor the one read off its W's."""
        try:
            types = {"automorphism": CodeAutomorphism, "zx-duality": ZXDuality}
            cls = types[data.get("type", "automorphism")]
            f = tuple(data["f"])
            w_x, w_z = BinMatrix.from_text(data["w_x"]), BinMatrix.from_text(data["w_z"])
            lm = code.ctx.dim
            if any((w.n_rows, w.n_cols) != (lm, lm) for w in (w_x, w_z)):
                raise ValueError(f"W_X and W_Z must be {lm}x{lm}")
            if any(type(i) is not int for i in f) or sorted(f) != list(range(code.n)):
                raise ValueError(f"f is not a permutation of range({code.n})")
            m = cls(w_z.transpose().rows, _unit_columns(f), w_x.transpose().rows, code, code)
            if (kind := data.get("kind", "general")) not in ("general", _kind(m)):
                raise ValueError(f"kind {kind!r} for W's of kind {_kind(m)!r}")
            return m
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise Refusal(f"malformed automorphism JSON ({type(exc).__name__}: {exc})") from None


class ZXDuality(CodeAutomorphism):
    """Chain map from a code's complex to its dual, swapping X and Z sectors.

    W_X maps the X-check space to the Z-check space and W_Z the Z-check space
    to the X-check space.  Source and target are the same code: a self-dual
    code (A = B^T) has H_X = H_Z, so only this type marks the sector swap, and
    every function of this module reads it from here.
    """


def _kind(m: CodeAutomorphism) -> str:
    """"tanner" when W_X and W_Z are permutation matrices, else "general"."""
    return "tanner" if all(map(_is_permutation, m._cell_tables[::2])) else "general"


def _of(code: BBCode, m: CodeAutomorphism) -> CodeAutomorphism:
    """m itself when it is a map of ``code``; Refusal otherwise."""
    if m.source != code or m.target != code:
        raise Refusal("the map is not a map of this code")
    return m


def _verify(code: BBCode, m: CodeAutomorphism) -> bool:
    """A qubit permutation, invertible W's and exact chain squares into the
    code's own or, for a ZXDuality, dual complex.  A lattice map is one cell
    table in every degree, so it is a permutation in all of them exactly when
    its LatticeMap is bijective."""
    dual = isinstance(_of(code, m), ZXDuality)
    if m._lattice is not None:
        return m._lattice.bijective and m.commutes(dual)
    if not _is_permutation(m._cell_tables[1]):
        return False
    lm = code.ctx.dim
    for w, cells in zip(m.columns[::2], m._cell_tables[::2]):
        # a permutation is invertible; any other W is ranked (a matrix and its
        # transpose, whose rows are the columns, have one rank)
        if not _is_permutation(cells) and BinMatrix(lm, lm, w).rank() != lm:
            return False
    return m.commutes(dual)


def _require_duality(m: CodeAutomorphism) -> ZXDuality:
    """m itself when it is a ZXDuality; Refusal for any other map."""
    if not isinstance(m, ZXDuality):
        raise Refusal(f"a ZX-duality is needed, not a {type(m).__name__}")
    return m


def verify_automorphism(code: BBCode, aut: CodeAutomorphism) -> bool:
    """Check W_X H_X = H_X f and H_Z^T W_Z = f H_Z^T exactly; W's must be invertible.
    A ZXDuality, a CodeAutomorphism into the dual complex, is checked into that complex."""
    return _verify(code, aut)


def verify_zx_duality(code: BBCode, dual: ZXDuality) -> bool:
    """Check f H_Z^T = H_X^T W_Z and W_X H_X = H_Z f exactly; W's must be invertible.
    Refuses a map that is not a ZXDuality."""
    return _verify(code, _require_duality(dual))


# --- built-in constructions -----------------------------------------------------

def shift_automorphism(code: BBCode, mono: Monomial) -> CodeAutomorphism:
    """Shift all check and qubit labels by a monomial; works on every BB code."""
    return _lattice_map(CodeAutomorphism, LatticeMap(code.ctx, code.ctx, s=mono), code, code)


def y_exponent_swap_automorphism(code: BBCode) -> CodeAutomorphism:
    """Relabel monomials by swapping the y-exponents 0 and 1 on checks and both blocks:
    the CNOT automorphism of the paper's Example 5.  Only codes whose polynomials make
    the two exponents interchangeable have it, so callers verify it."""
    ctx, sigma = code.ctx, {0: 1, 1: 0}
    cols = _unit_columns([ctx.index(m.a, sigma.get(m.b, m.b)) for m in ctx.monomials()])
    return CodeAutomorphism(cols, _block_diag(cols, ctx.dim), cols, code, code)


def block_swap_zx_duality(code: BBCode) -> ZXDuality:
    """f swaps the left and right qubit blocks, W_X = W_Z = I.

    A ZX-duality exactly when A and B are self-transpose; callers verify.
    """
    return _lattice_map(ZXDuality, LatticeMap(code.ctx, code.ctx, swap=True), code, code)


def antipode_zx_duality(code: BBCode) -> ZXDuality:
    """Block swap composed with exponent negation; a duality of every BB code."""
    return _lattice_map(ZXDuality, LatticeMap(code.ctx, code.ctx, (-1, 0), (0, -1), swap=True), code, code)


# --- lifting along a cover -------------------------------------------------------

def _block_lift(witness: CoverWitness, w: tuple[int, ...]) -> tuple[int, ...]:
    """Sheet-wise lift of the columns of a square base map: every block is
    repeated on every sheet of p, so each sheet maps to itself.  Base
    index i of a space of lm x lm blocks (one block for checks, two for qubits)
    is cover index index[i] on a sheet, through that sheet's table."""
    lm_b, lm_c = witness.base.ctx.dim, witness.cover.ctx.dim
    cols = [0] * (len(w) * witness.h)
    for sheet in witness.p.sheets:
        index = [block * lm_c + e for block in range(len(w) // lm_b) for e in sheet]
        units = _unit_columns(index)
        for j, col in enumerate(w):
            cols[index[j]] = xor_rows(units, col)
    return tuple(cols)


def _sheet_lift(witness: CoverWitness, lat: LatticeMap) -> LatticeMap | None:
    """The cover's lattice map that the sheet-wise lift of ``lat`` is, or None
    when it is none.  It is one when phi = 1 and the translation has no
    component along a direction of index > 1 (u or t): a sheet-wise lift keeps
    every cell on its sheet, while a cover translation along such a direction
    carries some cells to the next sheet."""
    base = witness.base.ctx
    sa, sb = lat.s
    if lat != LatticeMap(base, base, s=lat.s, swap=lat.swap) or (sa and witness.u > 1) or (sb and witness.t > 1):
        return None
    return LatticeMap(witness.cover.ctx, witness.cover.ctx, s=lat.s, swap=lat.swap)


def _lift(witness: CoverWitness, m: CodeAutomorphism) -> CodeAutomorphism:
    """Sheet-wise lift; verified on the cover and intertwining with p in every degree."""
    if not _verify(witness.base, m):
        raise Refusal("the supplied map does not verify on the base code")
    cover = witness.cover
    up = m._lattice and _sheet_lift(witness, m._lattice)
    if up:
        lifted = _lattice_map(type(m), up, cover, cover)
        intertwines = witness.p.after(up) == m._lattice.after(witness.p)
    else:
        lifted = type(m)(*(_block_lift(witness, w) for w in m.columns), cover, cover)
        ps = _lattice_map(ChainMap, witness.p, cover, witness.base).columns
        intertwines = all(_compose(p, u) == _compose(d, p) for p, u, d in zip(ps, lifted.columns, m.columns))
    if not _verify(cover, lifted):
        raise Refusal("sheet-wise lift does not verify on the cover code")
    if not intertwines:
        raise InternalConsistencyError("lift does not intertwine with the projection")
    return lifted


def lift_automorphism(witness: CoverWitness, aut: CodeAutomorphism) -> CodeAutomorphism:
    """Sheet-wise lift, verified on the cover and intertwining with p; a ZXDuality lifts to one."""
    return _lift(witness, aut)


def lift_zx_duality(witness: CoverWitness, dual: ZXDuality) -> ZXDuality:
    """Sheet-wise lift of a ZX-duality; verified on the cover.  Refuses a map
    that is not a ZXDuality."""
    return _lift(witness, _require_duality(dual))


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


def _paired(code: BBCode, basis: LogicalBasis) -> bool:
    """Whether basis is the code's own; Refusal unless its k classes per side pair as I_k."""
    own = basis is code.logical_basis
    if not own and (basis.k != code.k or basis.pairing_matrix() != BinMatrix.identity(basis.k)):
        raise Refusal("a symplectically paired basis of the code is needed")
    return own


def _class_action(code: BBCode, m: CodeAutomorphism, basis: LogicalBasis):
    """Images of the X and of the Z basis classes, in the given paired basis.

    An automorphism keeps each sector; a ZX-duality sends X classes to Z
    classes and Z classes to X classes.
    """
    _of(code, m)
    own = _paired(code, basis)
    swap = isinstance(m, ZXDuality)
    vecs = {"X": basis.x_vectors, "Z": basis.z_vectors}
    sectors = list(zip("XZ", "ZX" if swap else "XZ"))
    images = [_class_images(m, src, side, vecs[src]) for src, side in sectors]
    if not own:
        # coordinates of the caller's basis, all classified before any inverse:
        # with every vector in its kernel, a paired basis has invertible coordinates
        changes = [_class_matrix(code, side, vecs[side]) for _, side in sectors]
        images = [im @ change.inverse() for im, change in zip(images, changes)]
    on_x, on_z = images
    if _overlap_matrix(on_x.rows, on_z.rows) != BinMatrix.identity(basis.k):
        raise InternalConsistencyError("action does not preserve the symplectic pairing")
    return DualityAction(on_x, on_z) if swap else LogicalAction(on_x, on_z)


def logical_action(code: BBCode, aut: CodeAutomorphism, basis: LogicalBasis) -> LogicalAction | DualityAction:
    """Action on logical classes relative to the given paired basis; a DualityAction for a ZXDuality."""
    return _class_action(code, aut, basis)


def duality_action(code: BBCode, dual: ZXDuality, basis: LogicalBasis) -> DualityAction:
    """Class maps of a duality: X images in the Z basis, Z images in the X basis.
    Refuses a map that is not a ZXDuality."""
    return _class_action(code, _require_duality(dual), basis)


# --- base vs lifted comparison ------------------------------------------------------

def tau_lifted_basis(witness: CoverWitness, base_basis: LogicalBasis) -> LogicalBasis:
    """Lift a paired base basis (Refusal for any other) through tau; valid when h is odd and k_h = k."""
    if witness.h % 2 == 0:
        raise Refusal("tau-lifted bases exist for odd h only (pairing degenerates mod 2)")
    if witness.cover.k != witness.base.k:
        raise Refusal(f"k_h = {witness.cover.k} != k = {witness.base.k}; lifted set is not a basis")
    _paired(witness.base, base_basis)
    lifted = [lift_logical(witness, op) for op in base_basis.x_ops + base_basis.z_ops]
    if any(c.classification != Classification.LOGICAL for c in lifted):
        raise InternalConsistencyError("tau-lifted operator is not a nontrivial logical")
    k = base_basis.k
    x_ops, z_ops = tuple(c.op for c in lifted[:k]), tuple(c.op for c in lifted[k:])
    if pairing_matrix(x_ops, z_ops) != BinMatrix.identity(k):
        raise InternalConsistencyError("tau-lifted basis does not pair as identity")
    return LogicalBasis(x_ops, z_ops)


def compare_base_and_lifted_action(
    witness: CoverWitness,
    aut: CodeAutomorphism,
    lifted_aut: CodeAutomorphism,
    base_basis: LogicalBasis | None = None,
) -> bool:
    """Base action in a base basis equals the lifted action in the tau-lifted basis.

    Requires odd h and k_h = k, the hypothesis under which the lifted basis is
    a basis at all; refuses otherwise.  ZX-dualities are compared the same way.
    """
    basis = base_basis if base_basis is not None else witness.base.logical_basis
    lifted_basis = tau_lifted_basis(witness, basis)
    return _class_action(witness.base, aut, basis) == _class_action(witness.cover, lifted_aut, lifted_basis)


def compare_base_and_lifted_duality_action(
    witness: CoverWitness,
    dual: ZXDuality,
    lifted_dual: ZXDuality,
    base_basis: LogicalBasis | None = None,
) -> bool:
    """Duality counterpart of compare_base_and_lifted_action; refuses a map,
    base or lifted, that is not a ZXDuality."""
    return compare_base_and_lifted_action(witness, _require_duality(dual), _require_duality(lifted_dual), base_basis)
