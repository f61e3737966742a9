"""Bivariate bicycle code construction, parameters and logical operators.

A code Q(A, B, l, m) has lm X-checks, lm Z-checks and n = 2lm qubits split
into a left and a right block, with

    H_X = (A | B),    H_Z = (B^T | A^T),

where a polynomial names its matrix in the row-support orientation of
Poly.to_matrix: row r of H_X is the support (rA | rB) of the X-check
labelled r, and row r of H_Z is (rB^T | rA^T).  Qubit index convention:
left-block qubit x^a y^b sits at a*m + b, right-block qubits follow at
lm + a*m + b.

As p^T has the transposed matrix, H_X^T = (A^T over B^T) and H_Z^T = (B over
A): both check matrices and their transposes stack, on demand, the circulants
of A, B, A^T and B^T that each polynomial builds once.  Row r of each check
matrix is the r-translate of its row 0, so column 0 of H_X H_Z^T decides the
product is zero; a code is built with that check alone, which XORs w rows of
M(A^T) and M(B^T).  Those rows are read through ``_transposed``, which raises
unless the polynomial has certified M(p)^T = M(p^T), and cover enumeration
runs the same check, ``_column_0``, on the rows alone.  Syndromes are ring
products on the two blocks, which stack no matrix, and H_X and H_Z are each
eliminated once, by a reducer.  The logical basis reads its kernel vectors off
those reducers by back-substitution and picks them with one highest-bit
elimination of the sparse check rows, masked to the free columns; it builds no
reduced form and no third reducer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .gf2 import BinMatrix, RowReducer, ShapeError, leading_bits, parities, xor_rows
from .rings import ContextMismatch, Poly, PolyParseError, RingContext, parse_poly

# Largest lattice l*m a code is built on: l = m = 64 builds in under 0.01 s on a
# Xeon vCPU (peak RSS 20 MB), and the dense check matrices grow as (l*m)^2 bits.
MAX_LATTICE_CELLS = 4096


class InternalConsistencyError(RuntimeError):
    """A structural identity that the construction guarantees has failed."""


class Refusal(ValueError):
    """A precondition on the requested operation does not hold."""


class Classification(enum.Enum):
    NOT_IN_KERNEL = "not-in-kernel"
    STABILIZER = "stabilizer"
    LOGICAL = "nontrivial-logical"


def _require_basis(basis: str) -> None:
    """Refusal unless basis names a Pauli type, "X" or "Z"."""
    if basis not in ("X", "Z"):
        raise Refusal(f"basis must be 'X' or 'Z', not {basis!r}")


@dataclass(frozen=True)
class PauliOp:
    """X(left|right) or Z(left|right): one Pauli type supported on two qubit blocks."""

    basis: str  # "X" or "Z"
    left: Poly
    right: Poly

    def __post_init__(self) -> None:
        _require_basis(self.basis)
        if self.left.ctx != self.right.ctx:
            raise ContextMismatch("left/right blocks over different rings")

    @property
    def ctx(self) -> RingContext:
        return self.left.ctx

    @property
    def weight(self) -> int:
        return self.left.weight + self.right.weight

    def support_vector(self) -> int:
        """Bitmask over 2lm qubits, right block shifted by lm."""
        return self.left.mask | (self.right.mask << self.ctx.dim)

    @classmethod
    def from_vector(cls, basis: str, ctx: RingContext, v: int) -> "PauliOp":
        mask = (1 << ctx.dim) - 1
        return cls(basis, Poly.from_vector(ctx, v & mask), Poly.from_vector(ctx, v >> ctx.dim))

    def __str__(self) -> str:
        return f"{self.basis}({self.left}|{self.right})"


def parse_pauli(text: str, ctx: RingContext) -> PauliOp:
    """Parse 'X(<poly>|<poly>)' / 'Z(<poly>|<poly>)'."""
    s = text.strip()
    if len(s) < 4 or s[0] not in "XZ" or s[1] != "(" or s[-1] != ")":
        raise PolyParseError("expected X(<poly>|<poly>) or Z(<poly>|<poly>)", 0)
    body = s[2:-1]
    if body.count("|") != 1:
        raise PolyParseError("expected exactly one '|' separator", 2)
    left, right = body.split("|")
    return PauliOp(s[0], parse_poly(left, ctx), parse_poly(right, ctx))


class BBCode:
    """An immutable code instance with cached parity checks and parameters."""

    def __init__(self, a: Poly, b: Poly) -> None:
        if a.ctx != b.ctx:
            raise ContextMismatch("A and B over different rings")
        if a.is_zero() or b.is_zero():
            raise Refusal("defining polynomials must be nonempty")
        self.ctx = _within_budget(a.ctx)
        self.a = a
        self.b = b
        at, bt = _transposed(a), _transposed(b)
        if _column_0(at.mask, bt.mask, at.to_matrix().rows, bt.to_matrix().rows):
            raise InternalConsistencyError("H_X H_Z^T != 0; construction is broken")

    # -- identity ------------------------------------------------------------

    @property
    def l(self) -> int:
        return self.ctx.l

    @property
    def m(self) -> int:
        return self.ctx.m

    @property
    def n(self) -> int:
        return 2 * self.ctx.dim

    def spec_line(self) -> str:
        return f"l={self.l} m={self.m} A={self.a} B={self.b}"

    def __repr__(self) -> str:
        return f"BBCode({self.spec_line()})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BBCode)
            and self.ctx == other.ctx
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.a.mask, self.b.mask))

    # -- parameters ----------------------------------------------------------

    @cached_property
    def hx(self) -> BinMatrix:
        return self.a.to_matrix().hstack(self.b.to_matrix())

    @cached_property
    def hz(self) -> BinMatrix:
        return self.b.transpose().to_matrix().hstack(self.a.transpose().to_matrix())

    @cached_property
    def hx_t(self) -> BinMatrix:
        return self.a.transpose().to_matrix().vstack(self.b.transpose().to_matrix())

    @cached_property
    def hz_t(self) -> BinMatrix:
        return self.b.to_matrix().vstack(self.a.to_matrix())

    @cached_property
    def _checks_are_translates(self) -> bool:
        """Every row of H_X and H_Z, and every qubit column (its H_X column, then
        its H_Z column shifted by lm), is the translate by its cell of the one at
        cell 0, each lm-bit block shifted alone: left qubits translate qubit 0,
        right ones qubit lm.  It holds for every code, and depends on the code
        alone, so ``covers.verify_cover_isomorphism`` decides it once per base."""
        ctx, dim = self.ctx, self.ctx.dim
        low, exps = (1 << dim) - 1, [divmod(v, self.m) for v in range(dim)]
        cols = tuple(x | z << dim for x, z in zip(self.hx_t.rows, self.hz_t.rows))
        for rows in (self.hx.rows, self.hz.rows, cols[:dim], cols[dim:]):
            p = rows[0]
            if tuple(ctx.shift(p & low, a, b) | ctx.shift(p >> dim, a, b) << dim for a, b in exps) != rows:
                return False
        return True

    @cached_property
    def rank_hz(self) -> int:
        rx, rz = len(self._x_stab_reducer), len(self._z_stab_reducer)
        if rx != rz:
            raise InternalConsistencyError(f"rank H_X = {rx} != rank H_Z = {rz}")
        return rz

    @property
    def k(self) -> int:
        return self.n - 2 * self.rank_hz

    @property
    def check_weight(self) -> int:
        return self.a.weight + self.b.weight

    # -- stabilizers and classification ---------------------------------------

    @cached_property
    def _x_stab_reducer(self) -> RowReducer:
        """Row space of H_X: the X-stabilizer supports."""
        return RowReducer(self.n, self.hx.rows)

    @cached_property
    def _z_stab_reducer(self) -> RowReducer:
        return RowReducer(self.n, self.hz.rows)

    def syndrome(self, op: PauliOp) -> int:
        """H_Z v for X-type ops, H_X v for Z-type; zero iff the op commutes."""
        if op.ctx != self.ctx:
            raise ContextMismatch("operator ring does not match code ring")
        return self.syndrome_vector(op.basis, op.support_vector())

    def syndrome_vector(self, basis: str, v: int) -> int:
        """H_Z v = v_L B + v_R A for basis "X", else H_X v = v_L A^T + v_R B^T; bits from n up are ignored."""
        lm = self.ctx.dim
        p, q = (self.b, self.a) if basis == "X" else (self.a.transpose(), self.b.transpose())
        return p.mul_mask(v & ((1 << lm) - 1)) ^ q.mul_mask(v >> lm & ((1 << lm) - 1))

    def classify_vector(self, basis: str, v: int) -> Classification:
        _require_basis(basis)
        if self.syndrome_vector(basis, v) != 0:
            return Classification.NOT_IN_KERNEL
        stab = self._x_stab_reducer if basis == "X" else self._z_stab_reducer
        if stab.contains(v):
            return Classification.STABILIZER
        return Classification.LOGICAL

    def classify(self, op: PauliOp) -> Classification:
        if op.ctx != self.ctx:
            raise ContextMismatch("operator ring does not match code ring")
        return self.classify_vector(op.basis, op.support_vector())

    # -- logical basis ---------------------------------------------------------

    @cached_property
    def logical_basis(self) -> "LogicalBasis":
        return _symplectic_basis(self)

    def x_class_coords(self, v: int) -> int:
        """Coordinates of an X-type kernel vector in the X logical basis."""
        return self._class_coords("X", v)

    def z_class_coords(self, v: int) -> int:
        return self._class_coords("Z", v)

    def _class_coords(self, basis: str, v: int, check: bool = True) -> int:
        """Class coordinates of a kernel vector; ``check=False`` skips the kernel
        test, for images of kernel vectors under a verified chain map."""
        if v < 0 or v >> self.n:
            raise ShapeError(f"vector has bits beyond qubit {self.n - 1}")
        if check and self.syndrome_vector(basis, v):
            raise Refusal("vector is not in the kernel of the relevant check matrix")
        # v is a sum of basis logicals and stabilizers; each partner pairs with
        # one basis logical and commutes with everything else in that sum
        logicals = self.logical_basis
        return parities(logicals.z_vectors if basis == "X" else logicals.x_vectors, v)


def _transposed(p: Poly) -> Poly:
    """p^T, once p has certified M(p)^T = M(p^T) (``Poly._column_0_is_transpose``).
    That is a theorem for circulants, so a failure means transpose() is broken."""
    if not p._column_0_is_transpose:
        raise InternalConsistencyError(f"column 0 of M(p) is not the mask of p^T for p = {p}")
    return p.transpose()


def _column_0(at: int, bt: int, at_rows: Sequence[int], bt_rows: Sequence[int]) -> int:
    """Column 0 of H_X H_Z^T, zero exactly when the product is: entry (r, s)
    pairs the r-translate of H_X's row 0 with the s-translate of H_Z's row 0,
    (B^T | A^T) as the masks ``bt`` and ``at``, so it is entry (r - s, 0).  That is
    M(A) bt + M(B) at, and with M(p)^T = M(p^T), certified by ``_transposed``, each
    product XORs the w rows of M(A^T) or M(B^T) at the mask's bits.
    """
    return xor_rows(at_rows, bt) ^ xor_rows(bt_rows, at)


def _within_budget(ctx: RingContext) -> RingContext:
    """ctx, or Refusal above MAX_LATTICE_CELLS cells: call it before parsing, as x^e holds e bits."""
    if ctx.dim > MAX_LATTICE_CELLS:
        raise Refusal(f"lattice l*m = {ctx.dim} exceeds the budget of {MAX_LATTICE_CELLS} cells")
    return ctx


def build_code(a: str, b: str, l: int, m: int) -> BBCode:
    """Build Q(A, B, l, m), the polynomial strings parsed over (l, m)."""
    try:
        ctx = RingContext(l, m)
    except ValueError as exc:
        raise Refusal(f"bad lattice parameter: {exc}") from exc
    ctx = _within_budget(ctx)
    return BBCode(parse_poly(a, ctx), parse_poly(b, ctx))


SPEC_KEYS = ("l", "m", "A", "B")


def parse_code_spec(line: str) -> BBCode:
    """Parse the one-line format 'l=<uint> m=<uint> A=<poly> B=<poly>', uint := [0-9]+."""
    fields: dict[str, str] = {}
    last_key: str | None = None
    for chunk in line.split():
        if "=" not in chunk:
            # rendered polynomials carry spaces around '+'; glue those chunks
            # back onto the value being built
            if last_key is None:
                raise Refusal(f"malformed code spec near {chunk!r}")
            fields[last_key] += chunk
            continue
        key, _, val = chunk.partition("=")
        if key not in SPEC_KEYS:
            raise Refusal(f"unknown key {key!r} in code spec; keys are {', '.join(SPEC_KEYS)}")
        if key in fields:
            raise Refusal(f"repeated key {key!r} in code spec")
        last_key = key
        fields[key] = val
    missing = set(SPEC_KEYS) - fields.keys()
    if missing:
        raise Refusal(f"code spec missing fields: {sorted(missing)}")
    for key in "lm":  # a minus sign passes, for the ring's own refusal of orders below 1
        if not (fields[key].isascii() and fields[key].removeprefix("-").isdigit()):
            raise Refusal(f"bad lattice parameter: {key}={fields[key]!r} is not ASCII digits")
    try:
        l, m = int(fields["l"]), int(fields["m"])
    except ValueError as exc:  # more digits than int() converts
        raise Refusal(f"bad lattice parameter: {exc}") from exc
    return build_code(fields["A"], fields["B"], l, m)


@dataclass(frozen=True)
class LogicalBasis:
    """k symplectically paired X and Z logical representatives."""

    x_ops: tuple[PauliOp, ...]
    z_ops: tuple[PauliOp, ...]

    @property
    def k(self) -> int:
        return len(self.x_ops)

    @cached_property
    def x_vectors(self) -> tuple[int, ...]:
        """Support vectors of the X representatives."""
        return tuple(op.support_vector() for op in self.x_ops)

    @cached_property
    def z_vectors(self) -> tuple[int, ...]:
        return tuple(op.support_vector() for op in self.z_ops)

    def pairing_matrix(self) -> BinMatrix:
        return _overlap_matrix(self.x_vectors, self.z_vectors)


def _overlap_matrix(xs, zs) -> BinMatrix:
    """Entry (i, j) is the overlap parity of xs[i] and zs[j]: the product xs zs^T."""
    return BinMatrix(len(xs), len(zs), tuple(parities(zs, x) for x in xs))


def pairing_matrix(x_ops, z_ops) -> BinMatrix:
    """Symplectic overlap parity matrix between two operator lists."""
    return _overlap_matrix([x.support_vector() for x in x_ops], [z.support_vector() for z in z_ops])


def _coset_reps(checks: RowReducer, stab_rows: Sequence[int]) -> list[int]:
    """The kernel vectors of the checks, in kernel order, that are independent
    modulo the stabilizer rows and the vectors before them.

    Restricted to the free columns F of the checks, the kernel vector at f is
    e_f, and the restriction is one-to-one on the kernel, which holds the
    stabilizers.  So that vector is in the span of the stabilizers and the
    earlier kernel vectors exactly when some stabilizer restricts to a vector
    whose highest bit is f: the picks are F less the leading bits of the
    restricted rows.
    """
    free = ((1 << checks.n_cols) - 1) ^ checks.pivot_mask
    picks = free ^ leading_bits(r & free for r in stab_rows)
    return list(checks.kernel_vectors(c for c in range(checks.n_cols) if picks >> c & 1))


def _symplectic_basis(code: BBCode) -> LogicalBasis:
    """Deterministic paired basis via symplectic Gram-Schmidt.

    X representatives are the kernel vectors of H_Z, in kernel order off the
    H_Z reducer, that are independent modulo the rows of H_X and the vectors
    before them (Z reps dually); there must be k of them.  Pairs are then
    peeled off front-first, correcting the remaining vectors so the pairing is
    exactly I_k.  A zero syndrome of each vector and a pairing of I_k rule out
    stabilizers with no membership test: they overlap evenly with every kernel
    vector of the other sector.
    """
    k = code.k
    if k == 0:
        return LogicalBasis((), ())
    x_reps = _coset_reps(code._z_stab_reducer, code.hx.rows)
    z_reps = _coset_reps(code._x_stab_reducer, code.hz.rows)
    if len(x_reps) != k or len(z_reps) != k:
        raise InternalConsistencyError("logical representative count does not match k")
    xs: list[int] = []
    zs: list[int] = []
    pool_x, pool_z = list(x_reps), list(z_reps)
    while pool_x:
        x = pool_x.pop(0)
        hit = next((i for i, z in enumerate(pool_z) if (x & z).bit_count() & 1), None)
        if hit is None:
            raise InternalConsistencyError("symplectic pairing failed; degenerate pairing")
        z = pool_z.pop(hit)
        pool_x = [p ^ x if (p & z).bit_count() & 1 else p for p in pool_x]
        pool_z = [p ^ z if (p & x).bit_count() & 1 else p for p in pool_z]
        xs.append(x)
        zs.append(z)
    x_ops = tuple(PauliOp.from_vector("X", code.ctx, v) for v in xs)
    z_ops = tuple(PauliOp.from_vector("Z", code.ctx, v) for v in zs)
    basis = LogicalBasis(x_ops, z_ops)
    if any(code.syndrome_vector("X", v) for v in xs) or any(code.syndrome_vector("Z", v) for v in zs):
        raise InternalConsistencyError("basis operator is not in the kernel")
    if basis.pairing_matrix() != BinMatrix.identity(k):
        raise InternalConsistencyError("constructed basis does not pair as identity")
    return basis

