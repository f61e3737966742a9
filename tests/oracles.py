"""Slow, obviously-correct reference implementations used only by the tests."""

from functools import reduce

from bbcovers.gf2 import BinMatrix
from bbcovers.rings import RingContext


def kron(a: BinMatrix, b: BinMatrix) -> BinMatrix:
    """Kronecker product; shape (r1*r2) x (c1*c2)."""
    rows = []
    for ra in a.rows:
        for rb in b.rows:
            acc = 0
            for j in range(a.n_cols):
                if (ra >> j) & 1:
                    acc |= rb << (j * b.n_cols)
            rows.append(acc)
    return BinMatrix(a.n_rows * b.n_rows, a.n_cols * b.n_cols, tuple(rows))


def circulant_generator(k: int) -> BinMatrix:
    """C_k: the k x k cyclic shift whose row i is the support of x^(i+1)."""
    return BinMatrix(k, k, tuple(1 << ((i + 1) % k) for i in range(k)))


def poly_power_matrix(ctx: RingContext, a: int, b: int) -> BinMatrix:
    """Explicit C_l^a (x) C_m^b, for cross-checking Poly.to_matrix."""
    pa = reduce(lambda acc, _: acc @ circulant_generator(ctx.l), range(a), BinMatrix.identity(ctx.l))
    pb = reduce(lambda acc, _: acc @ circulant_generator(ctx.m), range(b), BinMatrix.identity(ctx.m))
    return kron(pa, pb)


def span(rows) -> set[int]:
    """Every GF(2) combination of the given rows."""
    out = {0}
    for r in rows:
        out |= {v ^ r for v in out}
    return out


def kernel(m: BinMatrix) -> set[int]:
    """Every vector v with m @ v^T = 0, by exhaustion over 2^n_cols vectors."""
    return {v for v in range(1 << m.n_cols) if m.mul_vec(v) == 0}


def kernel_basis_reference(m: BinMatrix) -> BinMatrix:
    """Kernel basis by incremental Gauss-Jordan elimination over sorted pivot lists.

    This is the elimination BinMatrix.kernel_basis used before it read the
    basis off RowReducer's reduced rows; both must agree bit for bit.
    """
    pivots: list[int] = []
    echelon: list[int] = []
    for r in m.rows:
        v = r
        for col, prow in zip(pivots, echelon):
            if (v >> col) & 1:
                v ^= prow
        if v:
            c = (v & -v).bit_length() - 1
            echelon = [e ^ v if (e >> c) & 1 else e for e in echelon]
            k = 0
            while k < len(pivots) and pivots[k] < c:
                k += 1
            pivots.insert(k, c)
            echelon.insert(k, v)
    basis = []
    for fc in range(m.n_cols):
        if fc in pivots:
            continue
        v = 1 << fc
        for col, prow in zip(pivots, echelon):
            if (prow >> fc) & 1:
                v |= 1 << col
        basis.append(v)
    return BinMatrix(len(basis), m.n_cols, tuple(basis))
