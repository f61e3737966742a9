"""Exact minimum-distance search at desk scale.

Two exhaustive strategies, picked by code size:

* coset enumeration: walk the whole affine family (logical class + stabilizer
  span) with a Gray code, one XOR and popcount per step.  Exact with no
  weight cap; feasible while (n - k)/2 + k stays in the low twenties.
* fixed-weight meet-in-the-middle: for each weight w <= w_max, find every
  kernel vector of weight w from matching half-support syndromes, then keep
  the ones outside the stabilizer row space.  Exact when it finds a hit at
  some w (all lighter weights were exhausted), otherwise it certifies
  d > w_max.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .codes import BBCode, Classification, InternalConsistencyError, PauliOp, Refusal

COSET_MAX_STAB = 16
COSET_MAX_K = 12


@dataclass(frozen=True)
class DistanceResult:
    kind: str  # "exact" | "upper-bound" | "lower-bound-interval"
    value: int | None
    method: str  # "enumeration" | "coset" | "lift-derived"
    w_max: int
    witness: PauliOp | None = None

    def as_dict(self) -> dict:
        d = {"kind": self.kind, "value": self.value, "method": self.method, "w_max": self.w_max}
        if self.witness is not None:
            d["witness"] = str(self.witness)
        return d


def _coset_minimum(code: BBCode, basis_ops) -> tuple[int, int]:
    """Exact min weight over every nontrivial class; returns (weight, witness)."""
    n = code.n
    stab = code._z_stab_reducer if basis_ops[0].basis == "Z" else code._x_stab_reducer
    stab_basis = stab.basis_rows()
    reps = [op.support_vector() for op in basis_ops]
    gens = reps + stab_basis
    k = len(reps)
    kmask = (1 << k) - 1
    best = n + 1
    best_vec = 0
    cur = 0
    for g in range(1, 1 << len(gens)):
        bit = (g & -g).bit_length() - 1
        cur ^= gens[bit]
        if (g ^ (g >> 1)) & kmask:
            w = cur.bit_count()
            if w < best:
                best = w
                best_vec = cur
    return best, best_vec


def _mitm_weight_hits(cols: tuple[int, ...], n: int, w: int) -> set[tuple[int, ...]]:
    """Supports of all weight-w vectors in the kernel (column sums to zero)."""
    w1, w2 = w // 2, w - w // 2
    table: dict[int, list[tuple[int, ...]]] = {}
    for idxs in combinations(range(n), w1):
        s = 0
        for i in idxs:
            s ^= cols[i]
        table.setdefault(s, []).append(idxs)
    hits: set[tuple[int, ...]] = set()
    for idxs in combinations(range(n), w2):
        s = 0
        for i in idxs:
            s ^= cols[i]
        bucket = table.get(s)
        if not bucket:
            continue
        right = set(idxs)
        for left in bucket:
            if right.isdisjoint(left):
                hits.add(tuple(sorted(left + idxs)))
    return hits


def _support_vec(supp: tuple[int, ...]) -> int:
    v = 0
    for i in supp:
        v |= 1 << i
    return v


def _logicals_of_weight(code: BBCode, basis: str, w: int) -> Iterator[int]:
    """Weight-w nontrivial logicals of the given type, in ascending support order."""
    cols = (code.hx_t if basis == "Z" else code.hz_t).rows  # the columns of H_X or H_Z
    stab = code._z_stab_reducer if basis == "Z" else code._x_stab_reducer
    for supp in sorted(_mitm_weight_hits(cols, code.n, w)):
        v = _support_vec(supp)
        if not stab.contains(v):
            yield v


def logical_vectors_of_weight(code: BBCode, basis: str, w: int) -> list[int]:
    """Every weight-w nontrivial logical of the given type, exhaustively."""
    return list(_logicals_of_weight(code, basis, w))


def _mitm_minimum(code: BBCode, basis: str, w_max: int) -> tuple[int | None, int]:
    for w in range(1, w_max + 1):
        v = next(_logicals_of_weight(code, basis, w), None)
        if v is not None:
            return w, v
    return None, 0


def distance_one_side(code: BBCode, basis: str, w_max: int) -> DistanceResult:
    """Exact d_X (basis='X') or d_Z (basis='Z'), or a d > w_max certificate."""
    if w_max < 1:
        raise Refusal(f"w_max must be >= 1, got {w_max}")
    if code.k == 0:
        raise Refusal("distance undefined: the code has no logical qubits")
    if (code.n - code.k) // 2 <= COSET_MAX_STAB and code.k <= COSET_MAX_K:
        ops = code.logical_basis.z_ops if basis == "Z" else code.logical_basis.x_ops
        w, vec = _coset_minimum(code, ops)
        op = PauliOp.from_vector(basis, code.ctx, vec)
        if code.classify(op) != Classification.LOGICAL:
            raise InternalConsistencyError("coset witness failed classification")
        return DistanceResult("exact", w, "coset", w_max=code.n, witness=op)
    w, vec = _mitm_minimum(code, basis, w_max)
    if w is None:
        return DistanceResult("lower-bound-interval", None, "enumeration", w_max=w_max)
    op = PauliOp.from_vector(basis, code.ctx, vec)
    return DistanceResult("exact", w, "enumeration", w_max=w_max, witness=op)


def exact_distance(code: BBCode, w_max: int, *, both_sides: bool = False) -> DistanceResult:
    """Code distance; Z side only unless both_sides (d_X = d_Z is a known identity)."""
    dz = distance_one_side(code, "Z", w_max)
    if not both_sides:
        return dz
    dx = distance_one_side(code, "X", w_max)
    if dz.kind == "exact" and dx.kind == "exact":
        value = min(dz.value, dx.value)
        pick = dz if dz.value <= dx.value else dx
        return DistanceResult("exact", value, pick.method, w_max=w_max, witness=pick.witness)
    if dz.kind == "exact":
        return dz
    if dx.kind == "exact":
        return dx
    return dz


def _sides_agree(dz: DistanceResult, dx: DistanceResult) -> bool | None:
    """True/False when both sides are exact; None if inconclusive."""
    if dz.kind != "exact" or dx.kind != "exact":
        return None
    return dz.value == dx.value


def verify_dx_equals_dz(code: BBCode, w_max: int) -> bool | None:
    """True/False when both sides are exact within w_max; None if inconclusive."""
    return _sides_agree(distance_one_side(code, "Z", w_max), distance_one_side(code, "X", w_max))
