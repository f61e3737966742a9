"""Exact minimum-distance search.

One exhaustive strategy, the cluster search of Dumer, Kovalev and Pryadko
(arXiv:1611.07164), run for w = 1, 2, ... up to w_max on the check matrix a
logical must commute with (H_X for Z logicals, H_Z for X logicals):

* Pinning.  The lattice translations x^a y^b are code automorphisms with two
  orbits on the qubits, the left and the right block, so some translate of
  every minimum-weight logical contains qubit 0 or qubit lm.  Searching only
  the sets that contain one of those two qubits loses no weight.  Pin lm runs
  only when pin 0 found nothing at this weight, and then only on the right
  block: a weight-w nontrivial logical meeting the left block would have a
  translate through qubit 0, which pin 0 would have found.
* Branching.  If S is a minimum-weight nontrivial logical, no proper nonempty
  subset T of S has zero syndrome: T or S \\ T would be a lighter nontrivial
  logical.  So every check T leaves unsatisfied meets S \\ T, and growing T
  only by the qubits of its lowest unsatisfied check still reaches S.  Each
  such qubit is tested before the branch is entered: it is dropped when it
  zeroes the syndrome before full weight, or when the unsatisfied checks left
  outnumber what the remaining qubits can reach (the largest column weight
  times the qubits left).  A full-weight set with zero syndrome counts when it
  is outside the stabilizer span.
* Witness.  At the first weight with a hit, the witness is the hit first in
  ascending support order.  Translation invariance puts that one among the
  hits of pin 0 when there are any, otherwise among those of pin lm.  Of two
  hits of one weight, the first holds the lowest qubit of their difference,
  so one scan finds it.  It is re-checked with classify, and a failure is an
  InternalConsistencyError.
* w_max.  The result is exact, with that witness, or a lower-bound-interval
  (d > w_max) when no weight up to w_max has a hit; w_max is echoed as given.
"""

from __future__ import annotations

from dataclasses import dataclass

from .autos import antipode_zx_duality, verify_zx_duality
from .codes import BBCode, Classification, InternalConsistencyError, PauliOp, Refusal, _require_basis
from .gf2 import first_in_ascending_support


@dataclass(frozen=True)
class DistanceResult:
    kind: str  # "exact" | "upper-bound" | "lower-bound-interval"
    value: int | None
    method: str  # "enumeration" (the exhaustive search here) | "lift-derived" (chainmaps bounds)
    w_max: int
    witness: PauliOp | None = None

    def as_dict(self) -> dict:
        d = {"kind": self.kind, "value": self.value, "method": self.method, "w_max": self.w_max}
        if self.witness is not None:
            d["witness"] = str(self.witness)
        return d


def _cluster_search(code: BBCode, basis: str):
    """logicals(root, w, within): the weight-w nontrivial logicals through `root`
    inside the qubit mask `within`, when no lighter nontrivial logical of the
    given type exists."""
    h, h_t = (code.hx, code.hx_t) if basis == "Z" else (code.hz, code.hz_t)
    checks, cols = h.rows, h_t.rows
    reach = max(c.bit_count() for c in cols)
    stab = code._z_stab_reducer if basis == "Z" else code._x_stab_reducer

    def logicals(root: int, w: int, within: int = -1) -> list[int]:
        hits: set[int] = set()

        def grow(v: int, syn: int, left: int) -> None:
            # syn is nonzero and within reach of the `left` qubits still to add
            free = checks[(syn & -syn).bit_length() - 1] & ~v & within
            left -= 1
            while free:
                q = free & -free
                s = syn ^ cols[q.bit_length() - 1]
                if not s:
                    if not left:
                        hits.add(v | q)
                elif left and s.bit_count() <= reach * left:
                    grow(v | q, s, left)
                free ^= q

        v, syn = 1 << root, cols[root]
        if not syn:
            if w == 1:
                hits.add(v)
        elif w > 1 and syn.bit_count() <= reach * (w - 1):
            grow(v, syn, w - 1)
        return [v for v in hits if not stab.contains(v)]

    return logicals


def _lightest_logical(code: BBCode, basis: str, w_max: int) -> tuple[int, int] | None:
    """(d, witness vector) of the given side, or None when d > w_max."""
    _require_basis(basis)
    if w_max < 1:
        raise Refusal(f"w_max must be >= 1, got {w_max}")
    if code.k == 0:
        raise Refusal("distance undefined: the code has no logical qubits")
    logicals = _cluster_search(code, basis)
    lm = code.ctx.dim
    right_block = ((1 << lm) - 1) << lm
    for w in range(1, min(w_max, code.n) + 1):
        found = logicals(0, w) or logicals(lm, w, right_block)
        if found:
            return w, first_in_ascending_support(found)
    return None


def distance_one_side(code: BBCode, basis: str, w_max: int) -> DistanceResult:
    """Exact d_X (basis='X') or d_Z (basis='Z'), or a d > w_max certificate; any
    other basis is refused before the search."""
    found = _lightest_logical(code, basis, w_max)
    if found is None:
        return DistanceResult("lower-bound-interval", None, "enumeration", w_max=w_max)
    w, vec = found
    op = PauliOp.from_vector(basis, code.ctx, vec)
    if op.weight != w or code.classify(op) != Classification.LOGICAL:
        raise InternalConsistencyError(f"distance witness {op} is not a weight-{w} nontrivial logical")
    return DistanceResult("exact", w, "enumeration", w_max=w_max, witness=op)


def exact_distance(code: BBCode, w_max: int, *, both_sides: bool = False) -> DistanceResult:
    """Code distance from the Z-side search; with both_sides, d_X = d_Z is certified by
    the antipode ZX-duality, a verified qubit permutation of Z onto X logicals."""
    dz = distance_one_side(code, "Z", w_max)
    if both_sides and not verify_zx_duality(code, antipode_zx_duality(code)):
        raise InternalConsistencyError("the antipode ZX-duality does not verify; d_X = d_Z is uncertified")
    return dz


def _sides_agree(dz: DistanceResult, dx: DistanceResult) -> bool | None:
    """True/False when both sides are exact; None if inconclusive."""
    if dz.kind != "exact" or dx.kind != "exact":
        return None
    return dz.value == dx.value


def verify_dx_equals_dz(code: BBCode, w_max: int) -> bool | None:
    """True/False when both sides are exact within w_max; None if inconclusive."""
    return _sides_agree(distance_one_side(code, "Z", w_max), distance_one_side(code, "X", w_max))
