"""Cover relationships between bivariate bicycle codes.

A candidate code Q~(A~, B~, l~, m~) covers a base Q(A, B, l, m) when l | l~,
m | m~ and each defining term of the candidate reduces, exponentwise modulo
(l, m), to a distinct term of the corresponding base polynomial.  This module
decides and certifies that relation, enumerates all covers for given target
lattice parameters up to orbit-minimal support masks, and cross-validates the
algebra against the derived graph built by voltage arithmetic: both graphs are
check rows over qubit masks, compared as one tuple.  The witness holds the
covering map p, a ``lattice.LatticeMap``, and no other table: p builds its
cell table and its fibres, tau's columns, once, and reads its sheets, sections
of p, and the lifts that enumeration draws off those fibres.  The derived
graph and the check of p's table keep their own exponent arithmetic, so
neither is a tautology.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

from .codes import BBCode, InternalConsistencyError, Refusal, _column_0, _transposed, _within_budget
from .gf2 import RowReducer, first_in_ascending_support
from .lattice import LatticeMap
from .rings import ContextMismatch, Monomial, Poly, RingContext


# Jobs one enumerate_covers call may run, one per (A-class, B-class) pair:
# 64 times the 15,625 classes of the weight-8 base
# l=6 m=2 A=1+x^3+x^5+x^5y B=y+x^2y+x^3+x^5y at (30, 2), whose records take
# about 7 us each on one Xeon vCPU (two w-term XORs plus shared table lookups).
MAX_ENUMERATION_JOBS = 1_000_000


class CoverRefusal(Refusal):
    """The candidate is not a cover; names the first violated condition."""

    def __init__(self, condition: int, message: str) -> None:
        super().__init__(f"cover condition {condition} violated: {message}")
        self.condition = condition


@dataclass(frozen=True)
class CoverWitness:
    """Certificate that cover's Tanner graph is an h-fold cover of base's."""

    base: BBCode
    cover: BBCode
    u: int
    t: int
    a_matching: tuple[tuple[Monomial, Monomial], ...]  # (cover term, base term)
    b_matching: tuple[tuple[Monomial, Monomial], ...]

    @property
    def h(self) -> int:
        return self.u * self.t

    @cached_property
    def p(self) -> LatticeMap:
        """The covering map: cover cell x^a y^b lies over x^(a mod l) y^(b mod m)."""
        return LatticeMap(self.cover.ctx, self.base.ctx)


def _match_terms(cand: Poly, base: Poly, l: int, m: int) -> tuple[tuple[Monomial, Monomial], ...]:
    """Pair each candidate term with the base term it reduces to, or raise.

    Terms are unordered sets, so the matching is by reduced value; base terms
    are distinct, which makes the bijection unique when it exists.
    """
    if cand.weight != base.weight:
        raise ValueError(f"term counts differ ({cand.weight} vs {base.weight})")
    unmatched = set(base.terms)
    matching = []
    for ct in cand.terms:
        bt = Monomial(ct.a % l, ct.b % m)
        if bt not in unmatched:
            raise ValueError(f"term {ct.render()} reduces to {bt.render()}, not a base term")
        unmatched.remove(bt)
        matching.append((ct, bt))
    return tuple(matching)


def check_cover(base: BBCode, cand: BBCode) -> CoverWitness:
    """Decide the h-cover relation; returns a witness or raises CoverRefusal."""
    lt, mt = cand.l, cand.m
    l, m = base.l, base.m
    if lt % l != 0:
        raise CoverRefusal(1, f"l={l} does not divide candidate l~={lt}")
    if mt % m != 0:
        raise CoverRefusal(2, f"m={m} does not divide candidate m~={mt}")
    try:
        a_matching = _match_terms(cand.a, base.a, l, m)
    except ValueError as exc:
        raise CoverRefusal(3, f"A terms do not project onto base A terms: {exc}") from exc
    try:
        b_matching = _match_terms(cand.b, base.b, l, m)
    except ValueError as exc:
        raise CoverRefusal(4, f"B terms do not project onto base B terms: {exc}") from exc
    return CoverWitness(base, cand, lt // l, mt // m, a_matching, b_matching)


# --- canonical forms and enumeration -----------------------------------------

def cover_multipliers(base_poly: Poly, u: int, t: int) -> list[Monomial]:
    """Cover monomials whose projection multiplies the base polynomial trivially.

    These are exactly the monomial multipliers that keep a lifted polynomial a
    valid lift of base_poly: all x^{il} y^{jm}, plus the lifts of any base
    monomial mu with mu * base_poly == base_poly (mu = 1 always is one).
    """
    ctx, v = base_poly.ctx, base_poly.mask
    stab = [mu for mu in ctx.monomials() if ctx.shift(v, *mu) == v]
    return [Monomial(a + ctx.l * i, b + ctx.m * j) for a, b in stab for i in range(u) for j in range(t)]


def _orbit_min(p: Poly, multipliers: list[Monomial]) -> Poly:
    return Poly(p.ctx, first_in_ascending_support([p.ctx.shift(p.mask, *mu) for mu in multipliers]))


def canonical_form(a_t: Poly, b_t: Poly, base: BBCode, u: int, t: int) -> tuple[Poly, Poly]:
    """Orbit-minimal representative of (A~, B~) under independent multipliers.

    The two sides act independently, so the componentwise minimum is the
    minimum of the product orbit in (A-string, B-string) order.
    """
    return (
        _orbit_min(a_t, cover_multipliers(base.a, u, t)),
        _orbit_min(b_t, cover_multipliers(base.b, u, t)),
    )


def _side_representatives(base_poly: Poly, u: int, t: int, mults: list[Monomial]) -> list[Poly]:
    """The orbit minimum of every class of lifts, p's ``lifts`` of base_poly, under the
    group mults, in ``terms`` order: ``cover_multipliers`` (the preimage of base_poly's
    stabilizer), or the identity alone, under which every lift is its own class.  An
    orbit is a whole class, so each class is shifted once."""
    ctx = RingContext(base_poly.ctx.l * u, base_poly.ctx.m * t)
    seen: set[int] = set()
    reps = []
    for v in LatticeMap(ctx, base_poly.ctx).lifts(base_poly.mask):
        if v not in seen:
            orbit = [ctx.shift(v, *mu) for mu in mults]
            seen.update(orbit)
            reps.append(Poly(ctx, first_in_ascending_support(orbit)))
    return sorted(reps, key=lambda q: q.terms)


@dataclass(frozen=True, slots=True)
class CoverRecord:
    a: Poly
    b: Poly
    k: int
    connected: bool

    def code(self) -> BBCode:
        return BBCode(self.a, self.b)


@dataclass(frozen=True)
class CoverEnumeration:
    base: BBCode
    lt: int
    mt: int
    records: tuple[CoverRecord, ...]
    deduplicated: bool = True

    @property
    def h(self) -> int:
        return (self.lt // self.base.l) * (self.mt // self.base.m)

    @property
    def k_histogram(self) -> dict[int, int]:
        hist = Counter(r.k for r in self.records)
        return dict(sorted(hist.items()))


def _closure(ctx: RingContext, reached: int, gens: int) -> int:
    """The subgroup generated by the subgroup ``reached`` and the cells of gens, as
    a mask over the lm cells: closing it under a cell g doubles the step,
    s |= (2^j g) s, until nothing changes."""
    gens &= ~reached
    while gens:
        da, db = divmod((gens & -gens).bit_length() - 1, ctx.m)
        while (grown := reached | ctx.shift(reached, da, db)) != reached:
            reached, da, db = grown, 2 * da, 2 * db
        gens &= ~reached
    return reached


def _difference_group(p: Poly) -> int:
    """S_p, the subgroup generated by the differences of p's terms."""
    p0 = p.terms[0]
    return _closure(p.ctx, 1, p.ctx.shift(p.mask, -p0.a, -p0.b))


class _SideClass(NamedTuple):
    """A side class p with Ann(p) = {f : f p = 0}, the left kernel of M(p) (f p is
    the XOR of its rows at the set bits of f), Ann(p^T) and the subgroup S_p.  Each
    span is held as its sorted reduced rows, unique to the span."""

    poly: Poly
    ann: tuple[int, ...]
    ann_t: tuple[int, ...]
    group: int


def _span(dim: int, rows: list[int]) -> tuple[int, ...]:
    return tuple(sorted(RowReducer(dim, rows).reduced_rows().values()))


def _side_class(p: Poly) -> _SideClass:
    """Ann(p) from one tagged elimination of M(p); Ann(p^T) as its image under the antipode,
    a ring automorphism sending p to p^T, certified by membership once ``_transposed``
    has certified M(p)^T = M(p^T)."""
    ctx, ann, pt = p.ctx, p.to_matrix().left_kernel_basis().rows, _transposed(p)
    images = [ctx.antipode(f) for f in ann]
    if any(pt.to_matrix().vec_mul(g) for g in images):
        raise InternalConsistencyError(f"the antipode image of Ann(p) is not Ann(p^T) for p = {p}")
    return _SideClass(p, _span(ctx.dim, ann), _span(ctx.dim, images), _difference_group(p))


def _records(a_classes: list[_SideClass], b_classes: list[_SideClass]) -> list[CoverRecord]:
    """The record of every (A-class, B-class) job, A-major, with the checks of a code
    build and no code: each class is checked once for the ring and a nonzero polynomial,
    each job by ``_column_0`` on the rows of M(p^T) of its classes, read once per class
    through ``_transposed``, which raises unless M(p)^T = M(p^T) is certified.

    k = 2 dim(Ann A & Ann B) (Bravyi et al., Lemma 1).  Ann A & Ann B is the
    left kernel of H_X = (A | B), and Ann B^T & Ann A^T that of H_Z = (B^T |
    A^T); the two routes agreeing is rank H_X = rank H_Z.

    Jobs share few annihilator spans (19 per side among the 125 classes of the
    weight-8 base at (30, 2)) and difference subgroups, so each span gets a small
    id, dim(U & V) = dim U + dim V - dim(U + V) is computed once per pair of ids,
    from the spans alone, and connectivity once per pair of subgroups.
    """
    ctx = a_classes[0].poly.ctx
    ids: dict[tuple[int, ...], int] = {}

    def table(c: _SideClass) -> tuple:
        p = c.poly
        if p.ctx != ctx:
            raise ContextMismatch("A and B over different rings")
        if p.is_zero():
            raise Refusal("defining polynomials must be nonempty")
        pt, ann, ann_t = _transposed(p), ids.setdefault(c.ann, len(ids)), ids.setdefault(c.ann_t, len(ids))
        return p, pt.mask, pt.to_matrix().rows, ann, ann_t, c.group

    a_tables, b_tables = [table(c) for c in a_classes], [table(c) for c in b_classes]
    spans = list(ids)
    meet = cache(lambda i, j: len(spans[i]) + len(spans[j]) - len(RowReducer(ctx.dim, spans[i] + spans[j])))
    connected = cache(lambda s, t: _closure(ctx, s, t) == (1 << ctx.dim) - 1)
    records = []
    for a, at, a_rows, a_ann, a_ann_t, a_group in a_tables:
        for b, bt, b_rows, b_ann, b_ann_t, b_group in b_tables:
            if _column_0(at, bt, a_rows, b_rows):
                raise InternalConsistencyError("H_X H_Z^T != 0; construction is broken")
            x_half, z_half = meet(a_ann, b_ann), meet(b_ann_t, a_ann_t)
            if x_half != z_half:
                raise InternalConsistencyError(f"rank H_X = {ctx.dim - x_half} != rank H_Z = {ctx.dim - z_half}")
            records.append(CoverRecord(a, b, 2 * x_half, connected(a_group, b_group)))
    return records


def _within_job_budget(n_a: int, n_b: int, bound: str = "") -> None:
    if n_a * n_b > MAX_ENUMERATION_JOBS:
        raise Refusal(
            f"{bound}{n_a} A-classes x {n_b} B-classes = {n_a * n_b} codes "
            f"exceed the enumeration budget of {MAX_ENUMERATION_JOBS}"
        )


def enumerate_covers(
    base: BBCode,
    lt: int,
    mt: int,
    *,
    dedup: bool = True,
    workers: int = 1,
) -> CoverEnumeration:
    """All h-cover candidates of base at lattice (lt, mt), one per class.

    With dedup (the default), candidates are reduced to canonical orbit
    representatives first; class count is then at most h^4 for weight-6 codes
    and h^6 for weight-8 ones.  Without it the group is the identity alone, and
    every lift is its own class.  Refusals come in this order: a lattice that
    (l, m) does not divide; ``workers`` other than 1 (enumeration runs in one
    process, and the option goes when the benchmark scripts stop passing it);
    a cover lattice beyond MAX_LATTICE_CELLS cells, before any multiplier or
    lift is built; then more than MAX_ENUMERATION_JOBS jobs (A-classes x
    B-classes), before generating any lift when a lower bound on the class
    counts exceeds the budget, else before running any job.

    k is read by Lemma 1 of Bravyi et al. (arXiv:2308.07915), k = 2 dim(Ann A~
    & Ann B~): after the refusals each side class's matrix is eliminated once,
    and each distinct pair of annihilator spans is met once.  The Z route,
    dim(Ann B~^T & Ann A~^T), certifies every job's k (rank H_X = rank H_Z), and
    every check of a code build runs on each job without building it (``_records``).
    A k below the base's, read alike, raises InternalConsistencyError: k_h >= k at every h.
    """
    if lt < base.l or mt < base.m or lt % base.l != 0 or mt % base.m != 0:
        raise Refusal(f"(l~, m~) = ({lt}, {mt}) not divisible by (l, m) = ({base.l}, {base.m})")
    if workers != 1:
        raise Refusal(f"enumeration runs in one process: workers must be 1, got {workers}")
    _within_budget(RingContext(lt, mt))  # before any lift or matrix of the cover lattice
    u, t = lt // base.l, mt // base.m
    # a side of weight w has (u t)^w distinct lifts, and a class is an orbit of
    # at most len(g) of them; ceiling division bounds the count
    groups = [(p, cover_multipliers(p, u, t) if dedup else [Monomial(0, 0)]) for p in (base.a, base.b)]
    _within_job_budget(*(-(-(u * t) ** p.weight // len(g)) for p, g in groups), "at least ")
    a_side, b_side = (_side_representatives(p, u, t, g) for p, g in groups)
    _within_job_budget(len(a_side), len(b_side))
    # both sides are sorted by terms, so the A-major records are in (A terms, B terms) order
    records = _records([_side_class(p) for p in a_side], [_side_class(p) for p in b_side])
    k = _records([_side_class(base.a)], [_side_class(base.b)])[0].k
    if low := [r for r in records if r.k < k]:
        raise InternalConsistencyError(f"the cover A={low[0].a} B={low[0].b} has k = {low[0].k} < the base's k = {k}")
    return CoverEnumeration(base, lt, mt, tuple(records), deduplicated=dedup)


# --- Tanner graphs and derived graphs ----------------------------------------

CLASSES = ("X", "Z", "L", "R")


@dataclass(frozen=True)
class TannerGraph:
    """Bipartite check/qubit graph stored as its check rows.

    Vertex id class * cells + a * mt + b names the vertex of class X, Z, L or
    R (in that order) at cell x^a y^b of an lt x mt lattice, cells = lt * mt.
    ``rows[c]`` is the mask of the qubits adjacent to check c, qubit id
    2cells + q at bit q: the rows of the stacked check matrix (H_X ; H_Z).
    Adjacency and edges are read off the rows.  A derived graph carries its
    ``sheets`` (u, t) and uses the ids of the cover lattice (lt, mt) =
    (u l, t m); its labels name the base cell and the sheet instead.
    """

    lt: int
    mt: int
    rows: tuple[int, ...]
    sheets: tuple[int, int] | None = None

    def label(self, v: int) -> tuple:
        """(class, (a, b)), or (class, (a, b), (g1, g2)) in a derived graph."""
        cls, cell = divmod(v, self.lt * self.mt)
        a, b = divmod(cell, self.mt)
        if self.sheets is None:
            return (CLASSES[cls], (a, b))
        l, m = self.lt // self.sheets[0], self.mt // self.sheets[1]
        return (CLASSES[cls], (a % l, b % m), (a // l, b // m))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbour ids of every vertex id: check c and qubit id n + q where row c has bit q."""
        n, rows = self.n_checks, self.rows
        qubits = (tuple(c for c, row in enumerate(rows) if row >> q & 1) for q in range(n))
        return (*(tuple(n + q for q in range(n) if row >> q & 1) for row in rows), *qubits)

    @cached_property
    def vertices(self) -> frozenset:
        return frozenset(map(self.label, range(2 * self.n_checks)))

    @cached_property
    def edges(self) -> frozenset:
        adj = self.adjacency
        return frozenset(frozenset((self.label(c), self.label(q))) for c in range(self.n_checks) for q in adj[c])

    @property
    def n_checks(self) -> int:
        return 2 * self.lt * self.mt

    @property
    def n_qubits(self) -> int:
        return self.n_checks


def build_tanner_graph(code: BBCode) -> TannerGraph:
    """Explicit Tanner graph: the rows of (H_X ; H_Z) are the check neighbourhoods."""
    return TannerGraph(code.l, code.m, code.hx.rows + code.hz.rows)


def _derived_edge_generators(witness: CoverWitness):
    """(tail class, head class, cover exponent) triples generating all edges.

    X-checks reach left qubits through A terms and right qubits through B
    terms; left qubits reach Z-checks through B terms and right qubits
    through A terms (the supports of Z_c are c - beta on the left and
    c - alpha on the right).
    """
    for (cover_term, _base) in witness.a_matching:
        yield ("X", "L", cover_term)
        yield ("R", "Z", cover_term)
    for (cover_term, _base) in witness.b_matching:
        yield ("X", "R", cover_term)
        yield ("L", "Z", cover_term)


def build_derived_graph(base: BBCode, witness: CoverWitness) -> TannerGraph:
    """Right-derived graph of the base Tanner graph over Gamma = Z_u x Z_t,
    with voltages read off the witness's lifted exponents, in cover ids.

    Base vertex v at sheet g gets the cover id of v + (l g1, m g2).  The edge
    of a generator with cover exponent e runs from tail v at sheet g to head
    (v + e) mod (l, m) at sheet g + voltage, the voltage being the carry
    ((v1 + e1) // l, (v2 + e2) // m) mod (u, t), setting a bit of a check row.
    """
    l, m, u, t = base.l, base.m, witness.u, witness.t
    cells, mt = base.ctx.dim * witness.h, m * t
    gs = [(g1, g2) for g1 in range(u) for g2 in range(t)]  # the sheets
    offset = [l * g1 * mt + m * g2 for g1, g2 in gs]  # the cover index of (l g1, m g2)
    # voltage s1 * t + s2 -> (tail, head) sheet offsets of every tail sheet
    moved = [list(zip(offset, [offset[(g1 + s1) % u * t + (g2 + s2) % t] for g1, g2 in gs])) for s1, s2 in gs]
    rows = [0] * (2 * cells)
    for tail_cls, head_cls, exp in _derived_edge_generators(witness):
        # the row of check class X or Z, the column of qubit class L or R
        tail_first, head_first = CLASSES.index(tail_cls) % 2 * cells, CLASSES.index(head_cls) % 2 * cells
        check_tail = tail_cls == "X"
        for v1 in range(l):
            s1, h1 = divmod(v1 + exp.a, l)
            for v2 in range(m):
                s2, h2 = divmod(v2 + exp.b, m)
                tail = tail_first + v1 * mt + v2
                head = head_first + h1 * mt + h2
                if check_tail:
                    for o, p in moved[s1 % u * t + s2 % t]:
                        rows[tail + o] |= 1 << (head + p)
                else:
                    for o, p in moved[s1 % u * t + s2 % t]:
                        rows[head + p] |= 1 << (tail + o)
    return TannerGraph(base.l * u, base.m * t, tuple(rows), (u, t))


def verify_cover_isomorphism(base: BBCode, cover: BBCode, witness: CoverWitness) -> bool:
    """Cross-validate the algebraic witness against explicit graphs.

    Both graphs number vertices by the cover id, a bijection onto the derived
    vertices (cls, (a mod l, b mod m), (a // l, b // m)) exactly when the
    cover lattice is (u l, t m); it maps edges onto edges exactly when the
    check rows agree.  Then the projection fibres must have size h, and the
    projection must map every cover neighbourhood bijectively onto the base
    one (the rows and columns of the base H_X and H_Z).  That is decided once
    per base vertex: the neighbours of derived vertex (v, g) are one head
    (v + e, g + s) or tail (v - e, g - s) per distinct generator e, so if
    p's table sends every cover cell x^a y^b to (a mod l) m + b mod m (an
    O(cells) test against that formula, not against p's own build), they
    project to v + e and v - e for every g: the translate by v of the
    generators' neighbourhood at base cell 0.  The base's own neighbourhoods
    are the translates of its cell-0 ones, which
    ``BBCode._checks_are_translates`` decides once per base, so the translates
    agree at every cell exactly when they agree at cell 0.
    """
    if (cover.l, cover.m) != (base.l * witness.u, base.m * witness.t):
        return False
    if build_tanner_graph(cover).rows != build_derived_graph(base, witness).rows:
        return False
    # on a (u l, t m) cover the formula meets every base cell h times, so this
    # table test also gives every fibre its h elements
    l, m = base.l, base.m
    if witness.p.cells != tuple(a % l * m + b % m for a in range(cover.l) for b in range(cover.m)):
        return False
    # the projected neighbourhood of every class at base cell 0, over the qubit
    # columns for a check and the check rows for a qubit: e off a tail, -e off a head
    ctx, dim = base.ctx, base.ctx.dim
    at_0 = [0] * 4
    generators = {(c, d, e.a % cover.l, e.b % cover.m) for c, d, e in _derived_edge_generators(witness)}
    for tail_cls, head_cls, ea, eb in generators:
        tail, head = CLASSES.index(tail_cls), CLASSES.index(head_cls)
        for x, y, sign in ((tail, head, 1), (head, tail, -1)):
            bit = 1 << (y % 2 * dim + ctx.index(sign * ea, sign * eb))
            if at_0[x] & bit:
                return False  # two generators reach one fibre, at every base cell
            at_0[x] |= bit
    # the base's own at cell 0: rows 0 of H_X and H_Z, then columns 0 and lm of both
    hx_t, hz_t = base.hx_t.rows, base.hz_t.rows
    base_0 = [base.hx.rows[0], base.hz.rows[0], hx_t[0] | hz_t[0] << dim, hx_t[dim] | hz_t[dim] << dim]
    return at_0 == base_0 and base._checks_are_translates


def is_connected(g: TannerGraph) -> bool:
    """Breadth-first connectivity over the whole bipartite graph."""
    adj = g.adjacency
    if not adj:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == len(adj)
