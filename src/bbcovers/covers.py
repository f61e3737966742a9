"""Cover relationships between bivariate bicycle codes.

A candidate code Q~(A~, B~, l~, m~) covers a base Q(A, B, l, m) when l | l~,
m | m~ and each defining term of the candidate reduces, exponentwise modulo
(l, m), to a distinct term of the corresponding base polynomial.  This module
decides and certifies that relation, enumerates all covers for given target
lattice parameters up to orbit-minimal support masks, and cross-validates the
algebra against the derived graph built by voltage arithmetic: both graphs are
check rows over qubit masks, compared as one tuple.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import product

from .codes import BBCode, InternalConsistencyError, Refusal, _within_budget
from .gf2 import BinMatrix, RowReducer
from .rings import Monomial, Poly, RingContext


# Codes one enumerate_covers call may build, one per (A-class, B-class) pair:
# 64 times the 15,625 classes of the weight-8 base
# l=6 m=2 A=1+x^3+x^5+x^5y B=y+x^2y+x^3+x^5y at (30, 2), whose records take
# about 0.03 ms each on one Xeon vCPU (a code build plus shared table lookups).
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
    # set by chainmaps.projection_map once p's four squares hold on this witness
    _projection_verified: bool = field(default=False, init=False, repr=False, compare=False)

    @property
    def h(self) -> int:
        return self.u * self.t

    # The covering map: cover cell x^a y^b lies over base cell x^(a mod l) y^(b mod m)
    # on sheet (a // l, b // m), so base index i on sheet g is cover index
    # embedding[i] + sheet_offsets[g], distinct for each (i, g) on a (u l, t m) cover.

    @cached_property
    def sheet_offsets(self) -> tuple[int, ...]:
        """Cover-index offset of sheet (g1, g2), at position g1 * t + g2."""
        l, m, mt = self.base.l, self.base.m, self.base.m * self.t
        return tuple(l * g1 * mt + m * g2 for g1 in range(self.u) for g2 in range(self.t))

    @cached_property
    def embedding(self) -> tuple[int, ...]:
        """Cover index a * m~ + b of base index a * m + b: its cell on sheet (0, 0)."""
        mt = self.base.m * self.t
        return tuple(a * mt + b for a in range(self.base.l) for b in range(self.base.m))

    @cached_property
    def projection(self) -> tuple[int, ...]:
        """Base index of every cover index."""
        out = [0] * (self.base.ctx.dim * self.h)
        for i, e in enumerate(self.embedding):
            for o in self.sheet_offsets:
                out[e + o] = i
        return tuple(out)

    @cached_property
    def fibres(self) -> tuple[int, ...]:
        """Cover mask of the fibre over every base index: row i of p."""
        sheets = sum(1 << o for o in self.sheet_offsets)
        return tuple(sheets << e for e in self.embedding)

    def embed(self, v: int) -> int:
        """Cover mask of base mask v on sheet (0, 0)."""
        return sum(1 << e for i, e in enumerate(self.embedding) if v >> i & 1)


def _match_terms(cand: Poly, base: Poly, l: int, m: int) -> tuple[tuple[Monomial, Monomial], ...]:
    """Pair each candidate term with the base term it reduces to, or raise.

    Terms are unordered sets, so the matching is by reduced value; base terms
    are distinct, which makes the bijection unique when it exists.
    """
    if cand.weight != base.weight:
        raise ValueError(f"term counts differ ({cand.weight} vs {base.weight})")
    by_value = {term: term for term in base.terms}
    matching = []
    hit = set()
    for ct in cand.terms:
        reduced = Monomial(ct.a % l, ct.b % m)
        bt = by_value.get(reduced)
        if bt is None or bt in hit:
            raise ValueError(f"term {ct.render()} reduces to {reduced.render()}, not a base term")
        hit.add(bt)
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

def poly_stabilizer_monomials(p: Poly) -> list[Monomial]:
    """Monomials mu with mu * p == p (always contains 1)."""
    ctx = p.ctx
    return [mu for mu in ctx.monomials() if ctx.shift(p.mask, mu.a, mu.b) == p.mask]


def cover_multipliers(base_poly: Poly, u: int, t: int) -> list[Monomial]:
    """Cover monomials whose projection multiplies the base polynomial trivially.

    These are exactly the monomial multipliers that keep a lifted polynomial a
    valid lift of base_poly: all x^{il} y^{jm}, plus the lifts of any base
    monomial that stabilizes base_poly.
    """
    l, m = base_poly.ctx.l, base_poly.ctx.m
    stab = poly_stabilizer_monomials(base_poly)
    return [Monomial(mu.a + l * i, mu.b + m * j) for mu in stab for i in range(u) for j in range(t)]


def _least(masks: list[int]) -> int:
    """The mask whose ``Poly.terms`` sort first among masks of one weight:
    x sorts before y exactly when the lowest set bit of x ^ y lies in x."""
    best = masks[0]
    for x in masks:
        d = x ^ best
        if x & d & -d:
            best = x
    return best


def _orbit_min(p: Poly, multipliers: list[Monomial]) -> Poly:
    return Poly(p.ctx, _least([p.ctx.shift(p.mask, mu.a, mu.b) for mu in multipliers]))


def canonical_form(a_t: Poly, b_t: Poly, base: BBCode, u: int, t: int) -> tuple[Poly, Poly]:
    """Orbit-minimal representative of (A~, B~) under independent multipliers.

    The two sides act independently, so the componentwise minimum is the
    minimum of the product orbit in (A-string, B-string) order.
    """
    return (
        _orbit_min(a_t, cover_multipliers(base.a, u, t)),
        _orbit_min(b_t, cover_multipliers(base.b, u, t)),
    )


def _lift_masks(p: Poly, ctx: RingContext) -> list[int]:
    """The masks of every lift of p into the cover ring ctx, the last term's sheet varying fastest."""
    l, m = p.ctx.l, p.ctx.m
    sheets = [(l * i, m * j) for i in range(ctx.l // l) for j in range(ctx.m // m)]
    options = [[1 << ctx.index(x.a + i, x.b + j) for i, j in sheets] for x in p.terms]  # a bit per sheet
    return [sum(bits) for bits in product(*options)]


def lifts_of_poly(p: Poly, u: int, t: int) -> list[Poly]:
    """All u*t-per-term exponent lifts of p into the (u*l, t*m) ring."""
    ctx = RingContext(p.ctx.l * u, p.ctx.m * t)
    return [Poly(ctx, v) for v in _lift_masks(p, ctx)]


def _side_representatives(base_poly: Poly, u: int, t: int) -> list[Poly]:
    """The orbit minimum of every class of lifts, in ``terms`` order.  The
    multipliers form a group (the preimage of base_poly's stabilizer), so an
    orbit is a whole class and each class is shifted once."""
    ctx = RingContext(base_poly.ctx.l * u, base_poly.ctx.m * t)
    mults = cover_multipliers(base_poly, u, t)
    seen: set[int] = set()
    reps = []
    for v in _lift_masks(base_poly, ctx):
        if v not in seen:
            orbit = [ctx.shift(v, mu.a, mu.b) for mu in mults]
            seen.update(orbit)
            reps.append(Poly(ctx, _least(orbit)))
    return sorted(reps, key=lambda q: q.terms)


@dataclass(frozen=True)
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


def _tanner_connected_by_translation(a: Poly, b: Poly) -> bool:
    """Connectivity of the Tanner graph via its translation symmetry: closed walks
    displace check labels by differences of defining exponents, so the graph is
    connected iff S_A + S_B is Z_l x Z_m.  The cover tests compare it with BFS."""
    return _closure(a.ctx, _difference_group(a), _difference_group(b)) == (1 << a.ctx.dim) - 1


def _kernel_reducer(matrix: BinMatrix) -> RowReducer:
    """Reducer over the right kernel of matrix: its kernel vectors fed into a second one."""
    return RowReducer(matrix.n_cols, RowReducer(matrix.n_cols, matrix.rows).kernel_vectors())


@dataclass(frozen=True)
class _SideClass:
    """A side class p with the annihilators Ann(p) = {f : f p = 0} and Ann(p^T),
    and its difference subgroup S_p.

    f p is the XOR of the rows of p's matrix at the set bits of f, so Ann(p) is
    the kernel of the transposed matrix, which is the matrix of p^T.
    """

    poly: Poly
    ann: RowReducer
    ann_t: RowReducer
    group: int


def _side_class(p: Poly) -> _SideClass:
    ann = _kernel_reducer(p.transpose().to_matrix())
    return _SideClass(p, ann, _kernel_reducer(p.to_matrix()), _difference_group(p))


def _meet_dim(u: RowReducer, v: RowReducer) -> int:
    """dim(U & V) = dim U + dim V - dim(U + V) for the spans of two reducers."""
    both = u.copy()
    for row in v.basis_rows():
        both.add(row)
    return len(u) + len(v) - len(both)


def _records(a_classes: list[_SideClass], b_classes: list[_SideClass]) -> list[CoverRecord]:
    """The record of every (A-class, B-class) job, A-major.

    k = 2 dim(Ann A & Ann B) (Bravyi et al., Lemma 1).  Ann A & Ann B is the
    left kernel of H_X = (A | B), and Ann B^T & Ann A^T that of H_Z = (B^T |
    A^T); the two routes agreeing is rank H_X = rank H_Z.

    Jobs share few annihilator spans (19 per side among the 125 classes of the
    weight-8 base at (30, 2)) and difference subgroups, so dim(U & V) is
    computed once per pair of spans, keyed by their sorted reduced rows (unique
    to a span), and connectivity once per pair of subgroups.
    """
    spans: dict[tuple[int, ...], RowReducer] = {}

    def span(red: RowReducer) -> tuple[int, ...]:
        key = tuple(sorted(red.reduced_rows().values()))
        spans.setdefault(key, red)
        return key

    meet = cache(lambda u, v: _meet_dim(spans[u], spans[v]))
    ctx = a_classes[0].poly.ctx
    connected = cache(lambda s, t: _closure(ctx, s, t) == (1 << ctx.dim) - 1)
    a_reps, b_reps = ([(c, span(c.ann), span(c.ann_t)) for c in side] for side in (a_classes, b_classes))
    records = []
    for a, ax, az in a_reps:
        for b, bx, bz in b_reps:
            BBCode(a.poly, b.poly)  # the lattice budget and the H_X H_Z^T check
            x_half, z_half = meet(ax, bx), meet(bz, az)
            if x_half != z_half:
                raise InternalConsistencyError(f"rank H_X = {ctx.dim - x_half} != rank H_Z = {ctx.dim - z_half}")
            records.append(CoverRecord(a.poly, b.poly, 2 * x_half, connected(a.group, b.group)))
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
    and h^6 for weight-8 ones.  Refuses more than MAX_ENUMERATION_JOBS codes
    (A-classes x B-classes) before building any of them, and already before
    generating any lift when a lower bound on the class counts exceeds the
    budget.  Enumeration runs in one process: ``workers`` accepts only 1 and
    goes when the benchmark scripts stop passing it.

    k is read by Lemma 1 of Bravyi et al. (arXiv:2308.07915), k = 2 dim(Ann A~
    & Ann B~): after the refusals the two annihilators of every side class are
    eliminated once, and each distinct pair of spans is met once.  The Z route,
    dim(Ann B~^T & Ann A~^T), certifies every job's k (rank H_X = rank H_Z), and
    each job still builds its BBCode, so every construction check runs on it.
    """
    if lt < base.l or mt < base.m or lt % base.l != 0 or mt % base.m != 0:
        raise Refusal(f"(l~, m~) = ({lt}, {mt}) not divisible by (l, m) = ({base.l}, {base.m})")
    if workers != 1:
        raise Refusal(f"enumeration runs in one process: workers must be 1, got {workers}")
    u, t = lt // base.l, mt // base.m
    # a side of weight w has (u t)^w distinct lifts, and a class is an orbit of
    # at most len(cover_multipliers) of them; ceiling division bounds the count
    lower = [
        -(-(u * t) ** p.weight // (len(cover_multipliers(p, u, t)) if dedup else 1)) for p in (base.a, base.b)
    ]
    _within_job_budget(*lower, "at least ")
    sides = _side_representatives if dedup else lifts_of_poly
    a_side, b_side = sides(base.a, u, t), sides(base.b, u, t)
    _within_job_budget(len(a_side), len(b_side))
    _within_budget(RingContext(lt, mt))  # before any matrix of the cover lattice
    records = _records([_side_class(p) for p in a_side], [_side_class(p) for p in b_side])
    if not dedup:  # with dedup both sides are sorted and the jobs run A-major
        records.sort(key=lambda r: (r.a.terms, r.b.terms))
    return CoverEnumeration(base, lt, mt, tuple(records), deduplicated=dedup)


# --- Tanner graphs and derived graphs ----------------------------------------

Vertex = tuple  # (class, (a, b)), or (class, (a, b), (g1, g2)) in a derived graph

CLASSES = ("X", "Z", "L", "R")


@dataclass(frozen=True)
class TannerGraph:
    """Bipartite check/qubit graph stored as its check rows.

    Vertex id class * cells + a * mt + b names the vertex of class X, Z, L or
    R (in that order) at cell x^a y^b of an lt x mt lattice, cells = lt * mt.
    ``rows[c]`` is the mask of the qubits adjacent to check c, qubit id
    2cells + q at bit q: the rows of the stacked check matrix (H_X ; H_Z).
    Edge id c * 2cells + q is the entry (c, q).  A derived graph carries its
    ``sheets`` (u, t) and uses the ids of the cover lattice (lt, mt) =
    (u l, t m); its labels name the base cell and the sheet instead.
    """

    lt: int
    mt: int
    rows: tuple[int, ...]
    sheets: tuple[int, int] | None = None

    @property
    def cells(self) -> int:
        return self.lt * self.mt

    def label(self, v: int) -> Vertex:
        cls, cell = divmod(v, self.cells)
        a, b = divmod(cell, self.mt)
        if self.sheets is None:
            return (CLASSES[cls], (a, b))
        l, m = self.lt // self.sheets[0], self.mt // self.sheets[1]
        return (CLASSES[cls], (a % l, b % m), (a // l, b // m))

    @cached_property
    def _ids(self) -> dict:
        return {self.label(v): v for v in range(4 * self.cells)}

    @cached_property
    def edge_ids(self) -> frozenset:
        n = self.n_checks
        return frozenset(c * n + q for c, row in enumerate(self.rows) for q in range(n) if row >> q & 1)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbour ids of every vertex id."""
        n = self.n_checks
        adj: list[list[int]] = [[] for _ in range(2 * n)]
        for e in self.edge_ids:
            c, q = divmod(e, n)
            adj[c].append(n + q)
            adj[n + q].append(c)
        return tuple(map(tuple, adj))

    @cached_property
    def vertices(self) -> frozenset:
        return frozenset(self._ids)

    @cached_property
    def edges(self) -> frozenset:
        n = self.n_checks
        return frozenset(
            frozenset((self.label(c), self.label(n + q))) for c, q in (divmod(e, n) for e in self.edge_ids)
        )

    @property
    def n_checks(self) -> int:
        return 2 * self.cells

    @property
    def n_qubits(self) -> int:
        return 2 * self.cells

    def degree(self, v: Vertex) -> int:
        return len(self.adjacency[self._ids[v]])


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
    cells = base.ctx.dim * witness.h
    offset, embedding = witness.sheet_offsets, witness.embedding
    gs = [(g1, g2) for g1 in range(u) for g2 in range(t)]  # the sheets
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
                tail = tail_first + embedding[v1 * m + v2]
                head = head_first + embedding[h1 * m + h2]
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
    ``projection`` sends embedding[i] + sheet_offsets[g] to i for all i and g
    (an O(cells) table test), they project to v + e and v - e for every g:
    the translate by v of the generators' neighbourhood at base cell 0.
    """
    if (cover.l, cover.m) != (base.l * witness.u, base.m * witness.t):
        return False
    if build_tanner_graph(cover).rows != build_derived_graph(base, witness).rows:
        return False
    proj = witness.projection
    if set(Counter(proj).values()) != {witness.h}:
        return False
    if any(proj[e + o] != i for i, e in enumerate(witness.embedding) for o in witness.sheet_offsets):
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
    # at base cell x^a y^b it is the translate by x^a y^b, block by block
    low, exps = (1 << dim) - 1, [divmod(v, base.m) for v in range(dim)]
    nbrs = [ctx.shift(p & low, a, b) | ctx.shift(p >> dim, a, b) << dim for p in at_0 for a, b in exps]
    base_cols = [x | z << dim for x, z in zip(base.hx_t.rows, base.hz_t.rows)]
    return nbrs == [*base.hx.rows, *base.hz.rows, *base_cols]


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
