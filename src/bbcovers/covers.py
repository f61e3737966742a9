"""Cover relationships between bivariate bicycle codes.

A candidate code Q~(A~, B~, l~, m~) covers a base Q(A, B, l, m) when l | l~,
m | m~ and each defining term of the candidate reduces, exponentwise modulo
(l, m), to a distinct term of the corresponding base polynomial.  This module
decides and certifies that relation, enumerates all covers for given target
lattice parameters with canonical deduplication, and cross-validates the
algebra against an explicit derived-graph construction.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
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
    return [mu for mu in ctx.monomials() if p.shift(mu) == p]


def cover_multipliers(base_poly: Poly, u: int, t: int) -> list[Monomial]:
    """Cover monomials whose projection multiplies the base polynomial trivially.

    These are exactly the monomial multipliers that keep a lifted polynomial a
    valid lift of base_poly: all x^{il} y^{jm}, plus the lifts of any base
    monomial that stabilizes base_poly.
    """
    l, m = base_poly.ctx.l, base_poly.ctx.m
    out = []
    for mu in poly_stabilizer_monomials(base_poly):
        for i in range(u):
            for j in range(t):
                out.append(Monomial(mu.a + l * i, mu.b + m * j))
    return out


def _orbit_min(p: Poly, multipliers: list[Monomial]) -> Poly:
    return min((p.shift(mu) for mu in multipliers), key=lambda q: q.terms)


def canonical_form(a_t: Poly, b_t: Poly, base: BBCode, u: int, t: int) -> tuple[Poly, Poly]:
    """Orbit-minimal representative of (A~, B~) under independent multipliers.

    The two sides act independently, so the componentwise minimum is the
    minimum of the product orbit in (A-string, B-string) order.
    """
    return (
        _orbit_min(a_t, cover_multipliers(base.a, u, t)),
        _orbit_min(b_t, cover_multipliers(base.b, u, t)),
    )


def lifts_of_poly(p: Poly, u: int, t: int) -> list[Poly]:
    """All u*t-per-term exponent lifts of p into the (u*l, t*m) ring."""
    ctx = RingContext(p.ctx.l * u, p.ctx.m * t)
    l, m = p.ctx.l, p.ctx.m
    out = []
    for choice in product(range(u * t), repeat=p.weight):
        terms = []
        for term, c in zip(p.terms, choice):
            i, j = divmod(c, t)
            terms.append((term.a + l * i, term.b + m * j))
        out.append(Poly.make(ctx, terms))
    return out


def _side_representatives(base_poly: Poly, u: int, t: int) -> list[Poly]:
    mults = cover_multipliers(base_poly, u, t)
    reps = {}
    for cand in lifts_of_poly(base_poly, u, t):
        rep = _orbit_min(cand, mults)
        reps[rep.terms] = rep
    return sorted(reps.values(), key=lambda q: q.terms)


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


def _record_of(job: tuple[Poly, Poly, int, int, bool]) -> CoverRecord:
    """The record of one job: (A, B, the H_X and H_Z routes to k / 2, connectivity).

    k = 2 dim(Ann A & Ann B) (Bravyi et al., Lemma 1).  Ann A & Ann B is the
    left kernel of H_X = (A | B), and Ann B^T & Ann A^T that of H_Z = (B^T |
    A^T); the two routes agreeing is rank H_X = rank H_Z.
    """
    a, b, x_half, z_half, connected = job
    BBCode(a, b)  # the lattice budget and the H_X H_Z^T check
    if x_half != z_half:
        dim = a.ctx.dim
        raise InternalConsistencyError(f"rank H_X = {dim - x_half} != rank H_Z = {dim - z_half}")
    return CoverRecord(a, b, 2 * x_half, connected)


def _records(a_classes: list[_SideClass], b_classes: list[_SideClass], workers: int = 1) -> list[CoverRecord]:
    """The record of every (A-class, B-class) job, in job order.

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
    jobs = [
        (a.poly, b.poly, meet(ax, bx), meet(bz, az), connected(a.group, b.group))
        for a, ax, az in a_reps
        for b, bx, bz in b_reps
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_record_of, jobs, chunksize=max(1, len(jobs) // (4 * workers))))
    return [_record_of(j) for j in jobs]


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
    and h^6 for weight-8 ones.  Refuses worker counts outside 1..cpu_count()
    and more than MAX_ENUMERATION_JOBS codes (A-classes x B-classes) before
    building any of them, and already before generating any lift when a lower
    bound on the class counts exceeds the budget.

    k is read by Lemma 1 of Bravyi et al. (arXiv:2308.07915), k = 2 dim(Ann A~
    & Ann B~): after the refusals the two annihilators of every side class are
    eliminated once, and each distinct pair of spans is met once.  The Z route,
    dim(Ann B~^T & Ann A~^T), certifies every job's k (rank H_X = rank H_Z), and
    each job still builds its BBCode, so every construction check runs on it.
    """
    if lt < base.l or mt < base.m or lt % base.l != 0 or mt % base.m != 0:
        raise Refusal(f"(l~, m~) = ({lt}, {mt}) not divisible by (l, m) = ({base.l}, {base.m})")
    cpus = os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise Refusal(f"workers must be between 1 and {cpus} (the CPU count), got {workers}")
    u, t = lt // base.l, mt // base.m
    # a side of weight w has (u t)^w distinct lifts, and a class is an orbit of
    # at most len(cover_multipliers) of them; ceiling division bounds the count
    lower = [
        -(-(u * t) ** p.weight // (len(cover_multipliers(p, u, t)) if dedup else 1)) for p in (base.a, base.b)
    ]
    _within_job_budget(*lower, "at least ")
    if dedup:
        a_side = _side_representatives(base.a, u, t)
        b_side = _side_representatives(base.b, u, t)
    else:
        a_side = lifts_of_poly(base.a, u, t)
        b_side = lifts_of_poly(base.b, u, t)
    _within_job_budget(len(a_side), len(b_side))
    _within_budget(RingContext(lt, mt))  # before any matrix of the cover lattice
    records = _records([_side_class(p) for p in a_side], [_side_class(p) for p in b_side], workers)
    records.sort(key=lambda r: (r.a.terms, r.b.terms))
    return CoverEnumeration(base, lt, mt, tuple(records), deduplicated=dedup)


# --- Tanner graphs and derived graphs ----------------------------------------

Vertex = tuple  # (class, (a, b)), or (class, (a, b), (g1, g2)) in a derived graph

CLASSES = ("X", "Z", "L", "R")


@dataclass(frozen=True)
class TannerGraph:
    """Bipartite check/qubit graph on integer vertex ids.

    Vertex id class * cells + a * mt + b names the vertex of class X, Z, L or
    R (in that order) at cell x^a y^b of an lt x mt lattice, cells = lt * mt.
    An edge is the id check * 2cells + (qubit - 2cells): the entry (row, column)
    of the stacked check matrix (H_X ; H_Z).  A derived graph carries its
    ``sheets`` (u, t) and uses the ids of the cover lattice (lt, mt) =
    (u l, t m); its labels name the base cell and the sheet instead.
    """

    lt: int
    mt: int
    edge_ids: frozenset
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
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbour ids of every vertex id."""
        n = 2 * self.cells
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
        n = 2 * self.cells
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


def _edge_ids(code: BBCode) -> list[int]:
    """Edge ids of the Tanner graph: the set bits of the rows of (H_X ; H_Z).

    Row r of H_X (H_Z) is the support of the X (Z) check labelled r, the same
    vector stabilizer_support returns, so the rows are the check neighbourhoods.
    """
    n = code.n
    out = []
    for c, row in enumerate(code.hx.rows + code.hz.rows):
        first = c * n
        while row:
            low = row & -row
            out.append(first + low.bit_length() - 1)
            row ^= low
    return out


def build_tanner_graph(code: BBCode) -> TannerGraph:
    """Explicit Tanner graph, read off the rows of H_X and H_Z."""
    return TannerGraph(code.l, code.m, frozenset(_edge_ids(code)))


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


def _derived_edge_ids(base: BBCode, witness: CoverWitness) -> list[int]:
    """Edges of the right-derived graph over Gamma = Z_u x Z_t, in cover ids.

    Base vertex v at sheet g gets the cover id of v + (l g1, m g2).  The edge
    of a generator with cover exponent e runs from tail v at sheet g to head
    (v + e) mod (l, m) at sheet g + voltage, the voltage being the carry
    ((v1 + e1) // l, (v2 + e2) // m) mod (u, t).
    """
    l, m, u, t = base.l, base.m, witness.u, witness.t
    cells = base.ctx.dim * witness.h
    n = 2 * cells
    offset, embedding = witness.sheet_offsets, witness.embedding
    sheets = [(g1, g2) for g1 in range(u) for g2 in range(t)]
    # voltage -> the head sheet offset of each tail sheet
    moved = {
        (s1, s2): [offset[((g1 + s1) % u) * t + (g2 + s2) % t] for g1, g2 in sheets]
        for s1, s2 in sheets
    }
    out: list[int] = []
    for tail_cls, head_cls, exp in _derived_edge_generators(witness):
        tail_first, head_first = CLASSES.index(tail_cls) * cells, CLASSES.index(head_cls) * cells
        tail_is_check = tail_first < n
        for v1 in range(l):
            s1, h1 = divmod(v1 + exp.a, l)
            for v2 in range(m):
                s2, h2 = divmod(v2 + exp.b, m)
                tail = tail_first + embedding[v1 * m + v2]
                head = head_first + embedding[h1 * m + h2]
                heads = moved[(s1 % u, s2 % t)]
                if tail_is_check:
                    first = tail * n + head - n
                    out.extend(first + o * n + p for o, p in zip(offset, heads))
                else:
                    first = head * n + tail - n
                    out.extend(first + p * n + o for o, p in zip(offset, heads))
    return out


def build_derived_graph(base: BBCode, witness: CoverWitness) -> TannerGraph:
    """Right-derived graph of the base Tanner graph over Gamma = Z_u x Z_t,
    with voltages read off the witness's lifted exponents."""
    return TannerGraph(
        base.l * witness.u, base.m * witness.t, frozenset(_derived_edge_ids(base, witness)), (witness.u, witness.t)
    )


def verify_cover_isomorphism(base: BBCode, cover: BBCode, witness: CoverWitness) -> bool:
    """Cross-validate the algebraic witness against explicit graphs.

    Cover vertex (cls, (a, b)) corresponds to derived vertex
    (cls, (a mod l, b mod m), (a // l, b // m)); both graphs number their
    vertices by the cover id, so this is a bijection exactly when the cover
    lattice is (u l, t m), and the bijection maps edges onto edges exactly
    when the two edge-id sets are equal.  Then checks that projection fibers
    all have size h and that projection restricts to a bijection from every
    cover neighbourhood onto the neighbourhood in the base graph, which is
    read off the rows and columns of the base H_X and H_Z.
    """
    if (cover.l, cover.m) != (base.l * witness.u, base.m * witness.t):
        return False
    cover_edges = build_tanner_graph(cover).edge_ids
    if cover_edges != build_derived_graph(base, witness).edge_ids:
        return False
    # cell projection; a check or qubit index is block * cells + cell in both codes
    proj = witness.projection
    if set(Counter(proj).values()) != {witness.h}:
        return False
    n = cover.n
    proj = proj + tuple(base.ctx.dim + p for p in proj)
    check_nbrs = [0] * n  # projected qubit neighbours of each cover check
    qubit_nbrs = [0] * n  # projected check neighbours of each cover qubit
    for e in cover_edges:
        c, q = divmod(e, n)
        pq, pc = 1 << proj[q], 1 << proj[c]
        if check_nbrs[c] & pq or qubit_nbrs[q] & pc:
            return False  # two neighbours in one fiber
        check_nbrs[c] |= pq
        qubit_nbrs[q] |= pc
    base_rows = base.hx.rows + base.hz.rows
    dim = base.ctx.dim
    base_cols = [x | z << dim for x, z in zip(base.hx_t.rows, base.hz_t.rows)]
    return all(nb == base_rows[proj[c]] for c, nb in enumerate(check_nbrs)) and all(
        nb == base_cols[proj[q]] for q, nb in enumerate(qubit_nbrs)
    )


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
