"""Slow, obviously-correct reference implementations used only by the tests."""

from collections import Counter
from functools import reduce
from itertools import combinations, islice, product

from bbcovers.codes import BBCode, Classification, PauliOp, Refusal
from bbcovers.covers import build_tanner_graph, is_connected
from bbcovers.distance import _cluster_search, _lightest_logical
from bbcovers.gf2 import BinMatrix, RowReducer, parities
from bbcovers.rings import Poly, RingContext


def lifts_of_poly(p: Poly, u: int, t: int) -> list[Poly]:
    """All u*t-per-term exponent lifts of p into the (u*l, t*m) ring: term x^a y^b on
    sheet (i, j) is x^(a + l i) y^(b + m j), sheets in (i, j) order, the last term's
    sheet varying fastest."""
    l, m = p.ctx.l, p.ctx.m
    ctx = RingContext(l * u, m * t)
    sheets = [(l * i, m * j) for i in range(u) for j in range(t)]
    options = [[(x.a + i, x.b + j) for i, j in sheets] for x in p.terms]
    return [Poly.make(ctx, terms) for terms in product(*options)]


def stabilizer_support(code, r, basis: str) -> PauliOp:
    """Support of the X or Z check of code labelled by the monomial r, by Poly products."""
    rp = Poly.make(code.ctx, [r])
    if basis == "X":
        return PauliOp("X", rp * code.a, rp * code.b)
    if basis == "Z":
        return PauliOp("Z", rp * code.b.transpose(), rp * code.a.transpose())
    raise ValueError(f"basis must be X or Z, got {basis!r}")


def ascending_support(v: int) -> list[int]:
    """The set bits of v in ascending order: the order that sorts equal-weight sets."""
    return [i for i in range(v.bit_length()) if v >> i & 1]


def logical_vectors_of_weight(code, basis: str, w: int) -> list[int]:
    """Every nontrivial logical of the given type and weight w, by the cluster search
    from every root, in ascending support order; w must be that side's minimum weight."""
    found = _lightest_logical(code, basis, w)
    if found is None or found[0] != w:
        raise Refusal(f"w = {w} is not the minimum weight of a nontrivial {basis} logical")
    logicals = _cluster_search(code, basis)
    return sorted({v for root in range(code.n) for v in logicals(root, w)}, key=ascending_support)


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


def coset_reps_reference(checks: BinMatrix, stabs: BinMatrix, k: int) -> list[int]:
    """The first k kernel vectors of checks, in the order of kernel_basis_reference,
    that are independent modulo the rows of stabs and the vectors picked before
    them: each is inserted into a fresh reducer over those rows and kept when
    it leaves a nonzero residual.

    This is the selection codes._coset_reps made before it read the picks off
    the leading bits of the stabilizer rows restricted to the free columns;
    both must agree bit for bit.
    """
    red = RowReducer(stabs.n_cols, stabs.rows)
    return list(islice((v for v in kernel_basis_reference(checks).rows if red.add(v)), k))


def to_matrix_reference(p: Poly) -> BinMatrix:
    """Poly.to_matrix by a loop over terms and cells: row a*m + b gets the bit
    of x^(a + ta) y^(b + tb) for every term x^ta y^tb.

    This is the construction Poly.to_matrix used before it built the rows from
    rotations of the support bitmask; both must agree bit for bit.
    """
    ctx = p.ctx
    l, m = ctx.l, ctx.m
    rows = [0] * ctx.dim
    for t in p.terms:
        for a in range(l):
            for b in range(m):
                rows[a * m + b] |= 1 << (((a + t.a) % l) * m + (b + t.b) % m)
    return BinMatrix(ctx.dim, ctx.dim, tuple(rows))


def annihilator_spans_reference(p: Poly) -> tuple[list[int], list[int]]:
    """Ann(p) and Ann(p^T), each as the sorted reduced rows of its span, by two
    eliminations: f p is the XOR of the rows of M(p) at the set bits of f, so
    Ann(p) is the right kernel of M(p)^T and Ann(p^T) that of M(p).

    This is the construction covers._side_class used before it read Ann(p)
    off one tagged elimination and Ann(p^T) as its antipode image, with M(p)^T
    taken as the dense transpose, so that it rests on no antipode formula.
    """

    def kernel_span(m: BinMatrix) -> list[int]:
        kernel_red = RowReducer(m.n_cols, RowReducer(m.n_cols, m.rows).kernel_vectors())
        return sorted(kernel_red.reduced_rows().values())

    return kernel_span(p.to_matrix().transpose()), kernel_span(p.to_matrix())


def cover_record_reference(a: Poly, b: Poly) -> tuple[int, bool]:
    """(k, connected) of one enumeration job, shared with no other job: k from
    the stabilizer reducers of a code built from fresh copies of a and b, and
    connectivity by a breadth-first search of its Tanner graph."""
    code = BBCode(Poly(a.ctx, a.mask), Poly(b.ctx, b.mask))
    return code.k, is_connected(build_tanner_graph(code))


# --- cover certification over labelled vertices and frozenset edges ------------
#
# verify_cover_isomorphism_reference is the check covers.verify_cover_isomorphism
# made before the graphs became integer edge-id sets: the cover Tanner graph is
# built through Poly products (stabilizer_support above), the derived graph over
# labelled (class, base cell, sheet) vertices, and the base neighbourhoods from
# a rebuilt base graph.


def _graph(vertices, edges):
    adj = {v: set() for v in vertices}
    for e in edges:
        p, q = tuple(e)
        adj[p].add(q)
        adj[q].add(p)
    return adj


def tanner_graph_reference(code):
    """(vertices, edges, adjacency) with vertices ("X"|"Z"|"L"|"R", (a, b))."""
    vertices = {(cls, (mono.a, mono.b)) for cls in "XZLR" for mono in code.ctx.monomials()}
    edges = set()
    for mono in code.ctx.monomials():
        c = (mono.a, mono.b)
        for basis in "XZ":
            supp = stabilizer_support(code, mono, basis)
            for block, poly in (("L", supp.left), ("R", supp.right)):
                for term in poly.terms:
                    edges.add(frozenset(((basis, c), (block, (term.a, term.b)))))
    return vertices, edges, _graph(vertices, edges)


def derived_graph_reference(base, witness):
    """(vertices, edges) of the right-derived graph, vertices (class, (a, b), (g1, g2))."""
    l, m, u, t = base.l, base.m, witness.u, witness.t
    vertices = {
        (cls, (mono.a, mono.b), (g1, g2))
        for cls in "XZLR"
        for mono in base.ctx.monomials()
        for g1 in range(u)
        for g2 in range(t)
    }
    generators = [("X", "L", c) for c, _ in witness.a_matching] + [("R", "Z", c) for c, _ in witness.a_matching]
    generators += [("X", "R", c) for c, _ in witness.b_matching] + [("L", "Z", c) for c, _ in witness.b_matching]
    edges = set()
    for tail_cls, head_cls, exp in generators:
        for mono in base.ctx.monomials():
            v1, v2 = mono.a, mono.b
            head = ((v1 + exp.a) % l, (v2 + exp.b) % m)
            g = ((v1 + exp.a) // l % u, (v2 + exp.b) // m % t)
            for g1 in range(u):
                for g2 in range(t):
                    edges.add(
                        frozenset(
                            (
                                (tail_cls, (v1, v2), (g1, g2)),
                                (head_cls, head, ((g1 + g[0]) % u, (g2 + g[1]) % t)),
                            )
                        )
                    )
    return vertices, edges


def verify_cover_isomorphism_reference(base, cover, witness) -> bool:
    l, m = base.l, base.m
    cover_vertices, cover_edges, cover_adj = tanner_graph_reference(cover)
    derived_vertices, derived_edges = derived_graph_reference(base, witness)
    if len(cover_vertices) != len(derived_vertices):
        return False
    down = {v: (v[0], (v[1][0] % l, v[1][1] % m), (v[1][0] // l, v[1][1] // m)) for v in cover_vertices}
    if set(down.values()) != derived_vertices:
        return False
    for e in cover_edges:
        p, q = tuple(e)
        if frozenset((down[p], down[q])) not in derived_edges:
            return False

    def up(v):
        cls, (a, b), (s1, s2) = v
        return (cls, (a + l * s1, b + m * s2))

    for e in derived_edges:
        p, q = tuple(e)
        if frozenset((up(p), up(q))) not in cover_edges:
            return False
    _, _, base_adj = tanner_graph_reference(base)
    fibers = Counter((cls, (a % l, b % m)) for cls, (a, b) in cover_vertices)
    if set(fibers.values()) != {witness.h}:
        return False
    for v in cover_vertices:
        cls, (a, b) = v
        projected = [(w[0], (w[1][0] % l, w[1][1] % m)) for w in cover_adj[v]]
        if len(set(projected)) != len(projected):
            return False
        if set(projected) != base_adj[(cls, (a % l, b % m))]:
            return False
    return True


# --- Tanner and derived graphs as integer edge ids, edge by edge -----------------
#
# How covers built both graphs before TannerGraph stored check rows: one edge
# id check * 2cells + (qubit - 2cells) per edge, X, Z, L, R vertex classes of
# cells ids each.


def edge_ids_reference(code) -> list[int]:
    """Edge ids of the Tanner graph: the set bits of the rows of (H_X ; H_Z)."""
    n = code.n
    out = []
    for c, row in enumerate(code.hx.rows + code.hz.rows):
        first = c * n
        while row:
            low = row & -row
            out.append(first + low.bit_length() - 1)
            row ^= low
    return out


def derived_edge_ids_reference(base, witness) -> list[int]:
    """Edges of the right-derived graph over Gamma = Z_u x Z_t, in cover ids.

    Base vertex v at sheet g gets the cover id of v + (l g1, m g2).  The edge
    of a generator with cover exponent e runs from tail v at sheet g to head
    (v + e) mod (l, m) at sheet g + voltage, the voltage being the carry
    ((v1 + e1) // l, (v2 + e2) // m) mod (u, t).
    """
    l, m, u, t = base.l, base.m, witness.u, witness.t
    cells, mt = base.ctx.dim * witness.h, m * t
    n = 2 * cells
    sheets = [(g1, g2) for g1 in range(u) for g2 in range(t)]
    offset = [l * g1 * mt + m * g2 for g1, g2 in sheets]  # the cover index of (l g1, m g2)
    # voltage -> the head sheet offset of each tail sheet
    moved = {
        (s1, s2): [offset[((g1 + s1) % u) * t + (g2 + s2) % t] for g1, g2 in sheets]
        for s1, s2 in sheets
    }
    first = {cls: i * cells for i, cls in enumerate("XZLR")}
    generators = [("X", "L", c) for c, _ in witness.a_matching] + [("R", "Z", c) for c, _ in witness.a_matching]
    generators += [("X", "R", c) for c, _ in witness.b_matching] + [("L", "Z", c) for c, _ in witness.b_matching]
    out: list[int] = []
    for tail_cls, head_cls, exp in generators:
        tail_first, head_first = first[tail_cls], first[head_cls]
        tail_is_check = tail_first < n
        for v1 in range(l):
            s1, h1 = divmod(v1 + exp.a, l)
            for v2 in range(m):
                s2, h2 = divmod(v2 + exp.b, m)
                tail = tail_first + v1 * mt + v2
                head = head_first + h1 * mt + h2
                heads = moved[(s1 % u, s2 % t)]
                if tail_is_check:
                    base_id = tail * n + head - n
                    out.extend(base_id + o * n + p for o, p in zip(offset, heads))
                else:
                    base_id = head * n + tail - n
                    out.extend(base_id + p * n + o for o, p in zip(offset, heads))
    return out


# --- the covering map by loops over monomials -----------------------------------
#
# The constructions chainmaps and autos used before they read the index tables
# of CoverWitness: each walks the cover or base monomials and reduces or
# shifts exponents itself.


def projection_matrix_reference(witness) -> BinMatrix:
    """p: row x^a y^b of the base collects every cover x^a' y^b' with a' = a mod l, b' = b mod m."""
    base, cover = witness.base, witness.cover
    rows = [0] * base.ctx.dim
    for mono in cover.ctx.monomials():
        j = cover.ctx.index(mono.a, mono.b)
        rows[base.ctx.index(mono.a % base.l, mono.b % base.m)] |= 1 << j
    return BinMatrix(base.ctx.dim, cover.ctx.dim, tuple(rows))


def lift_poly_reference(witness, p: Poly) -> Poly:
    """Every term x^a y^b goes to x^(a + l i) y^(b + m j) for every sheet (i, j)."""
    base, cover = witness.base, witness.cover
    terms = []
    for t in p.terms:
        for i in range(witness.u):
            for j in range(witness.t):
                terms.append((t.a + base.l * i, t.b + base.m * j))
    return Poly.make(cover.ctx, terms)


def section_matrix_reference(witness, g: int, d: int) -> BinMatrix:
    """sigma of the constant section: base x^a y^b to cover x^(a + l g) y^(b + m d)."""
    base, cover = witness.base, witness.cover
    rows = [0] * cover.ctx.dim
    for mono in base.ctx.monomials():
        j = base.ctx.index(mono.a, mono.b)
        rows[cover.ctx.index(mono.a + base.l * g, mono.b + base.m * d)] |= 1 << j
    return BinMatrix(cover.ctx.dim, base.ctx.dim, tuple(rows))


def weight_preserving_lifts_reference(witness, op: PauliOp) -> list[PauliOp]:
    """The nontrivial cover logicals among the lifts of op that move each support
    term x^a y^b to x^(a + l g1) y^(b + m g2), one sheet (g1, g2) per term: the
    left block's terms, then the right block's, each in index order, with the
    sheets g1-major and the last term's sheet varying fastest."""
    base, cover = witness.base, witness.cover
    l, m = base.l, base.m
    sheets = [(g1, g2) for g1 in range(witness.u) for g2 in range(witness.t)]
    support = [(block, x) for block, p in enumerate((op.left, op.right)) for x in p.terms]
    hits = []
    for assignment in product(sheets, repeat=len(support)):
        terms = ([], [])
        for (block, x), (g1, g2) in zip(support, assignment):
            terms[block].append((x.a + l * g1, x.b + m * g2))
        cand = PauliOp(op.basis, *(Poly.make(cover.ctx, t) for t in terms))
        if cover.classify(cand) == Classification.LOGICAL:
            hits.append(cand)
    return hits


def lift_check_matrix_reference(witness, w: BinMatrix) -> BinMatrix:
    """Sheet-wise block lift of a base check map: repeat it on every sheet."""
    base, cover = witness.base, witness.cover
    l, m = base.l, base.m
    lm_c = cover.ctx.dim
    rows = [0] * lm_c
    for mono in cover.ctx.monomials():
        j = cover.ctx.index(mono.a, mono.b)
        jb = base.ctx.index(mono.a % l, mono.b % m)
        s1, s2 = mono.a // l, mono.b // m
        x = parities(w.rows, 1 << jb)
        while x:
            a, b = divmod((x & -x).bit_length() - 1, m)
            rows[cover.ctx.index(a + l * s1, b + m * s2)] |= 1 << j
            x &= x - 1
    return BinMatrix(lm_c, lm_c, tuple(rows))


def lift_qubit_perm_reference(witness, f: tuple[int, ...]) -> tuple[int, ...]:
    """Sheet-wise lift of a qubit permutation given as an image map."""
    base, cover = witness.base, witness.cover
    l, m = base.l, base.m
    lm_b, lm_c = base.ctx.dim, cover.ctx.dim
    out = [0] * (2 * lm_c)
    for mono in cover.ctx.monomials():
        j = cover.ctx.index(mono.a, mono.b)
        jb = base.ctx.index(mono.a % l, mono.b % m)
        s1, s2 = mono.a // l, mono.b // m
        for block in (0, 1):
            img_block, img_idx = divmod(f[block * lm_b + jb], lm_b)
            a, b = divmod(img_idx, m)
            out[block * lm_c + j] = img_block * lm_c + cover.ctx.index(a + l * s1, b + m * s2)
    return tuple(out)


# --- chain-map squares by dense products ----------------------------------------
#
# How ChainMap.commutes decided a square before it compared column tables on
# generator columns: as an equation of matrix products.


def boundaries_reference(code, dual: bool = False) -> tuple[BinMatrix, BinMatrix]:
    """(d2, d1) as matrices: (H_Z^T, H_X), or (H_X^T, H_Z) for the dual complex."""
    return (code.hx_t, code.hz) if dual else (code.hz_t, code.hx)


def squares_commute_reference(degs, source, target) -> bool:
    """Whether matrices degs = (deg_top, ..., deg_0) commute with the boundary
    matrices (d_top, ..., d_1) of two complexes: deg_(i-1) d_i == d'_i deg_i."""
    return all(lo @ d == dt @ hi for hi, lo, d, dt in zip(degs, degs[1:], source, target))


def chain_map_commutes_reference(cm, dual_target: bool = False) -> bool:
    """ChainMap.commutes by dense products of its degree matrices."""
    degs = (cm.deg2, cm.deg1, cm.deg0)
    return squares_commute_reference(degs, boundaries_reference(cm.source), boundaries_reference(cm.target, dual_target))


def affine_reference(tables, src: RingContext, tgt: RingContext) -> bool:
    """chainmaps._affine by list comparison cell by cell: every degree is a cell
    map with t[g + v] == phi[t[g]] for v = x, y, where the translations are read
    off ctx.index over both qubit blocks and phi off the check degree tables[0]."""
    if None in tables:
        return False

    def translation(ctx, a, b):
        return [s * ctx.dim + ctx.index(i // ctx.m + a, i % ctx.m + b) for s in (0, 1) for i in range(ctx.dim)]

    checks = tables[0]
    for v in ((1, 0), (0, 1)):
        move = translation(src, *v)
        (a0, b0), (a1, b1) = divmod(checks[0], tgt.m), divmod(checks[move[0]], tgt.m)
        phi = translation(tgt, a1 - a0, b1 - b0)
        if any([t[move[j]] for j in range(len(t))] != [phi[i] for i in t] for t in tables):
            return False
    return True


# --- the two exhaustive distance strategies ------------------------------------
#
# The strategies distance.py used before the pinned cluster search: a Gray-code
# walk over every nontrivial class plus the stabilizer span, and a fixed-weight
# meet-in-the-middle search over half-support syndromes.  The first is exact
# with no weight cap; the second yields in ascending support order, so its
# first hit at the minimum weight is the witness the cluster search must give.


def coset_minimum(code, basis: str) -> tuple[int, int]:
    """Exact min weight over every nontrivial class; returns (weight, witness)."""
    ops = code.logical_basis.z_ops if basis == "Z" else code.logical_basis.x_ops
    stab = code._z_stab_reducer if basis == "Z" else code._x_stab_reducer
    reps = [op.support_vector() for op in ops]
    gens = reps + [row for _, row in sorted(stab._pivot_rows.items())]
    kmask = (1 << len(reps)) - 1
    best = code.n + 1
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


def mitm_weight_hits(cols: tuple[int, ...], n: int, w: int) -> set[tuple[int, ...]]:
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
        right = set(idxs)
        for left in table.get(s, ()):
            if right.isdisjoint(left):
                hits.add(tuple(sorted(left + idxs)))
    return hits


def mitm_logicals_of_weight(code, basis: str, w: int) -> list[int]:
    """Every weight-w nontrivial logical of the given type, in ascending support order."""
    cols = (code.hx_t if basis == "Z" else code.hz_t).rows  # the columns of H_X or H_Z
    stab = code._z_stab_reducer if basis == "Z" else code._x_stab_reducer
    vecs = [sum(1 << i for i in supp) for supp in sorted(mitm_weight_hits(cols, code.n, w))]
    return [v for v in vecs if not stab.contains(v)]


def mitm_minimum(code, basis: str, w_max: int) -> tuple[int | None, int]:
    """(d, first hit in ascending support order), or (None, 0) when d > w_max."""
    for w in range(1, w_max + 1):
        vecs = mitm_logicals_of_weight(code, basis, w)
        if vecs:
            return w, vecs[0]
    return None, 0


# The cluster search as distance.py ran it before branches were pruned in
# their parent call and pin lm was searched on the right block only.


def cluster_search_reference(code: BBCode, basis: str):
    """logicals(root, w): the weight-w nontrivial logicals through `root`, when
    no lighter nontrivial logical of the given type exists."""
    h, h_t = (code.hx, code.hx_t) if basis == "Z" else (code.hz, code.hz_t)
    checks, cols = h.rows, h_t.rows
    reach = max(c.bit_count() for c in cols)
    stab = code._z_stab_reducer if basis == "Z" else code._x_stab_reducer

    def logicals(root: int, w: int) -> list[int]:
        hits: set[int] = set()

        def grow(v: int, syn: int, left: int) -> None:
            if not syn:
                if not left:
                    hits.add(v)
                return
            if syn.bit_count() > reach * left:
                return
            free = checks[(syn & -syn).bit_length() - 1] & ~v
            while free:
                q = free & -free
                grow(v | q, syn ^ cols[q.bit_length() - 1], left - 1)
                free ^= q

        grow(1 << root, cols[root], w - 1)
        return [v for v in hits if not stab.contains(v)]

    return logicals


def pinned_hits_against_reference(code, basis: str, w_top: int) -> list[tuple[int, int, set[int], set[int]]]:
    """(w, pin, hits, reference hits) for w = 1 .. w_top, which must not pass the
    minimum weight: pin 0 against the reference's pin 0 and, at each weight where
    pin 0 is empty, pin lm on the right block against the reference's pin lm."""
    logicals, reference = _cluster_search(code, basis), cluster_search_reference(code, basis)
    lm = code.ctx.dim
    out = []
    for w in range(1, w_top + 1):
        hits = set(logicals(0, w))
        out.append((w, 0, hits, set(reference(0, w))))
        if not hits:
            out.append((w, lm, set(logicals(lm, w, ((1 << lm) - 1) << lm)), set(reference(lm, w))))
    return out


def class_coords_reference(code, side: str, v: int) -> int | None:
    """Coordinates of v in the code's ``side`` logical basis, None outside the kernel.

    Eliminates the stabilizer rows followed by the basis logicals, each row
    tagged by its insertion index, and reads the logical tags off the
    combination that reproduces v.  BBCode computed class coordinates this way
    before it read them as overlap parities with the paired basis.
    """
    basis = code.logical_basis
    stabs, ops = (code.hx.rows, basis.x_ops) if side == "X" else (code.hz.rows, basis.z_ops)
    rows, n = stabs + tuple(op.support_vector() for op in ops), code.n
    r = RowReducer(n, (row | 1 << (n + i) for i, row in enumerate(rows))).reduce(v)
    return None if r & ((1 << n) - 1) else r >> (n + len(stabs))
