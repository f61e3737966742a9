"""Properties of the bitset polynomials, the check-row cover graphs, the
covering-map tables of CoverWitness and the automorphisms built on them.

Small rings only.  The slow references are in oracles.py; networkx is an
independent oracle for Tanner-graph connectivity.
"""

import json
from dataclasses import replace
from functools import cache

import networkx as nx
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bbcovers.autos import (
    CodeAutomorphism,
    _block_lift,
    antipode_zx_duality,
    lift_automorphism,
    shift_automorphism,
    verify_automorphism,
    verify_zx_duality,
)
from bbcovers.chainmaps import _unit_columns, constant_section, lift_poly, lifting_map, projection_map
from bbcovers.chainmaps import weight_preserving_lift_search
from bbcovers.codes import BBCode, PauliOp, parse_code_spec
from bbcovers.covers import (
    CoverWitness,
    _closure,
    _difference_group,
    _orbit_min,
    _side_representatives,
    build_derived_graph,
    build_tanner_graph,
    cover_multipliers,
    is_connected,
    verify_cover_isomorphism,
)
from bbcovers.distance import exact_distance
from bbcovers.gf2 import BinMatrix, parities, xor_rows
from bbcovers.lattice import LatticeMap
from bbcovers.rings import Monomial, Poly, RingContext, parse_poly

from oracles import (
    derived_edge_ids_reference,
    edge_ids_reference,
    lift_check_matrix_reference,
    lift_poly_reference,
    lift_qubit_perm_reference,
    lifts_of_poly,
    projection_matrix_reference,
    section_matrix_reference,
    to_matrix_reference,
    verify_cover_isomorphism_reference,
    weight_preserving_lifts_reference,
)
from random_codes import lifts


@st.composite
def polys(draw, ctx=None, min_terms=0, max_terms=6):
    if ctx is None:
        ctx = RingContext(draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    terms = draw(
        st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=min_terms, max_size=max_terms)
    )
    return Poly.make(ctx, terms)


@st.composite
def poly_pairs(draw):
    p = draw(polys())
    return p, draw(polys(p.ctx))


@st.composite
def codes(draw):
    """A BB code over a random small ring."""
    ctx = RingContext(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    a, b = draw(polys(ctx, min_terms=1, max_terms=4)), draw(polys(ctx, min_terms=1, max_terms=4))
    assume(not a.is_zero() and not b.is_zero())  # repeated terms may cancel
    return BBCode(a, b)


@given(polys())
def test_parse_of_render_is_identity(p):
    assert parse_poly(p.render(), p.ctx) == p


@given(polys())
def test_terms_are_the_set_bits_in_ascending_order(p):
    assert list(p.terms) == sorted(p.terms)
    assert [p.ctx.index(t.a, t.b) for t in p.terms] == [i for i in range(p.ctx.dim) if p.mask >> i & 1]
    assert Poly.make(p.ctx, p.terms) == p


@given(polys())
def test_to_matrix_matches_loop_oracle(p):
    assert p.to_matrix() == to_matrix_reference(p)


@given(poly_pairs())
def test_to_matrix_is_a_ring_homomorphism(pq):
    p, q = pq
    assert (p + q).to_matrix().rows == tuple(a ^ b for a, b in zip(p.to_matrix().rows, q.to_matrix().rows))
    assert (p * q).to_matrix() == p.to_matrix() @ q.to_matrix()
    assert p.transpose().to_matrix() == p.to_matrix().transpose()


@example((parse_poly("1+x^2+x^3", RingContext(7, 1)), parse_poly("x+x^6", RingContext(7, 1)))).via("m = 1")
@example((parse_poly("y+y^4", RingContext(1, 5)), parse_poly("1+y^3", RingContext(1, 5)))).via("l = 1")
@example((parse_poly("x^3+x^2y", RingContext(6, 3)), parse_poly("x+y^2", RingContext(6, 3)))).via("b = 0 terms")
@given(poly_pairs())
def test_the_ring_product_is_the_mask_product_either_way_and_the_row_xor(pq):
    p, q = pq
    assert (p * q).mask == q.mul_mask(p.mask) == p.mul_mask(q.mask) == xor_rows(p.to_matrix().rows, q.mask)


# l = 1 and m = 1 lattices, where one translation generator is trivial
THIN_CODES = [parse_code_spec("l=1 m=5 A=1+y B=y^2+y^3"), parse_code_spec("l=4 m=1 A=1+x B=1+x+x^3")]


@settings(max_examples=60, deadline=None)
@example(THIN_CODES[0]).via("l = 1")
@example(THIN_CODES[1]).via("m = 1")
@given(codes())
def test_check_matrices_commute_and_their_rows_are_translates_of_row_0(code):
    # the premise of the column-0 commutation check in BBCode.__init__
    assert code.hx.mul(code.hz.transpose()).is_zero()
    ctx, dim = code.ctx, code.ctx.dim
    assert code.hz.rows[0] == code.b.transpose().mask | code.a.transpose().mask << dim
    for h in (code.hx, code.hz):
        left, right = h.rows[0] & ((1 << dim) - 1), h.rows[0] >> dim
        for a in range(ctx.l):
            for b in range(ctx.m):
                row = h.rows[ctx.index(a, b)]
                assert row == ctx.shift(left, a, b) | ctx.shift(right, a, b) << dim


@settings(max_examples=60, deadline=None)
@example(THIN_CODES[0], [3, 30]).via("l = 1")
@example(THIN_CODES[1], [1, 255]).via("m = 1")
@given(codes(), st.lists(st.integers(0, 2**50 - 1), min_size=1, max_size=8))
def test_transposes_and_syndromes_match_the_dense_matrices(code, words):
    # H_X = (A | B) and H_Z = (B^T | A^T) from the loop-built circulants and bit transposes
    a, b = to_matrix_reference(code.a), to_matrix_reference(code.b)
    hx, hz = a.hstack(b), b.transpose().hstack(a.transpose())
    assert (code.hx, code.hz) == (hx, hz)
    assert code.hx_t == hx.transpose()
    assert code.hz_t == hz.transpose()
    for word in words:
        v = word & ((1 << code.n) - 1)
        assert code.syndrome_vector("X", v) == hz.mul_vec(v)
        assert code.syndrome_vector("Z", v) == hx.mul_vec(v)


@settings(max_examples=60, deadline=None)
@given(lifts())
def test_verify_cover_isomorphism_matches_oracle_on_lifts(lift):
    base, cover, witness = lift
    assert verify_cover_isomorphism(base, cover, witness)
    assert verify_cover_isomorphism_reference(base, cover, witness)


@settings(max_examples=60, deadline=None)
@given(lifts(), st.booleans(), st.integers(0, 3), st.integers(-30, 30), st.integers(-30, 30))
def test_verify_cover_isomorphism_matches_oracle_on_perturbed_witnesses(lift, side, index, da, db):
    base, cover, w = lift
    matching = list(w.a_matching if side else w.b_matching)
    c, b = matching[index % len(matching)]
    matching[index % len(matching)] = (Monomial(c.a + da, c.b + db), b)
    if side:
        bad = CoverWitness(w.base, w.cover, w.u, w.t, tuple(matching), w.b_matching)
    else:
        bad = CoverWitness(w.base, w.cover, w.u, w.t, w.a_matching, tuple(matching))
    assert verify_cover_isomorphism(base, cover, bad) == verify_cover_isomorphism_reference(base, cover, bad)


def _edge_ids(g) -> frozenset:
    """Edge id c * n + q of every entry (c, q) of the check rows."""
    n = g.n_checks
    return frozenset(c * n + q for c, row in enumerate(g.rows) for q in range(n) if row >> q & 1)


@settings(max_examples=60, deadline=None)
@given(codes())
def test_tanner_graph_edge_ids_match_the_per_edge_oracle(code):
    g = build_tanner_graph(code)
    assert _edge_ids(g) == frozenset(edge_ids_reference(code))
    assert sum(map(len, g.adjacency)) == 2 * len(_edge_ids(g)) == 2 * len(g.edges)


@settings(max_examples=60, deadline=None)
@given(lifts(), st.booleans(), st.integers(0, 3), st.integers(-30, 30), st.integers(-30, 30))
def test_derived_graph_edge_ids_match_the_per_edge_oracle(lift, side, index, da, db):
    base, cover, w = lift
    derived = build_derived_graph(base, w)
    assert _edge_ids(derived) == frozenset(derived_edge_ids_reference(base, w))
    assert derived.rows == build_tanner_graph(cover).rows
    # a witness whose exponents carry voltages of any sign and size
    matching = list(w.a_matching if side else w.b_matching)
    c, b = matching[index % len(matching)]
    matching[index % len(matching)] = (Monomial(c.a + da, c.b + db), b)
    bad = replace(w, **{"a_matching" if side else "b_matching": tuple(matching)})
    assert _edge_ids(build_derived_graph(base, bad)) == frozenset(derived_edge_ids_reference(base, bad))


@settings(deadline=None)
@given(polys(min_terms=1), st.data())
def test_mask_orbit_minimum_matches_the_sort_by_terms(p, data):
    exps = st.tuples(st.integers(-20, 20), st.integers(-20, 20))
    mults = [Monomial(a, b) for a, b in data.draw(st.lists(exps, min_size=1, max_size=8))]
    assert _orbit_min(p, mults) == min((p.shift(mu) for mu in mults), key=lambda q: q.terms)


@settings(max_examples=60, deadline=None)
@given(polys(max_terms=3), st.integers(1, 3), st.integers(1, 2))
def test_side_representatives_are_the_orbit_minima_of_every_lift(p, u, t):
    # one minimum per class, each class shifted once, against every lift's own minimum
    mults = cover_multipliers(p, u, t)
    lifts = lifts_of_poly(p, u, t)
    minima = (min((c.shift(mu) for mu in mults), key=lambda q: q.terms) for c in lifts)
    reps = {q.mask: q for q in minima}
    assert _side_representatives(p, u, t, mults) == sorted(reps.values(), key=lambda q: q.terms)
    # under the identity alone every lift is its own class
    assert _side_representatives(p, u, t, [Monomial(0, 0)]) == sorted(lifts, key=lambda q: q.terms)


@settings(max_examples=60, deadline=None)
@given(polys(max_terms=4), st.integers(1, 3), st.integers(1, 3))
def test_p_lifts_are_the_sheet_lifts_in_order(p, u, t):
    # one cell of each fibre, ascending, the fibre over the highest term fastest:
    # the oracle's sheets (l i, m j) in (i, j) order, the last term's fastest
    cover = RingContext(p.ctx.l * u, p.ctx.m * t)
    assert LatticeMap(cover, p.ctx).lifts(p.mask) == [q.mask for q in lifts_of_poly(p, u, t)]


@settings(deadline=None)
@given(polys(min_terms=1), st.data())
def test_translation_connectivity_matches_networkx(a, data):
    b = data.draw(polys(a.ctx, min_terms=1))
    if a.is_zero() or b.is_zero():  # repeated terms may cancel
        return
    g = build_tanner_graph(BBCode(a, b))
    nxg = nx.Graph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from(tuple(e) for e in g.edges)
    # the test of covers._records: S_A + S_B is all of Z_l x Z_m
    connected = _closure(a.ctx, _difference_group(a), _difference_group(b)) == (1 << a.ctx.dim) - 1
    assert connected == nx.is_connected(nxg) == is_connected(g)


@settings(max_examples=60, deadline=None)
@given(lifts(), st.data())
def test_covering_map_tables_match_loop_oracles(lift, data):
    base, cover, w = lift
    p = projection_matrix_reference(w)
    assert projection_map(w).deg0 == p
    assert [parities(p.rows, 1 << j).bit_length() - 1 for j in range(cover.ctx.dim)] == list(w.p.cells)
    poly = data.draw(polys(base.ctx))
    assert lift_poly(w, poly) == lift_poly_reference(w, poly)
    for g in range(-1, w.u + 1):  # sheet arguments reduce mod (u, t)
        for d in range(-1, w.t + 1):
            assert constant_section(w, g, d).deg0 == section_matrix_reference(w, g, d)
    # every sheet is a section of p, sheet (g1, g2) the base cells moved by (l g1, m g2),
    # and together they partition the cover's cells
    l, m = base.l, base.m
    assert len(w.p.sheets) == w.h
    for j, sheet in enumerate(w.p.sheets):
        g1, g2 = divmod(j, w.t)
        assert [w.p.cells[c] for c in sheet] == list(range(base.ctx.dim))
        assert list(sheet) == [(a + l * g1) * cover.m + b + m * g2 for a in range(l) for b in range(m)]
    assert sorted(c for sheet in w.p.sheets for c in sheet) == list(range(cover.ctx.dim))
    op = _lightest_logical_op(base)
    if w.h**op.weight <= 256:  # the reference classifies every candidate too
        hits = weight_preserving_lift_search(w, op)
        assert [hit.op for hit in hits] == weight_preserving_lifts_reference(w, op)


@cache
def _lightest_logical_op(base: BBCode) -> PauliOp:
    return exact_distance(base, 4).witness


@settings(max_examples=30, deadline=None)
@given(lifts())
def test_tau_is_p_transpose_and_every_constant_section_splits_p(lift):
    base, cover, w = lift
    pm, tm = projection_map(w), lifting_map(w)
    for g in range(w.u):
        for d in range(w.t):
            sec = constant_section(w, g, d)
            for p, tau, sigma in zip(
                (pm.deg2, pm.deg1, pm.deg0), (tm.deg2, tm.deg1, tm.deg0), (sec.deg2, sec.deg1, sec.deg0)
            ):
                assert tau == p.transpose()
                assert p @ sigma == BinMatrix.identity(sigma.n_cols)


def _random_matrix(data, n: int) -> BinMatrix:
    return BinMatrix(n, n, tuple(data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))))


def _columns(m: BinMatrix) -> tuple[int, ...]:
    return m.transpose().rows


@settings(max_examples=60, deadline=None)
@given(lifts(), st.data())
def test_block_lift_matches_loop_oracles(lift, data):
    # _block_lift lifts column tables; the oracles lift matrices
    base, cover, w = lift
    dim = base.ctx.dim
    m = _random_matrix(data, dim)
    assert _block_lift(w, _columns(m)) == _columns(lift_check_matrix_reference(w, m))
    f = tuple(data.draw(st.permutations(range(base.n))))
    perm = BinMatrix(base.n, base.n, tuple(sum(1 << j for j, fj in enumerate(f) if fj == i) for i in range(base.n)))
    assert _unit_columns(f) == _columns(perm)
    assert _block_lift(w, _unit_columns(f)) == _unit_columns(lift_qubit_perm_reference(w, f))
    # a general two-block matrix lifts block by block
    m2 = _random_matrix(data, 2 * dim)
    mask = (1 << dim) - 1
    blocks = [
        [BinMatrix(dim, dim, tuple(r >> (c * dim) & mask for r in m2.rows[i * dim : (i + 1) * dim])) for c in (0, 1)]
        for i in (0, 1)
    ]
    top, bottom = ([lift_check_matrix_reference(w, b) for b in row] for row in blocks)
    assert _block_lift(w, _columns(m2)) == _columns(top[0].hstack(top[1]).vstack(bottom[0].hstack(bottom[1])))


@settings(max_examples=60, deadline=None)
@given(codes(), st.integers(-9, 9), st.integers(-9, 9))
def test_shifts_and_antipode_dualities_verify_and_survive_json(code, a, b):
    shift, dual = shift_automorphism(code, Monomial(a, b)), antipode_zx_duality(code)
    assert verify_automorphism(code, shift)
    assert verify_zx_duality(code, dual)
    for m in (shift, dual):
        again = CodeAutomorphism.from_json(json.loads(json.dumps(m.to_json())), code)
        assert again == m and type(again) is type(m)


@settings(max_examples=40, deadline=None)
@given(lifts(), st.data())
def test_lifted_base_shift_is_the_cover_shift(lift, data):
    # the sheet-wise lift of x^a y^b is the cover shift when it carries into
    # no other sheet: a = 0 or a single x-sheet (u = 1), likewise for y
    base, cover, w = lift
    a = data.draw(st.integers(0, base.l - 1)) if w.u == 1 else 0
    b = data.draw(st.integers(0, base.m - 1)) if w.t == 1 else 0
    lifted = lift_automorphism(w, shift_automorphism(base, Monomial(a, b)))
    assert verify_automorphism(cover, lifted)
    assert lifted.f == shift_automorphism(cover, Monomial(a, b)).f
