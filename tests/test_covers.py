import random

import pytest

from bbcovers.codes import Refusal, build_code, parse_code_spec
from bbcovers.covers import (
    CoverRefusal,
    CoverWitness,
    build_derived_graph,
    build_tanner_graph,
    canonical_form,
    check_cover,
    cover_multipliers,
    enumerate_covers,
    is_connected,
    lifts_of_poly,
    verify_cover_isomorphism,
    _tanner_connected_by_translation,
)
from bbcovers.rings import Monomial, Poly, parse_poly

from oracles import verify_cover_isomorphism_reference

BASE_18 = "l=3 m=3 A=1+y+y^2 B=1+x+x^2"
BASE_72 = "l=6 m=6 A=x^3+y+y^2 B=y^3+x+x^2"
BASE_14 = "l=7 m=1 A=1+x^2+x^3 B=1+x^2+x^3"
GROSS = "l=12 m=6 A=x^3+y+y^2 B=y^3+x+x^2"


def test_enumeration_builds_each_side_class_circulant_once(monkeypatch):
    # every job's code reads the circulants its side classes built
    requested: dict[int, tuple[Poly, list]] = {}  # id -> (poly, matrices), polys kept alive
    to_matrix = Poly.to_matrix

    def spy(self):
        m = to_matrix(self)
        requested.setdefault(id(self), (self, []))[1].append(m)
        return m

    monkeypatch.setattr(Poly, "to_matrix", spy)
    enum = enumerate_covers(parse_code_spec(BASE_18), 6, 3)
    sides = {id(p) for r in enum.records for q in (r.a, r.b) for p in (q, q.transpose())}
    assert sides <= requested.keys()
    assert max(len(ms) for _, ms in requested.values()) > 1
    for _, matrices in requested.values():
        assert all(m is matrices[0] for m in matrices)


def test_gross_is_double_cover():
    w = check_cover(parse_code_spec(BASE_72), parse_code_spec(GROSS))
    assert (w.u, w.t, w.h) == (2, 1, 2)


def test_54_reading_of_lifted_example():
    # the printed lattice parameters (6, 3) give a valid 2-cover of size 36,
    # while the (9, 3) reading gives the triple cover of size 54
    base = parse_code_spec(BASE_18)
    w63 = check_cover(base, parse_code_spec("l=6 m=3 A=x^3+y+y^2 B=1+x+x^2"))
    assert w63.h == 2 and w63.cover.n == 36
    w93 = check_cover(base, parse_code_spec("l=9 m=3 A=x^3+y+y^2 B=1+x+x^2"))
    assert w93.h == 3 and w93.cover.n == 54


def test_identity_cover():
    base = parse_code_spec(BASE_18)
    w = check_cover(base, base)
    assert (w.u, w.t, w.h) == (1, 1, 1)


def test_refusal_names_first_condition():
    base = parse_code_spec(BASE_18)
    with pytest.raises(CoverRefusal) as err:
        check_cover(base, parse_code_spec("l=4 m=3 A=1+y+y^2 B=1+x+x^2"))
    assert err.value.condition == 1
    with pytest.raises(CoverRefusal) as err:
        check_cover(base, parse_code_spec("l=3 m=4 A=1+y+y^2 B=1+x+x^2"))
    assert err.value.condition == 2
    with pytest.raises(CoverRefusal) as err:
        check_cover(base, parse_code_spec("l=6 m=3 A=x^2+y+y^2 B=1+x+x^2"))
    assert err.value.condition == 3
    with pytest.raises(CoverRefusal) as err:
        check_cover(base, parse_code_spec("l=6 m=3 A=x^3+y+y^2 B=y+x+x^2"))
    assert err.value.condition == 4


def test_enumerate_18_h2():
    enum = enumerate_covers(parse_code_spec(BASE_18), 6, 3)
    assert enum.k_histogram == {8: 3, 16: 1}


def test_enumerate_72_h2():
    enum = enumerate_covers(parse_code_spec(BASE_72), 12, 6)
    assert enum.k_histogram == {12: 16}


def test_enumerate_14_h2():
    enum = enumerate_covers(parse_code_spec(BASE_14), 7, 2)
    assert enum.k_histogram == {6: 15, 12: 1}


def test_enumerate_divisibility_error():
    with pytest.raises(Refusal):
        enumerate_covers(parse_code_spec(BASE_18), 7, 3)


def test_enumerate_records_are_verified_covers():
    base = parse_code_spec(BASE_18)
    enum = enumerate_covers(base, 6, 3)
    for rec in enum.records:
        w = check_cover(base, rec.code())
        assert w.h == 2


def test_no_dedup_size():
    base = parse_code_spec(BASE_18)
    enum = enumerate_covers(base, 6, 3, dedup=False)
    assert len(enum.records) == 2**6


def test_no_dedup_records_are_in_terms_order_although_the_lifts_are_not():
    base = parse_code_spec(BASE_18)
    lifts = lifts_of_poly(base.a, 2, 2)
    assert [q.terms for q in lifts] != sorted(q.terms for q in lifts)
    keys = [(r.a.terms, r.b.terms) for r in enumerate_covers(base, 6, 6, dedup=False).records]
    assert len(keys) == 64 * 64 and keys == sorted(keys)


def test_canonical_form_absorbs_deck_monomials():
    base = parse_code_spec(BASE_18)
    at = parse_poly("x^3+y+y^2", parse_code_spec("l=6 m=3 A=1 B=1").ctx)
    bt = parse_poly("1+x+x^2", at.ctx)
    rep = canonical_form(at, bt, base, 2, 1)
    deck = Monomial(3, 0)
    rep2 = canonical_form(at.shift(deck), bt.shift(deck), base, 2, 1)
    assert rep == rep2


def test_published_two_covers_share_a_class():
    # both published 2-covers of the [[18,8,2]] code verify; the multiplier
    # x^3 y^2 (projection y^2 stabilizes A) maps one onto the other, so they
    # fall in one canonical class, consistent with the reference class counts
    base = parse_code_spec(BASE_18)
    ctx = parse_code_spec("l=6 m=3 A=1 B=1").ctx
    a1 = parse_poly("x^3+y+y^2", ctx)
    a2 = parse_poly("x^3+x^3y+y^2", ctx)
    b = parse_poly("1+x+x^2", ctx)
    assert check_cover(base, build_code(a1, b)).h == 2
    assert check_cover(base, build_code(a2, b)).h == 2
    assert a1.shift(Monomial(3, 2)) == a2
    assert canonical_form(a1, b, base, 2, 1) == canonical_form(a2, b, base, 2, 1)


def test_enumeration_classes_pairwise_distinct():
    base = parse_code_spec(BASE_18)
    enum = enumerate_covers(base, 6, 3)
    reps = [(r.a, r.b) for r in enum.records]
    assert len(set(reps)) == len(reps) == 4
    for a, b in reps:
        assert canonical_form(a, b, base, 2, 1) == (a, b)


def test_canonical_form_idempotent_on_random_lifts():
    rng = random.Random(83)
    base = parse_code_spec(BASE_18)
    a_lifts = lifts_of_poly(base.a, 2, 2)
    b_lifts = lifts_of_poly(base.b, 2, 2)
    for _ in range(100):
        at = rng.choice(a_lifts)
        bt = rng.choice(b_lifts)
        rep = canonical_form(at, bt, base, 2, 2)
        assert canonical_form(rep[0], rep[1], base, 2, 2) == rep


def test_cover_multipliers_include_period_extras():
    # 1+y+y^2 is fixed by multiplication with y, so extra multipliers appear
    base = parse_code_spec(BASE_18)
    mults = cover_multipliers(base.a, 2, 1)
    assert len(mults) == 6  # {1, y, y^2} lifted across 2 sheets


def test_tanner_graph_18():
    code = parse_code_spec(BASE_18)
    g = build_tanner_graph(code)
    assert g.n_checks == 18 and g.n_qubits == 18
    nnz = sum(code.hx.row_weight(i) for i in range(9)) + sum(
        code.hz.row_weight(i) for i in range(9)
    )
    assert len(g.edges) == nnz == 108


def test_tanner_graph_check_degree():
    code = parse_code_spec(BASE_72)
    g = build_tanner_graph(code)
    assert g.degree(("X", (0, 0))) == code.a.weight + code.b.weight


def test_tanner_graph_two_qubit_code():
    g = build_tanner_graph(build_code("1", "1", 1, 1))
    assert g.n_checks == 2 and g.n_qubits == 2 and len(g.edges) == 4
    assert is_connected(g)


def test_derived_graph_h1_is_base_graph():
    base = parse_code_spec(BASE_18)
    w = check_cover(base, base)
    derived = build_derived_graph(base, w)
    g = build_tanner_graph(base)
    assert len(derived.vertices) == len(g.vertices)
    assert verify_cover_isomorphism(base, base, w)


def test_derived_graph_doubles_vertices():
    base = parse_code_spec(BASE_72)
    w = check_cover(base, parse_code_spec(GROSS))
    derived = build_derived_graph(base, w)
    g = build_tanner_graph(base)
    assert len(derived.vertices) == 2 * len(g.vertices)


def test_cover_isomorphism_examples():
    base72 = parse_code_spec(BASE_72)
    w = check_cover(base72, parse_code_spec(GROSS))
    assert verify_cover_isomorphism(base72, w.cover, w)
    base18 = parse_code_spec(BASE_18)
    c36 = parse_code_spec("l=6 m=3 A=x^3+y+y^2 B=1+x+x^2")
    w36 = check_cover(base18, c36)
    assert verify_cover_isomorphism(base18, c36, w36)


def test_cover_isomorphism_rejects_corrupted_witness():
    base = parse_code_spec(BASE_18)
    c36 = parse_code_spec("l=6 m=3 A=x^3+y+y^2 B=1+x+x^2")
    w = check_cover(base, c36)
    bad_matching = tuple(
        ((Monomial(c.a + 1, c.b), b) if i == 0 else (c, b))
        for i, (c, b) in enumerate(w.a_matching)
    )
    bad = CoverWitness(w.base, w.cover, w.u, w.t, bad_matching, w.b_matching)
    assert not verify_cover_isomorphism(base, c36, bad)


def test_disconnected_cover_detected():
    # edge voltages wrap even for unlifted exponents, so the naive copy of
    # the base polynomials stays connected; the k=16 class is the one whose
    # exponent differences generate a proper subgroup
    base = parse_code_spec(BASE_18)
    unlifted = parse_code_spec("l=6 m=3 A=1+y+y^2 B=1+x+x^2")
    assert is_connected(build_tanner_graph(unlifted))
    assert unlifted.k == 8
    split = parse_code_spec("l=6 m=3 A=1+y+y^2 B=1+x^2+x^4")
    assert check_cover(base, split).h == 2
    assert not is_connected(build_tanner_graph(split))
    assert split.k == 16
    c36 = parse_code_spec("l=6 m=3 A=x^3+y+y^2 B=1+x+x^2")
    assert is_connected(build_tanner_graph(c36))
    assert c36.k == 8


def test_translation_connectivity_matches_bfs():
    base = parse_code_spec(BASE_18)
    for rec in enumerate_covers(base, 6, 3).records:
        assert rec.connected == is_connected(build_tanner_graph(rec.code()))
        assert rec.connected == _tanner_connected_by_translation(rec.a, rec.b)


def test_class_counts_with_both_factors_lifted():
    # published reduced-search-space sizes at (u, t) = (3, 2) and (5, 2);
    # independent of the reference histograms, which only vary one factor
    base = parse_code_spec(BASE_18)
    enum = enumerate_covers(base, 9, 6)
    assert len(enum.records) == 168
    assert enum.k_histogram == {8: 153, 16: 15}
    pub = parse_code_spec("l=9 m=6 A=x^3+y+y^2 B=y^3+x+x^2")
    w = check_cover(base, pub)
    rep = canonical_form(pub.a, pub.b, base, w.u, w.t)
    assert rep in {(r.a, r.b) for r in enum.records}
    assert len(enumerate_covers(base, 15, 6).records) == 1156


def test_published_covers_appear_in_enumeration():
    # the table rows are specific cover classes, so their canonical forms
    # must show up among the enumerated representatives
    cases = [
        (BASE_72, GROSS, 12, 6),
        (BASE_18, "l=6 m=3 A=x^3+y+y^2 B=1+x+x^2", 6, 3),
        # a weight-8 base: class count is bounded by h^6 instead of h^4
        (
            "l=6 m=2 A=1+x^5+x^3+x^5y B=y+x^2y+x^5y+x^3",
            "l=6 m=4 A=y^2+x^5+x^3+x^5y B=y^3+x^2y^3+x^5y^3+x^3y^2",
            6,
            4,
        ),
    ]
    for base_spec, cover_spec, lt, mt in cases:
        base = parse_code_spec(base_spec)
        cover = parse_code_spec(cover_spec)
        w = check_cover(base, cover)
        enum = enumerate_covers(base, lt, mt)
        assert len(enum.records) <= w.h ** (2 * base.a.weight)
        rep = canonical_form(cover.a, cover.b, base, w.u, w.t)
        reps = {(r.a, r.b) for r in enum.records}
        assert rep in reps
        by_rep = {(r.a, r.b): r.k for r in enum.records}
        assert by_rep[rep] == cover.k


def test_random_lifts_always_verify_as_covers():
    rng = random.Random(131)
    from bbcovers.rings import Poly, RingContext

    built = 0
    while built < 10:
        l, m = rng.randint(2, 4), rng.randint(2, 4)
        ctx = RingContext(l, m)
        a = Poly.make(ctx, [(rng.randrange(l), rng.randrange(m)) for _ in range(3)])
        b = Poly.make(ctx, [(rng.randrange(l), rng.randrange(m)) for _ in range(3)])
        if a.is_zero() or b.is_zero():
            continue
        base = build_code(a, b)
        u, t = rng.randint(1, 2), rng.randint(1, 2)
        at = rng.choice(lifts_of_poly(a, u, t))
        bt = rng.choice(lifts_of_poly(b, u, t))
        cover = build_code(at, bt)
        w = check_cover(base, cover)
        assert w.h == u * t
        assert verify_cover_isomorphism(base, cover, w)
        built += 1


def test_fibers_have_size_h():
    base = parse_code_spec(BASE_18)
    c54 = parse_code_spec("l=9 m=3 A=x^3+y+y^2 B=1+x+x^2")
    w = check_cover(base, c54)
    cover_graph = build_tanner_graph(c54)
    fibers = {}
    for cls, (a, b) in cover_graph.vertices:
        fibers.setdefault((cls, (a % 3, b % 3)), 0)
        fibers[(cls, (a % 3, b % 3))] += 1
    assert set(fibers.values()) == {3}


def test_enumeration_budget_is_far_above_the_census():
    from bbcovers.covers import MAX_ENUMERATION_JOBS

    assert MAX_ENUMERATION_JOBS >= 50 * 15_625


def test_enumerate_refuses_jobs_over_budget(monkeypatch):
    import bbcovers.covers as covers

    def fail(*args, **kwargs):
        raise AssertionError("jobs were built before the refusal")

    monkeypatch.setattr(covers, "_records", fail)
    monkeypatch.setattr(covers, "_side_class", fail)
    monkeypatch.setattr(covers, "MAX_ENUMERATION_JOBS", 99)
    base = parse_code_spec(BASE_18)
    n_a = len(covers._side_representatives(base.a, 3, 2))
    n_b = len(covers._side_representatives(base.b, 3, 2))
    assert n_a * n_b == 168 > 99
    with pytest.raises(Refusal, match="enumeration budget"):
        enumerate_covers(base, 9, 6)


def test_enumeration_budget_bounds_the_classes_before_lifting(monkeypatch):
    import bbcovers.covers as covers

    base = parse_code_spec(BASE_18)
    # 6^3 lifts per side, orbits of at most 18: at least 12 x 12 of the 168 classes
    assert [len(covers.cover_multipliers(p, 3, 2)) for p in (base.a, base.b)] == [18, 18]

    def fail(*args, **kwargs):
        raise AssertionError("work was done before the refusal")

    monkeypatch.setattr(covers, "_records", fail)
    monkeypatch.setattr(covers, "_side_class", fail)
    monkeypatch.setattr(covers, "MAX_ENUMERATION_JOBS", 150)
    with pytest.raises(Refusal, match=r"^\d+ A-classes x \d+ B-classes = 168 codes"):
        enumerate_covers(base, 9, 6)  # the bound passes, the exact count does not
    monkeypatch.setattr(covers, "lifts_of_poly", fail)
    monkeypatch.setattr(covers, "MAX_ENUMERATION_JOBS", 143)
    with pytest.raises(Refusal, match="^at least 12 A-classes x 12 B-classes = 144 codes"):
        enumerate_covers(base, 9, 6)


def test_enumerate_refuses_a_cover_lattice_over_budget_before_any_annihilator(monkeypatch):
    import bbcovers.covers as covers

    def fail(*args, **kwargs):
        raise AssertionError("an annihilator was built before the refusal")

    monkeypatch.setattr(covers, "_side_class", fail)
    base = build_code("1+x", "1+y", 64, 64)
    with pytest.raises(Refusal, match="lattice l\\*m = 8192 exceeds"):
        enumerate_covers(base, 128, 64)


def test_enumerate_refuses_more_than_one_worker_before_any_annihilator(monkeypatch):
    import bbcovers.covers as covers

    def fail(*args, **kwargs):
        raise AssertionError("an annihilator was built before the refusal")

    monkeypatch.setattr(covers, "_side_class", fail)
    with pytest.raises(Refusal, match="workers must be 1, got 2"):
        enumerate_covers(parse_code_spec(BASE_18), 9, 3, workers=2)


def test_enumerate_raises_when_the_two_k_routes_disagree(monkeypatch):
    import dataclasses

    import bbcovers.covers as covers
    from bbcovers.codes import InternalConsistencyError
    from bbcovers.gf2 import RowReducer

    side_class = covers._side_class
    # an empty Ann(p^T) makes the H_Z route read dim 0 while the H_X route reads k / 2
    monkeypatch.setattr(
        covers, "_side_class", lambda p: dataclasses.replace(side_class(p), ann_t=RowReducer(p.ctx.dim))
    )
    with pytest.raises(InternalConsistencyError, match="rank H_X = 23 != rank H_Z = 27"):
        enumerate_covers(parse_code_spec(BASE_18), 9, 3)


def test_tanner_graph_edges_are_the_check_supports():
    # build_tanner_graph reads H_X and H_Z; their rows are the stabilizer supports
    code = parse_code_spec(BASE_72)
    for r in code.ctx.monomials():
        i = code.ctx.index(r.a, r.b)
        assert code.hx.rows[i] == code.stabilizer_support(r, "X").support_vector()
        assert code.hz.rows[i] == code.stabilizer_support(r, "Z").support_vector()


def test_cover_isomorphism_refuses_an_inconsistent_projection_table():
    # the per-base-vertex bijection test rests on projection[embedding[i] + sheet_offsets[g]] == i
    base = parse_code_spec(BASE_18)
    c36 = parse_code_spec("l=6 m=3 A=x^3+y+y^2 B=1+x+x^2")
    w = check_cover(base, c36)
    assert verify_cover_isomorphism(base, c36, w)
    proj = list(w.projection)
    i, j = w.embedding[0], w.embedding[1] + w.sheet_offsets[1]  # over base cells 0 and 1
    proj[i], proj[j] = proj[j], proj[i]  # every fibre keeps its size h
    skewed = CoverWitness(w.base, w.cover, w.u, w.t, w.a_matching, w.b_matching)
    skewed.__dict__["projection"] = tuple(proj)  # the slot of the cached property
    assert not verify_cover_isomorphism(base, c36, skewed)


def test_cover_isomorphism_refuses_generator_heads_that_collide_on_a_base_vertex():
    # 1 and x^3 both reduce to 1: the graphs agree and every projected
    # neighbourhood equals the base one as a set, but each X-check meets two
    # left qubits over one base qubit
    base = parse_code_spec(BASE_18)
    cover = parse_code_spec("l=6 m=3 A=1+x^3+y+y^2 B=1+x+x^2")
    with pytest.raises(CoverRefusal):
        check_cover(base, cover)
    one, x3, y, y2 = Monomial(0, 0), Monomial(3, 0), Monomial(0, 1), Monomial(0, 2)
    b_matching = tuple((t, t) for t in base.b.terms)
    bad = CoverWitness(base, cover, 2, 1, ((one, one), (x3, one), (y, y), (y2, y2)), b_matching)
    assert build_tanner_graph(cover).rows == build_derived_graph(base, bad).rows
    assert not verify_cover_isomorphism(base, cover, bad)
    assert not verify_cover_isomorphism_reference(base, cover, bad)
