import random
from dataclasses import FrozenInstanceError

import pytest

from bbcovers import cli, covers
from bbcovers.codes import BBCode, InternalConsistencyError, Refusal, build_code, parse_code_spec
from bbcovers.covers import (
    CoverRefusal,
    CoverWitness,
    LatticeMap,
    _closure,
    _difference_group,
    build_derived_graph,
    build_tanner_graph,
    canonical_form,
    check_cover,
    cover_multipliers,
    enumerate_covers,
    is_connected,
    verify_cover_isomorphism,
)
from bbcovers.gf2 import BinMatrix, RowReducer
from bbcovers.rings import ContextMismatch, Monomial, Poly, RingContext, parse_poly

from oracles import lifts_of_poly, stabilizer_support, verify_cover_isomorphism_reference

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


def test_enumeration_eliminates_each_side_class_circulant_once_and_draws_no_kernel(monkeypatch):
    # Ann(p) is read off the rows of M(p) that cancel, Ann(p^T) as its antipode image
    inserted: dict[int, tuple[RowReducer, list[int]]] = {}  # id -> (reducer, rows), reducers kept alive
    insert = RowReducer._insert

    def spy(self, rows):
        rows = list(rows)
        inserted.setdefault(id(self), (self, []))[1].extend(v & ((1 << self.n_cols) - 1) for v in rows)
        return insert(self, rows)

    def fail(self):
        raise AssertionError("a kernel was drawn from a reduced form")

    monkeypatch.setattr(RowReducer, "_insert", spy)
    monkeypatch.setattr(RowReducer, "kernel_vectors", fail)
    enum = enumerate_covers(parse_code_spec(BASE_18), 9, 3)
    sides = [*dict.fromkeys(r.a for r in enum.records), *dict.fromkeys(r.b for r in enum.records)]
    circulants = sorted(tuple(rows) for _, rows in inserted.values() if len(rows) == 27)
    assert circulants == sorted(p.to_matrix().rows for p in sides)


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


def test_refusal_when_two_terms_reduce_to_one_base_term():
    # 1 and x^3 both reduce to 1 at l = 3: equal term counts, but no bijection
    base = parse_code_spec(BASE_18)
    with pytest.raises(CoverRefusal, match=r"term x\^3 reduces to 1, not a base term") as err:
        check_cover(base, parse_code_spec("l=6 m=3 A=1+x^3+y B=1+x+x^2"))
    assert err.value.condition == 3


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


def test_enumeration_raises_on_a_cover_with_k_below_the_base_k(monkeypatch, capsys):
    # tau sends H_2 injectively into the cover's, so k_h >= k.  The base's k is read
    # like the records', 2 dim(Ann A & Ann B); a base A-class forged to claim B's
    # annihilators makes it 2 dim Ann B = 12, above the k = 8 of three (6, 3) covers
    base = parse_code_spec(BASE_18)
    side_class = covers._side_class

    def forged(p):
        if p != base.a:
            return side_class(p)
        b = side_class(base.b)
        return side_class(p)._replace(ann=b.ann, ann_t=b.ann_t)

    monkeypatch.setattr(covers, "_side_class", forged)
    with pytest.raises(InternalConsistencyError, match="has k = 8 < the base's k = 12"):
        enumerate_covers(base, 6, 3)
    assert cli.main(["enumerate", BASE_18, "--lt", "6", "--mt", "3"]) == 3
    assert "internal invariant breach" in capsys.readouterr().err
    monkeypatch.undo()
    assert enumerate_covers(base, 6, 3).k_histogram == {8: 3, 16: 1}


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
    assert check_cover(base, BBCode(a1, b)).h == 2
    assert check_cover(base, BBCode(a2, b)).h == 2
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
    nnz = sum(r.bit_count() for r in code.hx.rows[:9]) + sum(r.bit_count() for r in code.hz.rows[:9])
    assert len(g.edges) == nnz == 108


def test_tanner_graph_check_degree():
    code = parse_code_spec(BASE_72)
    g = build_tanner_graph(code)
    assert len(g.adjacency[0]) == code.a.weight + code.b.weight  # check X at cell 0 has id 0


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
        # the test of covers._records: S_A + S_B is all of Z_l x Z_m
        groups = _difference_group(rec.a), _difference_group(rec.b)
        assert rec.connected == (_closure(rec.a.ctx, *groups) == (1 << rec.a.ctx.dim) - 1)


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
        base = BBCode(a, b)
        u, t = rng.randint(1, 2), rng.randint(1, 2)
        at = rng.choice(lifts_of_poly(a, u, t))
        bt = rng.choice(lifts_of_poly(b, u, t))
        cover = BBCode(at, bt)
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
    n_a, n_b = (len(covers._side_representatives(p, 3, 2, cover_multipliers(p, 3, 2))) for p in (base.a, base.b))
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
    monkeypatch.setattr(covers.LatticeMap, "lifts", fail)
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


def test_enumerate_refuses_a_cover_lattice_over_budget_before_any_lift(monkeypatch):
    # the base l=1 m=1 A=1 B=1 at (100, 100): 10,000 lifts per side of 10,000 bits
    # each, which the lattice budget refuses before building one of them
    import bbcovers.covers as covers

    def fail(*args, **kwargs):
        raise AssertionError("multipliers or lifts were built before the refusal")

    monkeypatch.setattr(covers, "cover_multipliers", fail)
    monkeypatch.setattr(covers, "_side_representatives", fail)
    with pytest.raises(Refusal, match="lattice l\\*m = 10000 exceeds"):
        enumerate_covers(build_code("1", "1", 1, 1), 100, 100)


def test_enumerate_refuses_more_than_one_worker_before_any_annihilator(monkeypatch):
    import bbcovers.covers as covers

    def fail(*args, **kwargs):
        raise AssertionError("an annihilator was built before the refusal")

    monkeypatch.setattr(covers, "_side_class", fail)
    with pytest.raises(Refusal, match="workers must be 1, got 2"):
        enumerate_covers(parse_code_spec(BASE_18), 9, 3, workers=2)


def test_enumerate_raises_when_the_two_k_routes_disagree(monkeypatch):
    import bbcovers.covers as covers
    from bbcovers.codes import InternalConsistencyError

    side_class = covers._side_class
    # an empty Ann(p^T) makes the H_Z route read dim 0 while the H_X route reads k / 2
    monkeypatch.setattr(covers, "_side_class", lambda p: side_class(p)._replace(ann_t=()))
    with pytest.raises(InternalConsistencyError, match="rank H_X = 23 != rank H_Z = 27"):
        enumerate_covers(parse_code_spec(BASE_18), 9, 3)


def test_enumerate_runs_the_construction_check_on_every_job(monkeypatch):
    # one B-class's M(B^T) forged in row j: column 0 of H_X H_Z^T is then nonzero on
    # the jobs whose A^T has bit j, which the first A-class's lacks and some others' hold
    base = parse_code_spec(BASE_18)
    a_side, b_side = (covers._side_representatives(p, 3, 1, cover_multipliers(p, 3, 1)) for p in (base.a, base.b))
    first, forged_b, j = a_side[0], b_side[-1], 10
    hits = [a.transpose().mask >> j & 1 for a in a_side]
    assert hits[0] == 0 < sum(hits) < len(hits)
    side_class = covers._side_class

    def forge(p):
        side = side_class(p)  # certified first, so only the job check can see the forgery
        if p.ctx == forged_b.ctx and p.mask == forged_b.mask:
            matrix = p.transpose().to_matrix()
            rows = list(matrix.rows)
            rows[j] ^= 1
            p.transpose().__dict__["_matrix"] = BinMatrix(matrix.n_rows, matrix.n_cols, tuple(rows))
        return side

    monkeypatch.setattr(covers, "_side_class", forge)
    with pytest.raises(InternalConsistencyError, match=r"H_X H_Z\^T != 0"):
        enumerate_covers(base, 9, 3)
    # a code built on the forged class reads the same check: it fails exactly on the hits
    b = forge(Poly(forged_b.ctx, forged_b.mask)).poly
    assert BBCode(first, b).n == 54
    for a, hit in zip(a_side, hits):
        if hit:
            with pytest.raises(InternalConsistencyError, match=r"H_X H_Z\^T != 0"):
                BBCode(a, b)
        else:
            BBCode(a, b)
    monkeypatch.undo()
    assert len(enumerate_covers(base, 9, 3).records) == len(a_side) * len(b_side)


def test_jobs_of_a_class_without_the_transpose_certificate_raise():
    # with the certificate, the job check reads M(A^T): zeroed, it leaves column 0 =
    # A^T B^T != 0; without it, no rows are read and no record is made
    base = parse_code_spec(BASE_18)
    sa, sb = covers._side_class(base.a), covers._side_class(base.b)
    a = Poly(base.ctx, base.a.mask)
    a.transpose().__dict__["_matrix"] = BinMatrix(9, 9, (0,) * 9)
    a.__dict__["_column_0_is_transpose"] = True  # the slot of the cached property
    with pytest.raises(InternalConsistencyError, match=r"H_X H_Z\^T != 0"):
        covers._records([sa._replace(poly=a)], [sb])
    a.__dict__["_column_0_is_transpose"] = False
    for a_classes, b_classes in (([sa._replace(poly=a)], [sb]), ([sb], [sa._replace(poly=a)])):
        with pytest.raises(InternalConsistencyError, match=r"column 0 of M\(p\) is not the mask of p\^T"):
            covers._records(a_classes, b_classes)


def test_records_refuse_a_class_over_another_ring_or_with_a_zero_polynomial():
    # the checks of a code build that do not depend on the pair, run once per class
    base = parse_code_spec(BASE_18)
    sa, sb = covers._side_class(base.a), covers._side_class(base.b)
    other = covers._side_class(parse_code_spec(BASE_14).b)
    with pytest.raises(ContextMismatch, match="A and B over different rings"):
        covers._records([sa], [sb, other])
    with pytest.raises(Refusal, match="defining polynomials must be nonempty"):
        covers._records([sa, sb._replace(poly=Poly.zero(sb.poly.ctx))], [sb])


def _fail_on_records(monkeypatch):
    import bbcovers.covers as covers

    def fail(*args, **kwargs):
        raise AssertionError("a record was made before the annihilators were certified")

    monkeypatch.setattr(covers, "CoverRecord", fail)


def test_enumerate_refuses_antipode_images_outside_ann_p_transpose(monkeypatch):
    from bbcovers.codes import InternalConsistencyError
    from bbcovers.rings import RingContext

    from oracles import annihilator_spans_reference

    base = parse_code_spec(BASE_14)
    ann, ann_t = annihilator_spans_reference(base.a)
    assert ann != ann_t  # 1 + x^2 + x^3 and its reciprocal are distinct factors of x^7 - 1
    # transposes stay right; only the images of Ann(p) go wrong
    antipode = RingContext.antipode
    monkeypatch.setattr(Poly, "transpose", lambda p: Poly(p.ctx, antipode(p.ctx, p.mask)))
    monkeypatch.setattr(RingContext, "antipode", lambda ctx, v: v)
    _fail_on_records(monkeypatch)
    with pytest.raises(InternalConsistencyError, match=r"antipode image of Ann\(p\) is not Ann\(p\^T\)"):
        enumerate_covers(base, 7, 1)


def test_enumerate_refuses_an_uncertified_transpose_circulant(monkeypatch):
    from bbcovers.codes import InternalConsistencyError

    base = parse_code_spec(BASE_18)
    monkeypatch.setattr(Poly, "_column_0_is_transpose", property(lambda p: False))
    _fail_on_records(monkeypatch)
    with pytest.raises(InternalConsistencyError, match=r"column 0 of M\(p\) is not the mask of p\^T"):
        enumerate_covers(base, 9, 3)


def test_tanner_graph_edges_are_the_check_supports():
    # build_tanner_graph reads H_X and H_Z; their rows are the stabilizer supports
    code = parse_code_spec(BASE_72)
    for r in code.ctx.monomials():
        i = code.ctx.index(r.a, r.b)
        assert code.hx.rows[i] == stabilizer_support(code, r, "X").support_vector()
        assert code.hz.rows[i] == stabilizer_support(code, r, "Z").support_vector()


def test_certifying_two_covers_of_one_base_tests_the_base_translates_once(monkeypatch):
    base = parse_code_spec(BASE_18)
    covers = [parse_code_spec("l=6 m=3 A=x^3+y+y^2 B=1+x+x^2"), parse_code_spec("l=9 m=3 A=x^3+y+y^2 B=1+x+x^2")]
    witnesses = [check_cover(base, c) for c in covers]
    base_shifts = []
    shift = RingContext.shift

    def spy(self, v, a, b):
        if self == base.ctx:
            base_shifts.append((v, a, b))
        return shift(self, v, a, b)

    monkeypatch.setattr(RingContext, "shift", spy)
    for cover, w in zip(covers, witnesses):
        assert verify_cover_isomorphism(base, cover, w)
    # two blocks of each of the 4 cell-0 neighbourhoods, translated to every cell, once
    assert len(base_shifts) == 8 * base.ctx.dim


@pytest.mark.parametrize(
    "name, index",
    [("hx", 1), ("hx", 8), ("hz", 4), ("hx_t", 1), ("hx_t", 10), ("hx_t", 17), ("hz_t", 5), ("hz_t", 13)],
)
def test_cover_isomorphism_refuses_a_base_whose_rows_are_not_translates(name, index):
    # row 0, and rows 0 and lm = 9 of a transpose, are left as they are, so the
    # witness's cell-0 neighbourhoods still equal the base's own
    c36 = parse_code_spec("l=6 m=3 A=x^3+y+y^2 B=1+x+x^2")
    w = check_cover(parse_code_spec(BASE_18), c36)
    assert verify_cover_isomorphism(parse_code_spec(BASE_18), c36, w)
    base = parse_code_spec(BASE_18)
    matrix = getattr(base, name)
    rows = list(matrix.rows)
    rows[index] ^= 1  # no longer the translate of its cell-0 row or column
    base.__dict__[name] = BinMatrix(matrix.n_rows, matrix.n_cols, tuple(rows))  # the cached property's slot
    assert not verify_cover_isomorphism(base, c36, w)


def test_a_cover_record_has_no_dict_and_stays_frozen():
    record = enumerate_covers(parse_code_spec(BASE_18), 6, 3).records[0]
    assert not hasattr(record, "__dict__")
    with pytest.raises(FrozenInstanceError):
        record.k = 0


def test_cover_isomorphism_refuses_an_inconsistent_projection_table():
    # the per-base-vertex bijection test rests on p.cells sending x^a y^b to (a mod l) m + b mod m
    base = parse_code_spec(BASE_18)
    c36 = parse_code_spec("l=6 m=3 A=x^3+y+y^2 B=1+x+x^2")
    w = check_cover(base, c36)
    assert verify_cover_isomorphism(base, c36, w)
    proj = list(w.p.cells)
    i, j = 0, 3 * c36.m + 1  # 1 and x^3 y, over base cells 0 and 1
    proj[i], proj[j] = proj[j], proj[i]  # every fibre keeps its size h
    forged = LatticeMap(c36.ctx, base.ctx)
    forged.__dict__["cells"] = tuple(proj)  # the slot of the cached property
    skewed = CoverWitness(w.base, w.cover, w.u, w.t, w.a_matching, w.b_matching)
    skewed.__dict__["p"] = forged
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


def test_lattice_maps_live_in_a_module_of_their_own():
    # one class, bound in every module that builds lattice maps; p owns its sheets
    # and lifts, and lattice.py imports none of the modules built on it
    import ast
    from pathlib import Path

    from bbcovers import autos, chainmaps, lattice

    assert covers.LatticeMap is chainmaps.LatticeMap is autos.LatticeMap is lattice.LatticeMap
    assert not hasattr(CoverWitness, "sheets") and not hasattr(covers, "_lift_masks")
    names = set()
    for node in ast.walk(ast.parse(Path(lattice.__file__).read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(getattr(node, "module", None) or "", *(a.name for a in node.names))
    parts = {part for name in names for part in name.split(".")}
    assert parts and not parts & {"covers", "chainmaps", "autos"}
