"""Dual-route checks: independent strategies must agree on shared ground."""

from hypothesis import given, settings
from hypothesis import strategies as st

from bbcovers.chainmaps import projection_map
from bbcovers.codes import BBCode, Classification, parse_code_spec
from bbcovers.covers import canonical_form, check_cover, enumerate_covers
from bbcovers.distance import _first_in_ascending_support, distance_one_side, exact_distance
from bbcovers.gf2 import RowReducer

from oracles import (
    ascending_support,
    coset_minimum,
    lifts_of_poly,
    logical_vectors_of_weight,
    mitm_logicals_of_weight,
    mitm_minimum,
    pinned_hits_against_reference,
)
from random_codes import weight3_codes, weight4_codes


def brute_force_z_distance(code):
    """Walk the whole kernel of H_X and take the lightest non-stabilizer."""
    ker = code.hx.kernel_basis()
    stab = RowReducer(code.n, code.hz.rows)
    best = None
    cur = 0
    prev = 0
    for g in range(1, 1 << ker.n_rows):
        gray = g ^ (g >> 1)
        cur ^= ker.rows[(gray ^ prev).bit_length() - 1]
        prev = gray
        w = cur.bit_count()
        if (best is None or w < best) and not stab.contains(cur):
            best = w
    return best


def test_distance_against_full_kernel_walk():
    # dim ker H_X = 10, so the walk is exhaustive ground truth
    code = parse_code_spec("l=7 m=1 A=1+x^2+x^3 B=1+x^2+x^3")
    assert brute_force_z_distance(code) == exact_distance(code, 6).value == 2
    code28 = parse_code_spec("l=7 m=2 A=y+x^2+x^3 B=1+x^2+x^3")
    assert brute_force_z_distance(code28) == exact_distance(code28, 6).value == 4


def test_coset_and_mitm_strategies_agree():
    # the cluster search against both strategies it replaced, on both sides:
    # the same d as the coset walk, the meet-in-the-middle search's first hit
    # as witness and its full list of minimum-weight logicals
    for spec in (
        "l=3 m=3 A=1+y+y^2 B=1+x+x^2",
        "l=7 m=1 A=1+x^2+x^3 B=1+x^2+x^3",
        "l=7 m=2 A=y+x^2+x^3 B=1+x^2+x^3",
        "l=6 m=2 A=1+x^5+x^3+x^5y B=y+x^2y+x^5y+x^3",
    ):
        code = parse_code_spec(spec)
        for side in "ZX":
            res = distance_one_side(code, side, code.n)
            assert res.kind == "exact" and res.method == "enumeration"
            coset_w, _ = coset_minimum(code, side)
            mitm_w, mitm_first = mitm_minimum(code, side, res.value)
            assert res.value == coset_w == mitm_w
            assert res.witness.support_vector() == mitm_first
            d = res.value
            assert logical_vectors_of_weight(code, side, d) == mitm_logicals_of_weight(code, side, d)


@settings(max_examples=100, deadline=None)
@given(weight3_codes())
def test_cluster_search_matches_oracles_on_random_codes(code):
    for side in "ZX":
        res = distance_one_side(code, side, code.n)
        truth = brute_force_z_distance(code) if side == "Z" else coset_minimum(code, "X")[0]
        assert res.kind == "exact" and res.value == truth
        assert res.witness.support_vector() == mitm_minimum(code, side, truth)[1]


@settings(max_examples=60, deadline=None)
@given(st.one_of(weight3_codes(), weight4_codes()))
def test_pruned_search_finds_the_reference_hits_at_every_weight_up_to_d(code):
    # pin 0, and the right-block pin lm where pin 0 is empty, against the search
    # that tested each branch only after calling into it
    for side in "ZX":
        d = distance_one_side(code, side, code.n).value
        for w, pin, hits, reference in pinned_hits_against_reference(code, side, d):
            assert hits == reference, (side, w, pin)


@st.composite
def equal_weight_sets(draw):
    n = draw(st.integers(1, 24))
    w = draw(st.integers(1, n))
    supports = st.sets(st.integers(0, n - 1), min_size=w, max_size=w)
    return [sum(1 << i for i in support) for support in draw(st.lists(supports, min_size=1, max_size=12))]


@given(equal_weight_sets())
def test_witness_scan_picks_the_first_set_in_ascending_support_order(vecs):
    assert _first_in_ascending_support(vecs) == min(vecs, key=ascending_support)


def test_k_is_invariant_across_each_canonical_orbit():
    base = parse_code_spec("l=3 m=3 A=1+y+y^2 B=1+x+x^2")
    enum = enumerate_covers(base, 6, 3)
    by_rep = {(r.a.terms, r.b.terms): r.k for r in enum.records}
    for at in lifts_of_poly(base.a, 2, 1):
        for bt in lifts_of_poly(base.b, 2, 1):
            rep = canonical_form(at, bt, base, 2, 1)
            assert BBCode(at, bt).k == by_rep[(rep[0].terms, rep[1].terms)]


def test_projection_maps_stabilizer_generators_to_stabilizers():
    base = parse_code_spec("l=3 m=3 A=1+y+y^2 B=1+x+x^2")
    cover = parse_code_spec("l=9 m=3 A=x^3+y+y^2 B=1+x+x^2")
    witness = check_cover(base, cover)
    pm = projection_map(witness)
    for rows, side in ((cover.hz.rows, "Z"), (cover.hx.rows, "X")):
        for gen in rows:
            image = pm.deg1.mul_vec(gen)
            assert base.classify_vector(side, image) == Classification.STABILIZER
