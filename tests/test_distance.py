import json
import random
from pathlib import Path

import pytest

from bbcovers.codes import BBCode, Classification, Refusal, build_code, parse_code_spec
from bbcovers.distance import (
    _cluster_search,
    distance_one_side,
    exact_distance,
    verify_dx_equals_dz,
)
from bbcovers.rings import Monomial
from bbcovers.tables import all_rows

from oracles import cluster_search_reference, logical_vectors_of_weight, pinned_hits_against_reference

SMALL_COVERS = Path(__file__).resolve().parents[1] / "perfbench" / "small_covers.json"


def test_exact_distance_18():
    res = exact_distance(parse_code_spec("l=3 m=3 A=1+y+y^2 B=1+x+x^2"), 4, both_sides=True)
    assert res.kind == "exact" and res.value == 2
    assert res.method == "enumeration"


def test_exact_distance_72():
    code = parse_code_spec("l=6 m=6 A=x^3+y+y^2 B=y^3+x+x^2")
    res = exact_distance(code, 6, both_sides=True)
    assert res.kind == "exact" and res.value == 6
    assert res.method == "enumeration"


@pytest.mark.parametrize("basis,w_max", [("z", 1), ("z", 4), ("Y", 4)])
def test_a_basis_other_than_x_or_z_is_refused_before_any_search(monkeypatch, basis, w_max):
    # "z" ran the X-side search, and at w_max 4 both searched before a bare ValueError
    import bbcovers.distance as distance

    def fail(*args):
        raise AssertionError("the search ran before the refusal")

    monkeypatch.setattr(distance, "_cluster_search", fail)
    code = parse_code_spec("l=3 m=3 A=1+y+y^2 B=1+x+x^2")
    with pytest.raises(Refusal, match=f"^basis must be 'X' or 'Z', not '{basis}'$"):
        distance_one_side(code, basis, w_max)
    with pytest.raises(Refusal, match="^basis must be 'X' or 'Z'"):
        code.classify_vector(basis, 0)


def test_both_sides_searches_the_z_side_only(monkeypatch):
    import bbcovers.distance as distance

    calls = []
    original = distance.distance_one_side

    def counting(code, basis, w_max):
        calls.append(basis)
        return original(code, basis, w_max)

    monkeypatch.setattr(distance, "distance_one_side", counting)
    for spec, w_max in (("l=3 m=3 A=1+y+y^2 B=1+x+x^2", 4), ("l=6 m=6 A=x^3+y+y^2 B=y^3+x+x^2", 6)):
        calls.clear()
        exact_distance(parse_code_spec(spec), w_max, both_sides=True)
        assert calls == ["Z"]


def test_exact_distance_42():
    code = parse_code_spec("l=7 m=3 A=1+x^2+x^3y B=1+x^2+x^3y^2")
    res = exact_distance(code, 6)
    assert res.kind == "exact" and res.value == 6


def test_exact_distance_weight8_search():
    # h=4 entry of the k=6 sequence; exercises the w=8 enumeration level
    code = parse_code_spec("l=7 m=4 A=1+x^2+x^3y^2 B=1+x^2y+x^3")
    res = exact_distance(code, 8, both_sides=True)
    assert res.kind == "exact" and res.value == 8


def test_exact_distance_beyond_the_old_exhaustive_regime():
    # the published [[90,8,10]] row, past the d <= 8 of sequence --distance auto
    code = parse_code_spec("l=15 m=3 A=x^9+y+y^2 B=1+x^2+x^7")
    for side in "ZX":
        res = distance_one_side(code, side, 10)
        assert res.kind == "exact" and res.value == 10 and res.w_max == 10
        assert res.witness.basis == side and res.witness.weight == 10
        assert code.classify(res.witness) == Classification.LOGICAL
    assert distance_one_side(code, "Z", 9).kind == "lower-bound-interval"


def test_witness_is_minimum_weight_logical():
    code = parse_code_spec("l=9 m=3 A=x^3+y+y^2 B=1+x+x^2")
    res = distance_one_side(code, "Z", 6)
    assert res.value == 6
    assert res.witness.weight == 6
    assert code.classify(res.witness) == Classification.LOGICAL


def test_wmax_too_small_reports_interval():
    code = parse_code_spec("l=7 m=3 A=1+x^2+x^3y B=1+x^2+x^3y^2")
    res = distance_one_side(code, "Z", 4)
    assert res.kind == "lower-bound-interval"
    assert res.value is None and res.w_max == 4
    assert res.method == "enumeration"


def test_wmax_is_echoed_for_every_size():
    code = parse_code_spec("l=3 m=3 A=1+y+y^2 B=1+x+x^2")
    for w_max in (2, 4, 100):
        res = distance_one_side(code, "Z", w_max)
        assert (res.kind, res.value, res.w_max) == ("exact", 2, w_max)
    assert distance_one_side(code, "Z", 1).kind == "lower-bound-interval"


def test_dx_equals_dz():
    for spec in (
        "l=3 m=3 A=1+y+y^2 B=1+x+x^2",
        "l=7 m=2 A=y+x^2+x^3 B=1+x^2+x^3",
        "l=7 m=1 A=1+x^2+x^3 B=1+x^2+x^3",
    ):
        assert verify_dx_equals_dz(parse_code_spec(spec), 6) is True


def test_dx_equals_dz_inconclusive_on_bounds():
    code = parse_code_spec("l=7 m=3 A=1+x^2+x^3y B=1+x^2+x^3y^2")
    assert verify_dx_equals_dz(code, 3) is None


def test_distance_refused_for_k_zero():
    with pytest.raises(Refusal):
        exact_distance(build_code("1", "1", 1, 1), 2)


def test_logical_vectors_of_weight_exhaustive():
    code = parse_code_spec("l=3 m=3 A=1+y+y^2 B=1+x+x^2")
    vecs = logical_vectors_of_weight(code, "Z", 2)
    assert vecs
    for v in vecs:
        assert v.bit_count() == 2
        assert code.classify_vector("Z", v) == Classification.LOGICAL
    assert vecs == sorted(vecs, key=lambda v: [i for i in range(code.n) if v >> i & 1])
    # Z(1 + y|0) and its y-translates
    assert len(set(vecs)) == len(vecs)
    assert {0b11, 0b110, 0b101} <= set(vecs)


def test_pruned_search_finds_the_reference_hits_on_every_fixture_code():
    # every published row and every odd-h cover the distance benchmark draws from,
    # both sides, up to weight min(d, 6): pin 0, and the right-block pin lm where
    # pin 0 is empty, against the search that tested each branch after calling into it
    codes = [(row.spec_line(), row.code(), row.d) for row in all_rows()]
    for lattice in json.loads(SMALL_COVERS.read_text()):
        for d, specs in lattice["by_d"].items():
            codes.extend((spec, parse_code_spec(spec), int(d)) for spec in specs)
    assert len(codes) == 61 + 182
    for spec, code, d in codes:
        for side in "ZX":
            for w, pin, hits, reference in pinned_hits_against_reference(code, side, min(d, 6)):
                assert hits == reference, (spec, side, w, pin)


@pytest.mark.parametrize(
    "spec, w, meets_both_blocks",
    [("l=3 m=3 A=1+y+y^2 B=1+x+x^2", 2, False), ("l=7 m=2 A=y+x^2+x^3 B=1+x^2+x^3", 4, True)],
)
def test_searches_from_right_block_roots_are_not_restricted(spec, w, meets_both_blocks):
    # only the pin-lm call of the distance search keeps to the right block: a search
    # from any right-block root still reaches the left block, so the oracle is complete
    code = parse_code_spec(spec)
    lm = code.ctx.dim
    left_block = (1 << lm) - 1
    for side in "ZX":
        logicals, reference = _cluster_search(code, side), cluster_search_reference(code, side)
        for root in range(lm, code.n):
            assert sorted(logicals(root, w)) == sorted(reference(root, w))
        vecs = logical_vectors_of_weight(code, side, w)
        assert set(vecs) == {v for root in range(code.n) for v in reference(root, w)}
        assert any(v & left_block for v in vecs) and any(v & ~left_block for v in vecs)
        assert any(v & left_block and v & ~left_block for v in vecs) == meets_both_blocks


@pytest.mark.parametrize("w", [1, 3])
def test_logical_vectors_of_weight_refuses_other_weights(w):
    code = parse_code_spec("l=3 m=3 A=1+y+y^2 B=1+x+x^2")
    with pytest.raises(Refusal):
        logical_vectors_of_weight(code, "Z", w)


def _shift_poly(p, mono):
    return p.shift(mono)


def test_monomial_shift_invariance_same_multiplier():
    # multiplying both polynomials by one monomial leaves (n, k, d) unchanged
    rng = random.Random(71)
    base = parse_code_spec("l=3 m=3 A=1+y+y^2 B=1+x+x^2")
    d0 = exact_distance(base, 4).value
    for _ in range(4):
        mono = Monomial(rng.randrange(3), rng.randrange(3))
        shifted = BBCode(_shift_poly(base.a, mono), _shift_poly(base.b, mono))
        assert (shifted.n, shifted.k) == (base.n, base.k)
        assert exact_distance(shifted, 4).value == d0


def test_monomial_shift_invariance_different_multipliers():
    rng = random.Random(73)
    base = parse_code_spec("l=7 m=2 A=y+x^2+x^3 B=1+x^2+x^3")
    d0 = exact_distance(base, 6).value
    for _ in range(4):
        ma = Monomial(rng.randrange(7), rng.randrange(2))
        mb = Monomial(rng.randrange(7), rng.randrange(2))
        shifted = BBCode(_shift_poly(base.a, ma), _shift_poly(base.b, mb))
        assert (shifted.n, shifted.k) == (base.n, base.k)
        assert exact_distance(shifted, 6).value == d0
