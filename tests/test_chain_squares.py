"""The column-table square check of ChainMap against dense matrix products.

Affine cell maps are decided on their generator columns (column 0 on checks,
columns 0 and lm on qubits); every other map on all columns.  Either way the
verdict must be the one the products in oracles.py give.
"""

from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bbcovers import chainmaps
from bbcovers.autos import CodeAutomorphism, antipode_zx_duality, shift_automorphism, verify_automorphism
from bbcovers.autos import y_exponent_swap_automorphism
from bbcovers.chainmaps import ChainMap, _cell_table, _translation, lifting_map, projection_map
from bbcovers.codes import BBCode, parse_code_spec
from bbcovers.rings import Monomial, Poly, RingContext

from oracles import boundaries_reference, chain_map_commutes_reference, squares_commute_reference
from test_bitset_properties import lifts


@st.composite
def codes(draw, l=None, m=None):
    """A BB code over a ring with l, m in 1..8."""
    ctx = RingContext(l or draw(st.integers(1, 8)), m or draw(st.integers(1, 8)))
    cells = st.tuples(st.integers(0, ctx.l - 1), st.integers(0, ctx.m - 1))
    a, b = (Poly.make(ctx, draw(st.sets(cells, min_size=1, max_size=4))) for _ in "ab")
    return BBCode(a, b)


@st.composite
def affine_maps(draw):
    """(map, dual) for a cell map of a code into its own or its dual complex that is
    affine with one lattice homomorphism phi: f(g) = c + phi(g) on every degree and
    on each qubit block.  Shifts and antipode dualities commute; random phi,
    offsets and blocks, bijective or not, mostly do not."""
    code = draw(codes())
    l, m = code.l, code.m
    kind = draw(st.sampled_from(["shift", "antipode", "random"]))
    if kind == "random":
        # phi(x) and phi(y) must have orders dividing l and m
        g = gcd(l, m)
        a1, b1 = draw(st.integers(0, l - 1)), draw(st.integers(0, g - 1)) * (m // g)
        a2, b2 = draw(st.integers(0, g - 1)) * (l // g), draw(st.integers(0, m - 1))
        offsets = [draw(st.tuples(st.integers(0, l - 1), st.integers(0, m - 1))) for _ in range(4)]
        blocks = draw(st.tuples(st.integers(0, 1), st.integers(0, 1)))
        dual = draw(st.booleans())
    else:
        sign = 1 if kind == "shift" else -1
        (a1, b1), (a2, b2) = (sign, 0), (0, sign)
        offsets = [draw(st.tuples(st.integers(0, l - 1), st.integers(0, m - 1)))] * 4
        blocks, dual = ((0, 1), False) if kind == "shift" else ((1, 0), True)

    def cells(offset):
        ca, cb = offset
        return [code.ctx.index(ca + a * a1 + b * a2, cb + a * b1 + b * b2) for a in range(l) for b in range(m)]

    lm = code.ctx.dim
    qubits = [1 << (s * lm + i) for s, c in zip(blocks, offsets[1:3]) for i in cells(c)]
    cm = ChainMap(tuple(1 << i for i in cells(offsets[0])), tuple(qubits), tuple(1 << i for i in cells(offsets[3])), code, code)
    return cm, dual


@settings(max_examples=300, deadline=None)
@given(affine_maps())
def test_affine_cell_maps_are_decided_on_generator_columns(drawn):
    cm, dual = drawn
    assert cm._step == cm.source.ctx.dim
    assert cm.commutes(dual) == chain_map_commutes_reference(cm, dual)


@settings(max_examples=300, deadline=None)
@given(affine_maps(), st.integers(0, 2), st.integers(0, 2**20), st.integers(0, 2**40))
def test_a_corrupted_entry_gets_the_dense_verdict(drawn, degree, j, value):
    cm, dual = drawn
    tables = [list(cols) for cols in cm.columns]
    cols = tables[degree]
    j %= len(cols)
    value %= 1 << (cm.target.n if degree == 1 else cm.target.ctx.dim)
    assume(value != cols[j])
    cols[j] = value
    bad = ChainMap(*map(tuple, tables), cm.source, cm.target)
    assert bad.commutes(dual) == chain_map_commutes_reference(bad, dual)


@settings(max_examples=100, deadline=None)
@example(parse_code_spec("l=3 m=4 A=1+x B=1+x+x^2"))  # no y: the swap is an automorphism
@given(codes(m=4))
def test_y_swap_at_m_4_takes_every_column(code):
    aut = y_exponent_swap_automorphism(code)
    assert aut._step == 1  # b -> 1 - b is not the swap of 0 and 1 when m = 4
    assert aut.commutes() == chain_map_commutes_reference(aut)


@settings(max_examples=60, deadline=None)
@given(lifts())
def test_projection_squares_on_generator_columns_match_the_products(lift):
    base, cover, w = lift
    pm, tm = projection_map(w), lifting_map(w)
    assert pm._step == cover.ctx.dim  # p is an affine cell map
    assert tm._step == (base.ctx.dim if w.h == 1 else 1)  # tau sends a cell to its fibre
    degs = (pm.deg2, pm.deg1, pm.deg0)
    assert squares_commute_reference(degs, boundaries_reference(cover), boundaries_reference(base))
    dual = (boundaries_reference(cover, True), boundaries_reference(base, True))
    assert squares_commute_reference(degs[::-1], *dual)
    assert tm.commutes() == chain_map_commutes_reference(tm)


def test_translation_and_antipode_tables_match_the_per_cell_formulas():
    for l in range(1, 13):  # past the translation cache's 16 entries
        for m in range(1, 13):
            ctx = RingContext(l, m)
            antipode = antipode_zx_duality(BBCode(Poly.one(ctx), Poly.one(ctx)))
            assert antipode._cell_tables[0] == tuple(ctx.index(-a, -b) for a in range(l) for b in range(m))
            for a in range(-3, 12):
                for b in range(-3, 12):
                    assert _translation(ctx, a, b) == tuple(ctx.index(i // m + a, i % m + b) for i in range(ctx.dim))


def test_a_column_of_no_bit_or_two_bits_decodes_to_no_cell_table():
    assert _cell_table((2, 1, 8)) == (1, 0, 3)
    assert _cell_table((2, 0, 8)) is None
    assert _cell_table((2, 5, 8)) is None


GROSS = parse_code_spec("l=12 m=6 A=x^3+y+y^2 B=y^3+x+x^2")


def test_a_qubit_table_that_sends_two_cells_to_one_is_refused():
    shift = shift_automorphism(GROSS, Monomial(1, 2))
    cols1 = list(shift.cols1)
    cols1[1] = cols1[0]
    bad = CodeAutomorphism(shift.cols2, tuple(cols1), shift.cols0, GROSS, GROSS)
    assert bad._cell_tables[1] is not None
    assert not verify_automorphism(GROSS, bad)
    with pytest.raises(ValueError, match="not a permutation"):
        bad.f


def test_a_shift_with_two_cells_swapped_takes_every_column_and_fails():
    shift = shift_automorphism(GROSS, Monomial(1, 2))
    cols1 = list(shift.cols1)
    cols1[0], cols1[1] = cols1[1], cols1[0]
    swapped = CodeAutomorphism(shift.cols2, tuple(cols1), shift.cols0, GROSS, GROSS)
    assert swapped._step == 1
    assert not swapped.commutes() and not chain_map_commutes_reference(swapped)
    assert not verify_automorphism(GROSS, swapped)


def test_a_check_degree_shared_by_both_check_spaces_is_decoded_once(monkeypatch):
    decoded = []

    def spy(cols):
        decoded.append(cols)
        return _cell_table(cols)

    # a map given by its columns decodes its tables; a built shift carries them
    built = shift_automorphism(GROSS, Monomial(3, 1))
    monkeypatch.setattr(chainmaps, "_cell_table", spy)
    shift = CodeAutomorphism(built.cols2, built.cols1, built.cols2, GROSS, GROSS)
    tables = shift._cell_tables
    assert decoded == [shift.cols2, shift.cols1]
    assert tables[0] is tables[2] == _translation(GROSS.ctx, 3, 1)
