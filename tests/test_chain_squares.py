"""The square checks of ChainMap against every column and dense matrix products.

A lattice map (p, the shifts, the antipode and block swap, and lifts that are
lattice maps of the cover) is decided from phi's images of A and B, and tau,
p's transpose, by p's squares on the dual complexes; every other map,
sections, the y-swap and maps given as columns among them, on all columns.
Either way the verdict must be the one that comparing every column and the
products in oracles.py give.
"""

from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bbcovers import chainmaps
from bbcovers.autos import CodeAutomorphism, ZXDuality, antipode_zx_duality, block_swap_zx_duality
from bbcovers.autos import lift_automorphism, shift_automorphism, verify_automorphism, y_exponent_swap_automorphism
from bbcovers.chainmaps import ChainMap, LatticeMap, _boundaries, _cell_table, _is_chain_map, _lattice_map
from bbcovers.chainmaps import constant_section, lifting_map, projection_map
from bbcovers.codes import BBCode, parse_code_spec
from bbcovers.covers import check_cover
from bbcovers.gf2 import BinMatrix, xor_rows
from bbcovers.rings import Monomial, Poly, RingContext

from oracles import boundaries_reference, chain_map_commutes_reference, projection_matrix_reference
from oracles import squares_commute_reference
from random_codes import lifts, weight3_codes


@st.composite
def codes(draw, l=None, m=None):
    """A BB code over a ring with l, m in 1..8."""
    ctx = RingContext(l or draw(st.integers(1, 8)), m or draw(st.integers(1, 8)))
    cells = st.tuples(st.integers(0, ctx.l - 1), st.integers(0, ctx.m - 1))
    a, b = (Poly.make(ctx, draw(st.sets(cells, min_size=1, max_size=4))) for _ in "ab")
    return BBCode(a, b)


def _random_lattice_map(draw, source: RingContext, target: RingContext, reduction: bool = False) -> LatticeMap:
    """A lattice map with a random translation and swap, and with phi reducing
    exponents or, unless ``reduction``, random: phi(x) and phi(y) are drawn
    among the elements whose orders divide l and m, so that phi is defined."""
    s = draw(st.tuples(st.integers(0, target.l - 1), st.integers(0, target.m - 1)))
    if reduction:
        return LatticeMap(source, target, s=s, swap=draw(st.booleans()))

    def order_dividing(k, n):
        """An element of Z_n whose order divides k."""
        step = n // gcd(k, n)
        return draw(st.integers(0, n // step - 1)) * step

    (l, m), (tl, tm) = (source.l, source.m), (target.l, target.m)
    x, y = (order_dividing(l, tl), order_dividing(l, tm)), (order_dividing(m, tl), order_dividing(m, tm))
    return LatticeMap(source, target, x, y, s, draw(st.booleans()))


@st.composite
def lattice_maps(draw, code_of=codes()):
    """(map, dual) for a lattice map into the target's own or dual complex: a
    shift or the antipode duality of a code drawn from ``code_of``, which
    commute; a reduction from a random cover onto its base, which commutes
    into the base's own complex; or a random phi, translation and swap on a
    code or from a cover to its base, bijective or not, which mostly fails."""
    kind = draw(st.sampled_from(["shift", "antipode", "reduction", "random"]))
    if kind == "shift":
        return shift_automorphism(draw(code_of), Monomial(draw(st.integers(-9, 9)), draw(st.integers(-9, 9)))), False
    if kind == "antipode":
        return antipode_zx_duality(draw(code_of)), True
    if kind == "reduction" or draw(st.booleans()):
        _, source, w = draw(lifts())
        target = w.base
    else:
        source = target = draw(code_of)
    lat = _random_lattice_map(draw, source.ctx, target.ctx, kind == "reduction")
    return _lattice_map(ChainMap, lat, source, target), draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.one_of(lattice_maps(), lattice_maps(weight3_codes())))
def test_lattice_maps_are_decided_on_a_and_b(drawn):
    cm, dual = drawn
    assert cm._lattice is not None
    every_column = _is_chain_map(cm.columns, _boundaries(cm.source), _boundaries(cm.target, dual))
    assert cm.commutes(dual) == every_column == chain_map_commutes_reference(cm, dual)


@settings(max_examples=300, deadline=None)
@given(lattice_maps(), st.integers(0, 2), st.integers(0, 2**20), st.integers(0, 2**40))
def test_a_corrupted_entry_gets_the_dense_verdict(drawn, degree, j, value):
    cm, dual = drawn
    tables = [list(cols) for cols in cm.columns]
    cols = tables[degree]
    j %= len(cols)
    value %= 1 << (cm.target.n if degree == 1 else cm.target.ctx.dim)
    assume(value != cols[j])
    cols[j] = value
    bad = ChainMap(*map(tuple, tables), cm.source, cm.target)  # given as columns
    assert bad._lattice is None
    assert bad.commutes(dual) == chain_map_commutes_reference(bad, dual)


@settings(max_examples=100, deadline=None)
@example(parse_code_spec("l=3 m=4 A=1+x B=1+x+x^2"))  # no y: the swap is an automorphism
@given(codes(m=4))
def test_y_swap_at_m_4_takes_every_column(code):
    aut = y_exponent_swap_automorphism(code)
    assert aut._lattice is None  # b -> 1 - b is not the swap of 0 and 1 when m = 4
    assert aut.commutes() == chain_map_commutes_reference(aut)


@settings(max_examples=60, deadline=None)
@given(lifts())
def test_projection_squares_match_the_products(lift):
    base, cover, w = lift
    pm, tm = projection_map(w), lifting_map(w)
    assert pm._lattice == LatticeMap(cover.ctx, base.ctx)  # p reduces exponents
    assert pm._cell_tables == (w.p.cells, *pm._cell_tables[1:]) == tuple(map(_cell_table, pm.columns))
    assert tm._lattice is None and tm._transpose_of is w.p  # tau, even at h = 1, is p's transpose
    degs = (pm.deg2, pm.deg1, pm.deg0)
    assert squares_commute_reference(degs, boundaries_reference(cover), boundaries_reference(base))
    dual = (boundaries_reference(cover, True), boundaries_reference(base, True))
    assert squares_commute_reference(degs[::-1], *dual)
    assert tm.commutes() == chain_map_commutes_reference(tm)


@settings(max_examples=60, deadline=None)
@given(lifts())
def test_tau_is_p_transposed_and_decided_by_one_sends_of_p(lift):
    # tau's columns are p's fibres, the rows of the dense p, and a square of tau
    # is a square of p transposed, so one sends call of the witness's p decides it
    _, _, w = lift
    tm = lifting_map(w)
    assert tm.cols2 is tm.cols0 is w.p.fibres
    assert tm.cols2 == projection_matrix_reference(w).rows
    calls, sends = [], LatticeMap.sends
    with mock.patch.object(LatticeMap, "sends", lambda lat, *pairs: calls.append(lat) or sends(lat, *pairs)):
        for dual in (False, True):
            calls.clear()
            assert tm.commutes(dual) == chain_map_commutes_reference(tm, dual)
            assert len(calls) == 1 and calls[0] is w.p


@settings(max_examples=60, deadline=None)
@given(lifts(st.sampled_from([(u, t) for u in range(1, 7) for t in range(1, 7) if 2 <= u * t <= 6])))
def test_tau_sends_the_base_h2_injectively_into_the_cover_h2(lift):
    # H_2 = ker d2, d2 = H_Z^T = (B; A), so k = 2 dim H_2 on both codes (Bravyi et
    # al.); tau_2 is injective, its fibres being disjoint and nonempty, and sends
    # H_2 into the cover's, so k_h >= k at every h
    base, cover, w = lift
    kernels = [boundaries_reference(code)[0].kernel_basis() for code in (base, cover)]
    assert [base.k, cover.k] == [2 * ker.n_rows for ker in kernels]
    tau_2 = lifting_map(w).cols2
    images = BinMatrix.from_ints([xor_rows(tau_2, z) for z in kernels[0].rows], cover.ctx.dim)
    assert (boundaries_reference(cover)[0] @ images.transpose()).is_zero()
    assert images.rank() == kernels[0].n_rows
    assert cover.k >= base.k


def test_translation_and_antipode_tables_match_the_per_cell_formulas():
    for l in range(1, 13):
        for m in range(1, 13):
            ctx = RingContext(l, m)
            antipode = antipode_zx_duality(BBCode(Poly.one(ctx), Poly.one(ctx)))
            assert antipode._cell_tables[0] == tuple(ctx.index(-a, -b) for a in range(l) for b in range(m))
            for a in range(-3, 12):
                for b in range(-3, 12):
                    cells = LatticeMap(ctx, ctx, s=(a, b)).cells
                    assert cells == tuple(ctx.index(i // m + a, i % m + b) for i in range(ctx.dim))


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
    assert swapped._lattice is None
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
    assert tables[0] is tables[2] == LatticeMap(GROSS.ctx, GROSS.ctx, s=(3, 1)).cells



def test_lattice_maps_take_the_check_on_a_and_b_and_every_other_map_every_column(monkeypatch):
    base = parse_code_spec("l=3 m=3 A=1+y+y^2 B=1+x+x^2")
    w = check_cover(base, parse_code_spec("l=6 m=6 A=1+y+y^2 B=1+x+x^5y^3"))  # u = t = 2
    w_54 = check_cover(base, parse_code_spec("l=9 m=3 A=x^3+y+y^2 B=1+x+x^2"))
    lattice = (
        projection_map(w),
        lifting_map(w),  # p's transpose, decided by p's squares on the dual complexes
        shift_automorphism(w.cover, Monomial(1, 2)),
        antipode_zx_duality(w.cover),
        block_swap_zx_duality(base),
        lift_automorphism(w, shift_automorphism(base, Monomial(0, 0))),
    )
    others = (
        y_exponent_swap_automorphism(base),
        constant_section(w, 1, 1),
        CodeAutomorphism.from_json(shift_automorphism(base, Monomial(1, 1)).to_json(), base),
        lift_automorphism(w_54, y_exponent_swap_automorphism(base)),  # a sheet-wise lift that is no lattice map
    )
    calls = []
    sends, every_column = chainmaps.LatticeMap.sends, chainmaps._is_chain_map
    monkeypatch.setattr(chainmaps.LatticeMap, "sends", lambda *args: calls.append("a, b") or sends(*args))
    monkeypatch.setattr(chainmaps, "_is_chain_map", lambda *args: calls.append("columns") or every_column(*args))
    # the y-swap, sections and maps read from JSON are given by columns
    for cms, check in ((lattice, "a, b"), (others, "columns")):
        for cm in cms:
            dual = isinstance(cm, ZXDuality)
            calls.clear()
            assert cm.commutes(dual) == chain_map_commutes_reference(cm, dual)
            assert calls == [check]


def test_a_phi_that_is_no_homomorphism_is_refused():
    # x -> x from Z_3 into Z_2 would send x^3 to x, not to 1
    with pytest.raises(ValueError, match="no homomorphism"):
        LatticeMap(RingContext(3, 3), RingContext(2, 3))
    assert LatticeMap(RingContext(4, 3), RingContext(2, 3)).cells == tuple(i % 6 for i in range(12))


@settings(max_examples=100, deadline=None)
@given(lifts(), st.data())
def test_a_composite_of_lattice_maps_composes_their_cell_tables(lift, data):
    base, cover, _ = lift
    g = _random_lattice_map(data.draw, cover.ctx, base.ctx)
    f = _random_lattice_map(data.draw, base.ctx, base.ctx)
    fg = f.after(g)
    assert fg.cells == tuple(f.cells[c] for c in g.cells) and fg.swap == (f.swap != g.swap)
    for lat in (f, g, fg):  # each table, built from one period of x-rows, is the per-cell formula
        cells = [lat.target.index(*lat.point(a, b)) for a in range(lat.source.l) for b in range(lat.source.m)]
        assert lat.cells == tuple(cells)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.integers(2, 8), st.data())
def test_a_lattice_map_commutes_into_its_own_complex_iff_into_the_dual(l, m, data):
    # phi commutes with negation, so phi sends (a, b) onto (a', b') exactly when
    # it sends (b^T, a^T) onto (b'^T, a'^T): the rule by which class images of a
    # lattice map skip the kernel test in both sectors
    code = data.draw(codes(l, m))
    divisors = lambda n: st.sampled_from([d for d in range(n, 0, -1) if n % d == 0])  # noqa: E731
    for _ in range(10):  # a random phi, kept when it is a homomorphism that leaves A and B nonzero
        target = RingContext(data.draw(divisors(code.l)), data.draw(divisors(code.m)))
        exps = st.tuples(st.integers(0, target.l - 1), st.integers(0, target.m - 1))
        try:
            x, y, s = data.draw(exps), data.draw(exps), data.draw(exps)
            lat = LatticeMap(code.ctx, target, x, y, s, data.draw(st.booleans()))
        except ValueError:
            continue
        images = [Poly.make(target, [lat.point(*t, 0) for t in p.terms]) for p in (code.a, code.b)]
        if not any(p.is_zero() for p in images) and target.dim > 1:
            break
    else:
        assume(False)
    a, b = images[::-1] if lat.swap else images
    flipped = data.draw(st.sampled_from([c for c in range(target.dim) if a.mask != 1 << c]))
    for tgt, expected in ((BBCode(a, b), True), (BBCode(Poly(target, a.mask ^ 1 << flipped), b), False)):
        own = lat.sends(chainmaps._pair(code), chainmaps._pair(tgt))
        assert own == lat.sends(chainmaps._pair(code, True), chainmaps._pair(tgt, True)) == expected
