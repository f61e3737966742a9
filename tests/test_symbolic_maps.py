"""Lattice maps and tau kept symbolically, against their columns and cell tables.

A shift, the antipode, the block swap, p, tau and any other lattice map act on
whole masks and build no columns until one is read: each image must be the
XOR of the columns read back, bit for bit.  A lattice map's verification asks
phi for bijectivity, which must agree with the set test on its cell table and
give the verdict of the same map given as columns.  p's fibres, read off its cell
table, which is built one period of rows at a time, must be the source cells that
``point`` sends onto each target cell.  A shift and the
antipode of a large code must verify and act on its logical classes with no
column built.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from bbcovers.autos import CodeAutomorphism, ZXDuality, antipode_zx_duality, duality_action, logical_action
from bbcovers.autos import shift_automorphism, verify_automorphism, verify_zx_duality
from bbcovers.chainmaps import _lattice_map, lifting_map
from bbcovers.codes import parse_code_spec
from bbcovers.covers import LatticeMap
from bbcovers.gf2 import BinMatrix, xor_rows
from bbcovers.rings import Monomial, RingContext

from random_codes import lifts
from test_cell_tables import built_maps
from test_chain_squares import _random_lattice_map, codes, lattice_maps

PER_CELL = {"cols2", "cols1", "cols0", "_cell_tables"}


def _transposed(lat: LatticeMap) -> tuple[int, ...]:
    """The fibres from phi's formula, one ``point`` per source cell, with no cell table."""
    out = [0] * lat.target.dim
    for g in range(lat.source.dim):
        out[lat.target.index(*lat.point(*divmod(g, lat.source.m)))] |= 1 << g
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(built_maps(), lattice_maps().map(lambda drawn: drawn[0]), lifts().map(lambda lift: lifting_map(lift[2]))),
    st.data(),
)
def test_the_mask_action_is_the_column_xor(cm, data):
    # shifts, the block swap, the antipode, p, lifts of base shifts, random phi, and tau
    assert not PER_CELL & set(vars(cm))
    vectors = data.draw(st.lists(st.integers(0, (1 << cm.source.n) - 1), min_size=1, max_size=8))
    images = [cm.apply(v) for v in vectors]
    assert not PER_CELL & set(vars(cm))  # the images built no column
    assert images == [xor_rows(cm.cols1, v) for v in vectors]
    assert [cm.apply(v) for v in vectors] == images  # nor do the columns, once built, change them


def _unit_phi_map(draw, ctx: RingContext) -> LatticeMap:
    """phi = 1 or -1 with a random translation and swap."""
    e = draw(st.sampled_from([1, -1]))
    s = draw(st.tuples(st.integers(0, ctx.l - 1), st.integers(0, ctx.m - 1)))
    return LatticeMap(ctx, ctx, (e, 0), (0, e), s, draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(codes(), st.data())
def test_bijectivity_is_the_set_test_on_the_cell_table(code, data):
    # random phi are often not bijective, and those with phi = 1 or -1 are at once
    lat = _unit_phi_map(data.draw, code.ctx) if data.draw(st.booleans()) else _random_lattice_map(data.draw, code.ctx, code.ctx)
    assert lat.bijective == (len(set(lat.cells)) == len(lat.cells))
    for cls in (CodeAutomorphism, ZXDuality):
        m = _lattice_map(cls, lat, code, code)
        assert verify_automorphism(code, m) == verify_automorphism(code, cls(*m.columns, code, code))


def test_a_phi_that_folds_cells_is_not_bijective():
    # x -> x^2 at l = 4 sends x^2 and 1 to one cell: a homomorphism, but no permutation
    code = parse_code_spec("l=4 m=3 A=1+x B=1+y")
    lat = LatticeMap(code.ctx, code.ctx, x=(2, 0))
    assert not lat.bijective and len(set(lat.cells)) == 6
    assert not verify_automorphism(code, _lattice_map(CodeAutomorphism, lat, code, code))
    assert not LatticeMap(RingContext(8, 3), code.ctx).bijective  # p of a cover has fewer targets


@st.composite
def cover_maps(draw):
    """p of a random lift, or a random phi, translation and swap from its cover to its base."""
    base, cover, w = draw(lifts())
    return w.p if draw(st.booleans()) else _random_lattice_map(draw, cover.ctx, base.ctx)


@settings(max_examples=200, deadline=None)
@given(cover_maps())
def test_fibres_from_one_period_are_the_transposed_table(lat):
    assert lat.fibres == _transposed(lat)


LARGE = parse_code_spec("l=24 m=12 A=x^3+y+y^2 B=y^3+x+x^2")  # n = 576


@settings(max_examples=12, deadline=None)
@given(st.integers(0, LARGE.l - 1), st.integers(0, LARGE.m - 1))
def test_a_large_shift_and_antipode_act_with_no_columns(a, b):
    basis, ident = LARGE.logical_basis, BinMatrix.identity(LARGE.k)
    aut, dual = shift_automorphism(LARGE, Monomial(a, b)), antipode_zx_duality(LARGE)
    assert verify_automorphism(LARGE, aut) and verify_zx_duality(LARGE, dual)
    action, swapped = logical_action(LARGE, aut, basis), duality_action(LARGE, dual, basis)
    assert action.ax @ action.az.transpose() == ident == swapped.dx @ swapped.dz.transpose()
    assert not PER_CELL & (set(vars(aut)) | set(vars(dual)))
    # the same maps given as columns take the cell-table permutation test and kernel-test their images
    assert logical_action(LARGE, CodeAutomorphism(*aut.columns, LARGE, LARGE), basis) == action
    assert duality_action(LARGE, ZXDuality(*dual.columns, LARGE, LARGE), basis) == swapped
