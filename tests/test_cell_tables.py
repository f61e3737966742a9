"""Cell tables of chain maps: derived from lattice maps, lifted sheet by sheet,
and read by the intertwining check of a lift.

A lattice-built map must build, on first read, the tables that decoding its
columns would give, and they must pass the list comparison in oracles.py; a
lift must be the column lift, verified on columns; a built map with one entry
moved, given as columns, must be refused; and a lift that verifies on the
cover but does not project onto the base map must be caught, on lattice maps
and on columns.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bbcovers import autos
from bbcovers.autos import CodeAutomorphism, ZXDuality, antipode_zx_duality, block_swap_zx_duality
from bbcovers.autos import lift_automorphism, shift_automorphism, verify_automorphism
from bbcovers.chainmaps import _boundaries, _cell_table, _is_chain_map, projection_map
from bbcovers.codes import InternalConsistencyError, Refusal, parse_code_spec
from bbcovers.covers import check_cover
from bbcovers.gf2 import BinMatrix, xor_rows
from bbcovers.rings import Monomial

from oracles import affine_reference, chain_map_commutes_reference
from random_codes import lifts
from test_chain_squares import codes, lattice_maps

BASE_18 = parse_code_spec("l=3 m=3 A=1+y+y^2 B=1+x+x^2")
W_54 = check_cover(BASE_18, parse_code_spec("l=9 m=3 A=x^3+y+y^2 B=1+x+x^2"))
CELL = parse_code_spec("l=1 m=1 A=1 B=1")  # one cell: a check table of one entry
W_CELL = check_cover(CELL, parse_code_spec("l=2 m=3 A=x B=y"))
W_6X6 = check_cover(BASE_18, parse_code_spec("l=6 m=6 A=1+y+y^2 B=1+x+x^5y^3"))  # u = t = 2


def _lifted_base_shift(draw, witness):
    """The lift of a base shift along x when u = 1 and along y when t = 1 (else
    the identity shift): a cover shift, so it verifies on the cover."""
    base = witness.base
    a = draw(st.integers(0, base.l - 1)) if witness.u == 1 else 0
    b = draw(st.integers(0, base.m - 1)) if witness.t == 1 else 0
    return lift_automorphism(witness, shift_automorphism(base, Monomial(a, b)))


CODE_MAPS = ("shift", "block swap", "antipode")
COVER_MAPS = ("p", "lift")


@st.composite
def built_maps(draw, code_of=codes(), kinds=CODE_MAPS + COVER_MAPS):
    """A map built from a lattice map: a shift at a random monomial, the block
    swap or the antipode of a code drawn from ``code_of``; p of a random lift,
    or the lift of a base shift."""
    kind = draw(st.sampled_from(kinds))
    if kind in COVER_MAPS:
        _, _, w = draw(lifts())
        return projection_map(w) if kind == "p" else _lifted_base_shift(draw, w)
    code = draw(code_of)
    if kind == "shift":
        return shift_automorphism(code, Monomial(draw(st.integers(-9, 9)), draw(st.integers(-9, 9))))
    return {"block swap": block_swap_zx_duality, "antipode": antipode_zx_duality}[kind](code)


def _is_affine(cm) -> bool:
    return affine_reference(cm._cell_tables, cm.source.ctx, cm.target.ctx)


@settings(max_examples=200, deadline=None)
@given(built_maps())
def test_a_map_built_from_cells_carries_the_tables_of_its_columns(cm):
    assert cm._lattice is not None
    # no per-cell tuple at construction: the tables and columns are built when read
    assert not {"_cell_tables", "cols2", "cols1", "cols0"} & set(vars(cm))
    assert cm._cell_tables == tuple(map(_cell_table, cm.columns))
    # every built map has one check table for both check spaces, and one column tuple
    assert cm._cell_tables[2] is cm._cell_tables[0] and cm.cols0 is cm.cols2


# --- lifts of lattice maps against the column lift ---------------------------------

@settings(max_examples=60, deadline=None)
@example((CELL, W_CELL.cover, W_CELL), "shift", 0, 0)
@example((BASE_18, W_6X6.cover, W_6X6), "shift", 1, 0)
@example((BASE_18, W_6X6.cover, W_6X6), "shift", 0, 2)
@example((BASE_18, W_6X6.cover, W_6X6), "block swap", 0, 0)
@example((BASE_18, W_6X6.cover, W_6X6), "antipode", 0, 0)
@given(lifts(), st.sampled_from(CODE_MAPS), st.integers(-5, 5), st.integers(-5, 5))
def test_a_cell_degree_lifts_by_its_table_as_by_its_columns(lift, kind, a, b):
    # the lift, or refusal, of a shift, the block swap or the antipode is that of
    # its column lift verified on columns, also along directions of index u, t > 1
    _, _, w = lift
    base = w.base
    m = {"shift": lambda: shift_automorphism(base, Monomial(a, b)), "block swap": lambda: block_swap_zx_duality(base),
         "antipode": lambda: antipode_zx_duality(base)}[kind]()
    if not verify_automorphism(base, m):
        with pytest.raises(Refusal, match="on the base code"):
            lift_automorphism(w, m)
        return
    by_columns = type(m)(*(autos._block_lift(w, cols) for cols in m.columns), w.cover, w.cover)
    assert by_columns._lattice is None
    if not verify_automorphism(w.cover, by_columns):
        with pytest.raises(Refusal, match="on the cover code"):
            lift_automorphism(w, m)
        return
    lifted = lift_automorphism(w, m)
    assert type(lifted) is type(m) and lifted.columns == by_columns.columns
    assert lifted._cell_tables == by_columns._cell_tables
    a, b = a % base.l, b % base.m
    if kind == "shift" and (a == 0 or w.u == 1) and (b == 0 or w.t == 1):
        assert lifted._lattice is not None and lifted == shift_automorphism(w.cover, Monomial(a, b))


# --- derived tables and corrupted entries against the list oracle --------------------

@settings(max_examples=200, deadline=None)
@given(lattice_maps())
def test_affine_matches_the_list_oracle_on_affine_and_offset_maps(drawn):
    # the tables a lattice map derives decode from its columns and pass the oracle
    cm, _ = drawn
    assert cm._cell_tables == tuple(map(_cell_table, cm.columns))
    assert _is_affine(cm)


def _corrupt(draw, cm):
    """cm's columns with one unit column of one degree moved to another target cell."""
    columns = list(cm.columns)
    degree = draw(st.sampled_from([d for d in (0, 1, 2) if len(columns[d]) > 1]))
    cols = list(columns[degree])
    j = draw(st.integers(0, len(cols) - 1))
    cols[j] = 1 << (cols[j].bit_length() - 1 + draw(st.integers(1, len(cols) - 1))) % len(cols)
    columns[degree] = tuple(cols)
    return columns


def _refused_when_corrupted(draw, cm):
    """One entry moved, cm given as columns to its public constructor takes the
    column check, and verification refuses it."""
    bad = type(cm)(*_corrupt(draw, cm), cm.source, cm.target)
    assert bad._lattice is None
    dual = isinstance(cm, ZXDuality)
    assert bad.commutes(dual) == chain_map_commutes_reference(bad, dual)
    assert not verify_automorphism(cm.source, bad)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_affine_matches_the_list_oracle_on_built_maps_with_one_corrupted_entry(data):
    cm = data.draw(built_maps(kinds=CODE_MAPS + ("lift",)))
    assert _is_affine(cm)
    _refused_when_corrupted(data.draw, cm)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(1, None), (None, 1), (1, 1)]), st.data())
def test_affine_matches_the_list_oracle_on_lattices_of_one_row_or_one_cell(shape, data):
    cm, dual = data.draw(lattice_maps(codes(*shape)))
    assert _is_affine(cm)
    every_column = _is_chain_map(cm.columns, _boundaries(cm.source), _boundaries(cm.target, dual))
    assert cm.commutes(dual) == every_column
    cm = data.draw(built_maps(codes(*shape), CODE_MAPS))
    _refused_when_corrupted(data.draw, cm)


def test_the_built_shifts_and_dualities_of_a_single_cell_are_affine():
    for cm in (shift_automorphism(CELL, Monomial(0, 0)), antipode_zx_duality(CELL), block_swap_zx_duality(CELL)):
        assert _is_affine(cm) and verify_automorphism(CELL, cm)


# --- the intertwining check of a lift -----------------------------------------------

def test_a_table_lift_that_projects_to_another_shift_does_not_intertwine(monkeypatch):
    # the y-shift lifts to the cover's y-shift (t = 1); the patched lift returns
    # the cover's y^2-shift, an automorphism of the cover over another base shift
    base_shift = shift_automorphism(BASE_18, Monomial(0, 1))
    wrong = shift_automorphism(W_54.cover, Monomial(0, 2))
    assert verify_automorphism(W_54.cover, wrong)
    assert lift_automorphism(W_54, base_shift).f == shift_automorphism(W_54.cover, Monomial(0, 1)).f
    monkeypatch.setattr(autos, "_sheet_lift", lambda w, lat: wrong._lattice)
    with pytest.raises(InternalConsistencyError, match="does not intertwine"):
        lift_automorphism(W_54, base_shift)


def _general_automorphism(code):
    """(W_Z, f, W_X) = (I, I, I + e_i r^T) for a nonzero dependency r of the
    X-checks with r_i = 0: W_X H_X = H_X, and W_X is its own inverse."""
    lm = code.ctx.dim
    r = next(r for r in range(1, 1 << lm) if not xor_rows(code.hx.rows, r))
    i = next(i for i in range(lm) if not r >> i & 1)
    w_x = tuple(1 << j | (r >> j & 1) << i for j in range(lm))  # column j: e_j, plus e_i where r_j = 1
    ident = BinMatrix.identity(lm).rows
    data = CodeAutomorphism(ident, BinMatrix.identity(code.n).rows, w_x, code, code).to_json()
    return CodeAutomorphism.from_json(data, code)


def test_a_column_lift_that_does_not_project_onto_the_base_map_does_not_intertwine(monkeypatch):
    general = _general_automorphism(BASE_18)
    assert general.to_json()["kind"] == "general" and verify_automorphism(BASE_18, general)
    assert general._cell_tables[2] is None  # W_X lifts by its columns
    # the patched column lift returns the identity: the lift is the identity map
    # of the cover, which verifies but projects to I, not to W_X
    monkeypatch.setattr(autos, "_block_lift", lambda w, cols: BinMatrix.identity(len(cols) * w.h).rows)
    with pytest.raises(InternalConsistencyError, match="does not intertwine"):
        lift_automorphism(W_54, general)
