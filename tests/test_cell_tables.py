"""Cell tables of chain maps: carried from construction, lifted sheet by sheet,
and read by the affinity test and the intertwining check of a lift.

A map built from cells must carry the tables that decoding its columns would
give; ``_affine`` must give the verdict of the list comparison in oracles.py;
and a lift that verifies on the cover but does not project onto the base map
must be caught, on tables and on columns.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bbcovers import autos
from bbcovers.autos import CodeAutomorphism, antipode_zx_duality, block_swap_zx_duality, lift_automorphism
from bbcovers.autos import shift_automorphism, verify_automorphism, y_exponent_swap_automorphism
from bbcovers.chainmaps import _affine, _cell_table, _translations, constant_section, projection_map
from bbcovers.codes import InternalConsistencyError, parse_code_spec
from bbcovers.covers import check_cover
from bbcovers.gf2 import BinMatrix, xor_rows
from bbcovers.rings import Monomial, RingContext

from oracles import affine_reference
from test_bitset_properties import lifts
from test_chain_squares import affine_maps, codes

BASE_18 = parse_code_spec("l=3 m=3 A=1+y+y^2 B=1+x+x^2")
W_54 = check_cover(BASE_18, parse_code_spec("l=9 m=3 A=x^3+y+y^2 B=1+x+x^2"))
CELL = parse_code_spec("l=1 m=1 A=1 B=1")  # one cell: a check table of one entry
W_CELL = check_cover(CELL, parse_code_spec("l=2 m=3 A=x B=y"))


def _lifted_base_shift(draw, witness):
    """The lift of a base shift along x when u = 1 and along y when t = 1 (else
    the identity shift): a cover shift, so it verifies on the cover."""
    base = witness.base
    a = draw(st.integers(0, base.l - 1)) if witness.u == 1 else 0
    b = draw(st.integers(0, base.m - 1)) if witness.t == 1 else 0
    return lift_automorphism(witness, shift_automorphism(base, Monomial(a, b)))


CODE_MAPS = ("shift", "y-swap", "block swap", "antipode")
COVER_MAPS = ("p", "section", "lift")


@st.composite
def built_maps(draw, code_of=codes(), kinds=CODE_MAPS + COVER_MAPS):
    """A map built from cells: a shift at a random monomial, the y-swap, the block
    swap or the antipode of a code drawn from ``code_of``; p of a random lift, a
    constant section, or the lift of a base shift."""
    kind = draw(st.sampled_from(kinds))
    if kind in COVER_MAPS:
        _, _, w = draw(lifts())
        if kind == "p":
            return projection_map(w)
        if kind == "section":
            return constant_section(w, draw(st.integers(0, 5)), draw(st.integers(0, 5)))
        return _lifted_base_shift(draw, w)
    code = draw(code_of)
    if kind == "shift":
        return shift_automorphism(code, Monomial(draw(st.integers(-9, 9)), draw(st.integers(-9, 9))))
    return {"y-swap": y_exponent_swap_automorphism, "block swap": block_swap_zx_duality,
            "antipode": antipode_zx_duality}[kind](code)


@settings(max_examples=200, deadline=None)
@given(built_maps())
def test_a_map_built_from_cells_carries_the_tables_of_its_columns(cm):
    assert "_cell_tables" in vars(cm)  # set at construction, not decoded on first read
    assert cm._cell_tables == tuple(map(_cell_table, cm.columns))
    # every built map has one check table for both check spaces, and one column tuple
    assert cm._cell_tables[2] is cm._cell_tables[0] and cm.cols0 is cm.cols2


@settings(max_examples=60, deadline=None)
@example((CELL, W_CELL.cover, W_CELL), 0, 0)
@given(lifts(), st.integers(-5, 5), st.integers(-5, 5))
def test_a_cell_degree_lifts_by_its_table_as_by_its_columns(lift, a, b):
    _, _, w = lift
    shift = shift_automorphism(w.base, Monomial(a, b))  # the lift need not verify
    for cols, cells in zip(shift.columns, shift._cell_tables):
        assert autos._lift_table(w, cells) == _cell_table(autos._block_lift(w, cols))
    if a == b == 0:
        assert lift_automorphism(w, shift) == shift_automorphism(w.cover, Monomial(0, 0))


# --- the affinity test against the list comparison --------------------------------

def _verdicts(cm, tables=None):
    tables = cm._cell_tables if tables is None else tables
    src, tgt = cm.source.ctx, cm.target.ctx
    return _affine(tables, src, tgt), affine_reference(tables, src, tgt)


@st.composite
def random_tables(draw):
    """(tables, src, tgt): random cell tables of the three degrees between two
    lattices of at most 4 x 4 cells; the check tables are sometimes one object."""
    src, tgt = (RingContext(draw(st.integers(1, 4)), draw(st.integers(1, 4))) for _ in "st")

    def table(blocks):
        n = blocks * tgt.dim
        return tuple(draw(st.lists(st.integers(0, n - 1), min_size=blocks * src.dim, max_size=blocks * src.dim)))

    top = table(1)
    return (top, table(2), top if draw(st.booleans()) else table(1)), src, tgt


@settings(max_examples=300, deadline=None)
@given(random_tables())
def test_affine_matches_the_list_oracle_on_random_tables(drawn):
    tables, src, tgt = drawn
    assert _affine(tables, src, tgt) == affine_reference(tables, src, tgt)


@settings(max_examples=200, deadline=None)
@given(affine_maps())
def test_affine_matches_the_list_oracle_on_affine_and_offset_maps(drawn):
    fast, slow = _verdicts(drawn[0])
    assert fast == slow


def _corrupt(draw, cm):
    """cm's cell tables with one entry of one degree moved to another target cell."""
    tables = list(cm._cell_tables)
    degree = draw(st.integers(0, 2))
    cells = list(tables[degree])
    n = cm.target.n if degree == 1 else cm.target.ctx.dim
    j = draw(st.integers(0, len(cells) - 1))
    cells[j] = (cells[j] + draw(st.integers(1, max(n - 1, 1)))) % n
    tables[degree] = tuple(cells)
    return tuple(tables)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_affine_matches_the_list_oracle_on_built_maps_with_one_corrupted_entry(data):
    cm = data.draw(built_maps())
    fast, slow = _verdicts(cm)
    assert fast == slow
    fast, slow = _verdicts(cm, _corrupt(data.draw, cm))
    assert fast == slow


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(1, None), (None, 1), (1, 1)]), st.data())
def test_affine_matches_the_list_oracle_on_lattices_of_one_row_or_one_cell(shape, data):
    # at lm = 1 a check table has one entry, where itemgetter returns a bare item
    cm = data.draw(built_maps(codes(*shape), CODE_MAPS))
    fast, slow = _verdicts(cm)
    assert fast == slow
    fast, slow = _verdicts(cm, _corrupt(data.draw, cm))
    assert fast == slow


def test_the_built_shifts_and_dualities_of_a_single_cell_are_affine():
    for cm in (shift_automorphism(CELL, Monomial(0, 0)), antipode_zx_duality(CELL), block_swap_zx_duality(CELL)):
        assert _verdicts(cm) == (True, True)


def test_the_translation_cache_is_bounded():
    assert _translations.cache_info().maxsize is not None


# --- the intertwining check of a lift -----------------------------------------------

def test_a_table_lift_that_projects_to_another_shift_does_not_intertwine(monkeypatch):
    # the y-shift lifts to the cover's y-shift (t = 1); the patched lift returns
    # the cover's y^2-shift, an automorphism of the cover over another base shift
    base_shift = shift_automorphism(BASE_18, Monomial(0, 1))
    wrong = shift_automorphism(W_54.cover, Monomial(0, 2))
    assert verify_automorphism(W_54.cover, wrong)
    assert lift_automorphism(W_54, base_shift).f == shift_automorphism(W_54.cover, Monomial(0, 1)).f
    checks, qubits = wrong._cell_tables[:2]
    monkeypatch.setattr(autos, "_lift_table", lambda w, cells: checks if len(cells) == w.base.ctx.dim else qubits)
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
