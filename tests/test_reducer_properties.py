"""Properties of the one GF(2) elimination (RowReducer) and what is built on it."""

from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bbcovers.codes import BBCode, Refusal, parse_code_spec
from bbcovers.covers import _records, _side_class
from bbcovers.gf2 import BinMatrix, RowReducer, ShapeError
from bbcovers.rings import Poly, RingContext

from oracles import (
    annihilator_spans_reference,
    class_coords_reference,
    kernel,
    kernel_basis_reference,
    span,
    weight3_codes,
)

SMALL_CODES = [
    parse_code_spec("l=3 m=3 A=1+y+y^2 B=1+x+x^2"),
    parse_code_spec("l=7 m=2 A=1+x^2+x^3y B=1+x^3+x^2y"),
]


@st.composite
def matrices(draw, max_rows=12, max_cols=12, square=False):
    n_cols = draw(st.integers(1, max_cols))
    n_rows = n_cols if square else draw(st.integers(0, max_rows))
    rows = draw(st.lists(st.integers(0, (1 << n_cols) - 1), min_size=n_rows, max_size=n_rows))
    return BinMatrix.from_ints(rows, n_cols)


@given(matrices())
def test_kernel_basis_is_the_brute_force_kernel(m):
    ker = m.kernel_basis()
    assert ker.rank() == ker.n_rows
    assert span(ker.rows) == kernel(m)
    assert ker == kernel_basis_reference(m)


@given(matrices())
def test_left_kernel_basis_is_the_brute_force_left_kernel(m):
    left = m.left_kernel_basis()
    assert left.n_cols == m.n_rows
    assert left.rank() == left.n_rows == m.n_rows - m.rank()
    assert span(left.rows) == kernel(m.transpose())


@given(matrices(), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=20))
def test_kernel_basis_is_unchanged_by_row_operations(m, ops):
    rows = list(m.rows)
    for i, j in ops:
        if len(rows) > 1 and i % len(rows) != j % len(rows):
            rows[i % len(rows)] ^= rows[j % len(rows)]
    rows.reverse()
    rows.append(rows[0] ^ rows[-1] if rows else 0)  # one dependent row
    assert BinMatrix.from_ints(rows, m.n_cols).kernel_basis() == m.kernel_basis()


@given(matrices(), st.integers(0, 12))
def test_every_prefix_of_the_lazy_kernel_is_a_prefix_of_the_basis(m, p):
    drawn = list(islice(RowReducer(m.n_cols, m.rows).kernel_vectors(), p))
    assert drawn == list(m.kernel_basis().rows[:p]) == list(kernel_basis_reference(m).rows[:p])


@given(matrices(square=True))
def test_inverse_or_singular_refusal(m):
    if m.rank() < m.n_rows:
        with pytest.raises(ValueError, match="singular"):
            m.inverse()
    else:
        ident = BinMatrix.identity(m.n_rows)
        assert m.inverse() @ m == ident
        assert m @ m.inverse() == ident


def test_inverse_refuses_non_square():
    with pytest.raises(ShapeError):
        BinMatrix.zeros(2, 3).inverse()


@given(matrices())
def test_rank_equals_rank_of_transpose(m):
    assert m.rank() == m.transpose().rank()


@settings(max_examples=50, deadline=None)
@given(st.one_of(st.sampled_from(SMALL_CODES), weight3_codes()), st.data())
def test_class_coords_round_trip(code, data):
    basis = code.logical_basis
    for side in "XZ":
        ops = basis.x_ops if side == "X" else basis.z_ops
        stabs = code.hx.rows if side == "X" else code.hz.rows
        coords = code.x_class_coords if side == "X" else code.z_class_coords
        c = data.draw(st.integers(0, (1 << code.k) - 1))
        s = data.draw(st.integers(0, (1 << len(stabs)) - 1))
        v = 0
        for i, op in enumerate(ops):
            if (c >> i) & 1:
                v ^= op.support_vector()
        for i, row in enumerate(stabs):
            if (s >> i) & 1:
                v ^= row
        assert coords(v) == c == class_coords_reference(code, side, v)
        if code.syndrome_vector(side, v ^ 1):
            with pytest.raises(Refusal):
                coords(v ^ 1)
            assert class_coords_reference(code, side, v ^ 1) is None


TERMS = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=1, max_size=5)


@settings(max_examples=80, deadline=None)
@example(12, 6, [(3, 0), (0, 1), (0, 2)], [(0, 3), (1, 0), (2, 0)]).via("the gross code, k = 12")
@example(1, 5, [(0, 0), (0, 1)], [(0, 2), (0, 3)]).via("l = 1")
@example(7, 1, [(0, 0), (2, 0), (3, 0)], [(0, 0), (2, 0), (3, 0)]).via("m = 1, odd l")
@given(st.integers(1, 12), st.integers(1, 12), TERMS, TERMS)
def test_both_annihilator_routes_give_k(l, m, a_terms, b_terms):
    # Lemma 1 of Bravyi et al.: k = 2 dim(Ann A & Ann B), read by enumerate_covers
    ctx = RingContext(l, m)
    a, b = Poly.make(ctx, a_terms), Poly.make(ctx, b_terms)
    assume(not a.is_zero() and not b.is_zero())  # repeated terms may cancel
    sa, sb = _side_class(a), _side_class(b)
    for side, p in ((sa, a), (sb, b)):
        assert len(side.ann) == len(side.ann_t) == ctx.dim - p.to_matrix().rank()
        assert all((Poly(ctx, f) * p).is_zero() for f in side.ann)
        assert all((Poly(ctx, f) * p.transpose()).is_zero() for f in side.ann_t)
    k = BBCode(a, b).k

    def meet(u, v):  # dim(U & V) = dim U + dim V - dim(U + V), from the reduced rows alone
        return len(u) + len(v) - len(RowReducer(ctx.dim, u + v))

    assert 2 * meet(sa.ann, sb.ann) == 2 * meet(sb.ann_t, sa.ann_t) == k
    assert [r.k for r in _records([sa], [sb])] == [k]


@settings(max_examples=80, deadline=None)
@example(1, 5, [(0, 1), (0, 2)]).via("l = 1")
@example(7, 1, [(0, 0), (2, 0), (3, 0)]).via("m = 1, Ann(p) != Ann(p^T)")
@example(6, 4, [(0, 0), (1, 0), (0, 1), (3, 2)]).via("even l and m")
@example(5, 3, [(0, 0)]).via("p = 1")
@given(st.integers(1, 12), st.integers(1, 12), TERMS)
def test_side_class_annihilators_match_the_two_elimination_oracle(l, m, terms):
    p = Poly.make(RingContext(l, m), terms)
    assume(not p.is_zero())
    side = _side_class(p)
    assert [list(side.ann), list(side.ann_t)] == list(annihilator_spans_reference(p))
