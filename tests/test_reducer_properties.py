"""Properties of the one GF(2) elimination (RowReducer) and what is built on it."""

from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bbcovers.codes import BBCode, Refusal, _coset_reps, parse_code_spec
from bbcovers.covers import _records, _side_class
from bbcovers.gf2 import BinMatrix, RowReducer, ShapeError, leading_bits, xor_rows
from bbcovers.rings import Poly, RingContext
from bbcovers.tables import base_row, sequence_tables

from oracles import (
    annihilator_spans_reference,
    class_coords_reference,
    coset_reps_reference,
    kernel,
    kernel_basis_reference,
    span,
)
from random_codes import weight3_codes

SMALL_CODES = [
    parse_code_spec("l=3 m=3 A=1+y+y^2 B=1+x+x^2"),
    parse_code_spec("l=7 m=2 A=1+x^2+x^3y B=1+x^3+x^2y"),
]

# (base, l, m): each published base with the lattice of each of its covers with n <= 150
LIFT_TARGETS = [
    (base_row(rows).code(), row.l, row.m)
    for rows in sequence_tables().values()
    for row in rows
    if row.h > 1 and row.n <= 150
]


@st.composite
def published_lifts(draw):
    """A random lift of a published base onto a published cover lattice: each term moves to a random sheet."""
    base, l, m = draw(st.sampled_from(LIFT_TARGETS))
    u, t, ctx = l // base.l, m // base.m, RingContext(l, m)

    def lift(p):
        sheets = draw(st.lists(st.tuples(st.integers(0, u - 1), st.integers(0, t - 1)), min_size=p.weight, max_size=p.weight))
        return Poly.make(ctx, [(x.a + base.l * i, x.b + base.m * j) for x, (i, j) in zip(p.terms, sheets)])

    return BBCode(lift(base.a), lift(base.b))


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


def free_columns(red: RowReducer) -> list[int]:
    return [f for f in range(red.n_cols) if not red.pivot_mask >> f & 1]


@given(matrices(), st.data())
def test_kernel_vectors_at_chosen_free_columns_are_those_rows_of_the_basis(m, data):
    red, ref = RowReducer(m.n_cols, m.rows), kernel_basis_reference(m).rows
    free = free_columns(red)
    assert len(free) == len(ref)
    picks = data.draw(st.lists(st.integers(0, len(free) - 1), max_size=8)) if free else []
    assert list(red.kernel_vectors(free[i] for i in picks)) == [ref[i] for i in picks]


@given(matrices())
def test_tag_bits_leave_the_kernel_vectors_as_they_are(m):
    n = m.n_cols
    tagged = RowReducer(n, (r | 1 << (n + i) for i, r in enumerate(m.rows)))
    assert list(tagged.kernel_vectors()) == list(RowReducer(n, m.rows).kernel_vectors())
    assert list(tagged.kernel_vectors(reversed(free_columns(tagged)))) == list(kernel_basis_reference(m).rows[::-1])


@given(matrices(), st.booleans())
def test_one_insertion_loop_stores_what_row_by_row_insertion_stores(m, tagged):
    # tag bits above n_cols, as left_kernel_basis and inverse insert them
    n = m.n_cols
    rows = [r | 1 << (n + i) for i, r in enumerate(m.rows)] if tagged else list(m.rows)
    batch = RowReducer(n)
    residuals = batch._insert(iter(rows))
    step = RowReducer(n)
    for r, residual in zip(rows, residuals, strict=True):
        assert residual == step.reduce(r)
        assert step.add(r) == residual
    assert list(batch._pivot_rows.items()) == list(step._pivot_rows.items())
    assert list(RowReducer(n, rows)._pivot_rows.items()) == list(step._pivot_rows.items())


@given(matrices())
def test_kernel_vectors_refuse_a_pivot_or_a_column_outside_the_matrix(m):
    # none of these columns is the only free bit of a kernel vector
    red = RowReducer(m.n_cols, (r | 1 << (m.n_cols + i) for i, r in enumerate(m.rows)))
    pivots = [c for c in range(m.n_cols) if red.pivot_mask >> c & 1]
    for c in pivots + [-1, m.n_cols, m.n_cols + len(m.rows)]:
        with pytest.raises(ValueError, match="not a free column"):
            next(red.kernel_vectors([c]))


@given(matrices(max_rows=8))
def test_leading_bits_are_the_highest_bits_in_the_span(m):
    assert leading_bits(m.rows) == sum({1 << (v.bit_length() - 1) for v in span(m.rows) if v})


@settings(max_examples=60, deadline=None)
@example(SMALL_CODES[0]).via("[[18,8,2]]")
@given(st.one_of(st.sampled_from(SMALL_CODES), weight3_codes(), published_lifts()))
def test_coset_reps_are_the_greedy_picks(code):
    x_side = (code._z_stab_reducer, code.hz, code.hx)
    z_side = (code._x_stab_reducer, code.hx, code.hz)
    for checks, check_matrix, stabs in (x_side, z_side):
        reps = _coset_reps(checks, stabs.rows)
        assert len(reps) == code.k
        assert reps == coset_reps_reference(check_matrix, stabs, code.k)


@settings(max_examples=60, deadline=None)
@example(SMALL_CODES[1], [-1, 1 << 60, -(1 << 28) + 5]).via("negative words and bits at or above n")
@given(
    st.one_of(st.sampled_from(SMALL_CODES), weight3_codes(), published_lifts()),
    st.lists(st.integers(-(1 << 320), 1 << 320), min_size=1, max_size=6),
)
def test_ring_syndromes_are_the_row_xor_of_the_transposed_checks(code, words):
    # bits from n up are ignored, and a negative word is read in two's complement
    for v in words:
        assert code.syndrome_vector("X", v) == xor_rows(code.hz_t.rows, v & ((1 << code.n) - 1))
        assert code.syndrome_vector("Z", v) == xor_rows(code.hx_t.rows, v & ((1 << code.n) - 1))


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
        BinMatrix(2, 3, (0, 0)).inverse()


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
