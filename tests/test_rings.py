import pickle
import random

import pytest

from bbcovers.gf2 import BinMatrix
from bbcovers.rings import (
    ContextMismatch,
    Monomial,
    Poly,
    PolyParseError,
    RingContext,
    parse_poly,
)

from oracles import poly_power_matrix


def random_poly(rng, ctx, max_terms=4):
    terms = [(rng.randrange(ctx.l), rng.randrange(ctx.m)) for _ in range(rng.randint(0, max_terms))]
    return Poly.make(ctx, terms)


def test_mono_mul_inverse_pair():
    ctx = RingContext(5, 3)
    assert Monomial(1, 0).mul(Monomial(4, 0), ctx) == Monomial(0, 0)


def test_mono_mul_wraps_to_one():
    ctx = RingContext(6, 6)
    assert Monomial(3, 1).mul(Monomial(3, 5), ctx) == Monomial(0, 0)


def test_mono_mul_mixed_orders():
    ctx = RingContext(12, 6)
    assert Monomial(9, 2).mul(Monomial(5, 5), ctx) == Monomial(2, 1)


def test_poly_mul_by_one():
    ctx = RingContext(4, 4)
    p = parse_poly("1 + xy + x^3y^2", ctx)
    assert p * Poly.one(ctx) == p


def test_poly_mul_cancels_to_zero():
    ctx = RingContext(3, 3)
    assert (parse_poly("1+y+y^2", ctx) * parse_poly("1+y", ctx)).is_zero()


def test_frobenius_square():
    ctx = RingContext(2, 1)
    p = parse_poly("1+x", ctx)
    assert (p * p).is_zero()


def test_ctx_mismatch():
    with pytest.raises(ContextMismatch):
        parse_poly("x", RingContext(2, 2)) * parse_poly("x", RingContext(3, 2))


def test_transpose_examples():
    ctx = RingContext(6, 6)
    assert Poly.one(ctx).transpose() == Poly.one(ctx)
    assert parse_poly("x^3+y+y^2", ctx).transpose() == parse_poly("x^3+y^5+y^4", ctx)


def test_transpose_involution():
    rng = random.Random(7)
    for _ in range(30):
        ctx = RingContext(rng.randint(1, 7), rng.randint(1, 7))
        p = random_poly(rng, ctx)
        assert p.transpose().transpose() == p


def test_to_matrix_of_one_is_identity():
    ctx = RingContext(3, 4)
    assert Poly.one(ctx).to_matrix() == BinMatrix.identity(12)


def test_to_matrix_x_l2():
    ctx = RingContext(2, 1)
    assert parse_poly("x", ctx).to_matrix() == BinMatrix.from_rows([[0, 1], [1, 0]])


def test_to_matrix_equals_kron_power_sum():
    rng = random.Random(13)
    for _ in range(25):
        ctx = RingContext(rng.randint(1, 5), rng.randint(1, 5))
        p = random_poly(rng, ctx)
        expl = BinMatrix.zeros(ctx.dim, ctx.dim)
        for t in p.terms:
            expl = expl.add(poly_power_matrix(ctx, t.a, t.b))
        assert p.to_matrix() == expl


def test_circulant_square():
    ctx = RingContext(3, 1)
    one_x = parse_poly("1+x", ctx)
    assert one_x * one_x == parse_poly("1+x^2", ctx)
    assert one_x.to_matrix() @ one_x.to_matrix() == parse_poly("1+x^2", ctx).to_matrix()


def test_to_matrix_ring_homomorphism():
    rng = random.Random(19)
    for _ in range(60):
        ctx = RingContext(rng.randint(1, 6), rng.randint(1, 6))
        p, q = random_poly(rng, ctx), random_poly(rng, ctx)
        assert p.to_matrix() @ q.to_matrix() == (p * q).to_matrix()
        assert p.to_matrix().add(q.to_matrix()) == (p + q).to_matrix()


def test_to_matrix_transpose_compatibility():
    rng = random.Random(29)
    for _ in range(40):
        ctx = RingContext(rng.randint(1, 7), rng.randint(1, 7))
        p = random_poly(rng, ctx)
        assert p.transpose().to_matrix() == p.to_matrix().transpose()


def test_row_weight_equals_term_count():
    rng = random.Random(37)
    for _ in range(20):
        ctx = RingContext(rng.randint(1, 6), rng.randint(1, 6))
        p = random_poly(rng, ctx)
        m = p.to_matrix()
        assert all(m.row_weight(i) == p.weight for i in range(m.n_rows))
        assert p.weight <= ctx.dim


def test_parse_basic():
    ctx = RingContext(3, 3)
    assert parse_poly("1 + x + x^2", ctx).terms == (Monomial(0, 0), Monomial(1, 0), Monomial(2, 0))


def test_parse_code_polynomial():
    ctx = RingContext(6, 6)
    assert parse_poly("x^3 + y + y^2", ctx).terms == (Monomial(0, 1), Monomial(0, 2), Monomial(3, 0))


def test_parse_reduces_and_cancels():
    ctx = RingContext(6, 1)
    assert parse_poly("x^7 + x^7", ctx).is_zero()
    assert parse_poly("x^27", RingContext(12, 1)) == parse_poly("x^3", RingContext(12, 1))


def test_parse_star_and_whitespace():
    ctx = RingContext(8, 8)
    assert parse_poly("x^2 * y^3", ctx) == parse_poly("x^2y^3", ctx)
    assert parse_poly("  1+ x \t+ y ", ctx) == parse_poly("1+x+y", ctx)


def test_parse_zero_and_one():
    ctx = RingContext(2, 2)
    assert parse_poly("0", ctx).is_zero()
    assert parse_poly("1", ctx) == Poly.one(ctx)
    assert parse_poly("0 + x", ctx) == parse_poly("x", ctx)


def test_parse_error_carries_position():
    ctx = RingContext(3, 3)
    with pytest.raises(PolyParseError) as err:
        parse_poly("x^2 + z", ctx)
    assert err.value.position == 6


def test_parse_rejects_negative_exponent():
    ctx = RingContext(3, 3)
    with pytest.raises(PolyParseError, match="negative"):
        parse_poly("x^-1", ctx)


def test_render_conventions():
    ctx = RingContext(5, 5)
    assert str(Poly.zero(ctx)) == "0"
    assert str(Poly.one(ctx)) == "1"
    assert str(parse_poly("y^1 + x^1", ctx)) == "y + x"


def test_render_parse_round_trip():
    rng = random.Random(43)
    for _ in range(100):
        ctx = RingContext(rng.randint(1, 9), rng.randint(1, 9))
        p = random_poly(rng, ctx, max_terms=6)
        assert parse_poly(str(p), ctx) == p


def test_vector_round_trip():
    rng = random.Random(47)
    for _ in range(30):
        ctx = RingContext(rng.randint(1, 6), rng.randint(1, 6))
        p = random_poly(rng, ctx)
        assert Poly.from_vector(ctx, p.to_vector()) == p


def test_pickle_carries_the_ring_and_mask_but_no_cached_circulant():
    p = parse_poly("1 + x^5 + x^3 + x^5y", RingContext(30, 2))
    q = pickle.loads(pickle.dumps(p))
    assert q == p and hash(q) == hash(p) and q.to_matrix() == p.to_matrix()
