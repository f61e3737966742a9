import pickle
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    assert Poly.make(ctx, [Monomial(1, 0)]).shift(Monomial(4, 0)).terms == (Monomial(0, 0),)


def test_mono_mul_wraps_to_one():
    ctx = RingContext(6, 6)
    assert Poly.make(ctx, [Monomial(3, 1)]).shift(Monomial(3, 5)).terms == (Monomial(0, 0),)


def test_mono_mul_mixed_orders():
    ctx = RingContext(12, 6)
    assert Poly.make(ctx, [Monomial(9, 2)]).shift(Monomial(5, 5)).terms == (Monomial(2, 1),)


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
    assert parse_poly("x", ctx).to_matrix() == BinMatrix(2, 2, (1 << 1, 1 << 0))


def test_to_matrix_equals_kron_power_sum():
    rng = random.Random(13)
    for _ in range(25):
        ctx = RingContext(rng.randint(1, 5), rng.randint(1, 5))
        p = random_poly(rng, ctx)
        rows = [0] * ctx.dim
        for t in p.terms:
            rows = [a ^ b for a, b in zip(rows, poly_power_matrix(ctx, t.a, t.b).rows)]
        assert p.to_matrix() == BinMatrix(ctx.dim, ctx.dim, tuple(rows))


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
        assert tuple(a ^ b for a, b in zip(p.to_matrix().rows, q.to_matrix().rows)) == (p + q).to_matrix().rows


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
        assert all(r.bit_count() == p.weight for r in m.rows)
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


@pytest.mark.parametrize(
    "text,message,offset",
    [
        ("x^-1", "negative exponent rejected", 2),
        ("x^", "expected unsigned integer exponent", 2),
        ("x*", "expected y factor after '*'", 2),
        ("x * x", "expected y factor after '*'", 4),
        ("1+", "expected term", 2),
        ("", "expected term", 0),
        ("1x", "unexpected character 'x'", 1),
        ("y x", "unexpected character 'x'", 2),
        ("x^2^3", "unexpected character '^'", 3),
        ("x^2 + z", "unexpected character 'z'", 6),
        ("1++x", "unexpected character '+'", 2),
        ("1 + + x", "unexpected character '+'", 4),
    ],
)
def test_parse_error_message_and_offset(text, message, offset):
    with pytest.raises(PolyParseError) as err:
        parse_poly(text, RingContext(3, 3))
    assert str(err.value) == f"{message} (at offset {offset})"
    assert err.value.position == offset


def test_parse_rejects_negative_exponent():
    ctx = RingContext(3, 3)
    with pytest.raises(PolyParseError, match="negative"):
        parse_poly("x^-1", ctx)


@example("x^²")
@example("x^٣")
@given(st.text(alphabet=list("xy^*+-0129²٣_z \t")))
def test_any_text_parses_or_raises_an_error_within_it(text):
    try:
        p = parse_poly(text, RingContext(4, 3))
    except PolyParseError as err:
        assert 0 <= err.position <= len(text)
    else:
        assert isinstance(p, Poly)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.text(alphabet="0123456789", min_size=1, max_size=8), st.integers(1, 5000))
def test_exponents_of_any_length_reduce_on_parse(l, m, chunk, repeats):
    digits = chunk * repeats  # often past the 4,300 digits int() converts
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # only for the reference value
    try:
        a = int(digits) % l
    finally:
        sys.set_int_max_str_digits(limit)
    assert parse_poly(f"x^{digits}", RingContext(l, m)) == Poly.make(RingContext(l, m), [(a, 0)])


@st.composite
def spelled_terms(draw):
    """Exponent pairs, repeats included, and a spelling of their sum: random
    whitespace between tokens, an optional '*', explicit ^1 and ^0, and
    exponents at or above l and m."""
    l, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, 3 * l), st.integers(0, 3 * m)), min_size=1, max_size=6))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    ws = st.sampled_from(["", "", " ", "\t", "  "])

    def factor(var, e):
        spellings = [f"{var}{draw(ws)}^{draw(ws)}{e}"] + ([var] if e == 1 else []) + ([""] if e == 0 else [])
        return draw(st.sampled_from(spellings))

    terms = []
    for a, b in pairs:
        x, y = factor("x", a), factor("y", b)
        star = f"{draw(ws)}*{draw(ws)}" if x and y and draw(st.booleans()) else draw(ws)
        terms.append(draw(ws) + (x + star + y if x or y else "1") + draw(ws))
    return RingContext(l, m), pairs, "+".join(terms)


@given(spelled_terms())
def test_spelled_exponent_pairs_parse_to_their_poly(case):
    ctx, pairs, text = case
    assert parse_poly(text, ctx) == Poly.make(ctx, pairs)


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
        assert Poly.from_vector(ctx, p.mask) == p


def test_pickle_carries_the_ring_and_mask_but_no_cached_circulant():
    p = parse_poly("1 + x^5 + x^3 + x^5y", RingContext(30, 2))
    q = pickle.loads(pickle.dumps(p))
    assert q == p and hash(q) == hash(p) and q.to_matrix() == p.to_matrix()
