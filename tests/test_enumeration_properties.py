"""Cover enumeration against an unshared per-job oracle, and the O(w)
construction check against the dense product H_X H_Z^T.

enumerate_covers computes k once per pair of annihilator spans and
connectivity once per pair of difference subgroups, shared by every job of a
call; the oracle in oracles.py builds each class's code and Tanner graph
alone.  Small rings and lattices only, so every record is compared.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bbcovers.codes import BBCode, InternalConsistencyError
from bbcovers.covers import enumerate_covers
from bbcovers.rings import Monomial, Poly, RingContext, parse_poly

from oracles import cover_record_reference, lifts_of_poly

SHEETS = [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 2)]
R33, R21 = RingContext(3, 3), RingContext(2, 1)


@st.composite
def enumerations(draw):
    """A base code over a ring with l, m <= 3, and sheets (u, t) with at most
    256 raw jobs, so that the run without dedup stays small."""
    ctx = RingContext(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    cells = st.tuples(st.integers(0, ctx.l - 1), st.integers(0, ctx.m - 1))
    a, b = (Poly.make(ctx, draw(st.sets(cells, min_size=1, max_size=3))) for _ in "ab")
    u, t = draw(st.sampled_from(SHEETS))
    assume((u * t) ** (a.weight + b.weight) <= 256)
    return a, b, u, t


@settings(max_examples=60, deadline=None)
@example((Poly.make(R33, [(0, 0), (0, 1), (0, 2)]), Poly.make(R33, [(0, 0), (1, 0), (2, 0)]), 2, 1), True).via(
    "the [[18, 8, 3]] base at (6, 3)"
)
@example((Poly.make(R21, [(0, 0)]), Poly.make(R21, [(1, 0)]), 2, 1), False).via("disconnected covers")
@given(enumerations(), st.booleans())
def test_enumeration_records_match_the_unshared_oracle(case, dedup):
    a, b, u, t = case
    base = BBCode(a, b)
    enum = enumerate_covers(base, u * base.l, t * base.m, dedup=dedup)
    if not dedup:
        assert len(enum.records) == len(lifts_of_poly(a, u, t)) * len(lifts_of_poly(b, u, t))
    for rec in enum.records:
        assert (rec.k, rec.connected) == cover_record_reference(rec.a, rec.b)


@st.composite
def poly_pairs(draw):
    ctx = RingContext(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    cells = st.tuples(st.integers(0, ctx.l - 1), st.integers(0, ctx.m - 1))
    a, b = (Poly.make(ctx, draw(st.sets(cells, min_size=1, max_size=5))) for _ in "ab")
    return a, b


@settings(max_examples=80, deadline=None)
@given(poly_pairs(), st.tuples(st.integers(0, 5), st.integers(0, 5)), st.booleans())
def test_column_0_check_agrees_with_the_dense_product(pair, twist, identity):
    # transpose() is replaced by a wrong one: the identity, or p^T times x^a y^b
    # (right for twist (0, 0) and for p whose support that shift fixes); the build
    # must raise when M(p)^T != M(p^T) for A or B, and otherwise read as the dense
    # product of the check matrices it builds does
    a, b = (Poly(p.ctx, p.mask) for p in pair)  # fresh: no cached certificate
    true_transpose = Poly.transpose
    twisted = (lambda p: p) if identity else (lambda p: true_transpose(p).shift(Monomial(*twist)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Poly, "transpose", twisted)
        hx = a.to_matrix().hstack(b.to_matrix())
        hz = b.transpose().to_matrix().hstack(a.transpose().to_matrix())
        certified = all(p.to_matrix().transpose() == p.transpose().to_matrix() for p in (a, b))
        try:
            BBCode(a, b)  # its one construction check is the column-0 test
        except InternalConsistencyError as exc:
            built, message = False, str(exc)
        else:
            built, message = True, ""
        if certified:
            assert built == hx.mul(hz.transpose()).is_zero()
        else:
            assert "is not the mask of p^T" in message


def test_a_code_whose_transpose_certificate_fails_is_not_built():
    # the product is zero, yet a's certificate slot reads False: the build raises
    # rather than check column 0 another way
    a, b = (parse_poly(text, R33) for text in ("1+y+y^2", "1+x+x^2"))
    assert BBCode(a, b).k == 8
    a = Poly(R33, a.mask)
    a.__dict__["_column_0_is_transpose"] = False  # the slot of the cached property
    with pytest.raises(InternalConsistencyError, match=r"column 0 of M\(p\) is not the mask of p\^T for p = 1 \+ y"):
        BBCode(a, b)
