"""Random BB codes and lifts for the property tests that check the package against the oracles."""

from hypothesis import assume
from hypothesis import strategies as st

from bbcovers.codes import BBCode, parse_code_spec
from bbcovers.covers import check_cover
from bbcovers.rings import Poly, RingContext


@st.composite
def weight3_codes(draw):
    """A BB code with weight-3 A and B over a ring with l, m <= 4, and k > 0.

    The kernel walk and the coset walk visit 2^((n + k)/2) vectors, so codes
    past 2^18 are skipped to keep the oracles fast.  About one random code in
    five qualifies, so up to ten are drawn per example: rejecting each one
    outright trips hypothesis's filter_too_much health check at random.
    """
    for _ in range(10):
        code = _random_code(draw, 3)
        if code.k > 0 and (code.n + code.k) // 2 <= 18:
            return code
    assume(False)


@st.composite
def weight4_codes(draw):
    """A BB code with weight-4 A and B over a ring with l, m <= 4: the row weight
    of the weight-8 codes.  Both polynomials vanish at x = y = 1, so k > 0."""
    return _random_code(draw, 4)


def _random_code(draw, weight: int) -> BBCode:
    l, m = draw(st.sampled_from([(l, m) for l in range(1, 5) for m in range(1, 5) if l * m >= weight]))
    ctx = RingContext(l, m)
    cells = st.tuples(st.integers(0, l - 1), st.integers(0, m - 1))
    a, b = (Poly.make(ctx, draw(st.sets(cells, min_size=weight, max_size=weight))) for _ in "ab")
    return BBCode(a, b)


BASES = [
    parse_code_spec("l=3 m=3 A=1+y+y^2 B=1+x+x^2"),
    parse_code_spec("l=7 m=2 A=1+x^2+x^3y B=1+x^3+x^2y"),
    parse_code_spec("l=6 m=2 A=1+x^5+x^3+x^5y B=y+x^2y+x^5y+x^3"),
]


@st.composite
def lifts(draw, ut=None):
    """(base, cover, witness) for a random lift: each base term moves to a random sheet.
    The sheet grid (u, t) is drawn from ``ut``, by default u and t from 1..3."""
    base = draw(st.sampled_from(BASES))
    u, t = draw(ut) if ut is not None else (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    ctx = RingContext(base.l * u, base.m * t)

    def lift(p):
        sheets = draw(st.lists(st.tuples(st.integers(0, u - 1), st.integers(0, t - 1)), min_size=p.weight, max_size=p.weight))
        return Poly.make(ctx, [(x.a + base.l * i, x.b + base.m * j) for x, (i, j) in zip(p.terms, sheets)])

    cover = BBCode(lift(base.a), lift(base.b))
    return base, cover, check_cover(base, cover)
