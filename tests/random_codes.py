"""Random BB codes for the property tests that check the package against the oracles."""

from hypothesis import assume
from hypothesis import strategies as st

from bbcovers.codes import BBCode
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
