import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbcovers.gf2 import BinMatrix, RowReducer, ShapeError, parities, xor_rows

from oracles import kron, span


def random_matrix(rng, rows, cols):
    return BinMatrix.from_ints((rng.getrandbits(cols) for _ in range(rows)), cols)


def brute_kernel_dim(m: BinMatrix) -> int:
    count = 0
    for v in range(1 << m.n_cols):
        if m.mul_vec(v) == 0:
            count += 1
    return count.bit_length() - 1


def test_identity_mul():
    i3 = BinMatrix.identity(3)
    assert i3 @ i3 == i3


def test_mul_shape_error_names_both_shapes():
    a = b = BinMatrix(2, 3, (0, 0))
    with pytest.raises(ShapeError, match="2x3 by 2x3"):
        a.mul(b)


def test_mul_associates():
    rng = random.Random(11)
    for _ in range(25):
        a = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        b = random_matrix(rng, a.n_cols, rng.randint(1, 8))
        c = random_matrix(rng, b.n_cols, rng.randint(1, 8))
        assert (a @ b) @ c == a @ (b @ c)


def test_rank_zero_matrix():
    assert BinMatrix(4, 4, (0,) * 4).rank() == 0


def test_rank_equals_rank_of_transpose():
    rng = random.Random(5)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 64), rng.randint(1, 64))
        assert m.rank() == m.transpose().rank()


def test_kernel_identity_empty():
    assert BinMatrix.identity(3).kernel_basis().n_rows == 0


def test_kernel_parity_vector():
    m = BinMatrix(1, 2, (0b11,))
    k = m.kernel_basis()
    assert k.n_rows == 1 and k.rows[0] == 0b11


def test_kernel_rows_annihilate_and_are_independent():
    rng = random.Random(17)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 12))
        ker = m.kernel_basis()
        assert ker.n_rows == m.n_cols - m.rank()
        for v in ker.rows:
            assert m.mul_vec(v) == 0
        assert ker.rank() == ker.n_rows


def test_kernel_deterministic():
    rng = random.Random(3)
    m = random_matrix(rng, 6, 9)
    assert m.kernel_basis() == m.kernel_basis()


def test_in_row_space_zero_and_own_rows():
    rng = random.Random(23)
    m = random_matrix(rng, 5, 9)
    red = RowReducer(9, m.rows)
    assert red.contains(0)
    for r in m.rows:
        assert red.contains(r)


def test_in_row_space_identity():
    assert RowReducer(2, BinMatrix.identity(2).rows).contains(0b01)


def test_in_row_space_length_check():
    with pytest.raises(ShapeError):
        RowReducer(2, BinMatrix.identity(2).rows).contains(0b100)


def test_kron_identities():
    assert kron(BinMatrix.identity(2), BinMatrix.identity(3)) == BinMatrix.identity(6)


def test_kron_block_swap():
    c2 = BinMatrix(2, 2, (1 << 1, 1 << 0))
    got = kron(c2, BinMatrix.identity(2))
    # permutation exchanging index blocks {0,1} and {2,3}
    want = BinMatrix(4, 4, (1 << 2, 1 << 3, 1 << 0, 1 << 1))
    assert got == want


def test_transpose_involution():
    rng = random.Random(31)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 9), rng.randint(1, 9))
        assert m.transpose().transpose() == m


def test_stack_shape_errors():
    with pytest.raises(ShapeError):
        BinMatrix(2, 2, (0, 0)).hstack(BinMatrix(3, 2, (0, 0, 0)))
    with pytest.raises(ShapeError):
        BinMatrix(2, 2, (0, 0)).vstack(BinMatrix(2, 3, (0, 0)))


def test_vec_mul_is_mul_vec_of_the_transpose():
    rng = random.Random(43)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(0, 9), rng.randint(0, 9))
        v = rng.getrandbits(m.n_rows + 3) - rng.randint(0, 1) * (1 << (m.n_rows + 3))
        assert m.vec_mul(v) == m.transpose().mul_vec(v)


@st.composite
def rows_and_vector(draw, width_of_v):
    """Rows of a random n_rows x n_cols matrix and a vector over n_rows or n_cols bits."""
    n_rows, n_cols = draw(st.integers(0, 70)), draw(st.integers(0, 70))
    rows = draw(st.lists(st.integers(0, (1 << n_cols) - 1), min_size=n_rows, max_size=n_rows))
    n_v = n_rows if width_of_v == "rows" else n_cols
    return BinMatrix(n_rows, n_cols, tuple(rows)), draw(st.integers(0, (1 << n_v) - 1))


def _dense(m: BinMatrix) -> np.ndarray:
    return np.array([_bits(r, m.n_cols) for r in m.rows], dtype=np.int64).reshape(m.n_rows, m.n_cols)


def _bits(v: int, n: int) -> np.ndarray:
    return np.array([v >> j & 1 for j in range(n)], dtype=np.int64)


@settings(deadline=None)
@given(rows_and_vector("rows"))
def test_xor_rows_is_mul_vec_of_the_transpose(case):
    m, v = case
    assert xor_rows(m.rows, v) == m.transpose().mul_vec(v) == m.vec_mul(v)


@settings(deadline=None)
@given(rows_and_vector("cols"))
def test_parities_agree_with_a_dense_product(case):
    m, v = case
    product = _dense(m) @ _bits(v, m.n_cols) % 2
    assert parities(m.rows, v) == sum(int(b) << i for i, b in enumerate(product)) == m.mul_vec(v)


def test_text_round_trip():
    rng = random.Random(41)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(0, 7), rng.randint(1, 70))
        assert BinMatrix.from_text(m.to_text()) == m


def test_rank_against_brute_force_small():
    rng = random.Random(101)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 8))
        assert m.rank() == m.n_cols - brute_kernel_dim(m)


def test_row_reducer_matches_in_row_space():
    rng = random.Random(59)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(0, 7), 10)
        red = RowReducer(10, m.rows)
        members = span(m.rows)
        for _ in range(50):
            v = rng.getrandbits(10)
            assert red.contains(v) == (v in members)
