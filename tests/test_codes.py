import pytest

from bbcovers.codes import (
    Classification,
    InternalConsistencyError,
    PauliOp,
    Refusal,
    build_code,
    pairing_matrix,
    parse_code_spec,
    parse_pauli,
)
from bbcovers.gf2 import BinMatrix, RowReducer, ShapeError, parities
from bbcovers.rings import ContextMismatch, Monomial, Poly, RingContext, parse_poly
from bbcovers.tables import all_rows

from oracles import stabilizer_support

CODE_72 = "l=6 m=6 A=x^3+y+y^2 B=y^3+x+x^2"
CODE_18 = "l=3 m=3 A=1+y+y^2 B=1+x+x^2"
GROSS = "l=12 m=6 A=x^3+y+y^2 B=y^3+x+x^2"
CODE_24_W8 = "l=6 m=2 A=1+x^5+x^3+x^5y B=y+x^2y+x^5y+x^3"


def test_build_72():
    code = parse_code_spec(CODE_72)
    assert code.n == 72 and code.check_weight == 6


def test_build_degenerate_two_qubit():
    code = build_code("1", "1", 1, 1)
    assert code.n == 2
    assert code.hx == BinMatrix(1, 2, (0b11,))
    assert code.k == 0
    assert code.logical_basis.k == 0


def test_build_weight8():
    code = parse_code_spec(CODE_24_W8)
    assert code.n == 24 and code.check_weight == 8 and code.k == 10


def test_css_condition_and_rank_symmetry():
    for spec in (CODE_72, CODE_18, GROSS, CODE_24_W8):
        code = parse_code_spec(spec)
        assert code.hx.mul(code.hz.transpose()).is_zero()
        assert code.hx.rank() == code.hz.rank()


def test_k_values():
    assert parse_code_spec(CODE_72).k == 12
    assert parse_code_spec(GROSS).k == 12
    assert parse_code_spec(CODE_18).k == 8


def test_k_matches_homology_dimension():
    for spec in (CODE_18, CODE_72, CODE_24_W8):
        code = parse_code_spec(spec)
        assert code.k == code.hx.kernel_basis().n_rows - code.hz.rank()


def test_rank_value_via_k():
    # k = n - 2 rank(H_Z)
    assert parse_code_spec(CODE_72).hz.rank() == 30
    assert parse_code_spec(CODE_18).hz.rank() == 5
    assert parse_code_spec(CODE_18).hx.kernel_basis().n_rows == 13


def test_stabilizer_support_x():
    code = parse_code_spec(CODE_72)
    supp = stabilizer_support(code, Monomial(0, 0), "X")
    assert supp.left == code.a and supp.right == code.b


def test_stabilizer_support_z_transposes():
    code = parse_code_spec(CODE_72)
    supp = stabilizer_support(code, Monomial(0, 0), "Z")
    assert supp.left == parse_poly("y^3+x^5+x^4", code.ctx)
    assert supp.right == parse_poly("x^3+y^5+y^4", code.ctx)


def test_stabilizer_support_shift():
    code = parse_code_spec(CODE_18)
    supp = stabilizer_support(code, Monomial(1, 0), "X")
    assert supp.left == code.a.shift(Monomial(1, 0))


def test_support_rows_match_check_matrices():
    code = parse_code_spec(CODE_18)
    for mono in code.ctx.monomials():
        r = code.ctx.index(mono.a, mono.b)
        assert stabilizer_support(code, mono, "X").support_vector() == code.hx.rows[r]
        assert stabilizer_support(code, mono, "Z").support_vector() == code.hz.rows[r]


def test_syndrome_zero_op():
    code = parse_code_spec(CODE_72)
    zero = PauliOp("Z", Poly.zero(code.ctx), Poly.zero(code.ctx))
    assert code.syndrome(zero) == 0


def test_syndrome_of_stabilizer_rows():
    code = parse_code_spec(CODE_72)
    for r in (0, 7, 35):
        op = PauliOp.from_vector("Z", code.ctx, code.hz.rows[r])
        assert code.syndrome(op) == 0
        assert code.classify(op) == Classification.STABILIZER


def test_single_qubit_syndrome_weight_is_column_weight():
    code = parse_code_spec(CODE_72)
    op = parse_pauli("X(1|0)", code.ctx)
    syn = code.syndrome(op)
    assert syn != 0
    assert syn.bit_count() == parities(code.hz.rows, 1).bit_count() == 3


def test_classify_examples():
    c72 = parse_code_spec(CODE_72)
    f_prime = parse_pauli("X(1+x+x^2+x^3+xy^3+x^5y^3|0)", c72.ctx)
    assert c72.classify(f_prime) == Classification.LOGICAL
    full_check = PauliOp("X", c72.a, c72.b)
    assert c72.classify(full_check) == Classification.STABILIZER
    assert c72.classify(parse_pauli("X(x|0)", c72.ctx)) == Classification.NOT_IN_KERNEL


def test_f_prime_not_in_x_stabilizer_row_space():
    c72 = parse_code_spec(CODE_72)
    v = parse_pauli("X(1+x+x^2+x^3+xy^3+x^5y^3|0)", c72.ctx).support_vector()
    assert not RowReducer(c72.n, c72.hx.rows).contains(v)


def test_logical_basis_pairs_as_identity():
    for spec in (CODE_18, CODE_72, CODE_24_W8):
        code = parse_code_spec(spec)
        basis = code.logical_basis
        assert basis.k == code.k
        assert basis.pairing_matrix() == BinMatrix.identity(code.k)
        for op in basis.x_ops + basis.z_ops:
            assert code.syndrome(op) == 0
            assert code.classify(op) == Classification.LOGICAL


def test_codes_eliminate_each_check_matrix_only_in_the_stabilizer_reducers(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a second elimination of H_X or H_Z ran")

    def no_reduced_form(self):
        raise AssertionError("the logical basis read a reduced row echelon form")

    init = RowReducer.__init__
    built = []

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BinMatrix, "rank", fail)
    monkeypatch.setattr(BinMatrix, "kernel_basis", fail)
    monkeypatch.setattr(RowReducer, "reduced_rows", no_reduced_form)
    monkeypatch.setattr(RowReducer, "__init__", counted_init)
    for spec in (CODE_72, GROSS):
        built.clear()
        code = parse_code_spec(spec)
        assert code.k == 12
        basis = code.logical_basis
        # the two stabilizer reducers, built for k, are the only ones
        assert len(built) == 2
        assert {id(r) for r in built} == {id(code._x_stab_reducer), id(code._z_stab_reducer)}
        for j, (x, z) in enumerate(zip(basis.x_ops, basis.z_ops)):
            assert code.classify(x) == code.classify(z) == Classification.LOGICAL
            assert code.x_class_coords(x.support_vector()) == 1 << j
            assert code.z_class_coords(z.support_vector()) == 1 << j


def test_codes_never_multiply_or_transpose_a_dense_matrix(monkeypatch):
    from bbcovers.covers import check_cover, verify_cover_isomorphism

    def fail(*args, **kwargs):
        raise AssertionError("a dense product or bit transpose ran")

    monkeypatch.setattr(BinMatrix, "mul", fail)
    monkeypatch.setattr(BinMatrix, "transpose", fail)
    for spec in (CODE_72, GROSS):
        code = parse_code_spec(spec)
        assert code.k == 12
        assert code.hx_t.n_rows == code.hz_t.n_rows == code.n
        assert code.classify(code.logical_basis.x_ops[0]) == Classification.LOGICAL
    base, cover = parse_code_spec(CODE_72), parse_code_spec(GROSS)
    assert verify_cover_isomorphism(base, cover, check_cover(base, cover))


def test_syndromes_are_ring_products_and_build_no_transposed_check_matrix():
    code = parse_code_spec(GROSS)
    basis = code.logical_basis
    ops = (basis.x_ops[0], basis.z_ops[0], parse_pauli("X(1|0)", code.ctx), parse_pauli("Z(x|y)", code.ctx))
    assert [code.classify(op) for op in ops] == [Classification.LOGICAL] * 2 + [Classification.NOT_IN_KERNEL] * 2
    assert "hx_t" not in vars(code) and "hz_t" not in vars(code)


def test_construction_stacks_no_matrix(monkeypatch):
    def fail(*args):
        raise AssertionError("a check matrix was stacked while building the code")

    monkeypatch.setattr(BinMatrix, "hstack", fail)
    monkeypatch.setattr(BinMatrix, "vstack", fail)
    for spec in (CODE_72, GROSS, CODE_24_W8):
        parse_code_spec(spec)


def test_syndrome_refuses_an_operator_over_another_ring():
    code = parse_code_spec(CODE_18)
    op = parse_pauli("X(1+x|0)", RingContext(9, 3))
    with pytest.raises(ContextMismatch):
        code.syndrome(op)


def test_class_coords_refuse_bits_beyond_the_last_qubit():
    # the syndrome ignores bits from n up, so the kernel test alone would pass them
    code = parse_code_spec(CODE_18)
    x, z = code.logical_basis.x_ops[0].support_vector(), code.logical_basis.z_ops[0].support_vector()
    for coords, v in ((code.x_class_coords, x), (code.z_class_coords, z)):
        assert coords(v) == 1
        for bad in (1 << code.n, v | 1 << code.n, -1):
            with pytest.raises(ShapeError):
                coords(bad)
    with pytest.raises(ShapeError):
        code.classify_vector("X", 1 << code.n)


def test_untransposed_h_z_fails_the_column_0_check(monkeypatch):
    # with B and A in place of B^T and A^T, H_X H_Z^T is the matrix of
    # AB^T + BA^T, which is nonzero here; column 0 must see it
    monkeypatch.setattr(Poly, "transpose", lambda self: self)
    with pytest.raises(InternalConsistencyError):
        parse_code_spec(CODE_72)


@pytest.mark.parametrize("swap", ["stabilizer", "vector outside the kernel"])
def test_symplectic_basis_refuses_a_stabilizer_or_a_vector_outside_the_kernel(monkeypatch, swap):
    import bbcovers.codes as codes

    code = parse_code_spec(CODE_72)
    coset_reps = codes._coset_reps

    def swapped(checks, stab_rows):
        reps = coset_reps(checks, stab_rows)
        if stab_rows is code.hx.rows:  # the X representatives
            reps[0] = code.hx.rows[1] if swap == "stabilizer" else reps[0] ^ 1
        return reps

    monkeypatch.setattr(codes, "_coset_reps", swapped)
    # a stabilizer pairs evenly with every Z representative, so the pairing fails
    match = "pairing" if swap == "stabilizer" else "not in the kernel"
    with pytest.raises(InternalConsistencyError, match=match):
        code.logical_basis


def paper_18_basis(code):
    ctx = code.ctx
    f, g = parse_poly("1+x", ctx), parse_poly("1+y", ctx)
    ri = [parse_poly(s, ctx) for s in ("1", "y^2", "x", "xy^2")]
    rj = [parse_poly(s, ctx) for s in ("1", "y", "x^2", "x^2y")]
    zero = Poly.zero(ctx)
    xs = [PauliOp("X", r * f, zero) for r in ri] + [PauliOp("X", zero, r * g) for r in rj]
    zs = [PauliOp("Z", r * g, zero) for r in rj] + [PauliOp("Z", zero, r * f) for r in ri]
    return xs, zs


def test_published_18_basis_classifies_and_pairs():
    code = parse_code_spec(CODE_18)
    xs, zs = paper_18_basis(code)
    for op in xs + zs:
        assert code.classify(op) == Classification.LOGICAL
    assert pairing_matrix(xs, zs) == BinMatrix.identity(8)


def test_parse_code_spec_round_trip():
    code = parse_code_spec(CODE_72)
    again = parse_code_spec(code.spec_line())
    assert again == code


def test_parse_code_spec_errors():
    with pytest.raises(Refusal):
        parse_code_spec("l=3 m=3 A=1+y+y^2")
    with pytest.raises(Refusal):
        parse_code_spec("junk")


def test_published_spec_lines_parse_back_to_their_codes():
    rows = all_rows()
    assert len(rows) == 61
    for row in rows:
        assert parse_code_spec(row.spec_line()) == row.code()


def test_build_code_refuses_lattice_orders_below_1():
    for l, m in ((0, 3), (3, 0), (-1, 2)):
        with pytest.raises(Refusal, match=f"^bad lattice parameter: ring orders must be positive, got l={l}, m={m}$"):
            build_code("1", "1", l, m)
        with pytest.raises(Refusal, match="^bad lattice parameter: ring orders must be positive"):
            parse_code_spec(f"l={l} m={m} A=1 B=1")


def test_parse_pauli_round_trip():
    ctx = RingContext(4, 4)
    op = parse_pauli("X(1+xy|y^3)", ctx)
    assert op.basis == "X" and op.weight == 3
    assert parse_pauli(str(op), ctx) == op
