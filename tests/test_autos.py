import json
import random

import pytest

from bbcovers.autos import (
    CodeAutomorphism,
    DualityAction,
    ZXDuality,
    antipode_zx_duality,
    block_swap_zx_duality,
    compare_base_and_lifted_action,
    compare_base_and_lifted_duality_action,
    duality_action,
    lift_automorphism,
    lift_zx_duality,
    logical_action,
    shift_automorphism,
    tau_lifted_basis,
    verify_automorphism,
    verify_zx_duality,
    y_exponent_swap_automorphism,
)
from bbcovers.chainmaps import ChainMap
from bbcovers.codes import (
    Classification,
    LogicalBasis,
    PauliOp,
    BBCode,
    Refusal,
    parse_code_spec,
)
from bbcovers.covers import check_cover
from bbcovers.gf2 import BinMatrix
from bbcovers.rings import Monomial, Poly, parse_poly

from oracles import logical_vectors_of_weight

BASE_18 = parse_code_spec("l=3 m=3 A=1+y+y^2 B=1+x+x^2")
COVER_54 = parse_code_spec("l=9 m=3 A=x^3+y+y^2 B=1+x+x^2")
BASE_72 = parse_code_spec("l=6 m=6 A=x^3+y+y^2 B=y^3+x+x^2")
W_54 = check_cover(BASE_18, COVER_54)


def paper_18_basis():
    ctx = BASE_18.ctx
    f, g = parse_poly("1+x", ctx), parse_poly("1+y", ctx)
    ri = [parse_poly(s, ctx) for s in ("1", "y^2", "x", "xy^2")]
    rj = [parse_poly(s, ctx) for s in ("1", "y", "x^2", "x^2y")]
    zero = Poly.zero(ctx)
    xs = tuple([PauliOp("X", r * f, zero) for r in ri] + [PauliOp("X", zero, r * g) for r in rj])
    zs = tuple([PauliOp("Z", r * g, zero) for r in rj] + [PauliOp("Z", zero, r * f) for r in ri])
    return LogicalBasis(xs, zs)


def identity_automorphism(code):
    ident = BinMatrix.identity(code.ctx.dim).rows  # its own columns
    return CodeAutomorphism(ident, BinMatrix.identity(code.n).rows, ident, code, code)


def cnot_circuit_matrices(k, gates):
    ax = [1 << i for i in range(k)]
    az = [1 << i for i in range(k)]
    for c, t in gates:
        ax[c - 1] ^= 1 << (t - 1)
        az[t - 1] ^= 1 << (c - 1)
    return BinMatrix(k, k, tuple(ax)), BinMatrix(k, k, tuple(az))


def test_identity_automorphism_verifies():
    assert verify_automorphism(BASE_18, identity_automorphism(BASE_18))


def test_y_swap_verifies_on_18():
    assert verify_automorphism(BASE_18, y_exponent_swap_automorphism(BASE_18))


def test_shift_automorphism_on_random_codes():
    rng = random.Random(91)
    from bbcovers.rings import RingContext

    built = 0
    while built < 8:
        l, m = rng.randint(2, 5), rng.randint(2, 5)
        ctx = RingContext(l, m)
        a = Poly.make(ctx, [(rng.randrange(l), rng.randrange(m)) for _ in range(3)])
        b = Poly.make(ctx, [(rng.randrange(l), rng.randrange(m)) for _ in range(3)])
        if a.is_zero() or b.is_zero():
            continue
        code = BBCode(a, b)
        mono = Monomial(rng.randrange(l), rng.randrange(m))
        assert verify_automorphism(code, shift_automorphism(code, mono))
        built += 1


def test_y_swap_lifts_to_54():
    aut = y_exponent_swap_automorphism(BASE_18)
    lifted = lift_automorphism(W_54, aut)
    assert verify_automorphism(COVER_54, lifted)
    # block structure: every sheet carries the same base permutation
    lm_b, lm_c = 9, 27
    for j in range(lm_c):
        s, jb = divmod(j, lm_b)
        assert lifted.f[j] == aut.f[jb] + s * lm_b


def test_identity_lifts_to_identity():
    lifted = lift_automorphism(W_54, identity_automorphism(BASE_18))
    assert lifted.f == tuple(range(2 * 27))


def test_cnot_action_matches_circuit():
    aut = y_exponent_swap_automorphism(BASE_18)
    act = logical_action(BASE_18, aut, paper_18_basis())
    eax, eaz = cnot_circuit_matrices(8, [(1, 2), (3, 4), (6, 5), (8, 7)])
    assert act.ax == eax
    assert act.az == eaz


def test_identity_action_is_identity():
    act = logical_action(BASE_18, identity_automorphism(BASE_18), paper_18_basis())
    assert act.ax == BinMatrix.identity(8)
    assert act.az == BinMatrix.identity(8)


def test_action_preserves_pairing():
    aut = y_exponent_swap_automorphism(BASE_18)
    act = logical_action(BASE_18, aut, BASE_18.logical_basis)
    assert act.ax @ act.az.transpose() == BinMatrix.identity(8)


def test_compare_base_and_lifted_cnot_action():
    aut = y_exponent_swap_automorphism(BASE_18)
    lifted = lift_automorphism(W_54, aut)
    assert compare_base_and_lifted_action(W_54, aut, lifted, paper_18_basis())
    assert compare_base_and_lifted_action(W_54, aut, lifted)  # deterministic basis too


def test_compare_identity_trivially_equal():
    aut = identity_automorphism(BASE_18)
    lifted = lift_automorphism(W_54, aut)
    assert compare_base_and_lifted_action(W_54, aut, lifted)


def test_compare_refuses_even_h():
    c36 = parse_code_spec("l=6 m=3 A=x^3+y+y^2 B=1+x+x^2")
    w36 = check_cover(BASE_18, c36)
    aut = y_exponent_swap_automorphism(BASE_18)
    lifted = lift_automorphism(w36, aut)
    with pytest.raises(Refusal, match="odd"):
        compare_base_and_lifted_action(w36, aut, lifted)


def test_tau_lifted_basis_valid_for_odd_h():
    basis = tau_lifted_basis(W_54, paper_18_basis())
    assert basis.pairing_matrix() == BinMatrix.identity(8)
    for op in basis.x_ops + basis.z_ops:
        assert COVER_54.classify(op) == Classification.LOGICAL


def test_tau_lifted_basis_refuses_when_k_grows():
    base = parse_code_spec("l=2 m=1 A=1+x B=1+x")
    w = check_cover(base, parse_code_spec("l=6 m=1 A=1+x^3 B=1+x^3"))
    assert (w.h, base.k, w.cover.k) == (3, 2, 6)
    with pytest.raises(Refusal, match="k_h = 6 != k = 2"):
        tau_lifted_basis(w, base.logical_basis)


def test_an_unpaired_base_basis_is_refused_before_it_is_lifted():
    # the Z ops of a paired basis, rotated by one, pair as a permutation, not as I_8
    basis = paper_18_basis()
    unpaired = LogicalBasis(basis.x_ops, basis.z_ops[1:] + basis.z_ops[:1])
    aut = y_exponent_swap_automorphism(BASE_18)
    zx = block_swap_zx_duality(BASE_18)
    walt = check_cover(BASE_18, parse_code_spec("l=9 m=3 A=1+y+y^2 B=1+x^4+x^5"))
    calls = (
        lambda: logical_action(BASE_18, aut, unpaired),
        lambda: tau_lifted_basis(W_54, unpaired),
        lambda: compare_base_and_lifted_action(W_54, aut, lift_automorphism(W_54, aut), unpaired),
        lambda: compare_base_and_lifted_duality_action(walt, zx, lift_zx_duality(walt, zx), unpaired),
    )
    for call in calls:
        with pytest.raises(Refusal, match="symplectically paired basis"):
            call()


def test_block_swap_duality_verifies_on_18():
    assert verify_zx_duality(BASE_18, block_swap_zx_duality(BASE_18))


def test_block_swap_action_is_swap_hadamard():
    zx = block_swap_zx_duality(BASE_18)
    act = duality_action(BASE_18, zx, paper_18_basis())
    j_swap = BinMatrix(8, 8, tuple(1 << ((i + 4) % 8) for i in range(8)))
    assert act.dx == j_swap
    assert act.dz == j_swap


def test_block_swap_duality_lifts_to_self_transpose_cover():
    zx = block_swap_zx_duality(BASE_18)
    alt = parse_code_spec("l=9 m=3 A=1+y+y^2 B=1+x^4+x^5")
    walt = check_cover(BASE_18, alt)
    assert walt.h == 3 and alt.k == 8
    lifted = lift_zx_duality(walt, zx)
    assert verify_zx_duality(alt, lifted)
    # lifted qubit permutation is the swap of the enlarged blocks
    lm_c = alt.ctx.dim
    assert lifted.f == tuple(list(range(lm_c, 2 * lm_c)) + list(range(lm_c)))
    assert compare_base_and_lifted_duality_action(walt, zx, lifted, paper_18_basis())


def test_block_swap_lift_to_printed_cover_refused():
    # neither printed lattice reading gives self-transpose polynomials, so
    # the identity-witness block swap is not a duality there
    zx = block_swap_zx_duality(BASE_18)
    with pytest.raises(Refusal):
        lift_zx_duality(W_54, zx)
    w36 = check_cover(BASE_18, parse_code_spec("l=6 m=3 A=x^3+y+y^2 B=1+x+x^2"))
    with pytest.raises(Refusal):
        lift_zx_duality(w36, zx)


def test_antipode_duality_is_universal():
    rng = random.Random(97)
    from bbcovers.rings import RingContext

    built = 0
    while built < 6:
        l, m = rng.randint(2, 5), rng.randint(2, 5)
        ctx = RingContext(l, m)
        a = Poly.make(ctx, [(rng.randrange(l), rng.randrange(m)) for _ in range(3)])
        b = Poly.make(ctx, [(rng.randrange(l), rng.randrange(m)) for _ in range(3)])
        if a.is_zero() or b.is_zero():
            continue
        code = BBCode(a, b)
        assert verify_zx_duality(code, antipode_zx_duality(code))
        built += 1


def test_automorphism_preserves_min_weight_logicals():
    # relabeling by a verified automorphism maps the weight-d logical set to
    # itself, so the exact distance is invariant
    aut = y_exponent_swap_automorphism(BASE_18)
    for basis, weight in (("Z", 2), ("X", 2)):
        for v in logical_vectors_of_weight(BASE_18, basis, weight):
            image = aut.apply(v)
            assert image.bit_count() == weight
            assert BASE_18.classify_vector(basis, image) == Classification.LOGICAL


def test_automorphism_json_round_trip():
    aut = y_exponent_swap_automorphism(BASE_18)
    data = json.loads(json.dumps(aut.to_json()))
    again = CodeAutomorphism.from_json(data, BASE_18)
    assert again == aut and type(again) is CodeAutomorphism
    assert verify_automorphism(BASE_18, again)


def test_automorphisms_and_dualities_are_chain_maps():
    assert isinstance(shift_automorphism(BASE_18, Monomial(1, 2)), ChainMap)
    dual = antipode_zx_duality(BASE_18)
    assert isinstance(dual, ChainMap) and isinstance(dual, ZXDuality)
    assert dual.source == dual.target == BASE_18


def test_duality_json_round_trip_keeps_the_type():
    dual = antipode_zx_duality(BASE_18)
    again = CodeAutomorphism.from_json(json.loads(json.dumps(dual.to_json())), BASE_18)
    assert type(again) is ZXDuality and again == dual
    assert verify_zx_duality(BASE_18, again)


def test_kind_is_read_off_the_ws():
    # every built-in map has permutation W's; the JSON kind says so
    for m in (y_exponent_swap_automorphism(BASE_18), antipode_zx_duality(BASE_18), block_swap_zx_duality(BASE_18)):
        assert m.to_json()["kind"] == "tanner"
    ident = BinMatrix.identity(9).rows
    general = CodeAutomorphism(ident, BinMatrix.identity(18).rows, (1, 3) + ident[2:], BASE_18, BASE_18)
    data = general.to_json()
    assert data["kind"] == "general"
    assert CodeAutomorphism.from_json(data, BASE_18) == general
    with pytest.raises(Refusal, match="kind 'tanner'"):
        CodeAutomorphism.from_json({**data, "kind": "tanner"}, BASE_18)


def test_non_permutation_qubit_degree_does_not_verify():
    ident = BinMatrix.identity(BASE_18.ctx.dim).rows
    for deg1 in (BinMatrix(18, 18, (0,) * 18), BinMatrix(18, 18, (3,) + tuple(1 << j for j in range(1, 18)))):
        deg1 = deg1.transpose().rows
        assert not verify_automorphism(BASE_18, CodeAutomorphism(ident, deg1, ident, BASE_18, BASE_18))
        assert not verify_zx_duality(BASE_18, ZXDuality(ident, deg1, ident, BASE_18, BASE_18))


def test_duality_entry_points_refuse_other_maps():
    # the x-shift verifies as an automorphism; a ZXDuality with its columns is no duality
    shift = shift_automorphism(BASE_18, Monomial(1, 0))
    assert verify_automorphism(BASE_18, shift)
    assert not verify_zx_duality(BASE_18, ZXDuality(*shift.columns, BASE_18, BASE_18))
    zx = block_swap_zx_duality(BASE_18)
    walt = check_cover(BASE_18, parse_code_spec("l=9 m=3 A=1+y+y^2 B=1+x^4+x^5"))
    calls = (
        lambda: verify_zx_duality(BASE_18, shift),
        lambda: duality_action(BASE_18, shift, BASE_18.logical_basis),
        lambda: lift_zx_duality(W_54, shift),
        lambda: compare_base_and_lifted_duality_action(W_54, shift, identity_automorphism(COVER_54)),
        lambda: compare_base_and_lifted_duality_action(walt, zx, identity_automorphism(walt.cover)),
    )
    for call in calls:
        with pytest.raises(Refusal, match="ZX-duality"):
            call()
    # dualities pass both: the automorphism-named functions take either kind
    basis = paper_18_basis()
    for dual in (antipode_zx_duality(BASE_18), zx):
        assert verify_zx_duality(BASE_18, dual) and verify_automorphism(BASE_18, dual)
        assert logical_action(BASE_18, dual, basis) == duality_action(BASE_18, dual, basis)
        assert isinstance(duality_action(BASE_18, dual, basis), DualityAction)
    assert isinstance(lift_automorphism(walt, zx), ZXDuality)


def test_shape_mismatch_refused():
    aut = identity_automorphism(BASE_18)
    with pytest.raises(Refusal):
        verify_automorphism(BASE_72, aut)


# --- a map of another code --------------------------------------------------------

def test_the_actions_refuse_a_verified_map_of_another_code():
    # a verified map of another code on the same lattice would have its images
    # read in this code's basis, with the kernel test skipped
    other = parse_code_spec("l=6 m=6 A=1+y+y^2 B=1+x+x^2")
    shift, antipode = shift_automorphism(other, Monomial(1, 2)), antipode_zx_duality(other)
    assert verify_automorphism(other, shift) and verify_zx_duality(other, antipode)
    with pytest.raises(Refusal, match="not a map of this code"):
        logical_action(BASE_72, shift, BASE_72.logical_basis)
    with pytest.raises(Refusal, match="not a map of this code"):
        duality_action(BASE_72, antipode, BASE_72.logical_basis)
    base_shift = shift_automorphism(BASE_18, Monomial(0, 1))
    other_cover = parse_code_spec("l=9 m=3 A=1+y+y^2 B=1+x^4+x^5")
    other_lift = shift_automorphism(other_cover, Monomial(0, 1))
    other_base = shift_automorphism(parse_code_spec("l=3 m=3 A=1+x+y B=1+x+x^2"), Monomial(0, 1))
    assert verify_automorphism(other_cover, other_lift) and verify_automorphism(other_base.source, other_base)
    for aut, lifted in ((base_shift, other_lift), (other_base, lift_automorphism(W_54, base_shift))):
        with pytest.raises(Refusal, match="not a map of this code"):
            compare_base_and_lifted_action(W_54, aut, lifted)
