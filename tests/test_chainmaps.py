from functools import cached_property

import pytest

import bbcovers.chainmaps as chainmaps
from bbcovers.chainmaps import (
    classical_inherited_check,
    compose_p_tau,
    constant_section,
    distance_bounds,
    induced_homology_map,
    lift_logical,
    lift_poly,
    lifting_map,
    project_logical,
    project_poly,
    projection_map,
    weight_preserving_lift_search,
)
from bbcovers.autos import (
    CodeAutomorphism,
    antipode_zx_duality,
    block_swap_zx_duality,
    duality_action,
    lift_automorphism,
    lift_zx_duality,
    logical_action,
    shift_automorphism,
    verify_automorphism,
    verify_zx_duality,
    y_exponent_swap_automorphism,
)
from bbcovers.codes import BBCode, Classification, InternalConsistencyError, PauliOp, Refusal
from bbcovers.codes import parse_code_spec, parse_pauli
from bbcovers.covers import CoverRefusal, CoverWitness, LatticeMap, check_cover, verify_cover_isomorphism
from bbcovers.distance import exact_distance
from bbcovers.gf2 import BinMatrix, ShapeError
from bbcovers.rings import ContextMismatch, Monomial, Poly, parse_poly

from oracles import stabilizer_support, weight_preserving_lifts_reference

BASE_18 = parse_code_spec("l=3 m=3 A=1+y+y^2 B=1+x+x^2")
BASE_72 = parse_code_spec("l=6 m=6 A=x^3+y+y^2 B=y^3+x+x^2")
GROSS = parse_code_spec("l=12 m=6 A=x^3+y+y^2 B=y^3+x+x^2")
COVER_54 = parse_code_spec("l=9 m=3 A=x^3+y+y^2 B=1+x+x^2")
W_GROSS = check_cover(BASE_72, GROSS)
W_54 = check_cover(BASE_18, COVER_54)

F_12 = "1+x+x^2+x^3+xy^3+x^5y^3+x^6+x^7+x^8+x^9+x^7y^3+x^11y^3"
G_6 = "y^2+y^4+x+xy^2+x^2y+x^2y^3"
H_6 = "1+y+y^2+y^3+xy+xy^3"


def test_projection_reduces_monomials():
    p = project_poly(W_GROSS, parse_poly("x^7y^3", GROSS.ctx))
    assert str(p) == "xy^3"


def test_projection_of_published_polynomials():
    assert project_poly(W_GROSS, parse_poly(F_12, GROSS.ctx)).is_zero()
    assert str(project_poly(W_GROSS, parse_poly(G_6, GROSS.ctx))) == str(
        parse_poly(G_6, BASE_72.ctx)
    )
    assert str(project_poly(W_GROSS, parse_poly(H_6, GROSS.ctx))) == str(
        parse_poly(H_6, BASE_72.ctx)
    )


def test_lift_of_published_polynomials():
    assert lift_poly(W_54, parse_poly("1+x", BASE_18.ctx)) == parse_poly(
        "1+x+x^3+x^4+x^6+x^7", COVER_54.ctx
    )
    assert lift_poly(W_54, parse_poly("1+y", BASE_18.ctx)) == parse_poly(
        "1+y+x^3+x^3y+x^6+x^6y", COVER_54.ctx
    )
    assert lift_poly(W_GROSS, parse_poly("1+x+x^2+x^3+xy^3+x^5y^3", BASE_72.ctx)) == parse_poly(
        F_12, GROSS.ctx
    )
    assert lift_poly(W_54, Poly.zero(BASE_18.ctx)).is_zero()


def test_project_and_lift_refuse_a_polynomial_over_the_wrong_ring():
    with pytest.raises(ContextMismatch):
        project_poly(W_54, parse_poly("1+x", BASE_18.ctx))
    with pytest.raises(ContextMismatch):
        lift_poly(W_54, parse_poly("1+x", COVER_54.ctx))


def test_chain_maps_commute_and_are_transposes():
    for w in (W_GROSS, W_54):
        pm = projection_map(w)  # raises on any failed square
        tm = lifting_map(w)
        assert tm.deg2 == pm.deg2.transpose()
        assert tm.deg1 == pm.deg1.transpose()
        assert tm.deg0 == pm.deg0.transpose()


def test_a_failing_square_fails_both_chain_maps(monkeypatch):
    # projection_map checks p's squares, decided from phi's images of A and B;
    # lifting_map checks nothing: tau's squares are its own, on every column
    seen = []

    def failing(lat, source, target):
        seen.append((source, target))
        return False

    monkeypatch.setattr(chainmaps.LatticeMap, "sends", failing)
    with pytest.raises(InternalConsistencyError):
        projection_map(W_54)
    own = ((COVER_54.a, COVER_54.b), (BASE_18.a, BASE_18.b))
    assert seen == [own]  # the build stops at its chain squares
    seen.clear()
    assert lifting_map(W_54).cols1
    assert seen == []  # lifting_map makes no sends call
    monkeypatch.setattr(chainmaps.LatticeMap, "sends", lambda lat, source, target: seen.append((source, target)) or True)
    projection_map(W_54)
    dual = tuple((code.b.transpose(), code.a.transpose()) for code in (COVER_54, BASE_18))
    assert seen == [own, dual]  # chain, then cochain squares


def test_projection_map_checks_p_on_every_build_and_lifting_map_never(monkeypatch):
    runs = []
    sends = chainmaps.LatticeMap.sends
    monkeypatch.setattr(chainmaps.LatticeMap, "sends", lambda *args: runs.append(1) or sends(*args))
    lifting_map(check_cover(BASE_18, COVER_54))
    assert runs == []
    w = check_cover(BASE_18, COVER_54)
    projection_map(w)
    assert len(runs) == 2  # p's chain and cochain squares
    lifting_map(w)
    projection_map(w)
    lifting_map(w)
    assert len(runs) == 4  # on every projection_map build, none on lifting_map's
    # a failed check raises, after a passing one too
    monkeypatch.setattr(chainmaps.LatticeMap, "sends", lambda *args: False)
    with pytest.raises(InternalConsistencyError):
        projection_map(w)


def test_a_forged_witness_fails_p_and_tau():
    # A = 1+y does not project onto the base's A = 1+y+y^2: no cover, whatever the witness says
    fake = parse_code_spec("l=9 m=3 A=1+y B=1+x+x^2")
    with pytest.raises(CoverRefusal):
        check_cover(BASE_18, fake)
    w = CoverWitness(BASE_18, fake, 3, 1, (), ())
    with pytest.raises(InternalConsistencyError, match="chain-map square failed"):
        projection_map(w)
    tm = lifting_map(w)
    assert not tm.commutes()
    for side in "XZ":
        with pytest.raises(InternalConsistencyError, match="left the target kernel"):
            induced_homology_map(tm, side)


def test_projection_map_is_the_witness_p_with_its_table():
    w = check_cover(BASE_18, COVER_54)
    pm = projection_map(w)
    assert pm._lattice is w.p == LatticeMap(COVER_54.ctx, BASE_18.ctx)
    assert pm._cell_tables[0] is w.p.cells is pm._cell_tables[2]


def test_the_witness_builds_p_and_its_table_once(monkeypatch):
    built, transposed = [], []
    for name, log in (("cells", built), ("fibres", transposed)):
        table = LatticeMap.__dict__[name].func
        spy = cached_property(lambda lat, table=table, log=log: log.append(lat) or table(lat))
        spy.__set_name__(LatticeMap, name)
        monkeypatch.setattr(LatticeMap, name, spy)
    w = check_cover(BASE_18, COVER_54)
    projection_map(w)
    lifting_map(w)
    compose_p_tau(w)
    # tau's columns, p's transposed table, serve its lifts and its class images too
    lift_logical(w, parse_pauli("X(1+x|0)", BASE_18.ctx))
    lift_poly(w, parse_poly("1+y", BASE_18.ctx))
    for side in "XZ":
        induced_homology_map(lifting_map(w), side)
    # the y-swap lifts on its columns, through the witness's sheets, read off p's
    # fibres, and intertwines through p's table; a base shift along y lifts to a
    # cover shift, and intertwines by composing p as a lattice map
    assert lift_automorphism(w, y_exponent_swap_automorphism(BASE_18))._lattice is None
    assert lift_automorphism(w, shift_automorphism(BASE_18, Monomial(0, 1)))._lattice is not None
    # the sections and the weight-preserving lifts pick cells of the same fibres
    constant_section(w, 1, 0)
    assert weight_preserving_lift_search(w, parse_pauli("X(0|1+y)", BASE_18.ctx)) == []
    assert verify_cover_isomorphism(BASE_18, COVER_54, w)
    tables_of_p = [lat for lat in built if lat == w.p]
    assert len(tables_of_p) == 1 and tables_of_p[0] is w.p
    assert len(transposed) == 1 and transposed[0] is w.p


def test_compose_p_tau_refuses_a_corrupted_fibre():
    # tau's columns are p's fibres, read off p's cell table, so a fibre loses a
    # cell only to another fibre: a forged table moves cover cell 0 over base cell 1
    w = check_cover(BASE_18, COVER_54)
    w.p.__dict__["cells"] = (1, *w.p.cells[1:])
    with pytest.raises(InternalConsistencyError, match="does not have h=3 cells"):
        compose_p_tau(w)


def test_compose_p_tau_refuses_fibres_of_the_wrong_size_and_the_right_parity():
    # two of the three cells over base cell 1 forged onto base cell 0: fibres of 5
    # and 1 cells, both odd like h = 3, so p . tau still reads e_i in every column
    w = check_cover(BASE_18, parse_code_spec("l=9 m=3 A=x^3+y+y^2 B=1+x^4+x^8"))
    over_1 = [c for c, i in enumerate(w.p.cells) if i == 1]
    w.p.__dict__["cells"] = tuple(0 if c in over_1[:2] else i for c, i in enumerate(w.p.cells))
    assert [f.bit_count() for f in w.p.fibres[:3]] == [5, 1, 3]
    with pytest.raises(InternalConsistencyError, match="does not have h=3 cells"):
        compose_p_tau(w)


@pytest.mark.parametrize("forgery", ["two cells over base cell 1 moved onto 0", "cells 1 and x^3 y swapped"])
def test_sheets_refuse_fibres_that_are_not_translates_of_the_kernel(forgery):
    # both forged tables make some fibre miss a translate of the kernel, so a sheet had
    # no cell over that base cell: it read -1, a bare ValueError in constant_section
    w = check_cover(BASE_18, parse_code_spec("l=9 m=3 A=x^3+y+y^2 B=1+x^4+x^8"))
    cells = list(w.p.cells)
    if forgery.startswith("two"):
        for c in [c for c, i in enumerate(cells) if i == 1][:2]:
            cells[c] = 0
    else:  # over base cells 0 and 1: every fibre keeps its h = 3 cells
        cells[0], cells[3 * 3 + 1] = cells[3 * 3 + 1], cells[0]
    w.p.__dict__["cells"] = tuple(cells)
    with pytest.raises(InternalConsistencyError, match="not the translates of its kernel"):
        constant_section(w, 1, 0)
    sheets = check_cover(BASE_18, w.cover).p.sheets  # an unforged witness of the same cover
    assert len(sheets) == 3 and sorted(c for s in sheets for c in s) == list(range(w.cover.ctx.dim))


def test_tau_and_its_lifts_read_p_s_cell_table():
    # a forged table moves cover cell 0 from the fibre over base cell 0 to that over 1
    w = check_cover(BASE_18, COVER_54)
    w.p.__dict__["cells"] = (1, *w.p.cells[1:])
    tm = lifting_map(w)
    assert tm.cols2 is tm.cols0 is w.p.fibres
    assert (tm.cols2[0] & 1, tm.cols2[1] & 1) == (0, 1)
    assert lift_poly(w, parse_poly("y", BASE_18.ctx)).mask == tm.cols2[1]


def test_apply_refuses_bits_beyond_the_source_qubits():
    pm = projection_map(W_54)
    assert pm.apply(1 << (COVER_54.n - 1)) == 1 << (BASE_18.n - 1)
    for bad in (1 << COVER_54.n, -1):
        with pytest.raises(ShapeError):
            pm.apply(bad)


def test_class_images_keep_the_kernel_test_unless_a_lattice_map_commutes():
    # a duality commutes into the dual complex, not its own: it sends Z-type
    # vectors to X-type ones and back, so the same-side images of
    # induced_homology_map are tested and leave the kernel; a constant section,
    # no lattice map, is tested too
    dual, swap = antipode_zx_duality(BASE_18), block_swap_zx_duality(BASE_18)
    assert verify_zx_duality(BASE_18, dual) and verify_zx_duality(BASE_18, swap)
    lifted = lift_zx_duality(check_cover(BASE_18, parse_code_spec("l=9 m=3 A=1+y+y^2 B=1+x^4+x^5")), swap)
    for cm in (dual, swap, lifted, constant_section(W_54, 0, 0)):
        for side in "XZ":
            with pytest.raises(InternalConsistencyError, match="left the target kernel"):
                induced_homology_map(cm, side)
    shift = shift_automorphism(BASE_18, Monomial(1, 0))
    assert verify_automorphism(BASE_18, shift)
    for side in "XZ":
        assert induced_homology_map(shift, side).matrix.rank() == BASE_18.k


def test_class_images_skip_the_kernel_test_for_commuting_lattice_maps_only(monkeypatch):
    checks = []
    coords = BBCode._class_coords
    spy = lambda code, side, v, check=True: checks.append(check) or coords(code, side, v, check)  # noqa: E731
    monkeypatch.setattr(BBCode, "_class_coords", spy)

    def tested(run) -> set[bool]:
        checks.clear()
        run()
        assert checks
        return set(checks)

    w = check_cover(BASE_18, COVER_54)
    for side in "XZ":
        assert tested(lambda: induced_homology_map(lifting_map(w), side)) == {False}  # tau, by p's squares
        assert tested(lambda: induced_homology_map(projection_map(w), side)) == {False}
    basis = BASE_18.logical_basis
    shift, antipode = shift_automorphism(BASE_18, Monomial(1, 2)), antipode_zx_duality(BASE_18)
    assert verify_automorphism(BASE_18, shift) and verify_zx_duality(BASE_18, antipode)
    assert tested(lambda: logical_action(BASE_18, shift, basis)) == {False}
    assert tested(lambda: logical_action(BASE_18, antipode, basis)) == {False}
    assert tested(lambda: duality_action(BASE_18, antipode, basis)) == {False}
    # a verified map given as columns is tested on every image: the y-swap and a map read from JSON
    y_swap, from_json = y_exponent_swap_automorphism(BASE_18), CodeAutomorphism.from_json(shift.to_json(), BASE_18)
    for m in (y_swap, from_json):
        assert m._lattice is None and verify_automorphism(BASE_18, m)
        assert tested(lambda: logical_action(BASE_18, m, basis)) == {True}


def test_compose_p_tau():
    assert compose_p_tau(W_54) == "identity"
    assert compose_p_tau(W_GROSS) == "zero"
    trivial = check_cover(BASE_18, BASE_18)
    assert compose_p_tau(trivial) == "identity"


def test_induced_projection_kills_f_family():
    pm = projection_map(W_GROSS)
    ri = [parse_poly(s, GROSS.ctx) for s in ("1", "y", "x^2y", "x^2y^5", "x^3y^2", "x^4")]
    fpoly = parse_poly(F_12, GROSS.ctx)
    for r in ri:
        out = project_logical(W_GROSS, PauliOp("X", r * fpoly, Poly.zero(GROSS.ctx)))
        assert out.op.weight == 0
        assert out.classification == Classification.STABILIZER


def test_induced_projection_preserves_gh_class():
    g, h = parse_poly(G_6, GROSS.ctx), parse_poly(H_6, GROSS.ctx)
    out = project_logical(W_GROSS, PauliOp("X", g, h))
    assert out.classification == Classification.LOGICAL
    want = PauliOp("X", parse_poly(G_6, BASE_72.ctx), parse_poly(H_6, BASE_72.ctx))
    assert BASE_72.x_class_coords(out.op.support_vector()) == BASE_72.x_class_coords(
        want.support_vector()
    )


def test_induced_homology_map_refuses_a_side_other_than_x_or_z():
    for cm in (projection_map(W_54), lifting_map(W_54)):
        for side in ("x", "z", "", "XZ"):
            with pytest.raises(Refusal, match="side must be 'X' or 'Z'"):
                induced_homology_map(cm, side)


def test_induced_maps_compose_to_identity_for_odd_h():
    for side in ("Z", "X"):
        ip = induced_homology_map(projection_map(W_54), side)
        it = induced_homology_map(lifting_map(W_54), side)
        assert ip.matrix @ it.matrix == BinMatrix.identity(BASE_18.k)


def test_lift_logical_example():
    out = lift_logical(W_54, parse_pauli("X(1+x|0)", BASE_18.ctx))
    assert str(out.op) == "X(1 + x + x^3 + x^4 + x^6 + x^7|0)"
    assert out.classification == Classification.LOGICAL
    assert out.op.weight == 3 * 2


def test_lift_logical_gross_example():
    out = lift_logical(
        W_GROSS, parse_pauli("X(1+x+x^2+x^3+xy^3+x^5y^3|0)", BASE_72.ctx)
    )
    assert out.op.left == parse_poly(F_12, GROSS.ctx)
    assert out.classification == Classification.LOGICAL


def test_lift_weight_is_h_times_base():
    basis = BASE_18.logical_basis
    for op in basis.x_ops + basis.z_ops:
        out = lift_logical(W_54, op)
        assert out.op.weight == 3 * op.weight


def test_lift_refuses_an_operator_over_the_cover_ring():
    for text in ("X(x^8y^2|0)", "X(1+x|0)"):
        with pytest.raises(ContextMismatch):
            lift_logical(W_54, parse_pauli(text, COVER_54.ctx))
    with pytest.raises(ContextMismatch):
        project_logical(W_54, parse_pauli("X(1+x|0)", BASE_18.ctx))


def test_lift_refuses_non_kernel_input():
    with pytest.raises(Refusal):
        lift_logical(W_54, parse_pauli("X(x|0)", BASE_18.ctx))
    with pytest.raises(Refusal):
        project_logical(W_54, parse_pauli("X(x|0)", COVER_54.ctx))


def test_projection_sends_stabilizers_to_stabilizers():
    for mono in COVER_54.ctx.monomials():
        supp = stabilizer_support(COVER_54, mono, "X")
        out = project_logical(W_54, supp)
        assert out.classification in (Classification.STABILIZER,)


def test_distance_bounds_odd_h():
    base_d = exact_distance(BASE_18, 4)
    rep = distance_bounds(W_54, base_d, COVER_54.k)
    assert rep.lower_bound == 2 and rep.upper_bound == 6
    assert not rep.conjectural
    assert rep.upper_witness_classification == Classification.LOGICAL
    assert rep.upper_witness.weight == 6


def test_distance_bounds_even_h_tagged_conjectural():
    base_d = exact_distance(BASE_72, 6)
    rep = distance_bounds(W_GROSS, base_d, GROSS.k)
    assert rep.upper_bound == 12 and rep.conjectural
    assert rep.upper_witness.weight == 12
    assert rep.lower_bound is None


def test_distance_bounds_refuse_a_base_distance_that_is_not_exact():
    base_d = exact_distance(BASE_18, 1)
    assert base_d.kind == "lower-bound-interval"
    with pytest.raises(Refusal, match="exact base distance"):
        distance_bounds(W_54, base_d, COVER_54.k)


def test_distance_bounds_refuse_a_cover_k_that_is_not_the_covers():
    # the odd-h lower bound d <= d_h is a theorem only when k_h = k; this h = 5 cover has k_h = 40
    cover = parse_code_spec("l=15 m=3 A=1+y+y^2 B=1+x^5+x^10")
    w, base_d = check_cover(BASE_18, cover), exact_distance(BASE_18, 4)
    assert (w.h, cover.k, BASE_18.k, base_d.value) == (5, 40, 8, 2)
    with pytest.raises(Refusal, match="cover_k = 8 is not the cover's k = 40"):
        distance_bounds(w, base_d, BASE_18.k)
    rep = distance_bounds(w, base_d, cover.k)
    assert rep.lower_bound is None and rep.upper_bound == 10 and not rep.conjectural


def test_distance_bounds_h1():
    trivial = check_cover(BASE_18, BASE_18)
    base_d = exact_distance(BASE_18, 4)
    rep = distance_bounds(trivial, base_d, BASE_18.k)
    assert rep.upper_bound == rep.lower_bound == base_d.value


def test_wpl_candidate_count():
    split = parse_code_spec("l=6 m=3 A=1+y+y^2 B=1+x^2+x^4")
    w = check_cover(BASE_18, split)
    op = parse_pauli("X(0|1+y)", BASE_18.ctx)
    hits = weight_preserving_lift_search(w, op)
    assert w.h ** op.weight == 4
    assert any(str(h.op) == "X(0|1 + y)" for h in hits)  # the identity section
    # one cell of each fibre, ascending: the sheet assignments in (g1, g2) order
    assert [h.op for h in hits] == weight_preserving_lifts_reference(w, op) and len(hits) == 2


def test_wpl_identity_section_on_connected_cover_is_not_logical():
    # the example cover kills the identity-section lift: it leaves the kernel
    c36 = parse_code_spec("l=6 m=3 A=x^3+y+y^2 B=1+x+x^2")
    w36 = check_cover(BASE_18, c36)
    op36 = parse_pauli("X(0|1+y)", c36.ctx)
    assert c36.classify(op36) == Classification.NOT_IN_KERNEL
    assert not (c36.a * parse_poly("1+y", c36.ctx)).is_zero()


def test_wpl_budget_refusal():
    op = parse_pauli("X(1+x|0)", BASE_18.ctx)
    with pytest.raises(Refusal, match="9"):
        weight_preserving_lift_search(W_54, op, limit=8)


def test_wpl_refuses_a_forged_p_whose_fibres_share_a_cell():
    # p's lifts OR one cell of each fibre: the fibre over x, forged to hold cover
    # cell 0 of the fibre over 1, gives a lift of X(1+x|0) with one qubit
    w = check_cover(BASE_18, COVER_54)
    fibres = list(w.p.fibres)
    fibres[3] = fibres[3] & (fibres[3] - 1) | 1  # its lowest cell swapped for cell 0
    assert fibres[3].bit_count() == 3 and fibres[0] & fibres[3] == 1
    w.p.__dict__["fibres"] = tuple(fibres)
    assert min(v.bit_count() for v in w.p.lifts(0b1001)) == 1
    with pytest.raises(InternalConsistencyError, match="collapsed the support"):
        weight_preserving_lift_search(w, parse_pauli("X(1+x|0)", BASE_18.ctx))


def test_wpl_requires_nontrivial_logical():
    with pytest.raises(Refusal):
        weight_preserving_lift_search(W_54, parse_pauli("X(x|0)", BASE_18.ctx))


def test_classical_inherited_check():
    op = parse_pauli("X(0|1+y)", BASE_18.ctx)
    assert classical_inherited_check(BASE_18, op)
    assert classical_inherited_check(BASE_18, parse_pauli("X(0|0)", BASE_18.ctx))
    with pytest.raises(Refusal):
        classical_inherited_check(
            BASE_72, parse_pauli(f"X({G_6}|{H_6})", BASE_72.ctx)
        )


def test_classical_inherited_check_reads_z_blocks_against_the_transposes():
    # on BASE_72, A^T p = 0 but A p != 0 and B^T q = 0 but B q != 0
    p = parse_poly("1 + y + y^4 + y^5 + x^3 + x^3y^2", BASE_72.ctx)
    q = parse_poly("y^3 + xy^3 + x^2 + x^2y^3 + x^3y^3 + x^4", BASE_72.ctx)
    zero = Poly.zero(BASE_72.ctx)
    assert not (BASE_72.a * p).is_zero() and not (BASE_72.b * q).is_zero()
    assert classical_inherited_check(BASE_72, PauliOp("Z", p, zero))
    assert classical_inherited_check(BASE_72, PauliOp("Z", zero, q))
    for op in (PauliOp("Z", p, zero), PauliOp("Z", zero, q), PauliOp("Z", q, zero), PauliOp("Z", zero, p)):
        assert classical_inherited_check(BASE_72, op) == (BASE_72.syndrome(op) == 0)


def test_constant_section_composes_to_identity():
    pm = projection_map(W_54)
    for g in range(-1, 4):  # sheet arguments reduce mod u = 3
        sec = constant_section(W_54, g, 0)
        assert (sec.source, sec.target) == (BASE_18, COVER_54)
        for p, sigma in zip((pm.deg2, pm.deg1, pm.deg0), (sec.deg2, sec.deg1, sec.deg0)):
            assert p @ sigma == BinMatrix.identity(sigma.n_cols)
    assert constant_section(W_54, 2, 0) == constant_section(W_54, -1, 5)


def test_section_chain_map_commutes_detects():
    # the trivial cover's identity section is a genuine chain map; on real
    # covers the exponent wraparound breaks every constant section
    trivial = check_cover(BASE_18, BASE_18)
    assert constant_section(trivial, 0, 0).commutes()
    assert all(not constant_section(W_54, g, 0).commutes() for g in range(3))
    split = check_cover(BASE_18, parse_code_spec("l=6 m=3 A=1+y+y^2 B=1+x^2+x^4"))
    assert not constant_section(split, 0, 0).commutes()
