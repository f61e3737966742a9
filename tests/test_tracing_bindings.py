"""The benchmark tracer can still bind every name it wraps.

perfbench/tracing.py wraps bbcovers functions, methods and cached properties
by name; a rename or removal in the package would make ``run.py --trace 1``
fail.  This installs the tracer without running any workload and checks that
every per-layer span of BENCHMARK.json is wired and every patch is undone.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import bbcovers

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("gf2", "rings", "codes", "distance", "covers", "chainmaps", "autos", "tables", "cli")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_binds_every_traced_name():
    for name in MODULES:
        importlib.import_module(f"bbcovers.{name}")
    tracer = _load_tracing().Tracer(bbcovers)
    try:
        tracer.install()  # raises if any wrapped name is gone
        patched = [(owner, attr, vars(owner)[attr], original) for owner, attr, original in tracer._patches]
    finally:
        tracer.uninstall()
    assert patched
    assert all(now is not original for _, _, now, original in patched)
    assert all(vars(owner)[attr] is original for owner, attr, _, original in patched)
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    spans = {m["name"].rsplit(".", 1)[0] for m in per_layer if m["name"].endswith((".calls", ".s"))}
    counters = {name.rsplit(".", 1)[0] for name in tracer.counts}
    assert spans <= set(tracer.spans) | counters


def test_cover_verification_times_both_edge_sets():
    from bbcovers.codes import parse_code_spec
    from bbcovers.covers import check_cover

    base = parse_code_spec("l=6 m=6 A=x^3+y+y^2 B=y^3+x+x^2")
    cover = parse_code_spec("l=12 m=6 A=x^3+y+y^2 B=y^3+x+x^2")
    witness = check_cover(base, cover)
    tracer = _load_tracing().Tracer(bbcovers)
    tracer.install()
    try:
        assert bbcovers.covers.verify_cover_isomorphism(base, cover, witness)
    finally:
        tracer.uninstall()
    assert tracer.spans["covers.verify_iso"][0] == 1
    assert tracer.spans["covers.tanner_graph"][0] == tracer.spans["covers.derived_graph"][0] == 1


def test_enumeration_builds_codes_without_dense_products_or_transposes(monkeypatch):
    from bbcovers.codes import parse_code_spec
    from bbcovers.tables import enumeration_cases

    covers = bbcovers.covers
    # jobs run the construction check that BBCode.__init__ runs, not a copy of it
    assert covers._column_0 is bbcovers.codes._column_0
    column_0, calls = covers._column_0, []
    monkeypatch.setattr(covers, "_column_0", lambda *args: calls.append(args) or column_0(*args))
    case = enumeration_cases()[0]
    base = parse_code_spec(case.base_spec)
    tracer = _load_tracing().Tracer(bbcovers)
    tracer.install()
    try:
        records = covers.enumerate_covers(base, case.lt, case.mt).records
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    # once per job, and once more for the base's own k, which is read as one job
    assert len(records) > 1 and len(calls) == len(records) + 1
    assert metrics["codes.build.calls"] == 0
    assert metrics["gf2.mul.calls"] == metrics["gf2.transpose.calls"] == 0
    # k comes from the side-class annihilators, not from rank_hz
    assert metrics["codes.k.calls"] == 0


def test_chain_maps_and_automorphisms_run_without_dense_products_transposes_or_ranks():
    # every square of these affine cell maps is decided on generator columns
    from bbcovers.codes import parse_code_spec
    from bbcovers.covers import check_cover
    from bbcovers.rings import Monomial

    base = parse_code_spec("l=3 m=3 A=1+y+y^2 B=1+x+x^2")
    cover = parse_code_spec("l=9 m=3 A=x^3+y+y^2 B=1+x+x^2")
    witness = check_cover(base, cover)
    chainmaps, autos = bbcovers.chainmaps, bbcovers.autos
    tracer = _load_tracing().Tracer(bbcovers)
    tracer.install()
    try:
        chainmaps.projection_map(witness)
        chainmaps.lifting_map(witness)
        assert autos.verify_automorphism(cover, autos.shift_automorphism(cover, Monomial(4, 2)))
        assert autos.verify_zx_duality(cover, autos.antipode_zx_duality(cover))
        lifted = autos.lift_automorphism(witness, autos.shift_automorphism(base, Monomial(0, 1)))
    finally:
        tracer.uninstall()
    assert lifted.f == bbcovers.autos.shift_automorphism(cover, Monomial(0, 1)).f
    metrics = tracer.metrics()
    for name in ("projection_map", "lifting_map"):
        assert metrics[f"chainmaps.{name}.calls"] == 1
    for name in ("verify_automorphism", "verify_zx_duality", "lift_automorphism"):
        assert metrics[f"autos.{name}.calls"] == 1
    assert metrics["gf2.mul.calls"] == metrics["gf2.transpose.calls"] == metrics["gf2.rank.calls"] == 0
