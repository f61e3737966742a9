import json
import subprocess
import sys

import jsonschema
import pytest

from bbcovers.cli import main
from bbcovers.tables import record_schema

CODE_72 = "l=6 m=6 A=x^3+y+y^2 B=y^3+x+x^2"
CODE_18 = "l=3 m=3 A=1+y+y^2 B=1+x+x^2"
GROSS = "l=12 m=6 A=x^3+y+y^2 B=y^3+x+x^2"
COVER_54 = "l=9 m=3 A=x^3+y+y^2 B=1+x+x^2"


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, [json.loads(line) for line in out.splitlines() if line]


def test_info_72(capsys):
    code, recs = run_json(capsys, ["info", CODE_72, "--distance", "--wmax", "6"])
    assert code == 0
    rec = recs[0]
    assert (rec["n"], rec["k"]) == (72, 12)
    assert rec["d"]["value"] == 6 and rec["d"]["kind"] == "exact"
    jsonschema.validate(rec, record_schema())


def test_info_distance_record_matches_schema(capsys):
    code, recs = run_json(capsys, ["info", CODE_18, "--distance", "--wmax", "1"])
    assert code == 0
    assert recs[0]["d"] == {"kind": "lower-bound-interval", "value": None, "method": "enumeration", "w_max": 1}
    jsonschema.validate(recs[0], record_schema())


def test_info_degenerate(capsys):
    code, recs = run_json(capsys, ["info", "l=1 m=1 A=1 B=1"])
    assert code == 0
    assert (recs[0]["n"], recs[0]["k"]) == (2, 0)


def test_info_oversized_lattice_is_refused_before_any_matrix(monkeypatch, capsys):
    from bbcovers.codes import MAX_LATTICE_CELLS
    from bbcovers.rings import Poly

    def fail(self):
        raise AssertionError("the refusal came too late: a matrix was built")

    monkeypatch.setattr(Poly, "to_matrix", fail)
    assert main(["info", "l=3000 m=3000 A=1+x B=1+y"]) == 2
    assert f"budget of {MAX_LATTICE_CELLS}" in capsys.readouterr().err


def test_oversized_lattice_is_refused_before_any_parse(monkeypatch, capsys, tmp_path):
    import bbcovers.codes as codes

    def fail(*args):
        raise AssertionError("the refusal came too late: a polynomial was parsed")

    monkeypatch.setattr(codes, "parse_poly", fail)
    assert main(["info", "l=400000000 m=1 A=x^399999999 B=1+x"]) == 2
    assert f"budget of {codes.MAX_LATTICE_CELLS}" in capsys.readouterr().err
    row = {"row": 1, "n": 800000000, "k": 2, "d": 2, "d_is_bound": False, "l": 400000000, "m": 1, "h": 1}
    fixtures = {"sequences": [{"name": "huge", "rows": [dict(row, A="x^399999999", B="1+x")]}]}
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps(fixtures))
    assert main(["sequence", "--fixtures", str(path)]) == 2
    assert f"budget of {codes.MAX_LATTICE_CELLS}" in capsys.readouterr().err


def test_enumerate_over_budget_is_refused_before_any_lift(monkeypatch, capsys):
    import bbcovers.covers as covers

    def fail(*args):
        raise AssertionError("the refusal came too late: a lift was generated")

    monkeypatch.setattr(covers, "lifts_of_poly", fail)
    assert main(["enumerate", CODE_18, "--lt", "180", "--mt", "3"]) == 2
    assert "enumeration budget" in capsys.readouterr().err


def test_info_malformed_poly_is_refused(capsys):
    code = main(["info", "l=3 m=3 A=1+z B=1"])
    assert code == 2
    assert "offset" in capsys.readouterr().err


def test_check_cover_gross(capsys):
    code, recs = run_json(capsys, ["check-cover", CODE_72, GROSS, "--verify-graph"])
    assert code == 0
    assert recs[0]["h"] == 2 and recs[0]["graph_verified"] is True


def test_check_cover_other_two_cover(capsys):
    code, recs = run_json(
        capsys, ["check-cover", CODE_18, "l=6 m=3 A=x^3+x^3y+y^2 B=1+x+x^2"]
    )
    assert code == 0 and recs[0]["h"] == 2


def test_check_cover_refusal_names_condition(capsys):
    code = main(["check-cover", CODE_18, "l=4 m=3 A=1+y+y^2 B=1+x+x^2"])
    assert code == 2
    assert "condition 1" in capsys.readouterr().err


def test_enumerate_histogram_and_schema(capsys):
    code, recs = run_json(capsys, ["enumerate", CODE_18, "--lt", "6", "--mt", "3"])
    assert code == 0
    summary = recs[-1]["summary"]
    assert summary["k_histogram"] == {"8": 3, "16": 1}
    schema = record_schema()
    for rec in recs[:-1]:
        jsonschema.validate(rec, schema)
        assert rec["canonical"] is True


def test_enumerate_round_trips_specs(capsys):
    from bbcovers.codes import parse_code_spec

    code, recs = run_json(capsys, ["enumerate", CODE_18, "--lt", "6", "--mt", "3"])
    for rec in recs[:-1]:
        spec = f"l={rec['l']} m={rec['m']} A={rec['A']} B={rec['B']}"
        parsed = parse_code_spec(spec)
        assert parsed.k == rec["k"]


def test_enumerate_connected_only(capsys):
    _, recs = run_json(capsys, ["enumerate", CODE_18, "--lt", "6", "--mt", "3", "--connected-only"])
    assert all(r["connected"] for r in recs[:-1])
    assert len(recs[:-1]) == 3


def test_enumerate_csv(capsys):
    code = main(["enumerate", CODE_18, "--lt", "6", "--mt", "3", "--csv"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0].startswith("l,m,A,B,n,k,h,connected,canonical")
    assert len(out) == 1 + 4


def test_sequence_k12(capsys):
    code, recs = run_json(capsys, ["sequence", "--set", "weight6-k12"])
    assert code == 0
    assert len(recs) == 9
    for rec in recs:
        assert rec["k_ok"] and rec["h_ok"]


def test_sequence_k6_distance_run(capsys):
    # published distances 2, 4, 6, 8, 8 for the first five heights; larger
    # rows fall back to lift-derived bounds
    code, recs = run_json(capsys, ["sequence", "--set", "weight6-k6", "--distance", "auto"])
    assert code == 0
    by_h = {rec["h_expected"]: rec["d"] for rec in recs}
    assert [by_h[h]["value"] for h in (1, 2, 3, 4, 5)] == [2, 4, 6, 8, 8]
    assert all(by_h[h]["mode"] == "exact" for h in (1, 2, 3, 4, 5))
    assert by_h[6]["kind"] == "upper-bound" and by_h[6]["method"] == "lift-derived"
    assert by_h[7]["lower_bound"] == 2  # odd h with k_h = k


def _fail_on_code_build(monkeypatch):
    import bbcovers.tables as tables

    def fail(*args, **kwargs):
        raise AssertionError("the refusal came too late: a code was built")

    monkeypatch.setattr(tables, "build_code", fail)


def test_sequence_unknown_set_refused(monkeypatch, capsys):
    _fail_on_code_build(monkeypatch)
    assert main(["sequence", "--set", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown sequence set 'nope'" in err and "weight6-k12" in err and "Traceback" not in err


_ROW = {"row": 0, "n": 18, "k": 8, "d": 2, "d_is_bound": False, "l": 3, "m": 3, "A": "1+y+y^2", "B": "1+x+x^2"}
BAD_FIXTURES = {
    "missing": None,
    "not-json": "{sequences: ",
    "wrong-shape": json.dumps({"sequences": 5}),
    "wrong-field-type": json.dumps({"sequences": [{"name": "a", "rows": [dict(_ROW, h=1, l="3")]}]}),
    # a good first set, so the second one's missing base row must be found before it runs
    "no-base-row": json.dumps(
        {"sequences": [{"name": "a", "rows": [dict(_ROW, h=1)]}, {"name": "b", "rows": [dict(_ROW, h=2)]}]}
    ),
    "two-base-rows": json.dumps({"sequences": [{"name": "a", "rows": [dict(_ROW, h=1), dict(_ROW, h=1)]}]}),
}


@pytest.mark.parametrize("text", BAD_FIXTURES.values(), ids=BAD_FIXTURES.keys())
def test_sequence_bad_fixtures_refused(monkeypatch, capsys, tmp_path, text):
    path = tmp_path / "fixtures.json"
    if text is not None:
        path.write_text(text)
    _fail_on_code_build(monkeypatch)
    assert main(["sequence", "--fixtures", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("refused: ") and "Traceback" not in captured.err
    assert not captured.out


def _readme_examples() -> list[list[str]]:
    """The argument lists of the bbcovers lines in the README's command-line block."""
    import shlex
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = block.replace("\\\n", " ").splitlines()
    return [shlex.split(c)[1:] for c in commands if c.startswith("bbcovers ")]


def test_readme_command_line_examples_exit_0(capsys):
    examples = _readme_examples()
    assert len(examples) == 8
    for argv in examples:
        assert main(argv) == 0, argv


def test_distance_cli(capsys):
    code, recs = run_json(capsys, ["distance", CODE_18, "--wmax", "4"])
    assert code == 0
    rec = recs[0]
    assert rec["z"]["value"] == 2 and rec["x"]["value"] == 2
    assert rec["dx_equals_dz"] is True


def test_lift_cli_example(capsys):
    code, recs = run_json(capsys, ["lift", CODE_18, COVER_54, "X(1+x|0)"])
    assert code == 0
    assert recs[0]["output"] == "X(1 + x + x^3 + x^4 + x^6 + x^7|0)"
    assert recs[0]["classification"] == "nontrivial-logical"


def test_project_cli_example(capsys):
    f12 = "1+x+x^2+x^3+xy^3+x^5y^3+x^6+x^7+x^8+x^9+x^7y^3+x^11y^3"
    code, recs = run_json(capsys, ["project", CODE_72, GROSS, f"X({f12}|0)"])
    assert code == 0
    assert recs[0]["output"] == "X(0|0)"
    assert recs[0]["classification"] == "stabilizer"


def test_wpl_cli(capsys):
    code, recs = run_json(
        capsys,
        ["wpl-search", CODE_18, "l=6 m=3 A=1+y+y^2 B=1+x^2+x^4", "X(0|1+y)"],
    )
    assert code == 0
    assert recs[0]["sections"] == 4
    assert "X(0|1 + y)" in recs[0]["hits"]


def test_wpl_cli_budget_refusal(capsys):
    code = main(
        ["wpl-search", CODE_18, COVER_54, "X(1+x|0)", "--limit", "4"]
    )
    assert code == 2
    assert "9" in capsys.readouterr().err


def test_aut_cli_cnot(capsys):
    code, recs = run_json(capsys, ["aut", CODE_18, "example-5-cnot"])
    assert code == 0
    rec = recs[0]
    assert rec["verified"] is True
    assert len(rec["ax"]) == 8


def test_aut_cli_zx_with_lift(capsys):
    code, recs = run_json(
        capsys, ["aut", CODE_18, "example-5-zx", "--lift-to", "l=9 m=3 A=1+y+y^2 B=1+x^4+x^5"]
    )
    assert code == 0
    assert recs[0]["verified"] is True and recs[0]["lift_h"] == 3


def test_aut_cli_shift(capsys):
    code, recs = run_json(capsys, ["aut", CODE_72, "shift:x^2y"])
    assert code == 0 and recs[0]["verified"] is True


def test_aut_unknown_name_refused(capsys):
    assert main(["aut", CODE_18, "no-such-aut"]) == 2


def test_aut_duality_file_matches_builtin(capsys, tmp_path):
    from bbcovers.autos import antipode_zx_duality
    from bbcovers.codes import parse_code_spec

    path = tmp_path / "dual.json"
    path.write_text(json.dumps(antipode_zx_duality(parse_code_spec(CODE_18)).to_json()))
    code, builtin = run_json(capsys, ["aut", CODE_18, "antipode-zx"])
    assert code == 0 and builtin[0]["verified"] is True
    code, from_file = run_json(capsys, ["aut", CODE_18, str(path)])
    assert code == 0
    for key in ("verified", "dx", "dz"):
        assert from_file[0][key] == builtin[0][key]


def _aut_file_data(**changes):
    """JSON of the y-swap automorphism of CODE_18 with some keys changed; None drops a key."""
    from bbcovers.autos import y_exponent_swap_automorphism
    from bbcovers.codes import parse_code_spec

    data = y_exponent_swap_automorphism(parse_code_spec(CODE_18)).to_json()
    data.update(changes)
    return json.dumps({key: value for key, value in data.items() if value is not None})


BAD_AUT_FILES = {
    "missing-file": None,
    "invalid-json": "{not json",
    "missing-key": _aut_file_data(w_x=None),
    "f-out-of-range": _aut_file_data(f=list(range(17)) + [18]),
    "f-not-a-permutation": _aut_file_data(f=[0] * 18),
    "f-wrong-length": _aut_file_data(f=list(range(12))),
    "unknown-kind": _aut_file_data(kind="strange"),
    "unknown-type": _aut_file_data(type="strange"),
    "w-wrong-shape": _aut_file_data(w_x="8x8\n" + "\n".join(["00"] * 8)),
    "not-an-object": json.dumps([1, 2]),
}


@pytest.mark.parametrize("text", BAD_AUT_FILES.values(), ids=BAD_AUT_FILES.keys())
def test_aut_bad_file_refused(capsys, tmp_path, text):
    path = tmp_path / "aut.json"
    if text is not None:
        path.write_text(text)
    assert main(["aut", CODE_18, str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_aut_file_round_trip_verifies(capsys, tmp_path):
    path = tmp_path / "aut.json"
    path.write_text(_aut_file_data())
    code, recs = run_json(capsys, ["aut", CODE_18, str(path)])
    assert code == 0 and recs[0]["verified"] is True


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bbcovers.cli", "info", "l=1 m=1 A=1 B=1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 2


def test_distance_coset_witness_breach_exits_3(monkeypatch, capsys):
    # the search's witness is re-checked with classify; a stabilizer fails it
    import bbcovers.distance as distance

    def stabilizer_witness(code, basis, w_max):
        stab = code.hz if basis == "Z" else code.hx
        return stab.rows[0].bit_count(), stab.rows[0]

    monkeypatch.setattr(distance, "_lightest_logical", stabilizer_witness)
    assert main(["distance", CODE_18, "--side", "z"]) == 3
    assert "internal invariant breach" in capsys.readouterr().err


def test_distance_both_sides_searches_each_side_once(monkeypatch, capsys):
    import bbcovers.cli as cli
    import bbcovers.distance as distance

    calls = []
    original = distance.distance_one_side

    def counting(code, basis, w_max):
        calls.append(basis)
        return original(code, basis, w_max)

    monkeypatch.setattr(cli, "distance_one_side", counting)
    monkeypatch.setattr(distance, "distance_one_side", counting)
    code, recs = run_json(capsys, ["distance", CODE_18, "--wmax", "4"])
    assert code == 0 and recs[0]["dx_equals_dz"] is True
    assert sorted(calls) == ["X", "Z"]


def test_info_distance_exits_3_when_the_duality_fails(monkeypatch, capsys):
    # both_sides certifies d_X = d_Z with the antipode duality instead of an X search
    import bbcovers.distance as distance

    monkeypatch.setattr(distance, "verify_zx_duality", lambda code, dual: False)
    assert main(["info", CODE_18, "--distance", "--wmax", "4"]) == 3
    assert "internal invariant breach" in capsys.readouterr().err


def test_format_flags_only_on_streaming_subcommands(capsys):
    for argv in (["info", CODE_18, "--csv"], ["info", CODE_18, "--json"], ["sequence", "--json"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def _refuse_to_build(monkeypatch):
    """Make building any enumeration job or side-class annihilator fail the test."""
    import bbcovers.covers as covers

    def fail(*args, **kwargs):
        raise AssertionError("the refusal came too late: a job or an annihilator was started")

    monkeypatch.setattr(covers, "_records", fail)
    monkeypatch.setattr(covers, "_side_class", fail)


def test_enumerate_job_budget_exit_2(monkeypatch, capsys):
    # 11^3 raw lifts per side at h = 11: 1,771,561 codes, over the budget
    _refuse_to_build(monkeypatch)
    assert main(["enumerate", CODE_18, "--lt", "33", "--mt", "3", "--no-dedup"]) == 2
    assert "enumeration budget" in capsys.readouterr().err


def test_enumerate_k_routes_disagreeing_exit_3(monkeypatch, capsys):
    import dataclasses

    import bbcovers.covers as covers
    from bbcovers.gf2 import RowReducer

    side_class = covers._side_class
    monkeypatch.setattr(
        covers, "_side_class", lambda p: dataclasses.replace(side_class(p), ann_t=RowReducer(p.ctx.dim))
    )
    assert main(["enumerate", CODE_18, "--lt", "9", "--mt", "3"]) == 3
    captured = capsys.readouterr()
    assert "internal invariant breach" in captured.err and "rank H_X" in captured.err
    assert not captured.out
