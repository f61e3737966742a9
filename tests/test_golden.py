"""Golden outputs: exact CLI stdout, exit codes, logical and kernel bases.

Each CLI call records the exit code and the sha256 of its exact stdout; the
basis digests cover the logical basis support vectors, the H_X / H_Z
kernel bases and the H_X / H_Z rows of every published row.  A refactor of
the elimination, polynomial, graph or chain-map code must leave all of them
unchanged.
"""

import hashlib
import json

import pytest

from bbcovers.autos import CodeAutomorphism, antipode_zx_duality, lift_automorphism, y_exponent_swap_automorphism
from bbcovers.cli import _builtin_aut, main
from bbcovers.codes import Refusal, parse_code_spec
from bbcovers.covers import check_cover
from bbcovers.gf2 import BinMatrix
from bbcovers.tables import all_rows

CODE_18 = "l=3 m=3 A=1+y+y^2 B=1+x+x^2"
CODE_72 = "l=6 m=6 A=x^3+y+y^2 B=y^3+x+x^2"
GROSS = "l=12 m=6 A=x^3+y+y^2 B=y^3+x+x^2"
COVER_54 = "l=9 m=3 A=x^3+y+y^2 B=1+x+x^2"
WEIGHT_8 = "l=6 m=2 A=1+x^5+x^3+x^5y B=y+x^2y+x^5y+x^3"
COVER_W8 = "l=12 m=2 A=1+x^9+x^5+x^11y B=y+x^8y+x^5y+x^9"
COVER_6X6 = "l=6 m=6 A=1+y+y^2 B=1+x+x^5y^3"
WEIGHT_6_K10 = "l=31 m=1 A=1+x^6+x^27 B=1+x^15+x^24"

CLI_GOLDEN = [
    (["info", CODE_18], 0, "43cdd0d5216446cd74da95e84987caff55c15ba782de5260753fd0961c750df6"),
    (["info", CODE_18, "--distance"], 0, "ae18a0b72416ba6be0956b81582138c8d2865bf8ca600d10eb5249abd1666528"),
    (
        ["check-cover", CODE_72, GROSS, "--verify-graph"],
        0,
        "d17d9aa872594d91860312501a4848d263231750b3941f4fd8ce661d873729a0",
    ),
    (
        ["enumerate", CODE_18, "--lt", "9", "--mt", "3"],
        0,
        "392442c3d185fcb7c3038eda9b8d0f406b16e448a1281ee71f12bdf3275646a4",
    ),
    (
        ["enumerate", CODE_18, "--lt", "9", "--mt", "3", "--csv"],
        0,
        "81709dcacbe2c709e5e6ccb18c2f4853aeb8a685ccd6cbdba11a3acc0e546b36",
    ),
    (["sequence"], 0, "1097738b2047377afa90be87ca89f642596162f8ba3f67513d09c3db33651050"),
    # 20 exact rows (n <= 100, d <= 8) and 41 rows of lift-derived bounds
    (
        ["sequence", "--distance", "auto"],
        0,
        "5c1eea6decf37155e339632e6613e474f5dd1d2c47f288dfee97fdf3f15a745b",
    ),
    (
        ["distance", CODE_18, "--wmax", "4"],
        0,
        "c62afc5ec45065cf4b17b6caf59ab8ab199478137642358d9239cb88fcca3fc6",
    ),
    (
        ["distance", CODE_18, "--wmax", "4", "--side", "z"],
        0,
        "847e17212f6861f0a803c6f535c95161db2a0fc42f675a7ab483a655d965a8a5",
    ),
    (
        ["lift", CODE_18, COVER_54, "X(1+x|0)"],
        0,
        "9f2006076a0b8c692ac447d534eee866e826567a7618b816b661b78729d34179",
    ),
    (
        ["project", CODE_18, COVER_54, "X(1|0)"],
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    # h = 3: the fibre of 1 + x projects back onto it
    (
        ["project", CODE_18, COVER_54, "X(1+x+x^3+x^4+x^6+x^7|0)"],
        0,
        "ba044b1177af729a485dbf77fa7a60d06b5959df9a9a0cdfd2bc52be7a438ae2",
    ),
    # h = 4: the terms cancel in pairs, leaving X(0|0)
    (
        ["project", CODE_18, COVER_6X6, "X(1 + y^3 + x + xy^3 + x^3 + x^3y^3 + x^4 + x^4y^3|0)"],
        0,
        "23124fd9791a2202cdda505d9f8369c77cabe4d3bf32d0c778fb6fce22facf0e",
    ),
    (
        ["wpl-search", CODE_18, "l=6 m=3 A=1+y+y^2 B=1+x^2+x^4", "X(0|1+y)"],
        0,
        "9bae63d7ab2f25fa96a33a51f73aca9230bcc2ab17dace56807156527938d77c",
    ),
    (
        ["aut", CODE_18, "example-5-cnot", "--lift-to", COVER_54],
        0,
        "80f8da17fc73506a071f16f324d5136289bba0c65c23d196d1b094774daa4133",
    ),
    (
        ["aut", CODE_18, "example-5-zx", "--lift-to", "l=9 m=3 A=1+y+y^2 B=1+x^4+x^5"],
        0,
        "be354b0cda717cbeaf795608a6e9e5b52e789cba4e08e965816bb033eaee6567",
    ),
    (["aut", CODE_18, "antipode-zx"], 0, "2c81f50f7be718dba71f14cea8c59b3e43263b07578dc2074d448cdd446b9250"),
    (["aut", GROSS, "shift:x^2y"], 0, "f2232227c85673929517dde1e08d002fb49a2955fda39175d245e8d93b0128b4"),
    # weight-8 classes in canonical-form order
    (
        ["enumerate", WEIGHT_8, "--lt", "12", "--mt", "2"],
        0,
        "bf4f0f40e8454dcd15fe846afb0440c2f09104904bacdebad15ef297d2d02558",
    ),
    # the largest enumeration: 15,625 weight-8 classes at h = 5
    (
        ["enumerate", WEIGHT_8, "--lt", "30", "--mt", "2"],
        0,
        "fd7eee4a6ad2abdb4c518e0f0dae75a6ebdde38da12a5cf0c0394dddfd0ae825",
    ),
    # 2,401 classes of the weight6-k10 base at (31, 7): 49 side classes per side,
    # each eliminating a 217 x 217 circulant for its annihilators
    (
        ["enumerate", WEIGHT_6_K10, "--lt", "31", "--mt", "7"],
        0,
        "38ef1c2911e5bfad3dd30a311f88dc94b491389e8f423020a545532db9ced653",
    ),
    # every lift, not one per class: records sorted by (A terms, B terms)
    (
        ["enumerate", CODE_18, "--lt", "6", "--mt", "3", "--no-dedup"],
        0,
        "507b5f0689d1f8f010bbce7aea52b7aa082ae70583791999ef2cbe78b69c4344",
    ),
    # 4,096 lifts with both x and y lifted, and weight-8 lifts, each its own class
    (
        ["enumerate", CODE_18, "--lt", "6", "--mt", "6", "--no-dedup"],
        0,
        "2640b9063b371458074f2a99a9d2fb66b36ab739faf8a0864c139a832aeb68a1",
    ),
    (
        ["enumerate", WEIGHT_8, "--lt", "12", "--mt", "2", "--no-dedup"],
        0,
        "8a8ad1c0d9bf6bcdbb0d2c4a1485422663a442b66a33bb441a2aa2f57ba0befc",
    ),
    (
        ["enumerate", CODE_18, "--lt", "9", "--mt", "3", "--no-dedup", "--csv", "--connected-only"],
        0,
        "19306f70c4e257bcf355b0160fd0688c83a396a083fbe9d72665602975a5928c",
    ),
    # both x and y lifted
    (
        ["enumerate", CODE_18, "--lt", "9", "--mt", "6"],
        0,
        "2a06b63a04e26996995c9ca6ab4d7d522c268eac39d33a5db962b21578d712d8",
    ),
    (
        ["check-cover", WEIGHT_8, COVER_W8, "--verify-graph"],
        0,
        "c108ac904703bf92447d9258be7585c0775c474782036f6bc43fa2eac0c56f85",
    ),
    # chain maps and sheet-wise lifts along both x and y (u = t = 2)
    (
        ["lift", CODE_18, COVER_6X6, "X(1+x|0)"],
        0,
        "0b0cfa4cc4b408b90bb7e63133ca02c1f3a3b2a03ce8f626c527d9e7515c4653",
    ),
    (
        ["wpl-search", CODE_18, COVER_6X6, "X(1+x|0)"],
        0,
        "32960e0a78950b4ef6871fded9edbdbaf244b43b2fd8bac76fea2643d4e875c4",
    ),
    (
        ["aut", CODE_18, "example-5-zx", "--lift-to", "l=6 m=6 A=1+y^2+y^4 B=1+x^2+x^4"],
        0,
        "892825c846213e05a7573227c776bb65a228a18c0e379280893139c9484919d1",
    ),
    # the CSV header comes from the first row that survives the filter
    (
        ["enumerate", CODE_18, "--lt", "6", "--mt", "3", "--csv", "--connected-only"],
        0,
        "a0acb0da3ce29d24955eed58696dac8017d67bb29961a3140cfd0062a4516be9",
    ),
    (
        ["sequence", "--set", "weight6-k8", "--csv"],
        0,
        "10138aeaf684780243173180ae075633462970c4637c48dce9b16c0e028434f7",
    ),
    (
        ["sequence", "--set", "weight6-k12", "--distance", "bounds-only"],
        0,
        "69d7803ed98f03608e8bc8becbf12aa74dadc7620390f781272d7505737ed6fd",
    ),
]


def _general_automorphism_json(code) -> dict:
    """f = id, W_Z = I and W_X = I + e_0 g^T, for g = e_1 + e_2 + e_4 + e_5: a nonzero
    vector with g H_X = 0 and g_0 = 0, so W_X H_X = H_X and W_X is invertible but
    no permutation, which sends it down the rank path of the verifier."""
    g = 0b110110
    assert g & 1 == 0 and code.hx.vec_mul(g) == 0
    w_x = BinMatrix(9, 9, (1 | g,) + BinMatrix.identity(9).rows[1:])
    ident = BinMatrix.identity(9).to_text()
    return {"type": "automorphism", "kind": "general", "f": list(range(18)), "w_x": w_x.to_text(), "w_z": ident}


# `aut` on JSON files, each written as aut.json in the working directory, so
# that the "name" field of the record is the same in every run
AUT_FILE_GOLDEN = [
    (
        lambda code: y_exponent_swap_automorphism(code).to_json(),
        ["--lift-to", COVER_54],
        "75a6dc71adebbbbb89624a52452897ad98087b68fefb8fa5b5cbff240ea51427",
    ),
    (
        lambda code: antipode_zx_duality(code).to_json(),
        [],
        "b6ed32790ab14af76b3aa33eb681b8daca8e671576c3b04aa4e10f75de437f31",
    ),
    (_general_automorphism_json, [], "fc50fa1f13ff046502739b526d97c8a634d52e7aa4a305e5b886b99ad90ff6f3"),
]

# What every `aut --lift-to` case above and in test_cli.py lifts, which its stdout
# does not print: the sha256 of the lifted map's JSON, or the refusal message
LIFT_GOLDEN = [
    (CODE_18, "example-5-cnot", COVER_54, "9ba908f5eb26f5916b4a9d68512fb38ea92ce2851c35dec8247b26e7e9ea3e30"),
    (
        CODE_18,
        "example-5-zx",
        "l=9 m=3 A=1+y+y^2 B=1+x^4+x^5",
        "5263994b8a4b0da184973f29f2fd1410948c10735a283d770597bafc2ccd6784",
    ),
    (
        CODE_18,
        "example-5-zx",
        "l=6 m=6 A=1+y^2+y^4 B=1+x^2+x^4",
        "1f111aa5126cb5f6f06fd45b37ef008ca74d86fbad77f46738a02fa25578f0a8",
    ),
    # the y-swap read back from its JSON form, as `aut aut.json --lift-to` reads it
    (CODE_18, "aut.json", COVER_54, "9ba908f5eb26f5916b4a9d68512fb38ea92ce2851c35dec8247b26e7e9ea3e30"),
    (CODE_72, "example-5-cnot", GROSS, "the supplied map does not verify on the base code"),
]

LOGICAL_BASIS_SHA = "e2f4603cd48b0960f918b08667169bf0d94ac7c6dbcfe322ba3821f5f2499991"
KERNEL_BASIS_SHA = "773b7022f7f331d04e420f45bde9a5cbc87f69238a4ab16a943098ebbcb2bb55"
CHECK_MATRIX_SHA = "930fca6bd800b5333ebea3722673a239dc37059cd196e80b72ec7b7fb258bdfa"


@pytest.mark.parametrize(
    "argv,exit_code,stdout_sha", CLI_GOLDEN, ids=[" ".join(argv) for argv, _, _ in CLI_GOLDEN]
)
def test_cli_stdout_is_golden(capsys, argv, exit_code, stdout_sha):
    assert main(argv) == exit_code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha, out


@pytest.mark.parametrize(
    "to_json,options,stdout_sha", AUT_FILE_GOLDEN, ids=["example-5-cnot", "antipode-zx", "general"]
)
def test_aut_file_stdout_is_golden(capsys, tmp_path, monkeypatch, to_json, options, stdout_sha):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "aut.json").write_text(json.dumps(to_json(parse_code_spec(CODE_18))))
    assert main(["aut", CODE_18, "aut.json", *options]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha, out


@pytest.mark.parametrize(
    "base,name,cover,expected", LIFT_GOLDEN, ids=[f"{name} {cover}" for _, name, cover, _ in LIFT_GOLDEN]
)
def test_the_lifted_maps_are_golden(tmp_path, monkeypatch, base, name, cover, expected):
    code = parse_code_spec(base)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "aut.json").write_text(json.dumps(y_exponent_swap_automorphism(code).to_json()))
    aut = _builtin_aut(code, name)
    assert isinstance(aut, CodeAutomorphism)
    witness = check_cover(code, parse_code_spec(cover))
    try:
        lifted = json.dumps(lift_automorphism(witness, aut).to_json(), sort_keys=True)
    except Refusal as exc:
        assert str(exc) == expected
    else:
        assert hashlib.sha256(lifted.encode()).hexdigest() == expected, lifted


def test_published_bases_are_golden():
    logical = hashlib.sha256()
    kernel = hashlib.sha256()
    rows = all_rows()
    assert len(rows) == 61
    for row in rows:
        code = row.code()
        basis = code.logical_basis
        logical.update(repr([op.support_vector() for op in basis.x_ops + basis.z_ops]).encode())
        kernel.update(repr((code.hx.kernel_basis().rows, code.hz.kernel_basis().rows)).encode())
    assert logical.hexdigest() == LOGICAL_BASIS_SHA
    assert kernel.hexdigest() == KERNEL_BASIS_SHA


def test_published_check_matrices_are_golden():
    digest = hashlib.sha256()
    rows = all_rows()
    assert len(rows) == 61
    for row in rows:
        code = row.code()
        digest.update(repr((code.hx.rows, code.hz.rows)).encode())
    assert digest.hexdigest() == CHECK_MATRIX_SHA
