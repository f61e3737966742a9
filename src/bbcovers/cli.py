"""Command-line front end.

Subcommands: info, check-cover, enumerate, sequence, distance, project, lift,
wpl-search, aut.  Output is one JSON object, or one JSON object per line for
the streaming subcommands enumerate and sequence; only those two take --csv,
which prints a header row and then one CSV row per record.  Exit codes: 0
success, 2 refused precondition or parse error, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .autos import (
    CodeAutomorphism,
    block_swap_zx_duality,
    antipode_zx_duality,
    duality_action,
    lift_automorphism,
    lift_zx_duality,
    logical_action,
    shift_automorphism,
    verify_automorphism,
    verify_zx_duality,
    y_exponent_swap_automorphism,
    ZXDuality,
)
from .chainmaps import lift_logical, project_logical, weight_preserving_lift_search
from .codes import BBCode, InternalConsistencyError, Refusal, parse_code_spec, parse_pauli
from .covers import check_cover, enumerate_covers, verify_cover_isomorphism
from .distance import _sides_agree, distance_one_side, exact_distance
from .rings import PolyParseError, parse_poly
from .tables import base_row, sequence_tables

# Exhaustive search stays interactive up to these sizes; larger table rows
# get lift-derived bounds instead.
DEFAULT_EXACT_N = 100
DEFAULT_EXACT_D = 8


def _emit(obj: dict, args) -> None:
    if getattr(args, "csv", False):
        writer = csv.writer(sys.stdout)
        writer.writerow(obj.values())
    else:
        print(json.dumps(obj))


def _emit_csv_header(obj: dict, args) -> None:
    if getattr(args, "csv", False):
        csv.writer(sys.stdout).writerow(obj.keys())


def _code_record(code: BBCode) -> dict:
    return {
        "l": code.l,
        "m": code.m,
        "A": str(code.a),
        "B": str(code.b),
        "n": code.n,
        "k": code.k,
    }


def cmd_info(args) -> int:
    code = parse_code_spec(args.spec)
    rec = _code_record(code)
    rec["check_weight"] = code.check_weight
    if args.distance:
        rec["d"] = exact_distance(code, args.wmax, both_sides=True).as_dict()
    _emit(rec, args)
    return 0


def cmd_check_cover(args) -> int:
    base = parse_code_spec(args.base)
    cand = parse_code_spec(args.candidate)
    witness = check_cover(base, cand)
    rec = {
        "base": base.spec_line(),
        "cover": cand.spec_line(),
        "u": witness.u,
        "t": witness.t,
        "h": witness.h,
        "a_matching": [[c.render(), b.render()] for c, b in witness.a_matching],
        "b_matching": [[c.render(), b.render()] for c, b in witness.b_matching],
    }
    if args.verify_graph:
        rec["graph_verified"] = verify_cover_isomorphism(base, cand, witness)
    _emit(rec, args)
    return 0


def cmd_enumerate(args) -> int:
    base = parse_code_spec(args.base)
    enum = enumerate_covers(base, args.lt, args.mt, dedup=not args.no_dedup)
    first = True
    for rec in enum.records:
        if args.connected_only and not rec.connected:
            continue
        row = {
            "l": args.lt,
            "m": args.mt,
            "A": str(rec.a),
            "B": str(rec.b),
            "n": 2 * args.lt * args.mt,
            "k": rec.k,
            "h": enum.h,
            "connected": rec.connected,
            "canonical": enum.deduplicated,
        }
        if first:
            _emit_csv_header(row, args)
            first = False
        _emit(row, args)
    if not args.csv:
        print(json.dumps({"summary": {"classes": len(enum.records), "k_histogram": enum.k_histogram}}))
    return 0


def _sequence_distance(row, code: BBCode, witness, base_d, mode: str, wmax: int) -> dict:
    """Exact search at desk scale, lift-derived bounds beyond; mode is tagged."""
    exact_ok = code.n <= DEFAULT_EXACT_N and row.d <= DEFAULT_EXACT_D
    if mode != "bounds-only" and exact_ok:
        res = exact_distance(code, min(row.d, wmax) if row.d else wmax, both_sides=True)
        rec = res.as_dict()
        rec["mode"] = "exact"
        return rec
    if base_d is None or witness.h == 1:
        return {"kind": "not-computed", "mode": "bounds-only"}
    from .chainmaps import distance_bounds

    rep = distance_bounds(witness, base_d, code.k)
    return {
        "kind": "upper-bound",
        "value": rep.upper_bound,
        "method": "lift-derived",
        "w_max": 0,
        "lower_bound": rep.lower_bound,
        "conjectural": rep.conjectural,
        "mode": "bounds-only",
    }


def cmd_sequence(args) -> int:
    tables = sequence_tables(args.fixtures)
    if args.set and args.set not in tables:
        raise Refusal(f"unknown sequence set {args.set!r}; known sets: {', '.join(sorted(tables))}")
    names = [args.set] if args.set else sorted(tables)
    base_specs = [base_row(tables[name]) for name in names]  # every set checked before any code is built
    first = True
    for name, base_spec in zip(names, base_specs):
        rows = tables[name]
        base = base_spec.code()
        base_d = None
        if args.distance != "none":
            base_d = exact_distance(base, base_spec.d, both_sides=True)
        for row in rows:
            code = row.code()
            rec = {
                "sequence": name,
                "n": row.n,
                "k_expected": row.k,
                "k_computed": code.k,
                "k_ok": code.k == row.k,
                "h_expected": row.h,
            }
            witness = check_cover(base, code)
            rec["h_computed"] = witness.h
            rec["h_ok"] = witness.h == row.h
            if args.distance != "none":
                rec["d"] = _sequence_distance(row, code, witness, base_d, args.distance, args.wmax)
            if first:
                _emit_csv_header(rec, args)
                first = False
            _emit(rec, args)
    return 0


def cmd_distance(args) -> int:
    code = parse_code_spec(args.spec)
    if args.side == "both":
        dz = distance_one_side(code, "Z", args.wmax)
        dx = distance_one_side(code, "X", args.wmax)
        rec = {"z": dz.as_dict(), "x": dx.as_dict(), "dx_equals_dz": _sides_agree(dz, dx)}
    else:
        rec = distance_one_side(code, args.side.upper(), args.wmax).as_dict()
    _emit(rec, args)
    return 0


def _witness_for(args):
    base = parse_code_spec(args.base)
    cand = parse_code_spec(args.cover)
    return check_cover(base, cand)


def cmd_project(args) -> int:
    witness = _witness_for(args)
    op = parse_pauli(args.op, witness.cover.ctx)
    out = project_logical(witness, op)
    _emit({"input": str(op), "output": str(out.op), "classification": out.classification.value}, args)
    return 0


def cmd_lift(args) -> int:
    witness = _witness_for(args)
    op = parse_pauli(args.op, witness.base.ctx)
    out = lift_logical(witness, op)
    _emit({"input": str(op), "output": str(out.op), "classification": out.classification.value}, args)
    return 0


def cmd_wpl(args) -> int:
    witness = _witness_for(args)
    op = parse_pauli(args.op, witness.base.ctx)
    hits = weight_preserving_lift_search(witness, op, limit=args.limit)
    _emit(
        {
            "input": str(op),
            "sections": witness.h ** op.weight,
            "hits": [str(h.op) for h in hits],
        },
        args,
    )
    return 0


def _builtin_aut(code: BBCode, name: str):
    if name == "example-5-cnot":
        return y_exponent_swap_automorphism(code)
    if name == "example-5-zx":
        return block_swap_zx_duality(code)
    if name == "antipode-zx":
        return antipode_zx_duality(code)
    if name.startswith("shift:"):
        mono = parse_poly(name.split(":", 1)[1], code.ctx)
        if mono.weight != 1:
            raise Refusal("shift automorphism takes a single monomial")
        return shift_automorphism(code, mono.terms[0])
    if name.endswith(".json"):
        try:
            with open(name) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise Refusal(f"cannot read automorphism file {name!r}: {exc}") from None
        return CodeAutomorphism.from_json(data, code)
    raise Refusal(f"unknown automorphism name {name!r}")


def _matrix_rows(m) -> list[str]:
    return str(m).splitlines()


def cmd_aut(args) -> int:
    code = parse_code_spec(args.spec)
    aut = _builtin_aut(code, args.name)
    rec = {"name": args.name}
    basis = code.logical_basis
    if isinstance(aut, ZXDuality):
        rec["verified"] = verify_zx_duality(code, aut)
        if rec["verified"]:
            action = duality_action(code, aut, basis)
            rec["dx"] = _matrix_rows(action.dx)
            rec["dz"] = _matrix_rows(action.dz)
    else:
        rec["verified"] = verify_automorphism(code, aut)
        if rec["verified"]:
            action = logical_action(code, aut, basis)
            rec["ax"] = _matrix_rows(action.ax)
            rec["az"] = _matrix_rows(action.az)
    if args.lift_to:
        witness = check_cover(code, parse_code_spec(args.lift_to))
        lifted = (
            lift_zx_duality(witness, aut)
            if isinstance(aut, ZXDuality)
            else lift_automorphism(witness, aut)
        )
        rec["lifted"] = True
        rec["lift_h"] = witness.h
    _emit(rec, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bbcovers", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def csv_flag(p):
        p.add_argument("--csv", action="store_true", help="CSV rows after a header row")

    p = sub.add_parser("info", help="parameters of a code spec")
    p.add_argument("spec")
    p.add_argument("--distance", action="store_true")
    p.add_argument("--wmax", type=int, default=DEFAULT_EXACT_D)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("check-cover", help="decide the h-cover relation")
    p.add_argument("base")
    p.add_argument("candidate")
    p.add_argument("--verify-graph", action="store_true")
    p.set_defaults(func=cmd_check_cover)

    p = sub.add_parser("enumerate", help="all cover classes at target lattice parameters")
    p.add_argument("base")
    p.add_argument("--lt", type=int, required=True)
    p.add_argument("--mt", type=int, required=True)
    p.add_argument("--no-dedup", action="store_true")
    p.add_argument("--connected-only", action="store_true")
    csv_flag(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("sequence", help="recompute the bundled sequence tables")
    p.add_argument("--set", default=None)
    p.add_argument("--fixtures", default=None)
    p.add_argument("--distance", choices=["none", "auto", "bounds-only"], default="none")
    p.add_argument("--wmax", type=int, default=DEFAULT_EXACT_D)
    csv_flag(p)
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("distance", help="exact distance search")
    p.add_argument("spec")
    p.add_argument("--wmax", type=int, default=DEFAULT_EXACT_D)
    p.add_argument("--side", choices=["z", "x", "both"], default="both")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("project", help="project a cover logical to the base")
    p.add_argument("base")
    p.add_argument("cover")
    p.add_argument("op")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("lift", help="lift a base logical to the cover")
    p.add_argument("base")
    p.add_argument("cover")
    p.add_argument("op")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("wpl-search", help="weight-preserving lift search")
    p.add_argument("base")
    p.add_argument("cover")
    p.add_argument("op")
    p.add_argument("--limit", type=int, default=1 << 20)
    p.set_defaults(func=cmd_wpl)

    p = sub.add_parser("aut", help="verify and apply a named automorphism")
    p.add_argument("spec")
    p.add_argument("name")
    p.add_argument("--lift-to", default=None)
    p.set_defaults(func=cmd_aut)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (Refusal, PolyParseError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
