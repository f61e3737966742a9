"""Command-line front end.

Subcommands: info, check-cover, enumerate, sequence, distance, project, lift,
wpl-search, aut.  Each subcommand yields records and ``main`` writes them: one
JSON object per line, or, with --csv (enumerate and sequence only), a header
row from the first record's keys and then one CSV row per record, with dict
and list cells JSON-encoded.  Exit codes: 0 success (also when the reader
closes the pipe early), 2 refused precondition or parse error, 3 internal
invariant breach.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields

from .autos import (
    CodeAutomorphism,
    block_swap_zx_duality,
    antipode_zx_duality,
    lift_automorphism,
    logical_action,
    shift_automorphism,
    verify_automorphism,
    y_exponent_swap_automorphism,
)
from .chainmaps import distance_bounds, lift_logical, project_logical, weight_preserving_lift_search
from .codes import BBCode, InternalConsistencyError, Refusal, parse_code_spec, parse_pauli
from .covers import check_cover, enumerate_covers, verify_cover_isomorphism
from .distance import _sides_agree, distance_one_side, exact_distance
from .rings import PolyParseError, parse_poly
from .tables import base_row, sequence_tables

# Exhaustive search stays interactive up to these sizes; larger table rows
# get lift-derived bounds instead.
DEFAULT_EXACT_N = 100
DEFAULT_EXACT_D = 8


def _digits(text: str) -> int:
    """The argparse type of counts and bounds: ASCII [0-9]+ only, unlike int()."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected ASCII digits, got {text!r}")
    return int(text)


def _write(records, as_csv: bool) -> None:
    """Print each record as a JSON line, or as CSV rows under a header of the first record's keys."""
    if not as_csv:
        for rec in records:
            print(json.dumps(rec))
        return
    writer = csv.writer(sys.stdout)
    for i, rec in enumerate(records):
        if i == 0:
            writer.writerow(rec.keys())
        writer.writerow(json.dumps(v) if isinstance(v, (dict, list)) else v for v in rec.values())


def cmd_info(args):
    code = parse_code_spec(args.spec)
    rec = {
        "l": code.l,
        "m": code.m,
        "A": str(code.a),
        "B": str(code.b),
        "n": code.n,
        "k": code.k,
        "check_weight": code.check_weight,
    }
    if args.distance:
        rec["d"] = exact_distance(code, args.wmax, both_sides=True).as_dict()
    yield rec


def cmd_check_cover(args):
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
    yield rec


def cmd_enumerate(args):
    enum = enumerate_covers(parse_code_spec(args.base), args.lt, args.mt, dedup=not args.no_dedup)
    for rec in enum.records:
        if rec.connected or not args.connected_only:
            yield {
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
    if not args.csv:
        yield {"summary": {"classes": len(enum.records), "k_histogram": enum.k_histogram}}


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


def cmd_sequence(args):
    tables = sequence_tables(args.fixtures)
    if args.set and args.set not in tables:
        raise Refusal(f"unknown sequence set {args.set!r}; known sets: {', '.join(sorted(tables))}")
    names = [args.set] if args.set else sorted(tables)
    base_specs = [base_row(tables[name]) for name in names]  # every set checked before any code is built
    for name, base_spec in zip(names, base_specs):
        base = base_spec.code()
        base_d = exact_distance(base, base_spec.d, both_sides=True) if args.distance != "none" else None
        for row in tables[name]:
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
            yield rec


def cmd_distance(args):
    code = parse_code_spec(args.spec)
    if args.side == "both":
        dz = distance_one_side(code, "Z", args.wmax)
        dx = distance_one_side(code, "X", args.wmax)
        yield {"z": dz.as_dict(), "x": dx.as_dict(), "dx_equals_dz": _sides_agree(dz, dx)}
    else:
        yield distance_one_side(code, args.side.upper(), args.wmax).as_dict()


def _witness_for(args):
    return check_cover(parse_code_spec(args.base), parse_code_spec(args.cover))


def cmd_carry(args):
    """project (cover logical to base) or lift (base logical to cover), by args.command."""
    witness = _witness_for(args)
    project = args.command == "project"
    op = parse_pauli(args.op, (witness.cover if project else witness.base).ctx)
    out = (project_logical if project else lift_logical)(witness, op)
    yield {"input": str(op), "output": str(out.op), "classification": out.classification.value}


def cmd_wpl(args):
    witness = _witness_for(args)
    op = parse_pauli(args.op, witness.base.ctx)
    hits = weight_preserving_lift_search(witness, op, limit=args.limit)
    yield {"input": str(op), "sections": witness.h ** op.weight, "hits": [str(h.op) for h in hits]}


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


def cmd_aut(args):
    code = parse_code_spec(args.spec)
    aut = _builtin_aut(code, args.name)
    rec = {"name": args.name, "verified": verify_automorphism(code, aut)}
    if rec["verified"]:
        act = logical_action(code, aut, code.logical_basis)
        rec.update((f.name, str(getattr(act, f.name)).splitlines()) for f in fields(act))
    if args.lift_to:
        witness = check_cover(code, parse_code_spec(args.lift_to))
        lift_automorphism(witness, aut)
        rec["lifted"] = True
        rec["lift_h"] = witness.h
    yield rec


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bbcovers", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, *positionals, csv=False, **options):
        """One subcommand; each keyword option ``some_flag`` becomes ``--some-flag``."""
        p = sub.add_parser(name, help=help)
        for positional in positionals:
            p.add_argument(positional)
        for dest, kwargs in options.items():
            p.add_argument("--" + dest.replace("_", "-"), **kwargs)
        if csv:
            p.add_argument("--csv", action="store_true", help="CSV rows after a header row")
        p.set_defaults(func=func)

    flag = {"action": "store_true"}
    wmax = {"type": _digits, "default": DEFAULT_EXACT_D}
    order = {"type": _digits, "required": True}
    carry = ("base", "cover", "op")
    command("info", cmd_info, "parameters of a code spec", "spec", distance=flag, wmax=wmax)
    command("check-cover", cmd_check_cover, "decide the h-cover relation", "base", "candidate", verify_graph=flag)
    command("enumerate", cmd_enumerate, "all cover classes at target lattice parameters", "base", csv=True,
            lt=order, mt=order, no_dedup=flag, connected_only=flag)
    command("sequence", cmd_sequence, "recompute the bundled sequence tables", csv=True,
            set={"default": None}, fixtures={"default": None},
            distance={"choices": ["none", "auto", "bounds-only"], "default": "none"}, wmax=wmax)
    command("distance", cmd_distance, "exact distance search", "spec",
            wmax=wmax, side={"choices": ["z", "x", "both"], "default": "both"})
    command("project", cmd_carry, "project a cover logical to the base", *carry)
    command("lift", cmd_carry, "lift a base logical to the cover", *carry)
    command("wpl-search", cmd_wpl, "weight-preserving lift search", *carry,
            limit={"type": _digits, "default": 1 << 20})
    command("aut", cmd_aut, "verify and apply a named automorphism", "spec", "name", lift_to={"default": None})
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _write(args.func(args), getattr(args, "csv", False))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`bbcovers sequence | head`); devnull takes the rest so the exit flush succeeds
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (Refusal, PolyParseError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
