"""Fixture access: published code sequences and enumeration reference counts.

The fixture file is data, not code; each sequence row carries the printed
parameters, the defining polynomials, and its cover height h over the
sequence's base row.

``TableRow.d_is_bound`` is true when the source prints d only as an upper
bound, not as a proven minimum, and false when the printed d is exact.
Nothing in the package reads it: distances are always computed, never taken
from the table, so a flagged value is not a certificate and the true
distance may be lower.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .codes import BBCode, Refusal, build_code, parse_code_spec


@dataclass(frozen=True)
class TableRow:
    sequence: str
    row: int
    n: int
    k: int
    d: int
    d_is_bound: bool
    l: int
    m: int
    h: int
    a: str
    b: str

    def code(self) -> BBCode:
        return build_code(self.a, self.b, self.l, self.m)

    def spec_line(self) -> str:
        return f"l={self.l} m={self.m} A={self.a} B={self.b}"


@dataclass(frozen=True)
class EnumerationCase:
    base_spec: str
    lt: int
    mt: int
    h: int
    histogram: dict[int, int]

    def base(self) -> BBCode:
        return parse_code_spec(self.base_spec)


def _load(fixtures_path: str | Path | None = None) -> dict:
    if fixtures_path is not None:
        try:
            return json.loads(Path(fixtures_path).read_text())
        except (OSError, ValueError) as exc:
            raise Refusal(f"cannot read fixtures file {str(fixtures_path)!r}: {exc}") from None
    ref = resources.files("bbcovers.fixtures").joinpath("sequence_tables.json")
    return json.loads(ref.read_text())


# The keys of a fixture row in TableRow field order (after ``sequence``), with their JSON types.
_ROW_FIELDS = {
    "row": int, "n": int, "k": int, "d": int, "d_is_bound": bool, "l": int, "m": int, "h": int, "A": str, "B": str
}


def _sequence_rows(seq: dict) -> list[TableRow]:
    name = seq["name"]
    if type(name) is not str:
        raise TypeError(f"sequence name {name!r} is not a string")
    rows = [[r[key] for key in _ROW_FIELDS] for r in seq["rows"]]
    for values in rows:
        wrong = [key for key, v in zip(_ROW_FIELDS, values) if type(v) is not _ROW_FIELDS[key]]
        if wrong:
            raise TypeError(f"a row of sequence {name!r} has {', '.join(wrong)} of the wrong type")
    return [TableRow(name, *values) for values in rows]


def sequence_tables(fixtures_path: str | Path | None = None) -> dict[str, list[TableRow]]:
    data = _load(fixtures_path)
    try:
        return {seq["name"]: _sequence_rows(seq) for seq in data["sequences"]}
    except (KeyError, TypeError) as exc:
        raise Refusal(f"sequence tables have the wrong shape: {type(exc).__name__}: {exc}") from None


def all_rows(fixtures_path: str | Path | None = None) -> list[TableRow]:
    return [row for rows in sequence_tables(fixtures_path).values() for row in rows]


def base_row(rows: list[TableRow]) -> TableRow:
    ones = [r for r in rows if r.h == 1]
    if len(ones) != 1:
        raise Refusal(f"sequence needs exactly one h=1 row, found {len(ones)}")
    return ones[0]


def enumeration_cases(fixtures_path: str | Path | None = None) -> list[EnumerationCase]:
    data = _load(fixtures_path)
    return [
        EnumerationCase(
            base_spec=c["base"],
            lt=c["lt"],
            mt=c["mt"],
            h=c["h"],
            histogram={int(k): v for k, v in c["histogram"].items()},
        )
        for c in data["enumeration"]
    ]


def record_schema() -> dict:
    ref = resources.files("bbcovers.fixtures").joinpath("record.schema.json")
    return json.loads(ref.read_text())
