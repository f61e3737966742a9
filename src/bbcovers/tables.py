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

from .codes import BBCode, build_code, parse_code_spec


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
        return json.loads(Path(fixtures_path).read_text())
    ref = resources.files("bbcovers.fixtures").joinpath("sequence_tables.json")
    return json.loads(ref.read_text())


def sequence_tables(fixtures_path: str | Path | None = None) -> dict[str, list[TableRow]]:
    data = _load(fixtures_path)
    out: dict[str, list[TableRow]] = {}
    for seq in data["sequences"]:
        rows = [
            TableRow(
                sequence=seq["name"],
                row=r["row"],
                n=r["n"],
                k=r["k"],
                d=r["d"],
                d_is_bound=r["d_is_bound"],
                l=r["l"],
                m=r["m"],
                h=r["h"],
                a=r["A"],
                b=r["B"],
            )
            for r in seq["rows"]
        ]
        out[seq["name"]] = rows
    return out


def all_rows(fixtures_path: str | Path | None = None) -> list[TableRow]:
    return [row for rows in sequence_tables(fixtures_path).values() for row in rows]


def base_row(rows: list[TableRow]) -> TableRow:
    ones = [r for r in rows if r.h == 1]
    if len(ones) != 1:
        raise ValueError(f"sequence needs exactly one h=1 row, found {len(ones)}")
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
