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


def _load(fixtures_path: str | Path | None, what: str, build):
    """build(the fixture data), or Refusal for a file that cannot be read or for
    data of the wrong shape: a missing key or a value of the wrong JSON type."""
    if fixtures_path is not None:
        try:
            data = json.loads(Path(fixtures_path).read_text())
        except (OSError, ValueError) as exc:
            raise Refusal(f"cannot read fixtures file {str(fixtures_path)!r}: {exc}") from None
    else:
        data = json.loads(resources.files("bbcovers.fixtures").joinpath("sequence_tables.json").read_text())
    try:
        return build(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise Refusal(f"{what} have the wrong shape: {type(exc).__name__}: {exc}") from None


# The keys of a fixture row in TableRow field order (after ``sequence``), and of an
# enumeration case in EnumerationCase field order, with their JSON types.
_ROW_FIELDS = {
    "row": int, "n": int, "k": int, "d": int, "d_is_bound": bool, "l": int, "m": int, "h": int, "A": str, "B": str
}
_CASE_FIELDS = {"base": str, "lt": int, "mt": int, "h": int, "histogram": dict}


def _values(record: dict, fields: dict[str, type], what: str) -> list:
    """The values of ``fields`` in record, in their order; TypeError for one of the wrong type."""
    values = [record[key] for key in fields]
    wrong = [key for key, v in zip(fields, values) if type(v) is not fields[key]]
    if wrong:
        raise TypeError(f"{what} has {', '.join(wrong)} of the wrong type")
    return values


def _sequence(seq: dict) -> tuple[str, list[TableRow]]:
    name, rows = _values(seq, {"name": str, "rows": list}, "a sequence")
    return name, [TableRow(name, *_values(r, _ROW_FIELDS, f"a row of sequence {name!r}")) for r in rows]


def sequence_tables(fixtures_path: str | Path | None = None) -> dict[str, list[TableRow]]:
    return _load(fixtures_path, "sequence tables", lambda d: dict(map(_sequence, d["sequences"])))


def all_rows(fixtures_path: str | Path | None = None) -> list[TableRow]:
    return [row for rows in sequence_tables(fixtures_path).values() for row in rows]


def base_row(rows: list[TableRow]) -> TableRow:
    ones = [r for r in rows if r.h == 1]
    if len(ones) != 1:
        raise Refusal(f"sequence needs exactly one h=1 row, found {len(ones)}")
    return ones[0]


def _case(c: dict) -> EnumerationCase:
    *fields, histogram = _values(c, _CASE_FIELDS, "an enumeration case")
    return EnumerationCase(*fields, {int(k): v for k, v in histogram.items()})


def enumeration_cases(fixtures_path: str | Path | None = None) -> list[EnumerationCase]:
    return _load(fixtures_path, "enumeration cases", lambda d: [_case(c) for c in d["enumeration"]])


def record_schema() -> dict:
    ref = resources.files("bbcovers.fixtures").joinpath("record.schema.json")
    return json.loads(ref.read_text())
