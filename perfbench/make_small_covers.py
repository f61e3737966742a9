"""Regenerate small_covers.json, the odd-h covers the distance workload draws from.

For each lattice in ``LATTICES`` it enumerates every cover class of the base
code, keeps the classes with n <= 60 and k_h = k, and groups their spec lines
by d_h.  The distance workload draws a fixed number of covers from each
group, so every seed searches the same mix of distances.

    python3 perfbench/make_small_covers.py > perfbench/small_covers.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# (sequence, base spec, d, l~, m~): [[18,8,2]] and [[14,6,2]] at h = 3.
LATTICES = (
    ("weight6-k8", "l=3 m=3 A=1+y+y^2 B=1+x+x^2", 2, 9, 3),
    ("weight6-k8", "l=3 m=3 A=1+y+y^2 B=1+x+x^2", 2, 3, 9),
    ("weight6-k6", "l=7 m=1 A=1+x^2+x^3 B=1+x^2+x^3", 2, 21, 1),
    ("weight6-k6", "l=7 m=1 A=1+x^2+x^3 B=1+x^2+x^3", 2, 7, 3),
)


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import bbcovers as bb

    out = []
    for sequence, spec, d, lt, mt in LATTICES:
        base = bb.parse_code_spec(spec)
        enum = bb.enumerate_covers(base, lt, mt, workers=1)
        by_d: dict[str, list[str]] = {}
        for rec in enum.records:
            code = rec.code()
            if rec.k != base.k or code.n > 60:
                continue
            d_h = bb.distance_one_side(code, "Z", enum.h * d).value
            by_d.setdefault(str(d_h), []).append(code.spec_line())
        out.append({"sequence": sequence, "lt": lt, "mt": mt, "by_d": dict(sorted(by_d.items()))})
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
