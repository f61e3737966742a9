"""The three benchmark workloads: census, laws and distance.

Each workload has a ``setup`` that loads the fixtures, parses the base codes,
warms their caches and generates the seeded inputs (as code-spec strings),
and an ``items`` generator that yields one pass over the fixed item set.  A
pass parses every cover from its spec, so covers start cold on every pass
while base codes stay warm.  Every item checks its outputs and raises
``Mismatch`` when one differs from the expected value.

Item counts per size stratum are fixed, so every seed runs the same number of
items of each kind; only which lifts, classes and rows are drawn changes.
Draws from a small pool spread evenly over it (``spread_draw``), so a seed
cannot load a pass with the costly members of a stratum.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator


class Mismatch(Exception):
    """A bbcovers output differs from the value the benchmark expects."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@dataclass
class Item:
    label: str  # the inputs, printed when the item fails
    run: Callable[[], None]
    timed: bool = True  # counted in the per-item latency sample


def spread_draw(rng: random.Random, pool: list, k: int) -> list:
    """k seeded draws from pool; each member is drawn k // len(pool) times or once more."""
    out: list = []
    while len(out) < k:
        out.extend(rng.sample(pool, min(len(pool), k - len(out))))
    return out


def warm(code) -> None:
    """Fill the lazily computed caches of a base code through its public API."""
    code.hx_t, code.hz_t
    basis = code.logical_basis
    if basis.k:
        x, z = basis.x_ops[0], basis.z_ops[0]
        code.classify(x)
        code.classify(z)
        code.x_class_coords(x.support_vector())
        code.z_class_coords(z.support_vector())


def lift_spec(bb, base, lt: int, mt: int, rng: random.Random) -> str:
    """Spec line of a random lift: each base term moves to a random sheet."""
    u, t = lt // base.l, mt // base.m

    def lift(poly) -> str:
        terms = []
        for term in poly.terms:
            i, j = divmod(rng.randrange(u * t), t)
            terms.append(bb.rings.Monomial(term.a + base.l * i, term.b + base.m * j).render())
        return "+".join(terms)

    return f"l={lt} m={mt} A={lift(base.a)} B={lift(base.b)}"


@dataclass
class Sequence:
    name: str
    rows: list
    base_row: object
    base: object  # parsed and warmed BBCode


def load_sequences(bb) -> list[Sequence]:
    out = []
    for name, rows in bb.tables.sequence_tables().items():
        brow = bb.tables.base_row(rows)
        base = bb.codes.parse_code_spec(brow.spec_line())
        warm(base)
        out.append(Sequence(name, rows, brow, base))
    return out


# --- census: cover enumeration plus derived-graph certification ----------------

# The weight-8, h = 5 case: 15,625 classes at (30, 2).
CENSUS_W8 = ("l=6 m=2 A=1+x^5+x^3+x^5y B=y+x^2y+x^5y+x^3", 30, 2)
# Certifications per enumeration case; a case with fewer classes certifies each
# of them more than once, so every case weighs the same in the latency sample.
CENSUS_SAMPLE = 48


@dataclass
class CensusCase:
    label: str
    base: object
    lt: int
    mt: int
    h: int
    histogram: dict | None  # reference k-histogram, or None for the h^6 case


@dataclass
class CensusState:
    seed: int
    cases: list[CensusCase]


def census_setup(bb, seed: int) -> CensusState:
    refs = [(c.base_spec, c.lt, c.mt, c.histogram) for c in bb.tables.enumeration_cases()]
    refs.append((*CENSUS_W8, None))  # last: census_items runs it between the certifications
    bases: dict[str, object] = {}
    cases = []
    for spec, lt, mt, hist in refs:
        if spec not in bases:
            bases[spec] = bb.codes.parse_code_spec(spec)
            warm(bases[spec])
        base = bases[spec]
        h = (lt // base.l) * (mt // base.m)
        cases.append(CensusCase(f"{spec} -> ({lt}, {mt})", base, lt, mt, h, hist))
    return CensusState(seed, cases)


def _certify(bb, case: CensusCase, spec: str, k: int) -> None:
    cover = bb.codes.parse_code_spec(spec)
    expect(cover.k == k, f"k = {cover.k}, enumeration recorded {k}")
    witness = bb.covers.check_cover(case.base, cover)
    expect(witness.h == case.h, f"h = {witness.h}, expected {case.h}")
    expect(bb.covers.verify_cover_isomorphism(case.base, cover, witness), "derived graph differs")


def _census_picks(st: CensusState, case: CensusCase, records) -> list[tuple]:
    rng = random.Random(f"census:{st.seed}:{case.label}")
    picks = sorted(spread_draw(rng, range(len(records)), CENSUS_SAMPLE))
    return [(case, f"l={case.lt} m={case.mt} A={records[i].a} B={records[i].b}", records[i].k) for i in picks]


def census_items(bb, st: CensusState) -> Iterator[Item]:
    found: dict[str, tuple] = {}

    def enumeration(case: CensusCase) -> Item:
        def run() -> None:
            enum = bb.covers.enumerate_covers(case.base, case.lt, case.mt, workers=1)
            found[case.label] = enum.records
            if case.histogram is not None:
                expect(enum.k_histogram == case.histogram, f"histogram {enum.k_histogram}")
            else:
                expect(len(enum.records) <= case.h**6, f"{len(enum.records)} classes > h^6")
                if case.h % 2:
                    low = [r.k for r in enum.records if r.k < case.base.k]
                    expect(not low, f"{len(low)} classes with k_h < k = {case.base.k}")

        return Item(f"enumerate {case.label}", run, timed=False)

    def certifications(picks: list[tuple]) -> Iterator[Item]:
        for case, spec, k in picks:
            yield Item(f"certify {spec}", lambda a=(case, spec, k): _certify(bb, *a))

    # Certifications run in a seeded order, half before and half after the long
    # weight-8 enumeration, so that a slow spell of the shared machine does not
    # fall on one case or on one phase of the pass.  Only the sampled classes
    # stay alive while they are certified, as they would for a caller.
    order = random.Random(f"census-order:{st.seed}")
    *small, big = st.cases
    for case in small:
        yield enumeration(case)
    picks = [p for case in small for p in _census_picks(st, case, found.pop(case.label, ()))]
    order.shuffle(picks)
    half = len(picks) // 2
    yield from certifications(picks[:half])
    yield enumeration(big)
    rest = picks[half:] + _census_picks(st, big, found.pop(big.label, ()))
    order.shuffle(rest)
    yield from certifications(rest)


# --- laws: chain-map and automorphism transport on random lifts --------------

LAWS_LIFTS_PER_ROW = 6


@dataclass
class LawsInput:
    seq: Sequence
    row: object
    spec: str
    shift: tuple[int, int]  # cover automorphism x^a y^b
    base_shift: tuple[int, int] | None  # base shift along a direction the cover does not extend


def laws_setup(bb, seed: int) -> list[LawsInput]:
    rng = random.Random(f"laws:{seed}")
    inputs = []
    for seq in load_sequences(bb):
        base = seq.base
        for row in seq.rows:
            if row.h == 1:
                continue
            u, t = row.l // base.l, row.m // base.m
            for _ in range(LAWS_LIFTS_PER_ROW):
                spec = lift_spec(bb, base, row.l, row.m, rng)
                shift = (rng.randrange(row.l), rng.randrange(row.m))
                directions = []
                if u == 1 and base.l > 1:
                    directions.append((rng.randrange(1, base.l), 0))
                if t == 1 and base.m > 1:
                    directions.append((0, rng.randrange(1, base.m)))
                base_shift = rng.choice(directions) if directions else None
                inputs.append(LawsInput(seq, row, spec, shift, base_shift))
    rng.shuffle(inputs)  # spreads each row over the pass, as in census
    return inputs


def _laws_item(bb, inp: LawsInput) -> None:
    base = inp.seq.base
    cover = bb.codes.parse_code_spec(inp.spec)
    w = bb.covers.check_cover(base, cover)
    h = w.h
    expect(h == inp.row.h, f"h = {h}, expected {inp.row.h}")
    pm = bb.chainmaps.projection_map(w)
    tm = bb.chainmaps.lifting_map(w)
    parity = bb.chainmaps.compose_p_tau(w)
    expect(parity == ("identity" if h % 2 else "zero"), f"p.tau = {parity} for h = {h}")
    if h % 2:
        expect(cover.k >= base.k, f"k_h = {cover.k} < k = {base.k}")
        ident = bb.gf2.BinMatrix.identity(base.k)
        for side in "ZX":
            ip = bb.chainmaps.induced_homology_map(pm, side).matrix
            it = bb.chainmaps.induced_homology_map(tm, side).matrix
            expect(ip @ it == ident, f"ip.it != I on the {side} side")
    basis = base.logical_basis
    for op in basis.x_ops + basis.z_ops:
        lifted = bb.chainmaps.lift_logical(w, op)
        expect(lifted.op.weight == h * op.weight, f"lift of {op} has weight {lifted.op.weight}")

    mono = bb.rings.Monomial(*inp.shift)
    aut = bb.autos.shift_automorphism(cover, mono)
    expect(bb.autos.verify_automorphism(cover, aut), f"shift {mono.render()} does not verify")
    # an automorphism or duality preserves the pairing of the paired basis
    ident = bb.gf2.BinMatrix.identity(cover.k)
    action = bb.autos.logical_action(cover, aut, cover.logical_basis)
    expect(action.ax @ action.az.transpose() == ident, "logical action breaks the pairing")
    dual = bb.autos.antipode_zx_duality(cover)
    expect(bb.autos.verify_zx_duality(cover, dual), "antipode duality does not verify")
    action = bb.autos.duality_action(cover, dual, cover.logical_basis)
    expect(action.dx @ action.dz.transpose() == ident, "duality action breaks the pairing")
    if inp.base_shift is not None:
        bmono = bb.rings.Monomial(*inp.base_shift)
        lifted = bb.autos.lift_automorphism(w, bb.autos.shift_automorphism(base, bmono))
        same = bb.autos.shift_automorphism(cover, bmono)
        expect(lifted.f == same.f, f"lift of base shift {bmono.render()} is not the cover shift")


def laws_items(bb, inputs: list[LawsInput]) -> Iterator[Item]:
    for inp in inputs:
        label = f"{inp.spec} shift={inp.shift} base_shift={inp.base_shift}"
        yield Item(label, lambda inp=inp: _laws_item(bb, inp))


# --- distance: sequence --distance auto plus small odd-h covers -----------------

EXACT_MAX_N = 100  # the exact regime of `bbcovers sequence --distance auto`
EXACT_MAX_D = 8

# Exact rows whose both-sided search costs seconds.  Each group lists options
# of about the same cost (the seconds noted, one 2.1 GHz Xeon vCPU); each pass
# searches the rows of one option per group, drawn from the seed.  The other
# rows get lift bounds (h > 1) or only the k and h checks (h = 1), so one run
# stays within its time budget, every row is searched on some seed, and the
# draw barely moves wall_s.  The first group holds the n = 72 searches, which
# set the peak memory, so every seed draws one of them.
HEAVY_GROUPS = (
    ((("weight6-k8", 72),), (("weight8-k14", 72),), (("weight8-k10", 72),)),  # 7.4-7.7 s
    (
        (("weight6-k6", 70),),  # 7.0 s
        (("weight8-k14-alt", 64), ("weight6-k6", 56)),  # 5.0 + 2.1 s
        (("weight8-k12", 64), ("weight8-k8", 56)),  # 4.9 + 2.2 s
    ),
    ((("weight6-k8", 36),), (("weight8-k12", 32),)),  # 2.8 s
)

# A minimum-weight Z logical of each base code, from exact_distance(base, d).
# Setup re-checks each one; lift bounds transport it to the covers.
BASE_WITNESSES = {
    "weight6-k12": "Z(1 + y + y^2 + y^3 + x^3y^2 + x^3y^4|0)",
    "weight6-k10": "Z(1 + x^3 + x^9|1 + x^9 + x^28)",
    "weight6-k8": "Z(1 + y|0)",
    "weight6-k6": "Z(1|1)",
    "weight8-k14": "Z(1 + y + y^2 + y^3 + x^3y^4 + x^3y^5|y + x^3y)",
    "weight8-k14-alt": "Z(1 + y + y^2 + x^3 + x^4y^3 + x^5y^2|x^3 + x^5y^2)",
    "weight8-k12": "Z(x^2 + x^4y|y + x^2)",
    "weight8-k10": "Z(1 + x + xy + x^3|0)",
    "weight8-k8": "Z(xy + x^2 + x^5|x^3)",
}

# Odd-h covers with n <= 60 and k_h = k, grouped by lattice and d_h; written by
# make_small_covers.py.  The search cost grows steeply with d_h, so each pass
# draws the same number from every group.
SMALL_COVERS = Path(__file__).resolve().parent / "small_covers.json"
SMALL_PER_GROUP = 36
# Every row except the seed's costly exact searches runs this many times per
# pass, so the cheap items are sampled all through the pass.
ROW_REPEATS = 3


@dataclass
class DistanceState:
    sequences: list[Sequence]
    base_d: dict  # sequence name -> exact DistanceResult with a witness
    exact: set  # (sequence, n) rows searched exactly in this run
    small: list  # (Sequence, spec, d_h)
    order: list  # item indices in run order (rows first, then small covers); rows repeat


def distance_setup(bb, seed: int) -> DistanceState:
    rng = random.Random(f"distance:{seed}")
    sequences = load_sequences(bb)
    base_d = {}
    for seq in sequences:
        op = bb.codes.parse_pauli(BASE_WITNESSES[seq.name], seq.base.ctx)
        d = seq.base_row.d
        expect(op.weight == d, f"{seq.name}: stored witness has weight {op.weight} != d = {d}")
        expect(
            seq.base.classify(op) == bb.codes.Classification.LOGICAL,
            f"{seq.name}: stored witness is not a nontrivial logical",
        )
        base_d[seq.name] = bb.distance.DistanceResult(
            kind="exact", value=d, method="enumeration", w_max=d, witness=op
        )
    heavy = {key for group in HEAVY_GROUPS for option in group for key in option}
    exact = {
        (seq.name, row.n)
        for seq in sequences
        for row in seq.rows
        if row.n <= EXACT_MAX_N and row.d <= EXACT_MAX_D and (seq.name, row.n) not in heavy
    }
    drawn = {key for group in HEAVY_GROUPS for key in rng.choice(group)}
    exact.update(drawn)
    by_name = {seq.name: seq for seq in sequences}
    small = []
    for lattice in json.loads(SMALL_COVERS.read_text()):
        seq = by_name[lattice["sequence"]]
        for d_h, specs in lattice["by_d"].items():
            small.extend((seq, spec, int(d_h)) for spec in spread_draw(rng, specs, SMALL_PER_GROUP))
    keys = [(seq.name, row.n) for seq in sequences for row in seq.rows]
    order = [i for i, key in enumerate(keys) for _ in range(1 if key in drawn else ROW_REPEATS)]
    order.extend(range(len(keys), len(keys) + len(small)))
    rng.shuffle(order)  # spreads the costly rows over the pass, as in census
    return DistanceState(sequences, base_d, exact, small, order)


def _distance_row(bb, st: DistanceState, seq: Sequence, row) -> None:
    code = row.code()
    expect(code.k == row.k, f"k = {code.k}, published {row.k}")
    w = bb.covers.check_cover(seq.base, code)
    expect(w.h == row.h, f"h = {w.h}, published {row.h}")
    if (seq.name, row.n) in st.exact:
        res = bb.distance.exact_distance(code, row.d, both_sides=True)
        expect(res.kind == "exact" and res.value == row.d, f"d = {res.value} ({res.kind}), published {row.d}")
    elif row.h > 1:
        base_d = st.base_d[seq.name]
        rep = bb.chainmaps.distance_bounds(w, base_d, code.k)
        expect(rep.upper_bound == row.h * base_d.value, f"upper bound {rep.upper_bound}")
        expect(rep.upper_bound >= row.d, f"upper bound {rep.upper_bound} < published d = {row.d}")
        lower = base_d.value if row.h % 2 and code.k == seq.base.k else None
        expect(rep.lower_bound == lower, f"lower bound {rep.lower_bound}, expected {lower}")
        expect(rep.conjectural == (row.h % 2 == 0), "conjectural flag does not follow the parity of h")


def _distance_small(bb, seq: Sequence, spec: str, d_h: int) -> None:
    cover = bb.codes.parse_code_spec(spec)
    expect(cover.k == seq.base.k, f"k_h = {cover.k} != k = {seq.base.k}")
    w = bb.covers.check_cover(seq.base, cover)
    d = seq.base_row.d
    res = bb.distance.distance_one_side(cover, "Z", w.h * d)
    expect(res.kind == "exact", f"no logical of weight <= {w.h * d}")
    expect(d <= res.value <= w.h * d, f"d_h = {res.value} outside [{d}, {w.h * d}]")
    expect(res.value == d_h, f"d_h = {res.value}, recorded {d_h}")


def distance_items(bb, st: DistanceState) -> Iterator[Item]:
    items = []
    for seq in st.sequences:
        for row in seq.rows:
            mode = "exact" if (seq.name, row.n) in st.exact else "bounds"
            label = f"{seq.name} n={row.n} {mode}: {row.spec_line()}"
            items.append(Item(label, lambda a=(st, seq, row): _distance_row(bb, *a)))
    for seq, spec, d_h in st.small:
        items.append(Item(f"small cover of {seq.name}: {spec}", lambda a=(seq, spec, d_h): _distance_small(bb, *a)))
    for i in st.order:
        yield items[i]


WORKLOADS = {
    "census": (census_setup, census_items),
    "laws": (laws_setup, laws_items),
    "distance": (distance_setup, distance_items),
}
