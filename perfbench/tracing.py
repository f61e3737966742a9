"""Per-layer spans and counters, recorded from outside the bbcovers package.

The tracer replaces the public functions and methods of each bbcovers module
with timing wrappers, and restores them on ``uninstall``.  A function is
replaced at every module attribute that binds it, not only where it is
defined: ``cli`` and the package namespace import most functions by name, so
patching the defining module alone would miss those callers.

Each timed span keeps calls, inclusive seconds and self seconds (inclusive
minus the time of wrapped children).  A few counters are computed from the
arguments and results, so they repeat exactly between runs on the same
inputs; ``DETERMINISTIC`` names them.
"""

from __future__ import annotations

import sys
from functools import cached_property
from math import comb
from time import perf_counter

# Counters that must repeat exactly between two traced passes over the same inputs.
DETERMINISTIC = (
    "gf2.kernel_basis.bits",
    "rings.poly_make.calls",
    "distance.coset.candidates",
    "distance.mitm.candidates",
    "covers.enumerate.classes",
    "distance.one_side_per_code",
)


def mitm_candidates(n: int, w_stop: int) -> int:
    """Half-support combinations the meet-in-the-middle search walks for w = 1..w_stop."""
    return sum(comb(n, w // 2) + comb(n, w - w // 2) for w in range(1, w_stop + 1))


def coset_candidates(n: int, k: int) -> int:
    """Nonzero Gray-code steps over k logical plus (n - k)/2 stabilizer generators."""
    return 2 ** (k + (n - k) // 2) - 1


class Tracer:
    """Timing wrappers over one imported bbcovers package."""

    def __init__(self, bb) -> None:
        self._bb = bb
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self.spans: dict[str, list] = {"distance.coset": [0, 0.0, 0.0], "distance.mitm": [0, 0.0, 0.0]}
        self.counts: dict[str, int] = dict.fromkeys(
            (
                "gf2.kernel_basis.bits",
                "rings.poly_make.calls",
                "covers.enumerate.classes",
                "covers.enumerate.raw_lifts",
                "distance.coset.candidates",
                "distance.mitm.candidates",
            ),
            0,
        )
        self._one_side_codes: set[str] = set()  # spec lines passed to distance_one_side

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        # vars() keeps classmethod and cached_property descriptors as they are
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement) -> None:
        """Replace every bbcovers module attribute bound to ``original``."""
        hits = 0
        for name, mod in list(sys.modules.items()):
            if name != "bbcovers" and not name.startswith("bbcovers."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, replacement)
                    hits += 1
        if not hits:
            raise RuntimeError(f"{original!r} is not bound in any bbcovers module")

    def _span(self, name: str, fn, after=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(dt, result, *args, **kwargs)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _method(self, cls, attr: str, name: str, after=None) -> None:
        self._set(cls, attr, self._span(name, cls.__dict__[attr], after))

    def _cached(self, cls, attr: str, name: str) -> None:
        prop = cached_property(self._span(name, cls.__dict__[attr].func))
        prop.__set_name__(cls, attr)
        self._set(cls, attr, prop)

    def _function(self, module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        self._rebind(original, self._span(name, original, after))

    def install(self) -> None:
        bb = self._bb
        gf2, rings, codes = bb.gf2, bb.rings, bb.codes
        covers, distance, chainmaps, autos, tables = (
            bb.covers, bb.distance, bb.chainmaps, bb.autos, bb.tables
        )
        self._method(gf2.BinMatrix, "rank", "gf2.rank")
        self._method(gf2.BinMatrix, "kernel_basis", "gf2.kernel_basis", self._after_kernel)
        self._method(gf2.BinMatrix, "mul", "gf2.mul")
        self._method(gf2.BinMatrix, "transpose", "gf2.transpose")

        make = rings.Poly.__dict__["make"].__func__
        self._set(rings.Poly, "make", classmethod(self._count("rings.poly_make.calls", make)))
        self._method(rings.Poly, "to_matrix", "rings.to_matrix")
        self._function(rings, "parse_poly", "rings.parse_poly")

        self._method(codes.BBCode, "__init__", "codes.build")
        self._method(codes.BBCode, "classify", "codes.classify")
        self._cached(codes.BBCode, "rank_hz", "codes.k")  # the first .k computes it
        self._cached(codes.BBCode, "logical_basis", "codes.logical_basis")

        self._function(covers, "enumerate_covers", "covers.enumerate", self._after_enumerate)
        self._function(covers, "check_cover", "covers.check_cover")
        self._function(covers, "build_tanner_graph", "covers.tanner_graph")
        self._function(covers, "build_derived_graph", "covers.derived_graph")
        self._function(covers, "verify_cover_isomorphism", "covers.verify_iso")

        self._function(distance, "distance_one_side", "distance.one_side", self._after_one_side)

        for attr, name in (
            ("projection_map", "projection_map"),
            ("lifting_map", "lifting_map"),
            ("induced_homology_map", "homology_map"),
            ("compose_p_tau", "compose_p_tau"),
            ("lift_logical", "lift_logical"),
            ("distance_bounds", "distance_bounds"),
        ):
            self._function(chainmaps, attr, f"chainmaps.{name}")
        for attr in (
            "verify_automorphism",
            "verify_zx_duality",
            "logical_action",
            "duality_action",
            "lift_automorphism",
        ):
            self._function(autos, attr, f"autos.{attr}")

        self._function(tables, "sequence_tables", "tables.load")
        self._function(tables, "enumeration_cases", "tables.load")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def reset(self) -> None:
        for stats in self.spans.values():
            stats[:] = [0, 0.0, 0.0]
        for name in self.counts:
            self.counts[name] = 0
        self._one_side_codes.clear()

    # -- computed counters ------------------------------------------------------

    def _after_kernel(self, dt, result, matrix) -> None:
        self.counts["gf2.kernel_basis.bits"] += matrix.n_rows * matrix.n_cols

    def _after_enumerate(self, dt, result, base, lt, mt, **kwargs) -> None:
        h = (lt // base.l) * (mt // base.m)
        self.counts["covers.enumerate.classes"] += len(result.records)
        self.counts["covers.enumerate.raw_lifts"] += h ** (base.a.weight + base.b.weight)

    def _after_one_side(self, dt, result, code, basis, w_max) -> None:
        self._one_side_codes.add(code.spec_line())
        if result.method == "coset":
            strategy, candidates = "coset", coset_candidates(code.n, code.k)
        else:
            w_stop = result.value if result.kind == "exact" else w_max
            strategy, candidates = "mitm", mitm_candidates(code.n, w_stop)
        stats = self.spans[f"distance.{strategy}"]
        stats[0] += 1
        stats[1] += dt
        self.counts[f"distance.{strategy}.candidates"] += candidates

    # -- report -------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (calls, incl, own) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = own
        out.update(self.counts)
        raw = out.pop("covers.enumerate.raw_lifts")
        out["covers.enumerate.dedup_ratio"] = out["covers.enumerate.classes"] / raw if raw else 0.0
        codes = len(self._one_side_codes)
        out["distance.one_side_per_code"] = out["distance.one_side.calls"] / codes if codes else 0.0
        return out
