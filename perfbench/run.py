"""Benchmark for bbcovers: runs one workload and prints its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats passes over the workload's fixed item set until the next
pass would end after ``--seconds``, and reports the end-to-end metrics.  Their
times are scaled to a nominal machine speed by ``reference.Reference``, which
times a fixed task all through the run; the unscaled times are printed beside
them.  ``--trace 1`` runs one untraced pass and two traced passes, reports the
per-layer metrics of the second traced pass and the tracing overhead, unscaled,
and exits with status 1 if a computed count differs between the traced passes.
The last line of standard output is one JSON object; the lines before it give
the same numbers for reading, plus the input digest and the environment.
The package is imported from ``src/`` of this checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from reference import NOMINAL_S, Reference

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
TRACED_PASSES = 2


def load_package():
    """Import bbcovers afresh from this checkout's src/, or raise ImportError."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "bbcovers" or n.startswith("bbcovers.")]:
        del sys.modules[name]
    bb = importlib.import_module("bbcovers")
    for name in ("gf2", "rings", "codes", "distance", "covers", "chainmaps", "autos", "tables", "cli"):
        importlib.import_module(f"bbcovers.{name}")
    origin = Path(bb.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"bbcovers was imported from {origin}, not from {src}")
    return bb


def run_pass(bb, items_fn, state, ref: Reference) -> dict:
    """One pass over the item set; failures are counted and printed, never raised.

    Each span is (start, end, seconds, timed); seconds, like the pass's wall,
    leave out the time ``ref`` spent in its handler.
    """
    spans, labels, failed = [], [], 0
    t0, spent0 = time.perf_counter(), ref.spent
    for item in items_fn(bb, state):
        labels.append(item.label)
        start, spent = time.perf_counter(), ref.spent
        try:
            item.run()
        except Exception as exc:  # any error in bbcovers is a failed item, reported with its inputs
            failed += 1
            print(f"FAILED {item.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        end = time.perf_counter()
        spans.append((start, end, end - start - (ref.spent - spent), item.timed))
    wall = time.perf_counter() - t0 - (ref.spent - spent0)
    return {"wall": wall, "spans": spans, "labels": labels, "failed": failed}


def scale_pass(ref: Reference, p: dict) -> dict:
    """The pass with its item times and wall at the nominal reference speed."""
    spans = [(a, b, ref.scaled(s, a, b), timed) for a, b, s, timed in p["spans"]]
    ratio = sum(span[2] for span in spans) / sum(span[2] for span in p["spans"])
    return {**p, "spans": spans, "wall": p["wall"] * ratio}


def set_up(setup_fn, seed: int, ref: Reference):
    """Import bbcovers and set the workload up SETUP_REPEATS times; keep the last.

    Returns the package, the workload state and a (start, end, seconds) span
    per repeat.  The standard library modules bbcovers imports stay loaded
    after the first repeat.
    """
    spans = []
    for _ in range(SETUP_REPEATS):
        start, spent = time.perf_counter(), ref.spent
        bb = load_package()
        state = setup_fn(bb, seed)
        end = time.perf_counter()
        spans.append((start, end, end - start - (ref.spent - spent)))
    return bb, state, spans


def summary(passes: list[dict]) -> dict:
    times = [s for p in passes for _, _, s, timed in p["spans"] if timed]
    return {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "item_p50_ms": 1000 * statistics.median(times),
        "item_p90_ms": 1000 * quantile(times, 90),
    }


def environment(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles(n=100) does."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((Path(__file__).resolve().parent / "layers.json").read_text())["layers"]
    documented = sorted(m for layer in layers.values() for m in layer["metrics"])
    if documented != sorted(m["name"] for m in spec["per_layer"]):
        print("layers.json and the per_layer list of BENCHMARK.json name different metrics", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    setup_fn, items_fn = WORKLOADS[args.workload]

    ref = Reference()  # entered only for --trace 0; otherwise it spends nothing
    passes = []
    layer = None
    try:
        if args.trace:
            from tracing import DETERMINISTIC, Tracer

            bb, state, _ = set_up(setup_fn, args.seed, ref)
            passes.append(run_pass(bb, items_fn, state, ref))
            tracer = Tracer(bb)
            tracer.install()
            try:
                traced = []
                for _ in range(TRACED_PASSES):
                    tracer.reset()
                    passes.append(run_pass(bb, items_fn, state, ref))
                    traced.append(tracer.metrics())
                tracer.reset()
                setup_fn(bb, args.seed)
                load_s = tracer.metrics()["tables.load.s"]
            finally:
                tracer.uninstall()
        else:
            with ref:
                bb, state, setups = set_up(setup_fn, args.seed, ref)
                start = time.perf_counter()
                while True:
                    passes.append(run_pass(bb, items_fn, state, ref))
                    if time.perf_counter() - start + passes[-1]["wall"] > args.seconds:
                        break
    except ImportError as exc:
        print(f"cannot import bbcovers from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        drift = {n: [m[n] for m in traced] for n in DETERMINISTIC if len({m[n] for m in traced}) > 1}
        if drift:
            print(f"computed counts differ between traced passes: {drift}", file=sys.stderr)
            return 1
        layer = dict(traced[-1])
        layer["tables.load.s"] = load_s
        layer["trace.untraced_wall_s"] = passes[0]["wall"]
        layer["trace.traced_wall_s"] = passes[-1]["wall"]
        layer["trace.overhead_s"] = passes[-1]["wall"] - passes[0]["wall"]

    labels = passes[0]["labels"]
    if any(p["labels"] != labels for p in passes):
        print("passes ran different item sets; the inputs are not fixed by the seed", file=sys.stderr)
        return 1
    n_timed = sum(timed for p in passes for *_, timed in p["spans"])
    attempted = sum(len(p["labels"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    digest = hashlib.sha256("\n".join(labels).encode()).hexdigest()

    unscaled = {}
    if layer is None:
        wanted = spec["end_to_end"]
        unscaled = {"setup_s": statistics.median(s for _, _, s in setups), **summary(passes)}
        values = {
            "setup_s": statistics.median(ref.scaled(s, a, b) for a, b, s in setups),
            **summary([scale_pass(ref, p) for p in passes]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        wanted = spec["per_layer"]
        values = layer
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(passes)} passes")
    print(f"inputs sha256 {digest} ({len(labels)} items per pass)")
    print(f"timed items {n_timed}; attempted {attempted}, failed {failed}")
    print("environment " + json.dumps(environment(args.seed)))
    if layer is None:
        print(
            f"reference task: median {1000 * ref.median_s():.4g} ms over {len(ref.times)} timings; "
            f"times below are scaled to {1000 * NOMINAL_S:g} ms"
        )
    for name, m in metrics.items():
        extra = f"  (unscaled {unscaled[name]:.6g})" if name in unscaled else ""
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  {'fail_frac':36s} {failed / attempted:.6g} ratio")
    if layer is not None:
        counts = {n: layer[n] for n in DETERMINISTIC}
        print("computed counts " + json.dumps(counts))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
