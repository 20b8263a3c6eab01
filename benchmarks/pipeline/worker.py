"""Workload process of the pipeline benchmark.

``run.py`` starts one of these per measured run and per set-up probe.
It reads one JSON document on stdin -- the operations ``workloads.py``
generated, plus ``launched`` (the parent's ``time.monotonic()`` just
before it started this process), ``setup_only`` and ``trace_path`` --
imports the program and builds what the workload needs, which ends
set-up; then runs the warm-up and the timed operations serially, the
``traced`` ones under the span recorder, and prints one JSON result
line.  Correctness checks that are not part of the product path
(the mapped-vs-base equivalence check) run between operations, outside
the timed region.

The program is always called through its modules' attributes at call
time, never through names bound here, so the span recorder's patches
apply to the benchmark's own calls as well.
"""

import contextlib
import importlib
import json
import resource
import sys
import time
import traceback
from types import SimpleNamespace

from spans import PIPELINE_LAYERS, SpanRecorder

_MODULES = {
    "circuits": "repro.circuits",
    "decompose": "repro.network.decompose",
    "equiv": "repro.network.equiv",
    "errors": "repro.errors",
    "flow": "repro.core.flow",
    "jobs": "repro.serve.jobs",
    "library": "repro.library",
    "place": "repro.place",
    "serve": "repro.serve",
}

#: Serve cache families whose hit rates the traced run reports.
CACHE_FAMILIES = ("netlist", "layout", "matcher", "route_pool")


def import_program() -> SimpleNamespace:
    """Import every module the runners call into (builds CORELIB018)."""
    return SimpleNamespace(**{name: importlib.import_module(module)
                              for name, module in _MODULES.items()})


def setup(kind: str, program: SimpleNamespace) -> SimpleNamespace:
    """What a workload needs before its first operation."""
    library = program.library.CORELIB018
    config = program.flow.FlowConfig(library=library, workers=1)
    ctx = SimpleNamespace(kind=kind, program=program, library=library,
                          config=config, engine=None)
    if kind == "serve":
        ctx.engine = program.serve.ServeEngine(config, workers=1,
                                               serve_workers=1)
    return ctx


def _base(program, op):
    network = program.circuits.benchmark(op["circuit"], op["scale"])
    return program.decompose.decompose(network)


def _run_flow(ctx, op):
    """Figure 3: circuit -> decompose -> flow -> STA of the chosen point."""
    p = ctx.program
    base = _base(p, op)
    floorplan = p.place.Floorplan.from_rows(op["rows"])
    result = p.flow.congestion_aware_flow(base, floorplan, ctx.config,
                                          tolerance=op["tolerance"])
    critical = None
    if result.chosen is not None:
        critical = p.flow.timing_of_point(result.chosen,
                                          ctx.config).critical_arrival
    rows = {"verdict": result.verdict, "chosen_k": result.chosen_k,
            "rows": [list(point.row()) for point in result.history],
            "critical_arrival": critical}
    netlists = [point.mapping.netlist for point in result.history]
    return rows, len(result.history), (base, netlists)


def _run_sweep(ctx, op):
    """Table 4: circuit -> decompose -> K sweep over the paper's K list."""
    p = ctx.program
    base = _base(p, op)
    floorplan = p.place.Floorplan.from_rows(op["rows"])
    points = p.flow.k_sweep(base, floorplan, ctx.config)
    rows = [list(point.row()) for point in points]
    return rows, len(points), (base, [pt.mapping.netlist for pt in points])


def _run_serve(ctx, op):
    """One request of a single closed-loop client: parse, then run."""
    p = ctx.program
    [job] = p.jobs.parse_jobs([op["line"]])
    [result] = ctx.engine.run([job])
    rows = result.to_dict()
    del rows["id"]
    return rows, len(result.rows), None


RUNNERS = {"flow": _run_flow, "sweep": _run_sweep, "serve": _run_serve}


def run_op(ctx, op, recorder=None) -> dict:
    """Run one operation: timed part, then the untimed checks."""
    error = ""
    rows = None
    kpoints = 0
    check = None
    root = recorder.root(op["key"]) if recorder is not None \
        else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with root:
            rows, kpoints, check = RUNNERS[ctx.kind](ctx, op)
    except Exception as exc:  # one failed op must not end the run
        traceback.print_exc(file=sys.stderr)
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if not error and isinstance(rows, dict) and rows.get("verdict") == \
            "error":
        error = rows.get("error") or "verdict error"
    if not error and check is not None:
        base, netlists = check
        try:
            for netlist in netlists:
                ctx.program.equiv.check_base_vs_mapped(base, netlist,
                                                       ctx.library)
        except ctx.program.errors.NetworkError as exc:
            error = f"equivalence: {exc}"
    return {"key": op["key"], "cycle": op["cycle"], "slot": op["slot"],
            "traced": op["traced"], "t_s": end - start, "kpoints": kpoints,
            "rows": rows, "error": error}


def _route_hook(result, counters):
    """Count warm-started and routed nets at the routing boundary."""
    for key, value in (("route.routes_reused",
                        int(result.stats.get("route.routes_reused", 0))),
                       ("route.nets", len(result.routes))):
        counters[key] = counters.get(key, 0) + value


HOOKS = {"repro.route.router:GlobalRouter.route": _route_hook}


def _cache_counts(ctx):
    return ctx.engine.cache_counters() if ctx.engine is not None else {}


def _hit_rates(before, after):
    rates = {}
    for family in CACHE_FAMILIES:
        hits = after.get(f"{family}_hits", 0) - before.get(
            f"{family}_hits", 0)
        misses = after.get(f"{family}_misses", 0) - before.get(
            f"{family}_misses", 0)
        rates[family] = hits / (hits + misses) if hits + misses else 0.0
    return rates


def run(spec: dict, program: SimpleNamespace, import_s: float) -> dict:
    """Set up, then run the warm-up and the timed operations."""
    ctx = setup(spec["kind"], program)
    # CLOCK_MONOTONIC is system-wide, so this spans the process start.
    setup_s = time.monotonic() - spec["launched"]
    if spec.get("setup_only"):
        return {"setup_s": setup_s}
    warmup = [run_op(ctx, op) for op in spec["warmup"]]
    before = _cache_counts(ctx)
    recorder = SpanRecorder(PIPELINE_LAYERS, hooks=HOOKS) \
        if any(op["traced"] for op in spec["ops"]) else None
    ops = []
    for op in spec["ops"]:
        if op["traced"]:
            # Patched only around traced operations: the plain ones
            # run the program exactly as shipped.
            with recorder:
                ops.append(run_op(ctx, op, recorder))
        else:
            ops.append(run_op(ctx, op))
    if recorder is not None:
        recorder.dump(spec["trace_path"])
    return {
        "setup_s": setup_s,
        "import_s": import_s,
        "warmup": warmup,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cache_hit_rates": _hit_rates(before, _cache_counts(ctx)),
        "trace": recorder.summary() if recorder is not None else None,
    }


def main() -> int:
    """Entry point: stdin spec in, one JSON line out."""
    spec = json.load(sys.stdin)
    t0 = time.perf_counter()
    program = import_program()
    result = run(spec, program, time.perf_counter() - t0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
