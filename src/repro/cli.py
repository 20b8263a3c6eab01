"""Command-line interface: ``repro <subcommand>``.

Subcommands
-----------
``info``    — statistics of a BLIF file or named benchmark,
``synth``   — technology-independent optimization (BLIF in/out),
``map``     — technology mapping (BLIF in, Verilog out),
``flow``    — the paper's Figure 3 congestion-aware flow on a benchmark,
``ksweep``  — print a Table 2/4-style K sweep (alias: ``sweep``),
``ksearch`` — find the minimum routable K without the full sweep
(``--k-search grid|bisect|portfolio``),
``serve``   — long-lived batch engine: a JSONL job stream (flow/ksweep/
ksearch requests) executed against session-scoped caches, results
streamed back as JSONL in submission order; ``--serve-workers N`` runs
independent (netlist, die) affinity chains concurrently, ``--cache-dir``
persists layouts/route pools across restarts, and
``--cache-max-entries``/``--cache-max-mb`` bound the session caches
(full reference: ``docs/serve.md``).  Live telemetry rides on the side:
``--status-file`` writes an atomic heartbeat JSON (throttled by
``--status-every-jobs``/``--status-every-s``), ``--metrics-out`` renders
the counters and histograms as Prometheus text (+ a ``.json`` sibling)
at every heartbeat and at end of run, and ``--slow-job-s`` arms the
soft per-job deadline watchdog (``docs/observability.md``),
``follow``  — long-poll a growing results JSONL or an atomically
replaced status file, printing each new line; exits on the stream's
end marker, a ``--count``, or a ``--timeout``,
``benchreport`` — compare ``BENCH_*.json`` envelopes against a baseline
directory with per-bench noise floors; writes a Markdown trend table
and exits non-zero on regression,
``sta``     — map, place, route and time a circuit; print the critical path.

``flow``, ``ksweep``, ``ksearch`` and ``serve`` share one execution-flag
block (``--rows/--workers/--no-route-reuse``) and the observability
flags: ``--trace FILE`` writes the run's span tree as JSON lines,
``--profile`` prints a per-phase time/counter breakdown after the run,
and ``--artifacts DIR`` dumps one congestion heatmap (CSV + ASCII) per
evaluated K point (defaulting to ``<trace>.artifacts`` when ``--trace``
is given).

``flow``, ``ksweep`` and ``ksearch`` run as one-job serves.  They exit
0 with an answer, 1 when the job ran but did not converge or found no
routable K, and 2 with one ``repro <cmd>: <message>`` stderr line when
the job was rejected or failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional

from .core import (
    FlowConfig,
    PAPER_K_VALUES,
    area_congestion,
    evaluate_netlist,
    map_network,
    min_area,
    timing_of_point,
)
from .io import dump_blif, dump_verilog, k_sweep_table
from .library import CORELIB018
from .network import decompose
from .obs import (
    Tracer,
    profile_report,
    render_metrics_json,
    render_prometheus,
    write_congestion_artifacts,
)
from .place import Floorplan, place_base_network
from .serve import (
    CacheBounds,
    JobError,
    ServeEngine,
    StatusWriter,
    follow,
    parse_job,
    parse_jobs,
    write_atomic_text,
)
from .serve.caches import load_source
from .synth import optimize


def _cmd_info(args: argparse.Namespace) -> int:
    network = load_source(args.source)
    print(network)
    base = decompose(network)
    print(base)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    network = load_source(args.source)
    report = optimize(network, effort=args.effort)
    print(f"literals {report.literals_before} -> {report.literals_after} "
          f"({report.nodes_after} nodes)", file=sys.stderr)
    output = dump_blif(network)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(output)
    else:
        print(output, end="")
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    network = load_source(args.source)
    base = decompose(network)
    if args.k != 0 or args.partition == "placement":
        floorplan = Floorplan.for_gates(base.num_gates(),
                                        utilization=args.utilization)
        positions = place_base_network(base, floorplan)
        objective = area_congestion(args.k)
        result = map_network(base, CORELIB018, objective,
                             partition_style="placement",
                             positions=positions)
    else:
        result = map_network(base, CORELIB018, min_area(),
                             partition_style=args.partition)
    print(f"cells={result.netlist.num_cells()} "
          f"area={result.stats['cell_area']:.1f} um2", file=sys.stderr)
    output = dump_verilog(result.netlist)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(output)
    else:
        print(output, end="")
    return 0


def _make_tracer(args: argparse.Namespace, command: str,
                 source: str) -> Optional[Tracer]:
    """A run tracer when any observability flag asks for one."""
    if not (args.trace or args.profile):
        return None
    return Tracer("run", command=command, source=source)


def _artifacts_dir(args: argparse.Namespace) -> str:
    """``--artifacts``, defaulting to ``<trace>.artifacts``."""
    return args.artifacts or (args.trace + ".artifacts" if args.trace else "")


def _close_tracer(args: argparse.Namespace, tracer: Optional[Tracer]) -> None:
    """Write the trace and print the profile, as requested."""
    if tracer is None:
        return
    root = tracer.close()
    if args.trace:
        lines = tracer.write_jsonl(args.trace)
        print(f"trace: {lines} events -> {args.trace}", file=sys.stderr)
    if args.profile:
        print(profile_report(root))


def _cmd_job(args: argparse.Namespace) -> int:
    """``flow``, ``ksweep`` and ``ksearch``: the flags become a serve
    job, run on a one-job engine and rendered as the human report."""
    cmd = args.job_cmd
    data = {key: getattr(args, key) for key
            in ("source", "rows", "tolerance", "strategy") if key in args}
    try:
        if getattr(args, "k", ""):
            data["k"] = [float(k) for k in args.k.split(",")]
        job = parse_job(dict(data, id=cmd, cmd=cmd))
    except (JobError, ValueError) as exc:
        print(f"repro {cmd}: {exc}", file=sys.stderr)
        return 2
    tracer = _make_tracer(args, cmd, args.source)
    engine = ServeEngine(_flow_config(args), workers=args.workers,
                         tracer=tracer,
                         progress=lambda msg: print(msg, file=sys.stderr))
    result, points = engine.run_job(job)
    engine.finish()
    if result.verdict == "error":
        _close_tracer(args, tracer)
        print(f"repro {cmd}: {result.error}", file=sys.stderr)
        return 2
    if cmd == "flow":
        for k, area, _cells, util, violations in result.rows:
            print(f"K={k:g}: area={area:.0f} util={util:.1f}% "
                  f"violations={violations}")
    else:
        if cmd == "ksweep":
            reused = sum(int(p.stats.get("route.routes_reused", 0))
                         for p in points)
            rerouted = sum(int(p.stats.get("route.segments_rerouted", 0))
                           for p in points)
            print(f"router: routes_reused={reused} "
                  f"segments_rerouted={rerouted}", file=sys.stderr)
            what = "K sweep ("
        else:
            points = sorted(points, key=lambda p: p.k)
            what = f"K search ({job.strategy}, "
        # A cache hit; finish() already took the profile's counters.
        name = engine.caches.network(job.source)[1].name
        die = points[0].placement.floorplan
        print(k_sweep_table(points, title=f"{name} {what}die "
                                          f"{die.area:.0f} um2, "
                                          f"{die.num_rows} rows)"))
    artifacts_dir = _artifacts_dir(args)
    if artifacts_dir:
        paths = write_congestion_artifacts(points, artifacts_dir)
        print(f"artifacts: {len(paths)} congestion files -> {artifacts_dir}",
              file=sys.stderr)
    _close_tracer(args, tracer)
    if cmd == "flow":
        print(f"converged at K={result.chosen_k:g}" if result.ok else
              "did not converge: relax the floorplan or resynthesize")
    elif cmd == "ksearch":
        grid = len(set(job.k or PAPER_K_VALUES))
        print(f"evaluations: {len(points)}/{grid} grid points "
              f"({job.strategy})", file=sys.stderr)
        if result.ok:
            violations = next(row[4] for row in result.rows
                              if row[0] == result.chosen_k)
            print(f"minimum routable K={result.chosen_k:g} ({violations} "
                  f"violations, tolerance {job.tolerance})")
        else:
            print("no routable K on the grid: relax the floorplan or "
                  "resynthesize")
    return 0 if result.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.jobs == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.jobs) as handle:
            lines = handle.read().splitlines()
    try:
        jobs = parse_jobs(lines)
    except JobError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    # Before chains are planned: the affinity key must see the real die.
    jobs = [dataclasses.replace(job, rows=args.rows)
            if args.rows and not job.rows else job for job in jobs]
    tracer = _make_tracer(args, "serve", args.jobs)
    bounds = CacheBounds(
        max_entries=args.cache_max_entries,
        max_bytes=int(args.cache_max_mb * 1024 * 1024)) \
        if (args.cache_max_entries or args.cache_max_mb) else None
    status = StatusWriter(args.status_file,
                          every_jobs=args.status_every_jobs,
                          every_s=args.status_every_s) \
        if args.status_file else None
    engine = ServeEngine(_flow_config(args), workers=args.workers,
                         tracer=tracer, artifacts_dir=_artifacts_dir(args),
                         serve_workers=args.serve_workers,
                         bounds=bounds, cache_dir=args.cache_dir,
                         status=status, slow_job_s=args.slow_job_s)

    def write_metrics(_document=None) -> None:
        stats = engine.stats()
        write_atomic_text(args.metrics_out, render_prometheus(stats))
        write_atomic_text(
            args.metrics_out + ".json",
            render_metrics_json(stats, {"command": "serve",
                                        "jobs": args.jobs}))

    if args.metrics_out and status is not None:
        status.on_write = write_metrics
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        engine.run(jobs, on_result=lambda result: (
            out.write(result.to_json() + "\n"), out.flush()))
    finally:
        if args.output:
            out.close()
    engine.finish()
    if args.metrics_out:
        write_metrics()
    summary = engine.summary()
    if args.summary:
        with open(args.summary, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    _close_tracer(args, tracer)
    rates = summary["cache_hit_rates"]
    print(f"serve: {summary['ok']}/{summary['jobs']} jobs ok, "
          f"{summary['jobs_per_sec']:.2f} jobs/s "
          f"(cache hits: netlist {rates['netlist']:.0%}, "
          f"layout {rates['layout']:.0%}, "
          f"route pool {rates['route_pool']:.0%})", file=sys.stderr)
    return 0 if summary["ok"] == summary["jobs"] else 1


def _cmd_follow(args: argparse.Namespace) -> int:
    delivered, reason = follow(
        args.file,
        on_line=lambda line: (print(line), sys.stdout.flush()),
        timeout_s=args.timeout, poll_s=args.poll, count=args.count)
    print(f"follow: {delivered} lines ({reason})", file=sys.stderr)
    return 0 if reason in ("end", "count") else 1


def _cmd_benchreport(args: argparse.Namespace) -> int:
    from .tools.benchreport import run_benchreport
    return run_benchreport(results_dir=args.results,
                           baselines_dir=args.baselines,
                           out_path=args.out)


def _cmd_sta(args: argparse.Namespace) -> int:
    base = decompose(load_source(args.source))
    config = FlowConfig(library=CORELIB018)
    floorplan = Floorplan.for_gates(base.num_gates(), args.rows)
    positions = place_base_network(base, floorplan)
    result = map_network(base, CORELIB018, area_congestion(args.k),
                         partition_style="placement", positions=positions)
    point = evaluate_netlist(result.netlist, floorplan, config, k=args.k)
    point.mapping = result
    print(f"cells      : {result.netlist.num_cells()} "
          f"({result.stats['cell_area']:.1f} um2, "
          f"{point.utilization:.1f}% utilization)")
    print(f"routing    : {point.violations} violations, "
          f"{point.routed_wirelength:.0f} um wire")
    if not result.netlist.outputs:
        print("critical   : none (no primary outputs)")
        return 0
    report = timing_of_point(point, config)
    print(f"critical   : {report.describe_critical()} ns")
    print("path       : " + " -> ".join(report.critical_path))
    worst = sorted(report.output_arrival.items(),
                   key=lambda kv: -kv[1])[:args.paths]
    for po, arrival in worst:
        print(f"  {po:<12s} {arrival:8.3f} ns")
    return 0


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags of ``flow`` and ``ksweep``."""
    parser.add_argument("--trace", metavar="FILE", default="",
                        help="write the run's span tree as JSON lines")
    parser.add_argument("--profile", action="store_true",
                        help="print a per-phase time/counter breakdown "
                             "after the run")
    parser.add_argument("--artifacts", metavar="DIR", default="",
                        help="write per-K congestion heatmaps (CSV + "
                             "ASCII); defaults to <trace>.artifacts when "
                             "--trace is given")


def _flow_parent() -> argparse.ArgumentParser:
    """The execution flags every flow-running subcommand shares.

    One parent parser instead of a per-subcommand copy: ``flow``,
    ``ksweep``, ``ksearch`` and ``serve`` all inherit
    ``--rows/--workers/--no-route-reuse`` from here, so a new flag (or
    help-text fix) lands everywhere at once.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--rows", type=int, default=0,
                        help="die rows (0 = utilization-derived die)")
    parent.add_argument("--workers", type=int, default=1,
                        help="process fan-out for parallel stages "
                             "(results are identical to --workers 1)")
    parent.add_argument("--no-route-reuse", action="store_true",
                        help="disable cross-K route warm-starting")
    return parent


def _flow_config(args: argparse.Namespace) -> FlowConfig:
    """The :class:`FlowConfig` the shared execution flags describe."""
    return FlowConfig(library=CORELIB018, workers=args.workers,
                      route_reuse=not args.no_route_reuse)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Congestion-aware logic synthesis (DATE 2002) tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="circuit statistics")
    p_info.add_argument("source", help="BLIF path or benchmark name[@scale]")
    p_info.set_defaults(func=_cmd_info)

    p_synth = sub.add_parser("synth", help="technology-independent optimization")
    p_synth.add_argument("source")
    p_synth.add_argument("-o", "--output")
    p_synth.add_argument("--effort", default="standard",
                         choices=["fast", "standard", "high", "rugged"])
    p_synth.set_defaults(func=_cmd_synth)

    p_map = sub.add_parser("map", help="technology mapping")
    p_map.add_argument("source")
    p_map.add_argument("-o", "--output")
    p_map.add_argument("--k", type=float, default=0.0,
                       help="congestion minimization factor K")
    p_map.add_argument("--partition", default="dagon",
                       choices=["dagon", "cone", "placement"])
    p_map.add_argument("--utilization", type=float, default=35.0)
    p_map.set_defaults(func=_cmd_map)

    flow_parent = _flow_parent()

    p_flow = sub.add_parser("flow", parents=[flow_parent],
                            help="Figure 3 congestion-aware flow")
    p_flow.add_argument("source")
    p_flow.add_argument("--tolerance", type=int, default=0)
    _add_obs_flags(p_flow)
    p_flow.set_defaults(func=_cmd_job, job_cmd="flow")

    p_sweep = sub.add_parser("ksweep", aliases=["sweep"],
                             parents=[flow_parent],
                             help="Table 2/4-style K sweep")
    p_sweep.add_argument("source")
    p_sweep.add_argument("--k", default="",
                         help="comma-separated K list (default: paper's)")
    _add_obs_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_job, job_cmd="ksweep")

    p_search = sub.add_parser("ksearch", parents=[flow_parent],
                              help="adaptive minimum routable K search")
    p_search.add_argument("source")
    p_search.add_argument("--k-search", dest="strategy", default="bisect",
                          choices=["grid", "bisect", "portfolio"],
                          help="search strategy (all find the same K; "
                               "grid is the exhaustive reference)")
    p_search.add_argument("--tolerance", type=int, default=0,
                          help="violations still considered routable")
    p_search.add_argument("--k", default="",
                          help="comma-separated K grid (default: paper's)")
    _add_obs_flags(p_search)
    p_search.set_defaults(func=_cmd_job, job_cmd="ksearch")

    p_serve = sub.add_parser(
        "serve", parents=[flow_parent],
        help="long-lived batch engine: JSONL jobs in, JSONL results out")
    p_serve.add_argument("jobs", nargs="?", default="-",
                         help="JSONL job stream file ('-' = stdin); one "
                              "{id, cmd, source, ...} object per line")
    p_serve.add_argument("-o", "--output", default="",
                         help="write result JSONL here (default: stdout)")
    p_serve.add_argument("--summary", metavar="FILE", default="",
                         help="write the engine summary (jobs/sec, cache "
                              "hit rates) as JSON")
    p_serve.add_argument("--serve-workers", type=int, default=1,
                         help="run independent jobs concurrently, grouped "
                              "into (netlist, die) affinity chains "
                              "(output is byte-identical to "
                              "--serve-workers 1)")
    p_serve.add_argument("--cache-dir", metavar="DIR", default="",
                         help="persistent on-disk cache: cold engines "
                              "warm-start layouts and route pools from "
                              "here; stale/corrupt entries are skipped")
    p_serve.add_argument("--cache-max-entries", type=int, default=0,
                         help="LRU bound on entries per cache family "
                              "(0 = unbounded)")
    p_serve.add_argument("--cache-max-mb", type=float, default=0.0,
                         help="LRU bound on the estimated total cache "
                              "footprint in MiB (0 = unbounded)")
    p_serve.add_argument("--status-file", metavar="FILE", default="",
                         help="write an atomic live-status heartbeat JSON "
                              "here (schema: docs/observability.md); "
                              "follow it with 'repro follow FILE'")
    p_serve.add_argument("--status-every-jobs", type=int, default=1,
                         metavar="N",
                         help="write a heartbeat at most every N finished "
                              "jobs (default 1)")
    p_serve.add_argument("--status-every-s", type=float, default=0.0,
                         metavar="S",
                         help="also write a heartbeat when S seconds "
                              "passed since the last one (0 = off)")
    p_serve.add_argument("--metrics-out", metavar="FILE", default="",
                         help="render counters + histograms as Prometheus "
                              "text here (plus FILE.json) at every "
                              "heartbeat and at end of run")
    p_serve.add_argument("--slow-job-s", type=float, default=0.0,
                         metavar="S",
                         help="soft per-job deadline: jobs slower than S "
                              "count into serve.slow_jobs and trace a "
                              "slow_job event (0 = off)")
    _add_obs_flags(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_follow = sub.add_parser(
        "follow",
        help="long-poll a results JSONL or status file, print new lines")
    p_follow.add_argument("file", help="results JSONL stream or "
                                       "--status-file heartbeat to follow")
    p_follow.add_argument("--timeout", type=float, default=30.0,
                          metavar="S",
                          help="give up after S seconds without a new "
                               "line (default 30)")
    p_follow.add_argument("--poll", type=float, default=0.2, metavar="S",
                          help="poll interval in seconds (default 0.2)")
    p_follow.add_argument("--count", type=int, default=0, metavar="N",
                          help="stop after N lines (0 = until end marker "
                               "or timeout)")
    p_follow.set_defaults(func=_cmd_follow)

    p_bench = sub.add_parser(
        "benchreport",
        help="compare BENCH_*.json envelopes against baselines; "
             "exit non-zero on regression")
    p_bench.add_argument("--results", default="benchmarks/results",
                         metavar="DIR",
                         help="directory of fresh BENCH_*.json envelopes")
    p_bench.add_argument("--baselines", default="benchmarks/baselines",
                         metavar="DIR",
                         help="directory of baseline BENCH_*.json envelopes")
    p_bench.add_argument("--out", default="", metavar="FILE",
                         help="write the Markdown trend table here "
                              "(default: <results>/BENCHREPORT.md)")
    p_bench.set_defaults(func=_cmd_benchreport)

    p_sta = sub.add_parser("sta", help="map + place + route + timing report")
    p_sta.add_argument("source")
    p_sta.add_argument("--rows", type=int, default=0)
    p_sta.add_argument("--k", type=float, default=0.0)
    p_sta.add_argument("--paths", type=int, default=5,
                       help="how many worst endpoints to list")
    p_sta.set_defaults(func=_cmd_sta)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
