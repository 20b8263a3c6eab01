"""End-to-end flows: the paper's methodology (Section 5, Figure 3).

This module glues the substrates into the experiments the paper runs:

* :func:`evaluate_netlist` — place, globally route and summarise one
  mapped netlist in a fixed floorplan (one row of Tables 1/2/4).
* :func:`run_k_point` — map the placed base network at one K and
  evaluate it, or reuse an :class:`EvalMemo` entry when the mapped
  netlist was already evaluated in the same request.
* :func:`k_sweep` — the Table 2/4 experiment: the base network and its
  placement are produced **once**, then re-mapped per K (the re-use the
  paper emphasises as the methodology's cheapness); K points that
  re-map to an already-evaluated netlist skip placement and routing.
* :func:`congestion_aware_flow` — the Figure 3 loop: start at K = 0,
  evaluate the congestion map, raise K until the map is acceptable.
* :func:`find_routable_die` — grow the die row by row until a netlist
  routes (the paper's 71→72→75-row escalations).
* :func:`sis_flow` / :func:`dagon_flow` — the two baselines of Table 1.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import PlacementError, ReproError
from ..exec import derive_seed, fan_out
from ..library.cell import CellLibrary
from ..measures import total_hpwl
from ..obs import Span, StatsRegistry, Tracer
from ..network.boolnet import BooleanNetwork
from ..network.dag import BaseNetwork
from ..network.decompose import decompose
from ..network.netlist import MappedNetlist
from ..place.floorplan import Floorplan
from ..place.placer import Placement, place_base_network, place_netlist
from ..route.grid import RoutingResources
from ..route.router import GlobalRouter, RouteCache, RoutingResult
from ..synth.optimize import optimize
from ..timing.sta import StaticTimingAnalyzer, TimingReport
from .mapper import MappingResult, map_network
from .matching import Matcher
from .objectives import area_congestion, min_area
from .partition import DAGON, PLACEMENT, Partition, partition as make_partition
from .wirecost import PositionMap

#: The K schedule of the paper's Tables 2 and 4.
PAPER_K_VALUES: Tuple[float, ...] = (
    0.0, 0.0001, 0.00025, 0.0005, 0.00075, 0.001,
    0.0025, 0.005, 0.0075, 0.01, 0.05, 0.1, 0.5, 1.0)


@dataclass
class FlowConfig:
    """Shared configuration for all flow entry points.

    ``workers`` is the default process fan-out for the parallel stages
    (K points of a sweep, placement attempts of an evaluation); 1 keeps
    everything serial.  Parallel runs are bit-identical to serial ones.

    ``route_reuse`` enables cross-K route warm-starting in the serial
    sweep loops: nets whose pin GCell signature is unchanged between
    adjacent K netlists start from the previous K's final route.
    """

    library: CellLibrary
    resources: RoutingResources = field(default_factory=RoutingResources)
    partition_style: str = PLACEMENT
    gcell_rows: int = 2
    max_route_iterations: int = 25
    seed: int = 0
    place_attempts: int = 1
    workers: int = 1
    route_reuse: bool = True


@dataclass
class EvalPoint:
    """One evaluated mapping — a row of Table 2/4."""

    k: float
    cell_area: float
    num_cells: int
    utilization: float          # percent
    violations: int
    overflowed_nets: int
    routed_wirelength: float    # µm
    hpwl: float                 # µm
    routable: bool
    mapping: Optional[MappingResult] = None
    placement: Optional[Placement] = None
    routing: Optional[RoutingResult] = None
    #: Namespaced flow counters: ``eval.*`` wall-times plus the
    #: absorbed ``map.*`` / ``route.*`` / ``exec.*`` registries of the
    #: point's phases (duplicate keys raise instead of overwriting).
    #: A point that reused an earlier evaluation (:class:`EvalMemo`)
    #: carries that evaluation's entries replayed, plus
    #: ``eval.reused`` = 1.
    stats: StatsRegistry = field(default_factory=StatsRegistry)
    #: The point's span subtree (k_point → map / evaluate → attempt →
    #: place / route), built identically on the serial and the
    #: process-pool paths; sweeps adopt it into the run's trace.
    trace: Optional[Span] = None

    def row(self) -> Tuple[float, float, int, float, int]:
        """(K, cell area, #cells, utilization %, violations)."""
        return (self.k, self.cell_area, self.num_cells,
                self.utilization, self.violations)


def _placement_attempt(payload: Tuple[Any, ...], attempt: int) -> EvalPoint:
    """One placement + global-routing attempt (a fan-out task).

    Placement *and* routing seeds advance with the attempt index, so
    retries explore both RNG streams instead of re-rolling only the
    placer against a frozen router (the router seed drives the
    negotiation's victim ordering).  ``route_cache`` is read-only here:
    every attempt warm-starts from the same cache snapshot, which keeps
    parallel attempt fan-outs bit-identical to serial ones.
    """
    netlist, floorplan, config, k, area, route_cache = payload
    seed = derive_seed(config.seed, attempt)
    tracer = Tracer("attempt", attempt=attempt)
    place_timings: Dict[str, float] = {}
    with tracer.span("place") as sp_place:
        placement = place_netlist(netlist, config.library, floorplan,
                                  seed=seed, timings=place_timings)
    router = GlobalRouter(floorplan, config.resources,
                          gcell_rows=config.gcell_rows,
                          max_iterations=config.max_route_iterations,
                          seed=seed)
    with tracer.span("route") as sp_route:
        points = placement.net_points(netlist)
        routing = (router.route(points, cache=route_cache)
                   if route_cache is not None else router.route(points))
    sp_route.counters.absorb(routing.stats)
    stats = StatsRegistry()
    stats.time("eval.t_place", sp_place.duration)
    stats.time("eval.t_route", sp_route.duration)
    for phase, seconds in sorted(place_timings.items()):
        stats.time(f"place.{phase}", seconds)
    stats.absorb(routing.stats)
    return EvalPoint(
        k=k, cell_area=area, num_cells=netlist.num_cells(),
        utilization=floorplan.utilization(area),
        violations=routing.violations,
        overflowed_nets=routing.overflowed_nets,
        routed_wirelength=routing.total_wirelength,
        hpwl=total_hpwl(points),
        routable=routing.violations == 0,
        placement=placement, routing=routing,
        stats=stats, trace=tracer.close())


def _select_best(points: Sequence[EvalPoint]) -> EvalPoint:
    """Replicate the serial retry loop's pick over precomputed attempts.

    The serial loop keeps the strictly best (violations, wirelength)
    seen so far and stops at the first zero-violation best; scanning
    the full attempt list in order with the same rule selects the same
    point, which is what keeps ``workers=N`` bit-identical.
    """
    best: Optional[EvalPoint] = None
    for point in points:
        if best is None or (point.violations, point.routed_wirelength) < \
                (best.violations, best.routed_wirelength):
            best = point
        if best.violations == 0:
            break
    assert best is not None
    return best


def evaluate_netlist(netlist: MappedNetlist, floorplan: Floorplan,
                     config: FlowConfig, k: float = 0.0,
                     workers: Optional[int] = None,
                     route_cache: Optional[RouteCache] = None) -> EvalPoint:
    """Place + globally route one netlist; summarise like a table row.

    Up to ``config.place_attempts`` placement seeds are tried and the
    best result kept (stopping early at zero violations) — the "let the
    P&R tool try again" that any physical-design flow applies before
    declaring a netlist unroutable.  With ``workers > 1`` (defaulting
    to ``config.workers``) the attempts fan out over a process pool;
    the selected point is identical to the serial path's.

    ``route_cache`` warm-starts unchanged nets from a previous
    evaluation's routes; all attempts read the same cache snapshot and
    the cache is refreshed once from the selected point's routes.

    The returned point's :attr:`EvalPoint.trace` is an ``evaluate``
    span wrapping the *selected* attempt's span — only the chosen
    attempt is kept, so serial early-exit and parallel
    run-all-attempts produce identical span trees.
    """
    tracer = Tracer("evaluate", k=k)
    area = netlist.total_area(config.library)
    attempts = max(1, config.place_attempts)
    nworkers = max(1, config.workers if workers is None else workers)
    payload = (netlist, floorplan, config, k, area, route_cache)
    if attempts > 1 and nworkers > 1:
        exec_stats = StatsRegistry()
        points = fan_out(_placement_attempt, payload, range(attempts),
                         workers=nworkers, stats=exec_stats)
        best = _select_best(points)
        best.stats.merge(exec_stats)
    else:
        best = None
        for attempt in range(attempts):
            point = _placement_attempt(payload, attempt)
            if best is None or \
                    (point.violations, point.routed_wirelength) < \
                    (best.violations, best.routed_wirelength):
                best = point
            if best.violations == 0:
                break
        assert best is not None
    # Only clean routings refresh the cache.  Warm-starting the next K
    # point's negotiation from a *congested* snapshot poisons it — the
    # router inherits overflow history it cannot unwind and lands on
    # strictly worse solutions than a cold start (the figure3
    # non-convergence regression).  A failed point therefore leaves the
    # last known-good routes in place.
    if route_cache is not None and best.routing is not None \
            and best.routing.violations == 0:
        route_cache.store(best.routing)
    tracer.adopt(best.trace)
    best.trace = tracer.close()
    best.stats.time("eval.t_total", best.trace.duration)
    return best


class EvalMemo:
    """The evaluations one request has run, keyed by netlist structure.

    :func:`evaluate_netlist` is a deterministic function of the netlist,
    the die, the config and the route cache's contents: its seeds come
    from ``config.seed`` and the attempt index, and the router only
    reads the cache.  A serial K loop (one die, one config) therefore
    owns one memo and passes it to every :func:`run_k_point`; a K point
    whose mapped netlist has the same
    :meth:`~repro.network.netlist.MappedNetlist.structure_key` as one
    evaluated earlier, under the same cache contents, reuses that
    evaluation's placement and routing instead of running them again.
    The reuse is exact by construction.

    The cache changes in one way only: :meth:`RouteCache.store` installs
    a new ``routes`` dict (after a clean routing, or a parallel round's
    merge).  The memo keeps the dict its entries saw and forgets every
    entry once the cache holds another one; an evaluation that stored
    is not recorded, since it saw the old contents.  With no cache
    (``route_reuse`` off) entries stay valid for the whole request.
    """

    def __init__(self) -> None:  # noqa: D107
        self._done: Dict[Tuple, EvalPoint] = {}
        self._routes: Optional[dict] = None

    def evaluate(self, netlist: MappedNetlist, floorplan: Floorplan,
                 config: FlowConfig, k: float,
                 route_cache: Optional[RouteCache]) -> EvalPoint:
        """:func:`evaluate_netlist`, or a reuse of an equal netlist's."""
        routes = route_cache.routes if route_cache is not None else None
        if routes is not self._routes:
            self._done.clear()
            self._routes = routes
        key = netlist.structure_key()
        done = self._done.get(key)
        if done is not None:
            return _reuse_evaluation(done, k)
        point = evaluate_netlist(netlist, floorplan, config, k=k,
                                 route_cache=route_cache)
        if route_cache is None or route_cache.routes is routes:
            # A copy of the stats: run_k_point adds the mapping's to
            # the returned point.
            self._done[key] = replace(
                point, stats=StatsRegistry.merged([point.stats]))
        return point


def _reuse_evaluation(done: EvalPoint, k: float) -> EvalPoint:
    """``done``'s evaluation served again at ``k`` (see :class:`EvalMemo`).

    The row fields, placement, routing, HPWL and routed wirelength are
    ``done``'s, and the objects are shared read-only.  The stats and the
    ``evaluate`` subtree are replayed: results are kept, work reads 0,
    times read what reusing took, so per-point :meth:`deterministic`
    views and span skeletons equal a fresh evaluation's.
    ``eval.reused`` (work) = 1 marks the point and its span.
    """
    tracer = Tracer("evaluate", k=k)
    tracer.root.counters.work("eval.reused", 1)
    for child in done.trace.children:
        tracer.adopt(child.replayed())
    trace = tracer.close()
    stats = done.stats.replayed({"eval.t_total": trace.duration})
    stats.work("eval.reused", 1)
    return replace(done, k=k, stats=stats, trace=trace)


def run_k_point(base: BaseNetwork, positions: PositionMap,
                floorplan: Floorplan, config: FlowConfig,
                k: float, partition: Optional[Partition] = None,
                matcher: Optional[Matcher] = None,
                route_cache: Optional[RouteCache] = None,
                memo: Optional[EvalMemo] = None) -> EvalPoint:
    """Map the (already placed) base network at one K and evaluate it.

    ``partition`` and ``matcher`` are the K-independent products of the
    base network and its placement; sweeps compute them once and pass
    them to every K point (see :func:`k_sweep`).  ``route_cache``
    carries routes between K points: nets whose pin GCell signature is
    unchanged warm-start from the previous K's final route.  ``memo``,
    owned by a serial K loop, lets a point whose netlist that loop has
    already evaluated reuse the evaluation (:class:`EvalMemo`); without
    one the point is always placed and routed.
    """
    objective = area_congestion(k)
    tracer = Tracer("k_point", k=k)
    with tracer.span("map") as sp_map:
        mapping = map_network(base, config.library, objective,
                              partition_style=config.partition_style,
                              positions=positions,
                              partition=partition, matcher=matcher)
    sp_map.counters.absorb(mapping.stats)
    if memo is None:
        point = evaluate_netlist(mapping.netlist, floorplan, config, k=k,
                                 route_cache=route_cache)
    else:
        point = memo.evaluate(mapping.netlist, floorplan, config, k,
                              route_cache)
    point.mapping = mapping
    point.stats.time("map.t_total", sp_map.duration)
    point.stats.absorb(mapping.stats)
    tracer.adopt(point.trace)
    point.trace = tracer.close()
    return point


#: Single-slot per-process cache: (payload, Matcher).  Workers receive
#: the same payload object for every task of one round, so the matcher
#: — and its match memo — is shared across all K points a process runs.
_sweep_matcher: Optional[Tuple[Any, Matcher]] = None


def _k_point_task(payload: Tuple[Any, ...], k: float) -> EvalPoint:
    """One K point of a sweep round (a fan-out task).

    The payload's last slot is an optional :class:`RouteCache`
    snapshot; each task clones it into a private shard, so every K
    point of a round warm-starts from the same opening snapshot no
    matter which worker runs it (or whether the round fell back to the
    serial loop) — the property that keeps sharded rounds bit-identical
    across execution plans.
    """
    global _sweep_matcher
    base, positions, floorplan, config, part, snapshot = payload
    if _sweep_matcher is None or _sweep_matcher[0] is not payload:
        _sweep_matcher = (payload, Matcher(base, config.library))
    matcher = _sweep_matcher[1]
    shard = snapshot.clone() if snapshot is not None else None
    return run_k_point(base, positions, floorplan, config, k,
                       partition=part, matcher=matcher, route_cache=shard)


def evaluate_k_round(base: BaseNetwork, positions: PositionMap,
                     floorplan: Floorplan, config: FlowConfig,
                     ks: Sequence[float], part: Partition,
                     workers: int = 1,
                     route_cache: Optional[RouteCache] = None,
                     stats: Optional[StatsRegistry] = None,
                     tracer: Optional[Tracer] = None) -> List[EvalPoint]:
    """Evaluate one *round* of K points over the process pool.

    Every task receives the same opening snapshot of ``route_cache``
    (or no cache) and clones it into a private shard; the caller merges
    the round's results back with :func:`merge_round_routes`.  Results
    come back in ``ks`` order.  This is the parallel-safe unit both
    :func:`k_sweep` and :func:`repro.core.ksearch.k_search` build on.
    """
    snapshot = (route_cache
                if route_cache is not None and route_cache.routes else None)
    payload = (base, positions, floorplan, config, part, snapshot)
    return fan_out(_k_point_task, payload, list(ks), workers=workers,
                   stats=stats, tracer=tracer)


def merge_round_routes(cache: RouteCache, points: Sequence[EvalPoint],
                       prefer_low_k: bool = False) -> None:
    """Deterministically merge a round's shards back into the cache.

    Shards only ever *store* the zero-violation routing of their own K
    point, so merging reduces to picking one clean round member as the
    next snapshot: the highest-K clean point by default — exactly the
    state a serial ascending sweep would have left behind — or the
    lowest-K one (``prefer_low_k``), which is what a minimum-K search
    wants its next, smaller probes to warm-start from.  The pick
    depends only on the round's results, never on worker scheduling.
    """
    clean = [p for p in points
             if p.routing is not None and p.routing.violations == 0]
    if clean:
        pick = (min if prefer_low_k else max)(clean, key=lambda p: p.k)
        cache.store(pick.routing)


def _progress_line(point: EvalPoint) -> str:
    return (f"K={point.k:g}: area={point.cell_area:.0f} "
            f"cells={point.num_cells} util={point.utilization:.1f}% "
            f"violations={point.violations}")


def _resolve_caches(config: FlowConfig, route_cache: Optional[RouteCache]
                    ) -> Optional[RouteCache]:
    """The warm-start cache a sweep loop should thread through its
    K points: the injected one (a session-scoped pool entry from e.g.
    ``repro serve``), a fresh one, or ``None`` with reuse disabled.

    Warm starts are pure speedups — a warm-started point reports the
    same row as a cold one — so injecting a pre-warmed cache never
    changes results, only wall time.
    """
    if not config.route_reuse:
        return None
    return route_cache if route_cache is not None else RouteCache()


def k_sweep(base: BaseNetwork, floorplan: Floorplan, config: FlowConfig,
            k_values: Sequence[float] = PAPER_K_VALUES,
            positions: Optional[PositionMap] = None,
            progress: Optional[Callable[[str], None]] = None,
            workers: Optional[int] = None,
            tracer: Optional[Tracer] = None,
            partition: Optional[Partition] = None,
            matcher: Optional[Matcher] = None,
            route_cache: Optional[RouteCache] = None) -> List[EvalPoint]:
    """The Table 2/4 experiment: one mapping + evaluation per K.

    The technology-independent placement is computed once and re-used
    for every K (each :func:`run_k_point` copies it internally through
    the mapper), exactly as the paper's methodology prescribes.  The
    partition and the matcher's match enumeration likewise depend only
    on the base network and its placement, so they are hoisted out of
    the per-K loop.

    ``workers`` (defaulting to ``config.workers``) fans the K points
    out over a process pool; the returned points are bit-identical to
    the serial path's (same ``EvalPoint.row()`` tuples, same order).

    With ``config.route_reuse`` on, both paths thread a
    :class:`RouteCache` through the K points: nets whose pin GCell
    signature is unchanged between K netlists warm-start from a
    previous K's final route, so the sweep stops paying full routing
    cost at every K.  The serial path carries the cache point to
    point; the parallel path runs the sweep in rounds of ``workers``
    K points, where every task of a round clones the last
    zero-violation snapshot into a private shard and the round's clean
    results are merged back deterministically
    (:func:`merge_round_routes`).  Warm starts are pure speedups —
    a warm-started point reports the same row as a cold one — so the
    sharded rounds stay bit-identical to the serial warm sweep.  With
    ``route_reuse`` off, the parallel path keeps the single fan-out
    (one pool, contiguous chunks).

    The serial path evaluates each distinct mapped netlist once: a K
    point that re-maps to an earlier point's netlist, while the route
    cache is unchanged, reuses that evaluation (:class:`EvalMemo`).
    Rows are those of the parallel path, which evaluates every point.

    ``tracer``, when given, receives one ``sweep`` span whose children
    are the K points' subtrees, adopted in K order on both execution
    paths.

    ``partition`` / ``matcher`` / ``route_cache`` inject session-scoped
    caches (see :mod:`repro.serve`): the K-independent partition, a
    shared matcher (match memo + cover memo; serial path only — pool
    workers build their own) and a warm-start route cache carried
    across calls.  All three are pure speedups; the returned rows are
    identical to an uninjected sweep's.
    """
    if positions is None:
        positions = place_base_network(base, floorplan, seed=config.seed)
    nworkers = max(1, config.workers if workers is None else workers)
    part = partition if partition is not None else \
        make_partition(base, config.partition_style, positions=positions)
    k_list = list(k_values)
    span_cm = (tracer.span("sweep", points=len(k_list))
               if tracer is not None else contextlib.nullcontext())
    with span_cm as sweep_span:
        if nworkers > 1 and len(k_list) > 1:
            route_cache = _resolve_caches(config, route_cache)
            groups = ([k_list] if route_cache is None else
                      [k_list[i:i + nworkers]
                       for i in range(0, len(k_list), nworkers)])
            exec_stats = StatsRegistry()
            points: List[EvalPoint] = []
            for group in groups:
                round_stats = StatsRegistry()
                round_points = evaluate_k_round(
                    base, positions, floorplan, config, group, part,
                    workers=nworkers, route_cache=route_cache,
                    stats=round_stats, tracer=tracer)
                if route_cache is not None:
                    merge_round_routes(route_cache, round_points)
                exec_stats.merge(round_stats)
                for point in round_points:
                    point.stats.merge(round_stats)
                    if tracer is not None:
                        tracer.adopt(point.trace)
                    if progress is not None:
                        progress(_progress_line(point))
                points.extend(round_points)
            if sweep_span is not None:
                sweep_span.counters.merge(exec_stats)
            return points
        if matcher is None:
            matcher = Matcher(base, config.library)
        route_cache = _resolve_caches(config, route_cache)
        memo = EvalMemo()
        points: List[EvalPoint] = []
        for k in k_list:
            point = run_k_point(base, positions, floorplan, config, k,
                                partition=part, matcher=matcher,
                                route_cache=route_cache, memo=memo)
            points.append(point)
            if tracer is not None:
                tracer.adopt(point.trace)
            if progress is not None:
                progress(_progress_line(point))
        return points


#: :attr:`FlowResult.verdict` values — why the Figure 3 loop ended.
FLOW_CONVERGED = "converged"
FLOW_EARLY_STOP = "early_stop"
FLOW_SCHEDULE_EXHAUSTED = "schedule_exhausted"


@dataclass
class FlowResult:
    """Outcome of the Figure 3 methodology loop."""

    chosen: Optional[EvalPoint]
    history: List[EvalPoint]
    converged: bool
    #: Why the loop ended: :data:`FLOW_CONVERGED` (an acceptable map
    #: was found), :data:`FLOW_EARLY_STOP` (the three-strictly-rising
    #: violations heuristic fired) or :data:`FLOW_SCHEDULE_EXHAUSTED`
    #: (the K schedule ran out) — so benches can tell a heuristic stop
    #: from a genuinely exhausted schedule.
    verdict: str = ""

    @property
    def chosen_k(self) -> Optional[float]:
        """The K that produced the accepted congestion map."""
        return self.chosen.k if self.chosen else None


def congestion_aware_flow(base: BaseNetwork, floorplan: Floorplan,
                          config: FlowConfig,
                          k_schedule: Sequence[float] = PAPER_K_VALUES,
                          positions: Optional[PositionMap] = None,
                          tolerance: int = 0,
                          tracer: Optional[Tracer] = None,
                          partition: Optional[Partition] = None,
                          matcher: Optional[Matcher] = None,
                          route_cache: Optional[RouteCache] = None
                          ) -> FlowResult:
    """The modified ASIC design flow of Figure 3.

    Place the technology-independent netlist once; map with K = 0;
    evaluate the congestion map; while congested, take the next K from
    the schedule and re-map (technology mapping is linear-time, so this
    loop is cheap relative to re-synthesis).  Stops at the first
    acceptable map, or reports non-convergence — the case where the
    paper says floorplan constraints must be relaxed.

    ``tracer``, when given, receives one ``flow`` span whose children
    are the evaluated K points' subtrees in schedule order.

    ``partition`` / ``matcher`` / ``route_cache``, when given, inject
    session-scoped caches the same way :func:`k_sweep` accepts them —
    pure speedups, identical results.
    """
    if positions is None:
        positions = place_base_network(base, floorplan, seed=config.seed)
    # The loop is inherently sequential (each K's verdict gates the
    # next), but the K-independent work — partition and match
    # enumeration — is still hoisted out of it, routes of unchanged
    # nets are carried between K points via the route cache, and a
    # netlist that repeats an earlier K's is not evaluated again.
    if partition is None:
        partition = make_partition(base, config.partition_style,
                                   positions=positions)
    if matcher is None:
        matcher = Matcher(base, config.library)
    route_cache = _resolve_caches(config, route_cache)
    memo = EvalMemo()
    span_cm = (tracer.span("flow", tolerance=tolerance)
               if tracer is not None else contextlib.nullcontext())
    with span_cm as flow_span:
        history: List[EvalPoint] = []
        chosen: Optional[EvalPoint] = None
        verdict = FLOW_SCHEDULE_EXHAUSTED
        for k in k_schedule:
            point = run_k_point(base, positions, floorplan, config, k,
                                partition=partition, matcher=matcher,
                                route_cache=route_cache, memo=memo)
            history.append(point)
            if tracer is not None:
                tracer.adopt(point.trace)
            if point.violations <= tolerance:
                chosen = point
                verdict = FLOW_CONVERGED
                break
            # The paper's stopping heuristic: once congestion worsens
            # while the area penalty keeps growing, more K will not
            # help.
            if len(history) >= 3:
                recent = history[-3:]
                if (recent[2].violations > recent[1].violations
                        > recent[0].violations):
                    verdict = FLOW_EARLY_STOP
                    break
        if flow_span is not None:
            flow_span.attrs["verdict"] = verdict
            flow_span.counters.gauge(
                "flow.early_stop", 1.0 if verdict == FLOW_EARLY_STOP else 0.0)
        return FlowResult(chosen=chosen, history=history,
                          converged=verdict == FLOW_CONVERGED,
                          verdict=verdict)


def find_routable_die(netlist: MappedNetlist, start_rows: int,
                      config: FlowConfig,
                      max_extra_rows: int = 12, aspect: float = 1.0,
                      row_height: Optional[float] = None,
                      tolerance: int = 0) -> Tuple[Floorplan, EvalPoint]:
    """Grow the die (aspect kept) until the netlist routes.

    This is how the paper's Tables 3/5 derive 'chip area / number of
    rows' per netlist.  ``tolerance`` is the violation count still
    considered fixable in post-routing (the paper treats 2 and 9
    violations as "basically routable").  Raises :class:`ReproError`
    when even the largest attempted die fails.
    """
    rh = row_height if row_height is not None else config.library.row_height
    last_error: Optional[str] = None
    for rows in range(start_rows, start_rows + max_extra_rows + 1):
        floorplan = Floorplan.from_rows(rows, row_height=rh, aspect=aspect)
        try:
            point = evaluate_netlist(netlist, floorplan, config)
        except PlacementError as exc:
            last_error = str(exc)
            continue
        if point.violations <= tolerance:
            return floorplan, point
    raise ReproError(
        f"netlist unroutable even with {start_rows + max_extra_rows} rows"
        + (f" (last placement error: {last_error})" if last_error else ""))


def sis_flow(network: BooleanNetwork, library: CellLibrary,
             effort: str = "high") -> MappingResult:
    """The SIS baseline: aggressive tech-independent optimization,
    then minimum-area mapping.

    Operates on a copy; the input network is untouched.
    """
    optimized = network.copy(network.name + "_sis")
    optimize(optimized, effort=effort)
    base = decompose(optimized)
    return map_network(base, library, min_area(), partition_style=DAGON)


def dagon_flow(network: BooleanNetwork, library: CellLibrary,
               effort: str = "standard") -> MappingResult:
    """The DAGON baseline: moderately optimized technology-independent
    netlist mapped for minimum area by pure tree covering.

    The paper gives DAGON a SIS-generated technology-independent
    netlist; ``effort="standard"`` models that preprocessing.
    """
    prepared = network.copy(network.name + "_dagon")
    if effort != "none":
        optimize(prepared, effort=effort)
    base = decompose(prepared)
    return map_network(base, library, min_area(), partition_style=DAGON)


def timing_of_point(point: EvalPoint, config: FlowConfig,
                    netlist: Optional[MappedNetlist] = None) -> TimingReport:
    """STA of an evaluated point using its routed wirelengths.

    ``netlist`` defaults to the one attached via ``point.mapping``; pass
    it explicitly for points produced by :func:`evaluate_netlist`.
    """
    if point.placement is None or point.routing is None:
        raise ReproError("point was evaluated without placement/routing")
    if netlist is None:
        if point.mapping is None:
            raise ReproError("point has no mapping attached; pass netlist=")
        netlist = point.mapping.netlist
    lengths = {name: point.routing.net_wirelength(name)
               for name in point.routing.routes}
    analyzer = StaticTimingAnalyzer(config.library)
    return analyzer.analyze(netlist, lengths)
