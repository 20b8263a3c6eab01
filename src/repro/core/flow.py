"""End-to-end flows: the paper's methodology (Section 5, Figure 3).

This module glues the substrates into the experiments the paper runs:

* :func:`evaluate_netlist` — place, globally route and summarise one
  mapped netlist in a fixed floorplan (one row of Tables 1/2/4).
* :func:`run_k_point` — map the placed base network at one K and
  evaluate it, reusing what an :class:`EvalMemo` kept: the mapping
  made at this K, and the evaluation of the same mapped netlist on the
  same die.
* :class:`KLoop` — the one K loop: the base network and its placement
  are produced **once**, then re-mapped per K (the re-use the paper
  emphasises as the methodology's cheapness), serially or in process
  pool rounds; K points that re-map to an already-placed netlist skip
  placement, and routing too while the route cache is unchanged, and
  a K its memo already mapped is not mapped again.
* :func:`k_sweep` — the Table 2/4 experiment: every K of the schedule.
* :func:`congestion_aware_flow` — the Figure 3 loop: start at K = 0,
  evaluate the congestion map, raise K until the map is acceptable.
* :func:`find_routable_die` — grow the die row by row until a netlist
  routes (the paper's 71→72→75-row escalations).
* :func:`sis_flow` / :func:`dagon_flow` — the two baselines of Table 1.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, replace
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from ..errors import PlacementError, ReproError
from ..exec import fan_out
from ..library.cell import CellLibrary
from ..measures import total_hpwl
from ..obs import Span, StatsRegistry, Tracer, merged_counters
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

    ``workers`` is the default process fan-out of a K loop's pool
    rounds; 1 keeps everything serial.  Parallel runs are bit-identical
    to serial ones.

    ``route_reuse`` enables cross-K route warm-starting in the K loop:
    nets whose pin GCell signature is unchanged between K netlists
    start from an earlier K's final route.
    """

    library: CellLibrary
    resources: RoutingResources = field(default_factory=RoutingResources)
    partition_style: str = PLACEMENT
    gcell_rows: int = 2
    max_route_iterations: int = 25
    seed: int = 0
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
    #: The point's span subtree (k_point → map / evaluate → place /
    #: route), built identically on the serial and the process-pool
    #: paths; sweeps adopt it into the run's trace.  It is the point's
    #: one ledger: each counter sits on the span whose work it counts
    #: (mapping stats on ``map``, ``map.reused`` on a replayed ``map``,
    #: ``place.t_*`` on ``place``, ``place.reused`` on a replayed
    #: ``place``, routing stats on ``route``, ``eval.reused`` on a
    #: reused ``evaluate``, a pool round's ``exec.*`` on ``k_point``).
    trace: Optional[Span] = None

    @property
    def stats(self) -> StatsRegistry:
        """Every counter of :attr:`trace`, merged into a new registry
        on each read, so writing to it does not change the point."""
        if self.trace is None:
            return StatsRegistry()
        return merged_counters(self.trace)

    def row(self) -> Tuple[float, float, int, float, int]:
        """(K, cell area, #cells, utilization %, violations)."""
        return (self.k, self.cell_area, self.num_cells,
                self.utilization, self.violations)


#: A placement with the ``place`` span that made it (:class:`EvalMemo`).
Placed = Tuple[Placement, Span]

#: A mapping with its netlist's structure key and the ``map`` span that
#: made it (:class:`EvalMemo`).
Mapped = Tuple[MappingResult, Tuple, Span]


def evaluate_netlist(netlist: MappedNetlist, floorplan: Floorplan,
                     config: FlowConfig, k: float = 0.0,
                     route_cache: Optional[RouteCache] = None,
                     placed: Optional[Placed] = None) -> EvalPoint:
    """Place + globally route one netlist; summarise like a table row.

    The placer and the router are both seeded with ``config.seed`` (the
    router seed drives the negotiation's victim ordering).
    ``route_cache`` warm-starts unchanged nets from a previous
    evaluation's routes; the router only reads it, and a clean routing
    then refreshes it.  ``placed`` is the placement of an equal netlist
    (same :meth:`~MappedNetlist.structure_key`) on this die under this
    config; it is routed instead of placing the netlist again.

    The returned point's :attr:`EvalPoint.trace` is an ``evaluate``
    span with a ``place`` child, which carries the placer's
    ``place.t_*`` phase times, and a ``route`` child, which carries the
    routing's stats.  With ``placed`` the ``place`` child is its span
    replayed (:meth:`Span.replayed`) with ``place.reused`` (work) = 1.
    """
    tracer = Tracer("evaluate", k=k)
    area = netlist.total_area(config.library)
    if placed is None:
        place_timings: Dict[str, float] = {}
        with tracer.span("place") as sp_place:
            placement = place_netlist(netlist, config.library, floorplan,
                                      seed=config.seed,
                                      timings=place_timings)
        for phase, seconds in sorted(place_timings.items()):
            sp_place.counters.time(f"place.{phase}", seconds)
    else:
        placement, sp_place = placed[0], placed[1].replayed()
        sp_place.counters.work("place.reused", 1)
        tracer.adopt(sp_place)
    router = GlobalRouter(floorplan, config.resources,
                          gcell_rows=config.gcell_rows,
                          max_iterations=config.max_route_iterations,
                          seed=config.seed)
    with tracer.span("route") as sp_route:
        points = placement.net_points(netlist)
        routing = (router.route(points, cache=route_cache)
                   if route_cache is not None else router.route(points))
    sp_route.counters.absorb(routing.stats)
    # Only clean routings refresh the cache.  Warm-starting the next K
    # point's negotiation from a *congested* snapshot poisons it — the
    # router inherits overflow history it cannot unwind and lands on
    # strictly worse solutions than a cold start (the figure3
    # non-convergence regression).  A failed point therefore leaves the
    # last known-good routes in place.
    if route_cache is not None and routing.violations == 0:
        route_cache.store(routing)
    return EvalPoint(
        k=k, cell_area=area, num_cells=netlist.num_cells(),
        utilization=floorplan.utilization(area),
        violations=routing.violations,
        overflowed_nets=routing.overflowed_nets,
        routed_wirelength=routing.total_wirelength,
        hpwl=total_hpwl(points),
        routable=routing.violations == 0,
        placement=placement, routing=routing, trace=tracer.close())


#: Running-size weights of :attr:`EvalMemo.memo_nbytes`, fitted
#: against object walks of memos filled by K sweeps: bytes per mapped
#: cell (its instance, net names, seed position and share of the
#: structure key and the committed layout image), per placed cell or
#: pad (its position and its share of the netlist's structure key), and
#: per routed net and committed routing edge.
_MAPPED_NBYTES = 700
_PLACED_NBYTES = 500
_NET_NBYTES = 1000
_EDGE_NBYTES = 125


def _routing_nbytes(routing: RoutingResult) -> int:
    """Estimated bytes of one kept routing (see
    :attr:`EvalMemo.memo_nbytes`)."""
    return sum(_NET_NBYTES + _EDGE_NBYTES * len(route.edges)
               for route in routing.routes.values())


class EvalMemo:
    """The mappings and evaluations run on one die.

    :func:`evaluate_netlist` is a deterministic function of the netlist,
    the die, the config and the route cache's contents: its seeds are
    ``config.seed``, and the router only reads the cache.  A memo
    therefore serves K loops on one die under one config: a
    :class:`KLoop` builds one per request unless a caller injects a
    longer-lived one (:mod:`repro.serve` keeps one per (netlist, die)
    beside that pair's route pool), and passes it to every serial
    :func:`run_k_point`.  Every reuse is exact by construction.  The
    memo keeps three tiers:

    * **Mappings**, keyed by K.  :func:`~repro.core.mapper.map_network`
      is a deterministic function of the base network, its positions
      and partition, the library, the partition style and K: reused
      covers commit bit-identical netlists, and net names come from a
      deterministic counter.  The memo cannot compare layouts by
      content, so the tier holds mappings of one ``(base, positions,
      partition)`` triple, told apart by identity, and forgets them
      all when a loop passes other objects (:meth:`mapping`).  A kept
      mapping also keeps its netlist's structure key and its ``map``
      span, so a point that reuses it neither maps nor keys the
      netlist again.

    The other two tiers tell netlists apart by
    :meth:`~repro.network.netlist.MappedNetlist.structure_key`, whole
    keys compared:

    * **Placements.**  :func:`~repro.place.placer.place_netlist` reads
      only the netlist, the die, the library and ``config.seed``, so a
      netlist placed once is never placed again: later evaluations of
      an equal netlist route the stored placement (``placed`` of
      :func:`evaluate_netlist`).  These entries are never forgotten.
    * **Whole evaluations.**  A netlist evaluated under the route
      cache's current contents reuses that evaluation's placement and
      routing instead of running them again.  The cache changes in one
      way only: :meth:`RouteCache.store` installs a new ``routes`` dict
      when a clean routing (or a parallel round's merge) brings routes
      that differ from the stored ones, and keeps the dict when they
      are equal.  The memo keeps the dict its evaluations saw and
      forgets them all once the cache holds another one; an evaluation
      whose store changed the cache is not kept, since it saw the old
      contents.  With no cache (``route_reuse`` off) they stay valid
      for the memo's life.

    Kept objects are shared read-only with the points that reuse them.
    :attr:`memo_nbytes` is a running estimate of the bytes the memo
    holds, like :attr:`Matcher.memo_nbytes`.
    """

    def __init__(self) -> None:  # noqa: D107
        self._mapped: Dict[float, Mapped] = {}
        self._layout: Tuple = (None, None, None)
        self._placed: Dict[Tuple, Placed] = {}
        self._done: Dict[Tuple, EvalPoint] = {}
        self._routes: Optional[dict] = None
        self._mapped_nbytes = 0
        self._placed_nbytes = 0
        self._done_nbytes = 0

    @property
    def memo_nbytes(self) -> int:
        """Estimated bytes of the kept mappings, placements and
        routings."""
        return self._mapped_nbytes + self._placed_nbytes + self._done_nbytes

    def mapping(self, base: BaseNetwork, positions: PositionMap,
                partition: Partition, k: float) -> Optional[Mapped]:
        """The mapping kept for ``k``, if the tier holds mappings of
        these very objects; if it holds another triple's, forget them
        and hold this one's from now on (:meth:`keep_mapping`)."""
        layout = (base, positions, partition)
        if any(a is not b for a, b in zip(layout, self._layout)):
            self._mapped.clear()
            self._mapped_nbytes = 0
            self._layout = layout
        return self._mapped.get(k)

    def keep_mapping(self, k: float, mapping: MappingResult,
                     span: Span) -> Tuple:
        """Keep ``mapping``, made at ``k`` from the objects of the last
        :meth:`mapping` call, and its ``map`` span; returns its
        netlist's structure key."""
        key = mapping.netlist.structure_key()
        self._mapped[k] = (mapping, key, span)
        self._mapped_nbytes += _MAPPED_NBYTES * mapping.netlist.num_cells()
        return key

    def _current(self, route_cache: Optional[RouteCache]) -> bool:
        """Whether the kept evaluations saw ``route_cache``'s contents;
        if not, forget them and adopt the contents it holds now."""
        routes = route_cache.routes if route_cache is not None else None
        if routes is self._routes:
            return True
        self._done.clear()
        self._done_nbytes = 0
        self._routes = routes
        return False

    def evaluate(self, netlist: MappedNetlist, floorplan: Floorplan,
                 config: FlowConfig, k: float,
                 route_cache: Optional[RouteCache],
                 key: Optional[Tuple] = None) -> EvalPoint:
        """:func:`evaluate_netlist`, reusing what an equal netlist's
        evaluation left behind; ``key`` is the netlist's structure key
        when the caller already has it."""
        self._current(route_cache)
        if key is None:
            key = netlist.structure_key()
        done = self._done.get(key)
        if done is not None:
            return _reuse_evaluation(done, k)
        placed = self._placed.get(key)
        point = evaluate_netlist(netlist, floorplan, config, k=k,
                                 route_cache=route_cache, placed=placed)
        if placed is None:
            self._placed[key] = (point.placement, point.trace.children[0])
            self._placed_nbytes += _PLACED_NBYTES * (
                len(point.placement.positions) + len(point.placement.pads))
        if self._current(route_cache):
            self._done[key] = point
            self._done_nbytes += _routing_nbytes(point.routing)
        return point


def _reuse_evaluation(done: EvalPoint, k: float) -> EvalPoint:
    """``done``'s evaluation served again at ``k`` (see :class:`EvalMemo`).

    The row fields, placement, routing, HPWL and routed wirelength are
    ``done``'s, and the objects are shared read-only.  The ``evaluate``
    subtree is replayed (:meth:`Span.replayed`): results are kept, work
    and times read 0, so per-point :meth:`deterministic` views and span
    skeletons equal a fresh evaluation's.  ``eval.reused`` (work) = 1
    on the ``evaluate`` span marks the point.
    """
    tracer = Tracer("evaluate", k=k)
    tracer.root.counters.work("eval.reused", 1)
    for child in done.trace.children:
        tracer.adopt(child.replayed())
    return replace(done, k=k, trace=tracer.close())


def run_k_point(base: BaseNetwork, positions: PositionMap,
                floorplan: Floorplan, config: FlowConfig,
                k: float, partition: Optional[Partition] = None,
                matcher: Optional[Matcher] = None,
                route_cache: Optional[RouteCache] = None,
                memo: Optional[EvalMemo] = None) -> EvalPoint:
    """Map the (already placed) base network at one K and evaluate it.

    ``partition`` and ``matcher`` are the K-independent products of the
    base network and its placement; a :class:`KLoop` computes them once
    and passes them to every K point.  ``route_cache`` carries routes
    between K points: nets whose pin GCell signature is unchanged
    warm-start from the previous K's final route.  ``memo``, the
    :class:`KLoop`'s, lets a point reuse the mapping kept for this K
    when ``partition`` is given, and a point whose netlist was already
    placed on this die reuse the placement, and the routing too while
    the route cache is unchanged (:class:`EvalMemo`); without one the
    point is always mapped, placed and routed.

    A reused mapping is shared read-only, and its ``map`` span is
    replayed (:meth:`Span.replayed`) with ``map.reused`` (work) = 1,
    so the point's skeleton is a fresh point's.
    """
    tracer = Tracer("k_point", k=k)
    reuse = memo is not None and partition is not None
    kept = memo.mapping(base, positions, partition, k) if reuse else None
    if kept is None:
        with tracer.span("map") as sp_map:
            mapping = map_network(base, config.library, area_congestion(k),
                                  partition_style=config.partition_style,
                                  positions=positions,
                                  partition=partition, matcher=matcher)
        sp_map.counters.absorb(mapping.stats)
        key = memo.keep_mapping(k, mapping, sp_map) if reuse else None
    else:
        mapping, key, sp_map = kept[0], kept[1], kept[2].replayed()
        sp_map.counters.work("map.reused", 1)
        tracer.adopt(sp_map)
    if memo is None:
        point = evaluate_netlist(mapping.netlist, floorplan, config, k=k,
                                 route_cache=route_cache)
    else:
        point = memo.evaluate(mapping.netlist, floorplan, config, k,
                              route_cache, key=key)
    tracer.adopt(point.trace)
    return replace(point, mapping=mapping, trace=tracer.close())


def _k_point_task(payload: Tuple[Any, ...], k: float) -> EvalPoint:
    """One K point of a :class:`KLoop` pool round (a fan-out task).

    The payload carries the loop's matcher, so a round that falls back
    to the serial loop maps with it, and a pool worker with its own
    copy, which then serves every K point that worker runs.  The last
    slot is an optional :class:`RouteCache` snapshot; each task clones
    it into a private shard, so every K point of a round warm-starts
    from the same opening snapshot no matter which worker runs it (or
    whether the round fell back to the serial loop) — the property that
    keeps sharded rounds bit-identical across execution plans.
    """
    base, positions, floorplan, config, part, matcher, snapshot = payload
    shard = snapshot.clone() if snapshot is not None else None
    return run_k_point(base, positions, floorplan, config, k,
                       partition=part, matcher=matcher, route_cache=shard)


class KLoop:
    """One request's K loop: the paper's Section 5 methodology.

    The base network is placed once and re-mapped per K of ``k_values``
    (:func:`run_k_point`).  The constructor builds what every K point
    shares: the technology-independent positions, the partition, the
    matcher (match memo + cover memo), the warm-start route cache and
    the :class:`EvalMemo`.  ``positions`` / ``partition`` / ``matcher`` /
    ``route_cache`` / ``memo`` inject session-scoped copies (see
    :mod:`repro.serve`); all are pure speedups, so the rows are those
    of an uninjected loop.  With ``config.route_reuse`` off there is no
    route cache, and an injected one is ignored.

    Callers name points by their index into :attr:`grid`.
    :meth:`evaluate` runs one point serially, threading the route cache
    and the memo through; a K the memo already mapped from this loop's
    base, positions and partition objects reuses that mapping (a loop
    evaluates each index once, so this happens on a repeated K, or with
    an injected memo that earlier loops filled).
    :meth:`evaluate_round` runs a round of points over a pool of
    ``workers`` processes (default ``config.workers``): every task maps
    with the loop's matcher and clones the round's opening cache
    snapshot into a private shard, and the cache then adopts one clean
    member of the round.  Either way
    each point is recorded once: its subtree is adopted into
    ``tracer``, its line goes to ``progress``, and a pool round's
    ``exec.*`` entries go on its ``k_point`` span and into
    :attr:`exec_stats`.
    """

    def __init__(self, base: BaseNetwork, floorplan: Floorplan,
                 config: FlowConfig, k_values: Sequence[float],
                 positions: Optional[PositionMap] = None,
                 workers: Optional[int] = None, tolerance: int = 0,
                 prefer_low_k: bool = False,
                 progress: Optional[Callable[[str], None]] = None,
                 tracer: Optional[Tracer] = None,
                 partition: Optional[Partition] = None,
                 matcher: Optional[Matcher] = None,
                 route_cache: Optional[RouteCache] = None,
                 memo: Optional[EvalMemo] = None):  # noqa: D107
        if positions is None:
            positions = place_base_network(base, floorplan, seed=config.seed)
        if partition is None:
            partition = make_partition(base, config.partition_style,
                                       positions=positions)
        if not config.route_reuse:
            route_cache = None
        elif route_cache is None:
            route_cache = RouteCache()
        self.base, self.floorplan, self.config = base, floorplan, config
        self.positions, self.partition = positions, partition
        self.matcher = matcher if matcher is not None \
            else Matcher(base, config.library)
        self.cache = route_cache
        self.memo = memo if memo is not None else EvalMemo()
        self.grid = tuple(k_values)
        self.workers = max(1, config.workers if workers is None else workers)
        #: Violations still counted as routable (:meth:`routable`).
        self.tolerance = tolerance
        #: Which clean member of a pool round the cache adopts.
        self.prefer_low_k = prefer_low_k
        self.progress = progress
        self.tracer = tracer
        #: Evaluated points by grid index; indices in evaluation order.
        self.points: Dict[int, EvalPoint] = {}
        self.order: List[int] = []
        #: Pool rounds run, and their merged ``exec.*`` entries.
        self.rounds = 0
        self.exec_stats = StatsRegistry()

    @property
    def evaluated(self) -> List[EvalPoint]:
        """The evaluated points, in evaluation order."""
        return [self.points[i] for i in self.order]

    def routable(self, i: int) -> bool:
        """Whether point ``i`` routes within the loop's tolerance."""
        return self.points[i].violations <= self.tolerance

    def violations(self, i: int) -> int:
        """Point ``i``'s routing violations."""
        return self.points[i].violations

    def span(self, name: str, **attrs: Any):
        """A span of ``tracer`` for the whole loop (a no-op without one)."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, **attrs)

    def evaluate(self, i: int) -> None:
        """Evaluate point ``i`` serially, unless it already was."""
        if i not in self.points:
            self._record(i, run_k_point(
                self.base, self.positions, self.floorplan, self.config,
                self.grid[i], partition=self.partition, matcher=self.matcher,
                route_cache=self.cache, memo=self.memo))

    def evaluate_round(self, indices: Iterable[int]) -> None:
        """Evaluate the points of ``indices`` not evaluated yet as one
        pool round; with one worker, or one such point, they run
        serially (:meth:`evaluate`).

        Points are recorded in ``indices`` order.  Shards only ever
        *store* the zero-violation routing of their own K point, so
        merging reduces to picking one clean member as the next
        snapshot: the highest-K one, the state a serial ascending sweep
        would leave behind, or with ``prefer_low_k`` the lowest-K one,
        which the next, smaller probes of a minimum-K search want to
        warm-start from.  The pick depends only on the round's results,
        never on worker scheduling.
        """
        todo = [i for i in indices if i not in self.points]
        if self.workers == 1 or len(todo) <= 1:
            for i in todo:
                self.evaluate(i)
            return
        self.rounds += 1
        round_stats = StatsRegistry()
        snapshot = self.cache if self.cache is not None \
            and self.cache.routes else None
        payload = (self.base, self.positions, self.floorplan, self.config,
                   self.partition, self.matcher, snapshot)
        points = fan_out(_k_point_task, payload,
                         [self.grid[i] for i in todo], workers=self.workers,
                         stats=round_stats, tracer=self.tracer)
        clean = [p for p in points
                 if p.routing is not None and p.routing.violations == 0]
        if self.cache is not None and clean:
            pick = (min if self.prefer_low_k else max)(clean,
                                                       key=lambda p: p.k)
            self.cache.store(pick.routing)
        self.exec_stats.merge(round_stats)
        for i, point in zip(todo, points):
            point.trace.counters.merge(round_stats)
            self._record(i, point)

    def _record(self, i: int, point: EvalPoint) -> None:
        self.points[i] = point
        self.order.append(i)
        if self.tracer is not None:
            self.tracer.adopt(point.trace)
        if self.progress is not None:
            self.progress(f"K={point.k:g}: area={point.cell_area:.0f} "
                          f"cells={point.num_cells} "
                          f"util={point.utilization:.1f}% "
                          f"violations={point.violations}")


def k_sweep(base: BaseNetwork, floorplan: Floorplan, config: FlowConfig,
            k_values: Sequence[float] = PAPER_K_VALUES,
            positions: Optional[PositionMap] = None,
            progress: Optional[Callable[[str], None]] = None,
            workers: Optional[int] = None,
            tracer: Optional[Tracer] = None,
            partition: Optional[Partition] = None,
            matcher: Optional[Matcher] = None,
            route_cache: Optional[RouteCache] = None,
            memo: Optional[EvalMemo] = None) -> List[EvalPoint]:
    """The Table 2/4 experiment: one mapping + evaluation per K.

    A :class:`KLoop` places the technology-independent network once and
    re-maps it per K, exactly as the paper's methodology prescribes;
    the partition and the matcher's match enumeration likewise depend
    only on the base network and its placement, so they are hoisted
    out of the per-K loop.  The points come back in ``k_values`` order.

    ``workers`` (defaulting to ``config.workers``) runs the sweep in
    pool rounds of ``workers`` K points; the rows are bit-identical to
    a serial sweep's.  With ``config.route_reuse`` on, the K points
    thread a :class:`RouteCache`: nets whose pin GCell signature is
    unchanged between K netlists warm-start from a previous K's final
    route, so the sweep stops paying full routing cost at every K.
    Warm starts are pure speedups — a warm-started point reports the
    same row as a cold one.  With ``route_reuse`` off no round depends
    on another, so the sweep is one round of every K point.  A K point
    run serially that re-maps to an earlier point's netlist reuses its
    placement, and its routing too while the route cache is unchanged
    (:class:`EvalMemo`); pool tasks evaluate every point.

    ``tracer``, when given, receives one ``sweep`` span whose children
    are the K points' subtrees, adopted in K order on every plan.

    ``partition`` / ``matcher`` / ``route_cache`` / ``memo`` inject
    session-scoped caches (see :class:`KLoop`); the returned rows are
    identical to an uninjected sweep's.
    """
    loop = KLoop(base, floorplan, config, k_values, positions=positions,
                 workers=workers, progress=progress, tracer=tracer,
                 partition=partition, matcher=matcher,
                 route_cache=route_cache, memo=memo)
    n = len(loop.grid)
    size = loop.workers if loop.cache is not None else max(1, n)
    with loop.span("sweep", points=n) as span:
        for start in range(0, n, size):
            loop.evaluate_round(range(start, min(start + size, n)))
        if span is not None:
            span.counters.merge(loop.exec_stats)
    return loop.evaluated


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
                          route_cache: Optional[RouteCache] = None,
                          memo: Optional[EvalMemo] = None) -> FlowResult:
    """The modified ASIC design flow of Figure 3.

    Place the technology-independent netlist once; map with K = 0;
    evaluate the congestion map; while congested, take the next K from
    the schedule and re-map (technology mapping is linear-time, so this
    loop is cheap relative to re-synthesis).  Stops at the first
    acceptable map, or reports non-convergence — the case where the
    paper says floorplan constraints must be relaxed.

    ``tracer``, when given, receives one ``flow`` span whose children
    are the evaluated K points' subtrees in schedule order.

    ``partition`` / ``matcher`` / ``route_cache`` / ``memo``, when
    given, inject session-scoped caches (see :class:`KLoop`) — pure
    speedups, identical results.
    """
    # The loop is inherently sequential (each K's verdict gates the
    # next), so it evaluates one point at a time.
    loop = KLoop(base, floorplan, config, k_schedule, positions=positions,
                 tolerance=tolerance, tracer=tracer, partition=partition,
                 matcher=matcher, route_cache=route_cache, memo=memo)
    with loop.span("flow", tolerance=tolerance) as flow_span:
        verdict = FLOW_SCHEDULE_EXHAUSTED
        for i in range(len(loop.grid)):
            loop.evaluate(i)
            if loop.routable(i):
                verdict = FLOW_CONVERGED
                break
            # The paper's stopping heuristic: once congestion worsens
            # while the area penalty keeps growing, more K will not
            # help.
            if i >= 2 and loop.violations(i) > loop.violations(i - 1) \
                    > loop.violations(i - 2):
                verdict = FLOW_EARLY_STOP
                break
        if flow_span is not None:
            flow_span.attrs["verdict"] = verdict
            flow_span.counters.gauge(
                "flow.early_stop", 1.0 if verdict == FLOW_EARLY_STOP else 0.0)
    history = loop.evaluated
    converged = verdict == FLOW_CONVERGED
    return FlowResult(chosen=history[-1] if converged else None,
                      history=history, converged=converged, verdict=verdict)


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
