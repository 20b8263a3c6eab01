"""Adaptive search for the minimum routable K of the paper's sweep.

Tables 2 and 4 evaluate every K of :data:`~repro.core.flow.PAPER_K_VALUES`
and read off the smallest K whose map routes.  When only that minimum is
wanted, the exhaustive sweep over-pays: the violation profile over K has
the paper's three-region shape (Section 5) — violations *fall* with K
while the mapper still trades area for wire (region 1), bottom out in a
routable window (region 2), then *rise* again once the area penalty
bloats the netlist past the die's capacity (region 3) — and that
structure admits a bracketing search.

:func:`k_search` finds the grid minimum with one of three strategies:

* :data:`GRID` — the ascending reference scan, stopping at the first
  routable K.  This is the oracle the adaptive strategies are asserted
  against; with ``workers > 1`` it scans in pool rounds.
* :data:`BISECT` — region-aware bisection.  An unroutable probe whose
  violation count does **not** exceed the running left anchor's is still
  in region 1, so every grid point left of it is certified unroutable by
  the region's monotonicity and the bracket's low edge jumps there
  without evaluating them.  A probe whose violations *exceed* the anchor
  has overshot the window and tightens the high edge instead.  When the
  bracket closes without a routable hit, an ascending verification scan
  of the still-unevaluated points (capped by the best routable point
  seen, if any) recovers exhaustive-scan behaviour — the blips real
  profiles show (e.g. the Table 2 K=0.05 bump) cost extra evaluations,
  never a wrong answer.
* :data:`PORTFOLIO` — the same bracket logic fed by *rounds* of up to
  ``workers`` probes evaluated concurrently through
  :func:`~repro.core.flow.evaluate_k_round`.  The opening round spreads
  probes evenly across the grid (always including the K=0 anchor); each
  round's results are folded into the bracket in ascending-K order, so
  the bracket evolution — and therefore the chosen K — is independent
  of worker scheduling.

All three return the same chosen K; the adaptive strategies just
evaluate fewer points (the acceptance dies of Tables 2/4 close in ≤50%
of the grid).  Warm-start reuse composes with every strategy: serial
strategies thread one :class:`~repro.route.router.RouteCache` through
the probes, parallel rounds shard it per task and merge clean results
back with ``prefer_low_k=True`` — the next, smaller probes of a
minimum-K search warm-start from the lowest clean K seen, and since
warm starts are pure speedups the evaluated rows match the exhaustive
sweep's bit for bit.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..network.dag import BaseNetwork
from ..obs import StatsRegistry, Tracer
from ..place.floorplan import Floorplan
from ..place.placer import place_base_network
from ..route.router import RouteCache
from .flow import (
    EvalMemo,
    EvalPoint,
    FlowConfig,
    PAPER_K_VALUES,
    _progress_line,
    _resolve_caches,
    evaluate_k_round,
    merge_round_routes,
    run_k_point,
)
from .matching import Matcher
from .partition import Partition, partition as make_partition
from .wirecost import PositionMap

__all__ = ["BISECT", "FOUND", "GRID", "KSearchResult", "PORTFOLIO",
           "STRATEGIES", "UNROUTABLE", "k_search"]

#: Search strategies (see module docstring).
GRID = "grid"
BISECT = "bisect"
PORTFOLIO = "portfolio"
STRATEGIES = (GRID, BISECT, PORTFOLIO)

#: :attr:`KSearchResult.verdict` values.
FOUND = "found"
UNROUTABLE = "unroutable"


@dataclass
class KSearchResult:
    """Outcome of a minimum-K search."""

    #: The grid-minimum routable point, or ``None`` when no grid K
    #: routes within ``tolerance``.
    chosen: Optional[EvalPoint]
    #: Every point actually evaluated, in evaluation order — the
    #: audit trail of what the strategy probed.
    evaluated: List[EvalPoint]
    #: The (sorted, deduplicated) K grid searched.
    k_grid: Tuple[float, ...]
    strategy: str
    #: :data:`FOUND` or :data:`UNROUTABLE`.
    verdict: str
    tolerance: int
    #: ``ksearch.*`` counters: ``grid_points`` / ``found`` (count —
    #: plan-independent), ``evaluations`` / ``rounds`` /
    #: ``certified_skips`` (work — they depend on strategy and worker
    #: count by design).
    stats: StatsRegistry = field(default_factory=StatsRegistry)

    @property
    def chosen_k(self) -> Optional[float]:
        """The minimum routable K, if one was found."""
        return self.chosen.k if self.chosen else None

    @property
    def evaluations(self) -> int:
        """How many grid points the strategy actually evaluated."""
        return len(self.evaluated)

    def table_points(self) -> List[EvalPoint]:
        """The evaluated points in ascending-K order (for reporting)."""
        return sorted(self.evaluated, key=lambda p: p.k)


class _Evaluator:
    """Grid-point evaluation with memoisation, reuse and bookkeeping.

    Strategies talk indices; the evaluator owns the mapping to K
    values, the shared matcher, the route cache, and the per-point
    tracing/progress plumbing.  ``evaluate`` is the serial path (one
    matcher, one threaded cache, one :class:`~repro.core.flow.EvalMemo`
    — exactly :func:`~repro.core.flow.k_sweep`'s serial loop);
    ``evaluate_round`` is the parallel-safe unit (shards
    cloned from the last clean snapshot, merged back preferring the
    lowest clean K so subsequent smaller probes warm-start).
    """

    def __init__(self, base: BaseNetwork, positions: PositionMap,
                 floorplan: Floorplan, config: FlowConfig,
                 grid: Tuple[float, ...], part: Partition,
                 tolerance: int, workers: int,
                 tracer: Optional[Tracer],
                 progress: Optional[Callable[[str], None]],
                 matcher: Optional[Matcher] = None,
                 route_cache: Optional[RouteCache] = None):
        self.base = base
        self.positions = positions
        self.floorplan = floorplan
        self.config = config
        self.grid = grid
        self.part = part
        self.tolerance = tolerance
        self.workers = workers
        self.tracer = tracer
        self.progress = progress
        self.points: Dict[int, EvalPoint] = {}
        self.order: List[int] = []
        self.rounds = 0
        self.exec_stats = StatsRegistry()
        self.cache = _resolve_caches(config, route_cache)
        self.memo = EvalMemo()
        self._matcher = matcher if matcher is not None \
            else Matcher(base, config.library)

    @property
    def evals(self) -> int:
        return len(self.order)

    def routable(self, i: int) -> bool:
        return self.points[i].violations <= self.tolerance

    def violations(self, i: int) -> int:
        return self.points[i].violations

    def evaluate(self, i: int) -> EvalPoint:
        """Serially evaluate grid point ``i`` (no-op when already done)."""
        if i in self.points:
            return self.points[i]
        point = run_k_point(self.base, self.positions, self.floorplan,
                            self.config, self.grid[i], partition=self.part,
                            matcher=self._matcher, route_cache=self.cache,
                            memo=self.memo)
        self._record(i, point)
        return point

    def evaluate_round(self, indices: Sequence[int]) -> List[EvalPoint]:
        """Evaluate a round of grid points over the process pool."""
        todo = [i for i in indices if i not in self.points]
        if not todo:
            return []
        if self.workers <= 1 or len(todo) == 1:
            return [self.evaluate(i) for i in todo]
        self.rounds += 1
        round_stats = StatsRegistry()
        round_points = evaluate_k_round(
            self.base, self.positions, self.floorplan, self.config,
            [self.grid[i] for i in todo], self.part,
            workers=self.workers, route_cache=self.cache,
            stats=round_stats, tracer=self.tracer)
        if self.cache is not None:
            merge_round_routes(self.cache, round_points, prefer_low_k=True)
        self.exec_stats.merge(round_stats)
        for i, point in zip(todo, round_points):
            point.stats.merge(round_stats)
            self._record(i, point)
        return round_points

    def _record(self, i: int, point: EvalPoint) -> None:
        self.points[i] = point
        self.order.append(i)
        if self.tracer is not None:
            self.tracer.adopt(point.trace)
        if self.progress is not None:
            self.progress(_progress_line(point))


def _spread(n: int, count: int) -> List[int]:
    """Up to ``count`` evenly spaced indices over ``range(n)``, incl. 0."""
    count = max(2, min(count, n))
    if n <= count:
        return list(range(n))
    return sorted({round(j * (n - 1) / (count - 1)) for j in range(count)})


def _pick_spread(candidates: List[int], count: int) -> List[int]:
    """Evenly spaced subset of an (ascending) candidate list."""
    if len(candidates) <= count:
        return list(candidates)
    step = (len(candidates) - 1) / (count - 1)
    return sorted({candidates[round(j * step)] for j in range(count)})


def _scan_ascending(ev: _Evaluator, lo: int, best: Optional[int],
                    batch: int = 1) -> Optional[int]:
    """Verification scan: ascending over the still-unevaluated points.

    Everything at or left of ``lo`` is certified unroutable (region-1
    monotonicity) and every already-evaluated point below ``best`` was
    unroutable when probed, so scanning the unevaluated indices in
    ``(lo, best)`` ascending and returning the first routable one — or
    ``best`` when none turns up — yields exactly the grid minimum.
    """
    stop = best if best is not None else len(ev.grid)
    todo = [i for i in range(lo + 1, stop) if i not in ev.points]
    batch = max(1, batch)
    for start in range(0, len(todo), batch):
        group = todo[start:start + batch]
        if batch > 1:
            ev.evaluate_round(group)
        else:
            ev.evaluate(group[0])
        for i in group:
            if ev.routable(i):
                return i
    return best


def _search_grid(ev: _Evaluator) -> Optional[int]:
    """Ascending reference scan; first routable K is the grid minimum."""
    n = len(ev.grid)
    if ev.workers > 1:
        for start in range(0, n, ev.workers):
            group = list(range(start, min(start + ev.workers, n)))
            ev.evaluate_round(group)
            for i in group:
                if ev.routable(i):
                    return i
        return None
    for i in range(n):
        ev.evaluate(i)
        if ev.routable(i):
            return i
    return None


def _search_bisect(ev: _Evaluator) -> Optional[int]:
    """Region-aware bisection (see module docstring)."""
    n = len(ev.grid)
    ev.evaluate(0)
    if ev.routable(0):
        return 0
    lo, hi = 0, n - 1
    v_lo = ev.violations(0)
    best: Optional[int] = None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ev.evaluate(mid)
        if ev.routable(mid):
            best = mid if best is None else min(best, mid)
            hi = mid
        elif ev.violations(mid) > v_lo:
            # Overshot the window: more violations than the left anchor
            # means the area penalty is already hurting, not helping.
            hi = mid
        else:
            # Still region 1 — everything left of mid has at least
            # mid's violations, so the whole prefix is certified
            # unroutable without evaluating it.
            lo, v_lo = mid, ev.violations(mid)
    return _scan_ascending(ev, lo, best)


def _search_portfolio(ev: _Evaluator) -> Optional[int]:
    """Bracketing search fed by parallel rounds of probes."""
    n = len(ev.grid)
    width = max(2, ev.workers)
    first = _spread(n, width)
    ev.evaluate_round(first)
    if ev.routable(0):
        return 0
    lo, hi = 0, n - 1
    v_lo = ev.violations(0)
    best: Optional[int] = None
    pending = first[1:]
    while True:
        # Fold the round into the bracket in ascending-K order; probes
        # the bracket has already moved past are stale and skipped, so
        # the evolution never depends on worker scheduling.
        for i in pending:
            if not lo < i < hi:
                continue
            if ev.routable(i):
                best = i if best is None else min(best, i)
                hi = i
            elif ev.violations(i) > v_lo:
                hi = i
            else:
                lo, v_lo = i, ev.violations(i)
        if hi - lo <= 1:
            break
        candidates = [i for i in range(lo + 1, hi) if i not in ev.points]
        if not candidates:
            break
        pending = _pick_spread(candidates, width)
        ev.evaluate_round(pending)
    return _scan_ascending(ev, lo, best, batch=width)


_STRATEGY_FNS = {GRID: _search_grid, BISECT: _search_bisect,
                 PORTFOLIO: _search_portfolio}


def k_search(base: BaseNetwork, floorplan: Floorplan, config: FlowConfig,
             k_values: Sequence[float] = PAPER_K_VALUES,
             positions: Optional[PositionMap] = None,
             strategy: str = BISECT, tolerance: int = 0,
             workers: Optional[int] = None,
             progress: Optional[Callable[[str], None]] = None,
             tracer: Optional[Tracer] = None,
             partition: Optional[Partition] = None,
             matcher: Optional[Matcher] = None,
             route_cache: Optional[RouteCache] = None) -> KSearchResult:
    """Find the minimum routable K of the grid without sweeping it all.

    ``base`` is placed once (unless ``positions`` is given) and
    re-mapped per probed K, exactly like :func:`~repro.core.flow.k_sweep`
    — an evaluated probe's row is identical to the corresponding row of
    the exhaustive sweep.  ``tolerance`` is the violation count still
    considered routable (the paper's "basically routable").

    ``workers`` (defaulting to ``config.workers``) sizes the rounds of
    the :data:`PORTFOLIO` strategy and the pool fan-out of the others;
    the chosen K never depends on it.

    ``tracer``, when given, receives one ``ksearch`` span whose
    children are the evaluated points' subtrees in evaluation order.

    ``partition`` / ``matcher`` / ``route_cache`` inject session-scoped
    caches exactly like :func:`~repro.core.flow.k_sweep` — pure
    speedups, same chosen K and identical evaluated rows.
    """
    grid = tuple(sorted({float(k) for k in k_values}))
    if not grid:
        raise ValueError("k_search needs a non-empty K grid")
    if strategy not in _STRATEGY_FNS:
        raise ValueError(f"unknown k_search strategy {strategy!r}; "
                         f"expected one of {STRATEGIES}")
    nworkers = max(1, config.workers if workers is None else workers)
    if positions is None:
        positions = place_base_network(base, floorplan, seed=config.seed)
    part = partition if partition is not None else \
        make_partition(base, config.partition_style, positions=positions)
    span_cm = (tracer.span("ksearch", strategy=strategy, points=len(grid))
               if tracer is not None else contextlib.nullcontext())
    with span_cm as span:
        ev = _Evaluator(base, positions, floorplan, config, grid, part,
                        tolerance, nworkers, tracer, progress,
                        matcher=matcher, route_cache=route_cache)
        chosen_i = _STRATEGY_FNS[strategy](ev)
        stats = StatsRegistry()
        stats.count("ksearch.grid_points", len(grid))
        stats.count("ksearch.found", 1 if chosen_i is not None else 0)
        stats.work("ksearch.evaluations", ev.evals)
        stats.work("ksearch.rounds", ev.rounds)
        stats.work("ksearch.certified_skips", len(grid) - ev.evals)
        stats.merge(ev.exec_stats)
        if span is not None:
            span.counters.absorb(stats)
    return KSearchResult(
        chosen=ev.points[chosen_i] if chosen_i is not None else None,
        evaluated=[ev.points[i] for i in ev.order],
        k_grid=grid, strategy=strategy,
        verdict=FOUND if chosen_i is not None else UNROUTABLE,
        tolerance=tolerance, stats=stats)
