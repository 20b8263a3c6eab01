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
  :meth:`~repro.core.flow.KLoop.evaluate_round`.  The opening round
  spreads probes evenly across the grid (always including the K=0
  anchor); each round's results are folded into the bracket in
  ascending-K order, so the bracket evolution — and therefore the
  chosen K — is independent of worker scheduling.

All three return the same chosen K; the adaptive strategies just
evaluate fewer points (the acceptance dies of Tables 2/4 close in ≤50%
of the grid).  Every strategy drives one
:class:`~repro.core.flow.KLoop`, so warm-start reuse composes with all
of them: serial probes thread one
:class:`~repro.route.router.RouteCache`, pool rounds shard it per task
and merge clean results back preferring the lowest K — the next,
smaller probes of a minimum-K search warm-start from the lowest clean
K seen, and since warm starts are pure speedups the evaluated rows
match the exhaustive sweep's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..network.dag import BaseNetwork
from ..obs import StatsRegistry, Tracer
from ..place.floorplan import Floorplan
from ..route.router import RouteCache
from .flow import EvalMemo, EvalPoint, FlowConfig, KLoop, PAPER_K_VALUES
from .matching import Matcher
from .partition import Partition
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


def _scan_ascending(loop: KLoop, lo: int, best: Optional[int],
                    batch: int = 1) -> Optional[int]:
    """Verification scan: ascending over the still-unevaluated points,
    in rounds of ``batch``.

    Everything at or left of ``lo`` is certified unroutable (region-1
    monotonicity) and every already-evaluated point below ``best`` was
    unroutable when probed, so scanning the unevaluated indices in
    ``(lo, best)`` ascending and returning the first routable one — or
    ``best`` when none turns up — yields exactly the grid minimum.
    """
    stop = best if best is not None else len(loop.grid)
    todo = [i for i in range(lo + 1, stop) if i not in loop.points]
    for start in range(0, len(todo), batch):
        group = todo[start:start + batch]
        loop.evaluate_round(group)
        for i in group:
            if loop.routable(i):
                return i
    return best


def _search_grid(loop: KLoop) -> Optional[int]:
    """Ascending reference scan in rounds of ``workers`` points; the
    first routable K is the grid minimum."""
    return _scan_ascending(loop, -1, None, batch=loop.workers)


def _search_bisect(loop: KLoop) -> Optional[int]:
    """Region-aware bisection (see module docstring)."""
    n = len(loop.grid)
    loop.evaluate(0)
    if loop.routable(0):
        return 0
    lo, hi = 0, n - 1
    v_lo = loop.violations(0)
    best: Optional[int] = None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        loop.evaluate(mid)
        if loop.routable(mid):
            best = mid if best is None else min(best, mid)
            hi = mid
        elif loop.violations(mid) > v_lo:
            # Overshot the window: more violations than the left anchor
            # means the area penalty is already hurting, not helping.
            hi = mid
        else:
            # Still region 1 — everything left of mid has at least
            # mid's violations, so the whole prefix is certified
            # unroutable without evaluating it.
            lo, v_lo = mid, loop.violations(mid)
    return _scan_ascending(loop, lo, best)


def _search_portfolio(loop: KLoop) -> Optional[int]:
    """Bracketing search fed by parallel rounds of probes."""
    n = len(loop.grid)
    width = max(2, loop.workers)
    first = _spread(n, width)
    loop.evaluate_round(first)
    if loop.routable(0):
        return 0
    lo, hi = 0, n - 1
    v_lo = loop.violations(0)
    best: Optional[int] = None
    pending = first[1:]
    while True:
        # Fold the round into the bracket in ascending-K order; probes
        # the bracket has already moved past are stale and skipped, so
        # the evolution never depends on worker scheduling.
        for i in pending:
            if not lo < i < hi:
                continue
            if loop.routable(i):
                best = i if best is None else min(best, i)
                hi = i
            elif loop.violations(i) > v_lo:
                hi = i
            else:
                lo, v_lo = i, loop.violations(i)
        if hi - lo <= 1:
            break
        candidates = [i for i in range(lo + 1, hi) if i not in loop.points]
        if not candidates:
            break
        pending = _pick_spread(candidates, width)
        loop.evaluate_round(pending)
    return _scan_ascending(loop, lo, best, batch=width)


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
             route_cache: Optional[RouteCache] = None,
             memo: Optional[EvalMemo] = None) -> KSearchResult:
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

    ``partition`` / ``matcher`` / ``route_cache`` / ``memo`` inject
    session-scoped caches (see :class:`~repro.core.flow.KLoop`) — pure
    speedups, same chosen K and identical evaluated rows.
    """
    grid = tuple(sorted({float(k) for k in k_values}))
    if not grid:
        raise ValueError("k_search needs a non-empty K grid")
    if strategy not in _STRATEGY_FNS:
        raise ValueError(f"unknown k_search strategy {strategy!r}; "
                         f"expected one of {STRATEGIES}")
    loop = KLoop(base, floorplan, config, grid, positions=positions,
                 workers=workers, tolerance=tolerance, prefer_low_k=True,
                 progress=progress, tracer=tracer, partition=partition,
                 matcher=matcher, route_cache=route_cache, memo=memo)
    with loop.span("ksearch", strategy=strategy, points=len(grid)) as span:
        chosen_i = _STRATEGY_FNS[strategy](loop)
        evals = len(loop.order)
        stats = StatsRegistry()
        stats.count("ksearch.grid_points", len(grid))
        stats.count("ksearch.found", 1 if chosen_i is not None else 0)
        stats.work("ksearch.evaluations", evals)
        stats.work("ksearch.rounds", loop.rounds)
        stats.work("ksearch.certified_skips", len(grid) - evals)
        stats.merge(loop.exec_stats)
        if span is not None:
            span.counters.absorb(stats)
    return KSearchResult(
        chosen=loop.points[chosen_i] if chosen_i is not None else None,
        evaluated=loop.evaluated, k_grid=grid, strategy=strategy,
        verdict=FOUND if chosen_i is not None else UNROUTABLE,
        tolerance=tolerance, stats=stats)
