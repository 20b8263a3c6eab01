"""The global router: initial pattern routing + negotiated rip-up/reroute.

This is the Silicon Ensemble stand-in.  Every net is decomposed into
two-pin segments (MST), routed initially with the cheaper of the two
L-shapes, then overflowed **segments** are iteratively ripped up and
rerouted under a growing congestion/history penalty.  Whatever overflow
survives the final round is reported as **routing violations** — the
proxy for the paper's detailed-routing violation counts (zero overflow
⇒ routable; see DESIGN.md on this substitution).

Rip-up is *incremental*: only segments crossing an overflowed edge are
ripped, and each is first offered the cheapest overflow-free L/Z
pattern (:func:`_best_pattern`) before paying for a maze search
(:func:`_maze`).  Inside one :meth:`GlobalRouter.route` call demand and
history live in flat Python lists indexed by edge id, and every segment
is a list of flat edge ids: on the 7x7 to 42x42 GCell grids the flows
route, a victim's pattern scan or maze search touches a few dozen
edges, where a numpy call costs more than the arithmetic it would
batch.  Numpy keeps the whole-grid steps that run once per negotiation
round (overflow total, overflow mask, history bump, victim gather).
The per-edge rendition of the identical algorithm,
:func:`repro.route.reference.route_reference`, is kept as the
equivalence oracle: tests assert both produce the same routes,
violations, overflowed-net counts and wirelength.

All cost comparisons are sums of exactly-representable float64 values
(unit costs, integer history, ``penalty × integer overflow``, and
integer demand sums divided once by capacity), so the two renditions
take bit-identical decisions despite summing in different orders.

The router ``seed`` feeds the negotiation's victim ordering (see
:func:`victim_order`): different seeds explore different rip-up
schedules.

Cross-evaluation route reuse: a :class:`RouteCache` carries the final
per-segment routes of one run, keyed by each net's **pin GCell
signature** (sorted distinct GCells).  A later run over the same grid
warm-starts any net with an unchanged signature from the cached route
instead of re-deriving L-shapes — the mechanism ``core.flow.k_sweep``
uses so adjacent K points stop paying full routing cost.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs import StatsRegistry
from ..place.floorplan import Floorplan
from .grid import GCell, RoutingGrid, RoutingResources
from .maze import BBOX_MARGIN, maze_window
from .steiner import gcell_signature, mst_segments

Point = Tuple[float, float]
Edge = Tuple[int, int, int]
Signature = Tuple[GCell, ...]

#: Overflow-penalty growth per negotiation round.
PENALTY_STEP = 4.0

#: Relative-improvement threshold / round budget of plateau detection.
PLATEAU_RATIO = 0.98
PLATEAU_ROUNDS = 3


@dataclass
class NetRoute:
    """The committed route of one net."""

    name: str
    pins: List[GCell]
    segments: List[Tuple[GCell, GCell]]
    edges: List[Edge] = field(default_factory=list)
    signature: Signature = ()
    #: Per-MST-segment flat edge-id arrays (aligned with ``segments``).
    seg_edge_ids: List[np.ndarray] = field(default_factory=list)

    def wirelength(self, grid: RoutingGrid) -> float:
        """Routed wirelength (µm)."""
        return sum(grid.edge_length(direction)
                   for direction, _, _ in self.edges)


@dataclass
class RoutingResult:
    """Summary of a global-routing run."""

    grid: RoutingGrid
    routes: Dict[str, NetRoute]
    violations: int               # total track overflow
    overflowed_nets: int
    iterations: int
    total_wirelength: float       # µm
    #: Router phase timings, work counters and result counts, all under
    #: the ``route.`` namespace: ``route.t_init`` / ``route.t_negotiate``
    #: (times), ``route.nets_rerouted`` / ``route.segments_rerouted`` /
    #: ``route.routes_reused`` / ``route.iterations`` (work),
    #: ``route.violations`` / ``route.overflowed_nets`` (counts) and
    #: ``route.wirelength`` (metric).  ``route.reuse_skipped`` (work) is
    #: 1 when a non-empty warm cache was presented but matched nothing
    #: because the routing grid changed shape (recorded by
    #: :meth:`GlobalRouter.route`).
    stats: StatsRegistry = field(default_factory=StatsRegistry)

    @property
    def routable(self) -> bool:
        """True when the design fits the routing resources."""
        return self.violations == 0

    def net_wirelength(self, name: str) -> float:
        """Routed wirelength of one net (µm)."""
        return self.routes[name].wirelength(self.grid)


#: Running-size weights of :attr:`RouteCache.memo_nbytes`, fitted
#: against object walks of serve route pools: bytes per signature (its
#: tuple of GCells and dict slot) and per edge-id array (its list slot
#: and array header), beside the arrays' own ``nbytes``.
_SIGNATURE_NBYTES = 250
_ARRAY_NBYTES = 240


class RouteCache:
    """Cross-evaluation warm-start store (the cross-K reuse key).

    Maps pin GCell signatures to the per-segment edge-id arrays of the
    most recently stored routing result.  A signature fully determines
    the MST decomposition (:func:`repro.route.steiner.gcell_signature`),
    so a cached entry can seed any later net with the same signature on
    a compatible grid.  Routers only *read* the cache; the flow layer
    calls :meth:`store` once per clean evaluation, which keeps a pool
    round deterministic (every K point of the round warm-starts from a
    clone of the same snapshot).

    :attr:`memo_nbytes` is a running estimate of the bytes the routes
    hold, like :attr:`repro.core.matching.Matcher.memo_nbytes`, taken
    whenever a snapshot is installed (:meth:`install`).
    """

    def __init__(self) -> None:  # noqa: D107
        self.grid_key: Optional[Tuple[int, int, int, int]] = None
        self.routes: Dict[Signature, List[np.ndarray]] = {}
        self.memo_nbytes = 0

    @staticmethod
    def _key(grid: RoutingGrid) -> Tuple[int, int, int, int]:
        return (grid.nx, grid.ny, grid.hcap, grid.vcap)

    def clone(self) -> "RouteCache":
        """An independent cache holding the same snapshot.

        The per-segment edge-id arrays are shared (routers only read
        them, into fresh lists), but the containers are copied, so a
        clone can be stored into without affecting its source.  This is
        what gives every task of a parallel sweep round its own
        warm-start shard seeded from the round's opening snapshot.
        """
        out = RouteCache()
        out.grid_key = self.grid_key
        out.routes = {sig: list(arrs) for sig, arrs in self.routes.items()}
        out.memo_nbytes = self.memo_nbytes
        return out

    def install(self, grid_key: Optional[Tuple[int, int, int, int]],
                routes: Dict[Signature, List[np.ndarray]]) -> None:
        """Hold ``routes``, made on a grid of key ``grid_key``, as the
        snapshot, and re-estimate its bytes."""
        self.grid_key = grid_key
        self.routes = routes
        self.memo_nbytes = sum(
            _SIGNATURE_NBYTES + sum(_ARRAY_NBYTES + ids.nbytes for ids in arrs)
            for arrs in routes.values())

    def warm_routes(self, grid: RoutingGrid) -> Dict[Signature,
                                                     List[np.ndarray]]:
        """The reusable routes for a grid (empty on grid mismatch)."""
        if self.grid_key != self._key(grid):
            return {}
        return self.routes

    def store(self, result: RoutingResult) -> None:
        """Replace the cache with a result's final routes.

        Installs a new ``routes`` dict exactly when the contents change
        (another grid, or some signature's edge ids differ), and keeps
        the old one when they are equal: holders of the dict (the
        flow's evaluation memo, serve's disk write-through) tell by
        identity whether the cache changed.
        """
        grid_key = self._key(result.grid)
        routes = {route.signature: list(route.seg_edge_ids)
                  for _, route in sorted(result.routes.items())}
        if grid_key != self.grid_key or not routes_equal(self.routes, routes):
            self.install(grid_key, routes)


def routes_equal(old: Dict[Signature, List[np.ndarray]],
                 new: Dict[Signature, List[np.ndarray]]) -> bool:
    """Whether two route snapshots hold the same signatures with equal
    per-segment edge-id arrays (compared as one concatenated array)."""
    if old.keys() != new.keys():
        return False
    olds = [ids for sig in new for ids in old[sig]]
    news = [ids for arrs in new.values() for ids in arrs]
    return list(map(len, olds)) == list(map(len, news)) and (
        not news or np.array_equal(np.concatenate(olds),
                                   np.concatenate(news)))


def _router_stats(t_init: float, t_negotiate: float, nets_rerouted: int,
                  segments_rerouted: int, routes_reused: int,
                  iterations: int, violations: int, overflowed_nets: int,
                  wirelength: float) -> StatsRegistry:
    """The routing stats registry (shared with the reference router).

    Violations and overflowed nets are *results* (deterministic
    counts); reroute and reuse tallies are *work* (they vary with
    warm-starting and negotiation schedule even when the results are
    bit-identical).  Wirelength is a *metric*: a warm-started net keeps
    its cached (legal) route, so the total can differ from a cold run
    that never needed to detour.
    """
    stats = StatsRegistry()
    stats.time("route.t_init", t_init)
    stats.time("route.t_negotiate", t_negotiate)
    stats.work("route.nets_rerouted", int(nets_rerouted))
    stats.work("route.segments_rerouted", int(segments_rerouted))
    stats.work("route.routes_reused", int(routes_reused))
    stats.work("route.iterations", int(iterations))
    stats.count("route.violations", int(violations))
    stats.count("route.overflowed_nets", int(overflowed_nets))
    stats.metric("route.wirelength", float(wirelength))
    return stats


def victim_order(count: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded processing order for ``count`` victim segments.

    Victims are collected in canonical (net name, segment index) order;
    this permutation — drawn from the router's seeded RNG stream, one
    draw per negotiation round — decides who reroutes first.  The
    reference router consumes the identical stream, and another seed
    explores a different schedule.
    """
    return rng.permutation(count)


class GlobalRouter:
    """Routes a set of nets over a :class:`RoutingGrid`."""

    def __init__(self, floorplan: Floorplan,
                 resources: Optional[RoutingResources] = None,
                 gcell_rows: int = 2, max_iterations: int = 6,
                 seed: int = 0):  # noqa: D107
        self.floorplan = floorplan
        self.resources = resources or RoutingResources()
        self.gcell_rows = gcell_rows
        self.max_iterations = max_iterations
        self.seed = seed

    def route(self, net_points: Dict[str, List[Point]],
              cache: Optional[RouteCache] = None) -> RoutingResult:
        """Route all nets; returns the result with violation counts.

        ``cache`` (read-only here) warm-starts nets whose pin GCell
        signature matches a cached route on a compatible grid.  A
        non-empty cache that matches nothing because the grid changed
        shape is counted as ``route.reuse_skipped`` in the result's
        stats — the one residual way a requested warm start can be
        silently dropped.
        """
        grid = RoutingGrid(self.floorplan, self.resources, self.gcell_rows)
        warm = cache.warm_routes(grid) if cache is not None else {}
        reuse_skipped = int(cache is not None and bool(cache.routes)
                            and not warm)
        result = self._route(grid, net_points, warm)
        result.stats.work("route.reuse_skipped", reuse_skipped)
        return result

    def _route(self, grid: RoutingGrid,
               net_points: Dict[str, List[Point]],
               warm: Dict[Signature, List[np.ndarray]]) -> RoutingResult:
        t0 = time.perf_counter()
        names = sorted(net_points)
        routes: Dict[str, NetRoute] = {}
        seg_net: List[int] = []            # owning-net index per segment
        seg_pins: List[Tuple[GCell, GCell]] = []
        seg_ids: List[List[int]] = []      # committed edge ids per segment
        net_first: List[int] = []          # first segment index per net
        routes_reused = 0
        demand = grid.demand_flat.tolist()
        for i, name in enumerate(names):
            pins = [grid.gcell_of(p) for p in net_points[name]]
            signature = gcell_signature(pins)
            segments = mst_segments(pins)
            routes[name] = NetRoute(name=name, pins=pins, segments=segments,
                                    signature=signature)
            net_first.append(len(seg_ids))
            cached = warm.get(signature)
            reuse = cached is not None and len(cached) == len(segments)
            if reuse:
                routes_reused += 1
            for j, (a, b) in enumerate(segments):
                ids = (cached[j].tolist() if reuse
                       else _best_l(grid, demand, a, b))
                for e in ids:
                    demand[e] += 1
                seg_net.append(i)
                seg_pins.append((a, b))
                seg_ids.append(ids)
        net_first.append(len(seg_ids))
        t_init = time.perf_counter() - t0

        t0 = time.perf_counter()
        rng = np.random.default_rng(self.seed)
        demand_flat = grid.demand_flat
        nseg = len(seg_ids)
        iterations = 0
        plateau = 0
        previous = None
        rerouted_nets: set = set()
        segments_rerouted = 0
        for iteration in range(self.max_iterations):
            demand_flat[:] = demand
            violations = grid.overflow_total()
            if violations == 0:
                break
            # Plateau detection: congested designs stop improving after
            # a few negotiation rounds; further rip-up is wasted work.
            if previous is not None and violations >= previous * PLATEAU_RATIO:
                plateau += 1
                if plateau >= PLATEAU_ROUNDS:
                    break
            else:
                plateau = 0
            previous = violations
            iterations = iteration + 1
            over_mask = demand_flat > grid.capacity_flat
            grid.history_flat[over_mask] += 1.0
            if nseg == 0:
                break
            history = grid.history_flat.tolist()
            lens, all_ids = _flatten(seg_ids)
            seg_of = np.repeat(np.arange(nseg), lens)
            victims = np.unique(seg_of[over_mask[all_ids]])
            if victims.size == 0:
                break
            order = victims[victim_order(victims.size, rng)]
            penalty = PENALTY_STEP * (iteration + 1)
            for s in order.tolist():
                for e in seg_ids[s]:
                    demand[e] -= 1
                a, b = seg_pins[s]
                new_ids = _best_pattern(grid, demand, history, a, b)
                if new_ids is None:
                    new_ids = _maze(grid, demand, history, a, b, penalty)
                for e in new_ids:
                    demand[e] += 1
                seg_ids[s] = new_ids
                segments_rerouted += 1
                rerouted_nets.add(seg_net[s])
        demand_flat[:] = demand
        t_negotiate = time.perf_counter() - t0

        violations = grid.overflow_total()
        over_mask = demand_flat > grid.capacity_flat
        lens, all_ids = _flatten(seg_ids)
        edge_net = np.repeat(np.asarray(seg_net, dtype=np.int64), lens)
        overflowed_nets = int(np.unique(edge_net[over_mask[all_ids]]).size)
        h_edges = int((all_ids < grid.num_h_edges).sum())
        total_wl = h_edges * grid.gw + (all_ids.size - h_edges) * grid.gh
        # One decode for every segment; nets and segments take slices.
        edges = grid.decode_edge_ids(all_ids)
        offsets = [0, *accumulate(lens)]
        for i, name in enumerate(names):
            first, last = net_first[i], net_first[i + 1]
            route = routes[name]
            route.seg_edge_ids = [all_ids[offsets[s]:offsets[s + 1]]
                                  for s in range(first, last)]
            route.edges = edges[offsets[first]:offsets[last]]
        stats = _router_stats(t_init, t_negotiate, len(rerouted_nets),
                              segments_rerouted, routes_reused, iterations,
                              violations, overflowed_nets, total_wl)
        return RoutingResult(grid=grid, routes=routes, violations=violations,
                             overflowed_nets=overflowed_nets,
                             iterations=iterations,
                             total_wirelength=total_wl, stats=stats)


# -- scalar kernels over flat edge ids ---------------------------------


def _flatten(seg_ids: List[List[int]]) -> Tuple[List[int], np.ndarray]:
    """(per-segment lengths, concatenated ids) of the segment id lists."""
    lens = [len(ids) for ids in seg_ids]
    return lens, np.fromiter(chain.from_iterable(seg_ids), dtype=np.int64,
                             count=sum(lens))


def _h_run(grid: RoutingGrid, x_lo: int, x_hi: int, y: int) -> range:
    """Ids of the horizontal edges spanning columns [x_lo, x_hi) at row y."""
    return range(x_lo * grid.ny + y, x_hi * grid.ny + y, grid.ny)


def _v_run(grid: RoutingGrid, x: int, y_lo: int, y_hi: int) -> range:
    """Ids of the vertical edges spanning rows [y_lo, y_hi) at column x."""
    base = grid.num_h_edges + x * (grid.ny - 1)
    return range(base + y_lo, base + y_hi)


def _best_l(grid: RoutingGrid, demand: List[int],
            a: GCell, b: GCell) -> List[int]:
    """The cheaper L-shape between two GCells, as flat edge ids.

    Load of a candidate = (Σ demand over its horizontal edges) / hcap +
    (Σ demand over its vertical edges) / vcap — the same quantity the
    reference engine computes edge by edge (integer sums, one division
    each).  Ties keep the horizontal-first L.
    """
    (ax, ay), (bx, by) = a, b
    x_lo, x_hi = min(ax, bx), max(ax, bx)
    y_lo, y_hi = min(ay, by), max(ay, by)
    if ay == by:                       # straight (or empty) horizontal
        return list(_h_run(grid, x_lo, x_hi, ay))
    if ax == bx:                       # straight vertical
        return list(_v_run(grid, ax, y_lo, y_hi))
    at = demand.__getitem__
    row_a, col_b = _h_run(grid, x_lo, x_hi, ay), _v_run(grid, bx, y_lo, y_hi)
    col_a, row_b = _v_run(grid, ax, y_lo, y_hi), _h_run(grid, x_lo, x_hi, by)
    load_h = sum(map(at, row_a)) / grid.hcap + sum(map(at, col_b)) / grid.vcap
    load_v = sum(map(at, row_b)) / grid.hcap + sum(map(at, col_a)) / grid.vcap
    if load_h <= load_v:
        return [*row_a, *col_b]
    return [*col_a, *row_b]


def _best_pattern(grid: RoutingGrid, demand: List[int],
                  history: List[float], a: GCell,
                  b: GCell) -> Optional[List[int]]:
    """Cheapest **overflow-free** L/Z pattern between two GCells.

    Candidates, in canonical order: HVH patterns with the vertical run
    at each column x ∈ [min, max] (the two Ls are the extremes), then
    VHV patterns with the horizontal run at each row y; the first
    strict minimum wins.  A candidate is eligible only when none of its
    edges is full (demand ≥ capacity), so its penalty term is zero and
    it costs Σ(1 + history).  Returns ``None`` when every candidate
    holds a full edge — the caller then pays for :func:`_maze`.

    Prefix sums of ``1 + history`` and of full-edge counts along the
    two pin rows and the two pin columns price the pin-side runs in
    O(1); only the middle run is scanned, and the scan stops at the
    first full edge or once the candidate can no longer win.  Every
    summand is an integer-valued float, so the selection is
    bit-identical to the reference engine's per-edge scan.
    """
    (ax, ay), (bx, by) = a, b
    hcap, vcap = grid.hcap, grid.vcap
    x_lo, x_hi = min(ax, bx), max(ax, bx)
    y_lo, y_hi = min(ay, by), max(ay, by)
    if ay == by or ax == bx:           # straight: one candidate
        ids, cap = ((_h_run(grid, x_lo, x_hi, ay), hcap) if ay == by
                    else (_v_run(grid, ax, y_lo, y_hi), vcap))
        for e in ids:
            if demand[e] >= cap:
                return None
        return list(ids)

    def prefix(ids: range, cap: int) -> Tuple[List[float], List[int]]:
        cost, full = [0.0], [0]
        c, f = 0.0, 0
        for e in ids:
            c += 1.0 + history[e]
            f += demand[e] >= cap
            cost.append(c)
            full.append(f)
        return cost, full

    def middle_cost(ids: range, cap: int, cost: float,
                    bound: float) -> Optional[float]:
        """``cost`` plus the run's cost; ``None`` once it cannot win."""
        if cost >= bound:
            return None
        for e in ids:
            if demand[e] >= cap:
                return None
            cost += 1.0 + history[e]
            if cost >= bound:
                return None
        return cost

    best_cost = float("inf")
    best_x = best_y = None
    # HVH: horizontal on row ay from ax to x, vertical at column x,
    # horizontal on row by from x to bx.
    cost_a, full_a = prefix(_h_run(grid, x_lo, x_hi, ay), hcap)
    cost_b, full_b = prefix(_h_run(grid, x_lo, x_hi, by), hcap)
    ia, ib = ax - x_lo, bx - x_lo
    for i in range(x_hi - x_lo + 1):
        if full_a[i] != full_a[ia] or full_b[i] != full_b[ib]:
            continue
        cost = middle_cost(_v_run(grid, x_lo + i, y_lo, y_hi), vcap,
                           abs(cost_a[i] - cost_a[ia])
                           + abs(cost_b[i] - cost_b[ib]), best_cost)
        if cost is not None:
            best_cost, best_x = cost, x_lo + i
    # VHV: vertical at column ax from ay to y, horizontal on row y,
    # vertical at column bx from y to by.
    cost_a, full_a = prefix(_v_run(grid, ax, y_lo, y_hi), vcap)
    cost_b, full_b = prefix(_v_run(grid, bx, y_lo, y_hi), vcap)
    ja, jb = ay - y_lo, by - y_lo
    for j in range(y_hi - y_lo + 1):
        if full_a[j] != full_a[ja] or full_b[j] != full_b[jb]:
            continue
        cost = middle_cost(_h_run(grid, x_lo, x_hi, y_lo + j), hcap,
                           abs(cost_a[j] - cost_a[ja])
                           + abs(cost_b[j] - cost_b[jb]), best_cost)
        if cost is not None:
            best_cost, best_y = cost, y_lo + j
    if best_y is not None:
        y = best_y
        return [*_v_run(grid, ax, min(ay, y), max(ay, y)),
                *_h_run(grid, x_lo, x_hi, y),
                *_v_run(grid, bx, min(y, by), max(y, by))]
    if best_x is not None:
        x = best_x
        return [*_h_run(grid, min(ax, x), max(ax, x), ay),
                *_v_run(grid, x, y_lo, y_hi),
                *_h_run(grid, min(x, bx), max(x, bx), by)]
    return None


def _maze(grid: RoutingGrid, demand: List[int], history: List[float],
          a: GCell, b: GCell, penalty: float) -> List[int]:
    """Flat ids of the cheapest path between two GCells in their window.

    A binary-heap Dijkstra over the window's cells (cell id
    ``x * ny + y``, so the horizontal edge east of a cell shares its
    id) with edge cost ``1 + history + penalty × max(demand + 1 −
    capacity, 0)``, followed by the canonical backtrack of
    :func:`repro.route.maze.backtrack_path`: from the target, scan
    left, right, down, up and step to the first neighbour whose
    distance plus edge cost equals the cell's distance.

    The search stops as soon as the target is popped, and that is
    exact.  Every edge cost is an integer-valued float ≥ 1, so a
    neighbour the backtrack can accept has a distance strictly below
    the target's and was settled, with its final distance, before the
    target.  A cell not yet settled has a tentative distance of at
    least the target's, so it can never meet the equality — nor could
    it with its final distance after an exhaustive search.  The path is
    therefore the one :func:`repro.route.maze.maze_route` returns.

    The window (pin box plus :data:`BBOX_MARGIN`) always contains both
    pins and is connected, so the target is always reached.
    """
    x_lo, x_hi, y_lo, y_hi = maze_window(grid, a, b, BBOX_MARGIN)
    ny = grid.ny
    vbase = grid.num_h_edges          # vertical edge (x, y): vbase + c - x
    hcap, vcap = grid.hcap, grid.vcap
    inf = float("inf")
    source = a[0] * ny + a[1]
    target = b[0] * ny + b[1]
    dist = [inf] * (grid.nx * ny)
    dist[source] = 0.0
    heap = [(0.0, source)]
    push, pop = heapq.heappush, heapq.heappop

    def cost(e: int, cap: int) -> float:
        over = demand[e] + 1 - cap
        w = 1.0 + history[e]
        return w + penalty * over if over > 0 else w

    while True:
        g, c = pop(heap)
        if c == target:
            break
        if g > dist[c]:
            continue
        x, y = divmod(c, ny)
        v = vbase + c - x              # the vertical edge above c
        # No edge costs less than 1, so a neighbour already within
        # g + 1 cannot improve; its edge is not even priced.
        g1 = g + 1.0
        for n, e, cap, inside in ((c - ny, c - ny, hcap, x > x_lo),
                                  (c + ny, c, hcap, x < x_hi),
                                  (c - 1, v - 1, vcap, y > y_lo),
                                  (c + 1, v, vcap, y < y_hi)):
            if inside and dist[n] > g1:
                ng = g + cost(e, cap)
                if ng < dist[n]:
                    dist[n] = ng
                    push(heap, (ng, n))

    path: List[int] = []
    c = target
    while c != source:
        x, y = divmod(c, ny)
        v = vbase + c - x
        d = dist[c]
        if x > x_lo and dist[c - ny] + cost(c - ny, hcap) == d:
            path.append(c - ny)
            c -= ny
        elif x < x_hi and dist[c + ny] + cost(c, hcap) == d:
            path.append(c)
            c += ny
        elif y > y_lo and dist[c - 1] + cost(v - 1, vcap) == d:
            path.append(v - 1)
            c -= 1
        elif y < y_hi and dist[c + 1] + cost(v, vcap) == d:
            path.append(v)
            c += 1
        else:  # pragma: no cover - impossible for an exact field
            raise AssertionError(f"inconsistent distance field at {c}")
    path.reverse()
    return path
