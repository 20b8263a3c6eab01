"""The global router: initial pattern routing + negotiated rip-up/reroute.

This is the Silicon Ensemble stand-in.  Every net is decomposed into
two-pin segments (MST), routed initially with the cheaper of the two
L-shapes, then overflowed **segments** are iteratively ripped up and
rerouted under a growing congestion/history penalty.  Whatever overflow
survives the final round is reported as **routing violations** — the
proxy for the paper's detailed-routing violation counts (zero overflow
⇒ routable; see DESIGN.md on this substitution).

Routes are flat numpy edge-id arrays; demand accumulation, victim
selection and L/Z candidate costing are array operations.  Rip-up is
*incremental*: only segments crossing an overflowed edge are ripped,
and each is first offered the cheapest overflow-free L/Z pattern
(vectorized gathers) before paying for a maze search.  The per-edge
pure-Python rendition of the identical algorithm,
:func:`repro.route.reference.route_reference`, is kept as the
equivalence oracle: tests assert both produce the same routes,
violations, overflowed-net counts and wirelength.

All cost comparisons are sums of exactly-representable float64 values
(unit costs, integer history, ``penalty × integer overflow``, and
integer demand sums divided once by capacity), so the two renditions
take bit-identical decisions despite summing in different orders.

The router ``seed`` feeds the negotiation's victim ordering (see
:func:`victim_order`), which is what lets the placement-retry loop in
``core.flow`` explore different rip-up schedules on each attempt.

Cross-evaluation route reuse: a :class:`RouteCache` carries the final
per-segment routes of one run, keyed by each net's **pin GCell
signature** (sorted distinct GCells).  A later run over the same grid
warm-starts any net with an unchanged signature from the cached route
instead of re-deriving L-shapes — the mechanism ``core.flow.k_sweep``
uses so adjacent K points stop paying full routing cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs import StatsRegistry
from ..place.floorplan import Floorplan
from .grid import GCell, HORIZONTAL, RoutingGrid, RoutingResources, VERTICAL
from .maze import (
    BBOX_MARGIN,
    backtrack_path,
    l_fallback,
    maze_window,
    window_contains,
)
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


class RouteCache:
    """Cross-evaluation warm-start store (the cross-K reuse key).

    Maps pin GCell signatures to the per-segment edge-id arrays of the
    most recently stored routing result.  A signature fully determines
    the MST decomposition (:func:`repro.route.steiner.gcell_signature`),
    so a cached entry can seed any later net with the same signature on
    a compatible grid.  Routers only *read* the cache; the flow layer
    calls :meth:`store` once per accepted evaluation, which keeps
    retry fan-outs deterministic (every attempt sees the same snapshot).
    """

    def __init__(self) -> None:  # noqa: D107
        self.grid_key: Optional[Tuple[int, int, int, int]] = None
        self.routes: Dict[Signature, List[np.ndarray]] = {}

    @staticmethod
    def _key(grid: RoutingGrid) -> Tuple[int, int, int, int]:
        return (grid.nx, grid.ny, grid.hcap, grid.vcap)

    def clone(self) -> "RouteCache":
        """An independent cache holding the same snapshot.

        The per-segment edge-id arrays are shared (routers never mutate
        them in place — rerouting rebinds a fresh array), but the
        containers are copied, so a clone can be stored into without
        affecting its source.  This is what gives every task of a
        parallel sweep round its own warm-start shard seeded from the
        round's opening snapshot.
        """
        out = RouteCache()
        out.grid_key = self.grid_key
        out.routes = {sig: list(arrs) for sig, arrs in self.routes.items()}
        return out

    def warm_routes(self, grid: RoutingGrid) -> Dict[Signature,
                                                     List[np.ndarray]]:
        """The reusable routes for a grid (empty on grid mismatch)."""
        if self.grid_key != self._key(grid):
            return {}
        return self.routes

    def store(self, result: RoutingResult) -> None:
        """Replace the cache with a result's final routes."""
        self.grid_key = self._key(result.grid)
        self.routes = {route.signature: list(route.seg_edge_ids)
                       for _, route in sorted(result.routes.items())}


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
    reference router consumes the identical stream, and placement
    retries advance the seed so each attempt explores a different
    schedule.
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
        result = self._route_vector(grid, net_points, warm)
        result.stats.work("route.reuse_skipped", reuse_skipped)
        return result

    def _route_vector(self, grid: RoutingGrid,
                      net_points: Dict[str, List[Point]],
                      warm: Dict[Signature, List[np.ndarray]]
                      ) -> RoutingResult:
        t0 = time.perf_counter()
        names = sorted(net_points)
        routes: Dict[str, NetRoute] = {}
        seg_net: List[int] = []            # owning-net index per segment
        seg_pins: List[Tuple[GCell, GCell]] = []
        seg_ids: List[np.ndarray] = []     # committed edge ids per segment
        net_first: List[int] = []          # first segment index per net
        routes_reused = 0
        demand_flat = grid.demand_flat
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
                ids = cached[j] if reuse else _best_l_ids(grid, a, b)
                demand_flat[ids] += 1
                seg_net.append(i)
                seg_pins.append((a, b))
                seg_ids.append(ids)
        net_first.append(len(seg_ids))
        t_init = time.perf_counter() - t0

        t0 = time.perf_counter()
        rng = np.random.default_rng(self.seed)
        nseg = len(seg_ids)
        seg_net_arr = np.asarray(seg_net, dtype=np.int64)
        iterations = 0
        plateau = 0
        previous = None
        rerouted_nets: set = set()
        segments_rerouted = 0
        for iteration in range(self.max_iterations):
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
            lens = np.fromiter((len(ids) for ids in seg_ids),
                               dtype=np.int64, count=nseg)
            all_ids = (np.concatenate(seg_ids) if lens.sum()
                       else np.empty(0, dtype=np.int64))
            seg_of = np.repeat(np.arange(nseg), lens)
            victims = np.unique(seg_of[over_mask[all_ids]])
            if victims.size == 0:
                break
            order = victims[victim_order(victims.size, rng)]
            penalty = PENALTY_STEP * (iteration + 1)
            for s in order:
                s = int(s)
                ids = seg_ids[s]
                demand_flat[ids] -= 1
                a, b = seg_pins[s]
                new_ids = _best_pattern_ids(grid, a, b, penalty)
                if new_ids is None:
                    new_ids = _maze_ids(grid, a, b, penalty)
                demand_flat[new_ids] += 1
                seg_ids[s] = new_ids
                segments_rerouted += 1
                rerouted_nets.add(seg_net[s])
        t_negotiate = time.perf_counter() - t0

        violations = grid.overflow_total()
        over_mask = demand_flat > grid.capacity_flat
        if nseg:
            lens = np.fromiter((len(ids) for ids in seg_ids),
                               dtype=np.int64, count=nseg)
            all_ids = (np.concatenate(seg_ids) if lens.sum()
                       else np.empty(0, dtype=np.int64))
            edge_net = np.repeat(seg_net_arr, lens)
            overflowed_nets = int(
                np.unique(edge_net[over_mask[all_ids]]).size)
            h_edges = int((all_ids < grid.num_h_edges).sum())
            total_wl = h_edges * grid.gw + (all_ids.size - h_edges) * grid.gh
        else:
            overflowed_nets = 0
            total_wl = 0.0
        for i, name in enumerate(names):
            route = routes[name]
            route.seg_edge_ids = seg_ids[net_first[i]:net_first[i + 1]]
            route.edges = (
                grid.decode_edge_ids(np.concatenate(route.seg_edge_ids))
                if route.seg_edge_ids else [])
        stats = _router_stats(t_init, t_negotiate, len(rerouted_nets),
                              segments_rerouted, routes_reused, iterations,
                              violations, overflowed_nets, total_wl)
        return RoutingResult(grid=grid, routes=routes, violations=violations,
                             overflowed_nets=overflowed_nets,
                             iterations=iterations,
                             total_wirelength=total_wl, stats=stats)

    @staticmethod
    def _best_l(grid: RoutingGrid, a: GCell, b: GCell) -> List[Edge]:
        """The L-shape with lower present congestion (edge tuples)."""
        return grid.decode_edge_ids(_best_l_ids(grid, a, b))


# -- vectorized candidate generation -----------------------------------


def _h_run_ids(grid: RoutingGrid, x_lo: int, x_hi: int, y: int) -> np.ndarray:
    """Ids of the horizontal edges spanning columns [x_lo, x_hi) at row y."""
    return np.arange(x_lo, x_hi, dtype=np.int64) * grid.ny + y


def _v_run_ids(grid: RoutingGrid, x: int, y_lo: int, y_hi: int) -> np.ndarray:
    """Ids of the vertical edges spanning rows [y_lo, y_hi) at column x."""
    return (grid.num_h_edges + x * (grid.ny - 1)
            + np.arange(y_lo, y_hi, dtype=np.int64))


def _best_l_ids(grid: RoutingGrid, a: GCell, b: GCell) -> np.ndarray:
    """The cheaper L-shape between two GCells, as flat edge ids.

    Load of a candidate = (Σ demand over its horizontal edges) / hcap +
    (Σ demand over its vertical edges) / vcap — the same quantity the
    reference engine computes from per-edge sums, exact in float64.
    Ties keep the horizontal-first L.
    """
    (ax, ay), (bx, by) = a, b
    x_lo, x_hi = min(ax, bx), max(ax, bx)
    y_lo, y_hi = min(ay, by), max(ay, by)
    if ay == by:                       # straight (or empty) horizontal
        return _h_run_ids(grid, x_lo, x_hi, ay)
    if ax == bx:                       # straight vertical
        return _v_run_ids(grid, ax, y_lo, y_hi)
    # Loads come from strided 2-D demand slices — no index arrays are
    # materialised for the losing candidate (int32 sums promote to
    # int64, so the totals equal the flat-gather formulation exactly).
    dh = grid.demand[HORIZONTAL]
    dv = grid.demand[VERTICAL]
    load_h = (int(dh[x_lo:x_hi, ay].sum()) / grid.hcap
              + int(dv[bx, y_lo:y_hi].sum()) / grid.vcap)
    load_v = (int(dh[x_lo:x_hi, by].sum()) / grid.hcap
              + int(dv[ax, y_lo:y_hi].sum()) / grid.vcap)
    if load_h <= load_v:
        return np.concatenate([_h_run_ids(grid, x_lo, x_hi, ay),
                               _v_run_ids(grid, bx, y_lo, y_hi)])
    return np.concatenate([_v_run_ids(grid, ax, y_lo, y_hi),
                           _h_run_ids(grid, x_lo, x_hi, by)])


def _maze_ids(grid: RoutingGrid, a: GCell, b: GCell,
              penalty: float, margin: int = BBOX_MARGIN) -> np.ndarray:
    """Vectorized maze search: flat ids of the cheapest window path.

    Computes the same distance field as :func:`repro.route.maze
    .maze_route`'s Dijkstra, but by directional sweep relaxation: each
    pass relaxes every row left-to-right and right-to-left and every
    column bottom-up and top-down with prefix-sum/cumulative-minimum
    scans, repeated until the field stops changing.  A path with *k*
    straight runs is fully relaxed after *k* passes, so the loop
    terminates at the exact Dijkstra fixpoint (all summands are
    exactly-representable float64 values).  The canonical backtrack
    shared with the reference engine then yields the identical path.
    """
    if a == b:
        return np.empty(0, dtype=np.int64)
    window = maze_window(grid, a, b, margin)
    if not (window_contains(window, a) and window_contains(window, b)):
        return grid.edge_ids(l_fallback(grid, a, b, penalty))
    x_lo, x_hi, y_lo, y_hi = window
    w, h = x_hi - x_lo + 1, y_hi - y_lo + 1

    dh = grid.demand[HORIZONTAL][x_lo:x_hi, y_lo:y_hi + 1]
    wh = (1.0 + grid.history[HORIZONTAL][x_lo:x_hi, y_lo:y_hi + 1]
          + penalty * np.maximum(dh.astype(np.int64) + 1 - grid.hcap, 0))
    dv = grid.demand[VERTICAL][x_lo:x_hi + 1, y_lo:y_hi]
    wv = (1.0 + grid.history[VERTICAL][x_lo:x_hi + 1, y_lo:y_hi]
          + penalty * np.maximum(dv.astype(np.int64) + 1 - grid.vcap, 0))
    # Prefix sums of run costs: crossing columns [x0, x) on row y costs
    # pw[x, y] - pw[x0, y]; integer-valued, so differences are exact.
    pw = np.zeros((w, h))
    np.cumsum(wh, axis=0, out=pw[1:])
    pv = np.zeros((w, h))
    np.cumsum(wv, axis=1, out=pv[:, 1:])

    dist = np.full((w, h), np.inf)
    dist[a[0] - x_lo, a[1] - y_lo] = 0.0
    t = np.empty((w, h))
    prev = np.empty((w, h))
    passes = 0              # the first pass always lowers distances
    while True:
        if passes:
            np.copyto(prev, dist)
        np.subtract(dist, pw, out=t)       # rightward sweep
        np.minimum.accumulate(t, axis=0, out=t)
        t += pw
        np.minimum(dist, t, out=dist)
        np.add(dist, pw, out=t)            # leftward sweep
        rt = t[::-1]
        np.minimum.accumulate(rt, axis=0, out=rt)
        t -= pw
        np.minimum(dist, t, out=dist)
        np.subtract(dist, pv, out=t)       # upward sweep
        np.minimum.accumulate(t, axis=1, out=t)
        t += pv
        np.minimum(dist, t, out=dist)
        np.add(dist, pv, out=t)            # downward sweep
        rt = t[:, ::-1]
        np.minimum.accumulate(rt, axis=1, out=rt)
        t -= pv
        np.minimum(dist, t, out=dist)
        if passes and np.array_equal(prev, dist):
            break
        passes += 1
    if not np.isfinite(dist[b[0] - x_lo, b[1] - y_lo]):
        return grid.edge_ids(l_fallback(grid, a, b, penalty))

    dl = dist.tolist()
    whl = wh.tolist()
    wvl = wv.tolist()
    edges = backtrack_path(
        lambda cell: dl[cell[0] - x_lo][cell[1] - y_lo],
        lambda direction, ex, ey: (
            whl[ex - x_lo][ey - y_lo] if direction == HORIZONTAL
            else wvl[ex - x_lo][ey - y_lo]),
        window, a, b)
    return grid.edge_ids(edges)


def _best_pattern_ids(grid: RoutingGrid, a: GCell, b: GCell,
                      penalty: float) -> Optional[np.ndarray]:
    """Cheapest **overflow-free** L/Z pattern between two GCells.

    Candidates, in canonical order: HVH patterns with the vertical run
    at each column x ∈ [min, max] (the two Ls are the extremes), then
    VHV patterns with the horizontal run at each row y.  Edge cost
    matches the maze search (1 + history + penalty × would-be
    overflow); a candidate is eligible only when committing it causes
    no overflow.  Returns ``None`` when every candidate overflows —
    the caller then falls back to :func:`repro.route.maze.maze_route`.

    All candidate costs are evaluated with prefix-sum gathers; because
    the summands are exactly representable, the selection is
    bit-identical to the reference engine's per-edge scan.
    """
    (ax, ay), (bx, by) = a, b
    demand = grid.demand_flat
    history = grid.history_flat
    hcap, vcap = grid.hcap, grid.vcap
    x_lo, x_hi = min(ax, bx), max(ax, bx)
    y_lo, y_hi = min(ay, by), max(ay, by)

    def over_of(ids: np.ndarray, cap: int) -> np.ndarray:
        # Capacity is uniform per direction, so a scalar stands in for
        # the per-edge gather; int32 demand cannot overflow here.
        return np.maximum(demand[ids] + 1 - cap, 0)

    if ay == by or ax == bx:           # straight: one candidate
        ids, cap = ((_h_run_ids(grid, x_lo, x_hi, ay), hcap) if ay == by
                    else (_v_run_ids(grid, ax, y_lo, y_hi), vcap))
        return ids if int(over_of(ids, cap).sum()) == 0 else None

    def run_cost(ids: np.ndarray, cap: int) -> Tuple[np.ndarray, np.ndarray]:
        over = over_of(ids, cap)
        return 1.0 + history[ids] + penalty * over, over

    def prefix(values: np.ndarray) -> np.ndarray:
        out = np.empty(len(values) + 1, dtype=values.dtype)
        out[0] = 0
        np.cumsum(values, out=out[1:])
        return out

    # HVH: horizontal on row ay from ax to x, vertical at column x,
    # horizontal on row by from x to bx, for every x in [x_lo, x_hi].
    xs = np.arange(x_lo, x_hi + 1, dtype=np.int64)
    w_row_a, o_row_a = run_cost(_h_run_ids(grid, x_lo, x_hi, ay), hcap)
    w_row_b, o_row_b = run_cost(_h_run_ids(grid, x_lo, x_hi, by), hcap)
    pw_a, po_a = prefix(w_row_a), prefix(o_row_a)
    pw_b, po_b = prefix(w_row_b), prefix(o_row_b)
    vert_ids = (grid.num_h_edges + xs[:, None] * (grid.ny - 1)
                + np.arange(y_lo, y_hi, dtype=np.int64)[None, :])
    vert_over = np.maximum(demand[vert_ids] + 1 - vcap, 0)
    vert_cost = (1.0 + history[vert_ids] + penalty * vert_over).sum(axis=1)
    pos = xs - x_lo
    cost_hvh = (np.abs(pw_a[pos] - pw_a[ax - x_lo])
                + np.abs(pw_b[pos] - pw_b[bx - x_lo]) + vert_cost)
    over_hvh = (np.abs(po_a[pos] - po_a[ax - x_lo])
                + np.abs(po_b[pos] - po_b[bx - x_lo])
                + vert_over.sum(axis=1))

    # VHV: vertical at column ax from ay to y, horizontal on row y,
    # vertical at column bx from y to by, for every y in [y_lo, y_hi].
    ys = np.arange(y_lo, y_hi + 1, dtype=np.int64)
    w_col_a, o_col_a = run_cost(_v_run_ids(grid, ax, y_lo, y_hi), vcap)
    w_col_b, o_col_b = run_cost(_v_run_ids(grid, bx, y_lo, y_hi), vcap)
    pw_ca, po_ca = prefix(w_col_a), prefix(o_col_a)
    pw_cb, po_cb = prefix(w_col_b), prefix(o_col_b)
    horiz_ids = (np.arange(x_lo, x_hi, dtype=np.int64)[None, :] * grid.ny
                 + ys[:, None])
    horiz_over = np.maximum(demand[horiz_ids] + 1 - hcap, 0)
    horiz_cost = (1.0 + history[horiz_ids]
                  + penalty * horiz_over).sum(axis=1)
    ypos = ys - y_lo
    cost_vhv = (np.abs(pw_ca[ypos] - pw_ca[ay - y_lo])
                + np.abs(pw_cb[ypos] - pw_cb[by - y_lo]) + horiz_cost)
    over_vhv = (np.abs(po_ca[ypos] - po_ca[ay - y_lo])
                + np.abs(po_cb[ypos] - po_cb[by - y_lo])
                + horiz_over.sum(axis=1))

    costs = np.concatenate([cost_hvh, cost_vhv])
    overs = np.concatenate([over_hvh, over_vhv])
    feasible = overs == 0
    if not feasible.any():
        return None
    best = int(np.argmin(np.where(feasible, costs, np.inf)))
    if best < len(xs):                 # HVH at column x
        x = x_lo + best
        return np.concatenate([
            _h_run_ids(grid, min(ax, x), max(ax, x), ay),
            _v_run_ids(grid, x, y_lo, y_hi),
            _h_run_ids(grid, min(x, bx), max(x, bx), by)])
    y = y_lo + (best - len(xs))        # VHV at row y
    return np.concatenate([
        _v_run_ids(grid, ax, min(ay, y), max(ay, y)),
        _h_run_ids(grid, x_lo, x_hi, y),
        _v_run_ids(grid, bx, min(y, by), max(y, by))])
