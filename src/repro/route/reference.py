"""Per-edge reference implementation of the global-routing algorithm.

This is the tuple-and-array rendition of the exact algorithm the
router in :mod:`repro.route.router` runs on flat Python lists:
best-of-two-L initial routing, segment-level incremental rip-up under
the seeded victim ordering, overflow-free L/Z pattern rerouting with
maze fallback.  It reads and writes the grid's 2-D demand and history
planes one edge at a time, costs every L/Z candidate in full and runs
the maze Dijkstra to exhaustion (:func:`repro.route.maze.maze_route`).
It exists as the **equivalence oracle**: property tests assert both
engines report identical routes, violations, overflowed-net counts and
wirelength, and the routing micro-bench measures the router's speedup
against this path.

Every cost it computes is a sum of exactly-representable float64
values in a different order than the router's prefix sums; exactness
is what makes the two engines take bit-identical decisions (see the
router module docstring).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from .grid import GCell, HORIZONTAL, RoutingGrid, VERTICAL
from .maze import l_route_edges, maze_route
from .router import (
    PENALTY_STEP,
    PLATEAU_RATIO,
    PLATEAU_ROUNDS,
    NetRoute,
    RoutingResult,
    Signature,
    _router_stats,
    victim_order,
)
from .steiner import gcell_signature, mst_segments

Edge = Tuple[int, int, int]


def _best_l_reference(grid: RoutingGrid, a: GCell, b: GCell) -> List[Edge]:
    """The cheaper L-shape, computed edge by edge."""
    first = l_route_edges(a, b, horizontal_first=True)
    second = l_route_edges(a, b, horizontal_first=False)
    if first == second:
        return first

    def load(edges: List[Edge]) -> float:
        h_sum = 0
        v_sum = 0
        for direction, ex, ey in edges:
            if direction == HORIZONTAL:
                h_sum += int(grid.demand[HORIZONTAL][ex, ey])
            else:
                v_sum += int(grid.demand[VERTICAL][ex, ey])
        return h_sum / grid.hcap + v_sum / grid.vcap

    return first if load(first) <= load(second) else second


def _pattern_edges_hvh(a: GCell, b: GCell, x: int) -> List[Edge]:
    """HVH pattern with the vertical run at column x."""
    (ax, ay), (bx, by) = a, b
    edges = l_route_edges((ax, ay), (x, ay))          # horizontal on row ay
    edges += l_route_edges((x, ay), (x, by), horizontal_first=False)
    edges += l_route_edges((x, by), (bx, by))         # horizontal on row by
    return edges


def _pattern_edges_vhv(a: GCell, b: GCell, y: int) -> List[Edge]:
    """VHV pattern with the horizontal run at row y."""
    (ax, ay), (bx, by) = a, b
    edges = l_route_edges((ax, ay), (ax, y), horizontal_first=False)
    edges += l_route_edges((ax, y), (bx, y))          # horizontal on row y
    edges += l_route_edges((bx, y), (bx, by), horizontal_first=False)
    return edges


def _best_pattern_reference(grid: RoutingGrid, a: GCell, b: GCell,
                            penalty: float) -> Optional[List[Edge]]:
    """Cheapest overflow-free L/Z pattern, scanned per edge.

    Candidate order matches the router's scan exactly: HVH with the
    vertical run at each column (ascending), then VHV with the
    horizontal run at each row (ascending); first strict minimum wins.
    """
    (ax, ay), (bx, by) = a, b
    x_lo, x_hi = min(ax, bx), max(ax, bx)
    y_lo, y_hi = min(ay, by), max(ay, by)

    def evaluate(edges: List[Edge]) -> Tuple[float, int]:
        cost = 0.0
        over_total = 0
        for direction, ex, ey in edges:
            demand = int(grid.demand[direction][ex, ey])
            over = demand + 1 - grid.capacity(direction)
            cost += 1.0 + grid.history[direction][ex, ey]
            if over > 0:
                cost += penalty * over
                over_total += over
        return cost, over_total

    if ay == by or ax == bx:           # straight: one candidate
        edges = l_route_edges(a, b)
        _, over_total = evaluate(edges)
        return edges if over_total == 0 else None

    best: Optional[List[Edge]] = None
    best_cost = float("inf")
    for x in range(x_lo, x_hi + 1):
        edges = _pattern_edges_hvh(a, b, x)
        cost, over_total = evaluate(edges)
        if over_total == 0 and cost < best_cost:
            best, best_cost = edges, cost
    for y in range(y_lo, y_hi + 1):
        edges = _pattern_edges_vhv(a, b, y)
        cost, over_total = evaluate(edges)
        if over_total == 0 and cost < best_cost:
            best, best_cost = edges, cost
    return best


def route_reference(router, grid: RoutingGrid,
                    net_points: Dict[str, List[Tuple[float, float]]],
                    warm: Dict[Signature, List[np.ndarray]]
                    ) -> RoutingResult:
    """Route all nets edge by edge.

    Same signature and result as
    :meth:`repro.route.router.GlobalRouter._route` (``router`` is
    the :class:`~repro.route.router.GlobalRouter` whose seed and
    iteration budget apply).
    """
    t0 = time.perf_counter()
    names = sorted(net_points)
    routes: Dict[str, NetRoute] = {}
    seg_net: List[int] = []
    seg_pins: List[Tuple[GCell, GCell]] = []
    seg_edges: List[List[Edge]] = []
    net_first: List[int] = []
    routes_reused = 0
    for i, name in enumerate(names):
        pins = [grid.gcell_of(p) for p in net_points[name]]
        signature = gcell_signature(pins)
        segments = mst_segments(pins)
        routes[name] = NetRoute(name=name, pins=pins, segments=segments,
                                signature=signature)
        net_first.append(len(seg_edges))
        cached = warm.get(signature)
        reuse = cached is not None and len(cached) == len(segments)
        if reuse:
            routes_reused += 1
        for j, (a, b) in enumerate(segments):
            edges = (grid.decode_edge_ids(cached[j]) if reuse
                     else _best_l_reference(grid, a, b))
            grid.add_demand(edges)
            seg_net.append(i)
            seg_pins.append((a, b))
            seg_edges.append(edges)
    net_first.append(len(seg_edges))
    t_init = time.perf_counter() - t0

    t0 = time.perf_counter()
    rng = np.random.default_rng(router.seed)
    iterations = 0
    plateau = 0
    previous = None
    rerouted_nets: set = set()
    segments_rerouted = 0
    for iteration in range(router.max_iterations):
        violations = grid.overflow_total()
        if violations == 0:
            break
        if previous is not None and violations >= previous * PLATEAU_RATIO:
            plateau += 1
            if plateau >= PLATEAU_ROUNDS:
                break
        else:
            plateau = 0
        previous = violations
        iterations = iteration + 1
        over = set(grid.overflowed_edges())
        for direction, ex, ey in over:
            grid.history[direction][ex, ey] += 1.0
        victims = [s for s in range(len(seg_edges))
                   if over.intersection(seg_edges[s])]
        if not victims:
            break
        order = [victims[int(p)]
                 for p in victim_order(len(victims), rng)]
        penalty = PENALTY_STEP * (iteration + 1)
        for s in order:
            grid.add_demand(seg_edges[s], amount=-1)
            a, b = seg_pins[s]
            new_edges = _best_pattern_reference(grid, a, b, penalty)
            if new_edges is None:
                new_edges = maze_route(grid, a, b, overflow_penalty=penalty)
            grid.add_demand(new_edges)
            seg_edges[s] = new_edges
            segments_rerouted += 1
            rerouted_nets.add(seg_net[s])
    t_negotiate = time.perf_counter() - t0

    violations = grid.overflow_total()
    over = set(grid.overflowed_edges())
    overflowed_nets = 0
    h_edges = 0
    total_edges = 0
    for i, name in enumerate(names):
        route = routes[name]
        edges: List[Edge] = []
        for s in range(net_first[i], net_first[i + 1]):
            edges.extend(seg_edges[s])
        route.edges = edges
        route.seg_edge_ids = [grid.edge_ids(seg_edges[s])
                              for s in range(net_first[i], net_first[i + 1])]
        if over.intersection(edges):
            overflowed_nets += 1
        h_edges += sum(1 for d, _, _ in edges if d == HORIZONTAL)
        total_edges += len(edges)
    total_wl = h_edges * grid.gw + (total_edges - h_edges) * grid.gh
    stats = _router_stats(t_init, t_negotiate, len(rerouted_nets),
                          segments_rerouted, routes_reused, iterations,
                          violations, overflowed_nets, total_wl)
    return RoutingResult(grid=grid, routes=routes, violations=violations,
                         overflowed_nets=overflowed_nets,
                         iterations=iterations, total_wirelength=total_wl,
                         stats=stats)
