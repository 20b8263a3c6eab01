"""Congestion-aware maze routing (PathFinder-style cost).

Shortest-path search over the GCell graph for one two-pin connection.
Edge cost combines a unit base cost, a present-congestion penalty and
accumulated history, which is the negotiation mechanism that lets the
rip-up-and-reroute loop converge on routable designs and expose true
overflow on unroutable ones.

The search is split into two phases so the router and its reference
twin take the same decisions:

1. a **distance field** over the search window — Dijkstra in both: run
   to exhaustion over GCell tuples here (the reference engine's
   rendition), stopped once the target settles over flat cell ids in
   :func:`repro.route.router._maze` — and
2. a **canonical backtrack** (:func:`backtrack_path`, mirrored on flat
   ids by the router) that walks from the target to the source
   choosing, at every step, the first neighbor in a fixed scan order
   whose distance plus edge cost equals the current cell's distance.

Because every edge cost is an exactly-representable float64 (unit base,
integer history, penalty x integer overflow), both searches assign the
same distance to every cell the backtrack can step on, and the shared
scan order then yields bit-identical paths.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Tuple

from .grid import GCell, HORIZONTAL, RoutingGrid, VERTICAL

#: Cost multiplier per unit of (would-be) overflow on an edge.
OVERFLOW_PENALTY = 8.0
#: Weight of accumulated history cost.
HISTORY_WEIGHT = 1.0
#: Bounding-box margin (in GCells) around the two pins.
BBOX_MARGIN = 6

Window = Tuple[int, int, int, int]


def edge_cost(grid: RoutingGrid, direction: int, ex: int, ey: int,
              overflow_penalty: float = OVERFLOW_PENALTY) -> float:
    """Cost of pushing one more track through an edge."""
    demand = grid.demand[direction][ex, ey]
    capacity = grid.capacity(direction)
    cost = 1.0 + HISTORY_WEIGHT * grid.history[direction][ex, ey]
    if demand + 1 > capacity:
        cost += overflow_penalty * (demand + 1 - capacity)
    return cost


def maze_window(grid: RoutingGrid, source: GCell, target: GCell,
                margin: int) -> Window:
    """The clipped search window (x_lo, x_hi, y_lo, y_hi), inclusive.

    The window is the pin bounding box plus ``margin`` GCells of detour
    room (detours are exactly the wire meandering the paper attributes
    congestion-induced delay to).
    """
    x_lo = max(0, min(source[0], target[0]) - margin)
    x_hi = min(grid.nx - 1, max(source[0], target[0]) + margin)
    y_lo = max(0, min(source[1], target[1]) - margin)
    y_hi = min(grid.ny - 1, max(source[1], target[1]) + margin)
    return x_lo, x_hi, y_lo, y_hi


def window_contains(window: Window, cell: GCell) -> bool:
    """Whether a GCell lies inside a search window."""
    x_lo, x_hi, y_lo, y_hi = window
    return x_lo <= cell[0] <= x_hi and y_lo <= cell[1] <= y_hi


def l_fallback(grid: RoutingGrid, source: GCell, target: GCell,
               overflow_penalty: float) -> List[Tuple[int, int, int]]:
    """Deterministic fallback when the window search cannot connect.

    Returns the cheaper of the two L-shapes under the same congestion
    cost the search optimises (tie keeps horizontal-first).  An L
    between the pins never leaves the pin bounding box, so the fallback
    stays inside any window that contains both pins.
    """
    first = l_route_edges(source, target, horizontal_first=True)
    second = l_route_edges(source, target, horizontal_first=False)
    if first == second:
        return first
    cost_first = sum(edge_cost(grid, *e, overflow_penalty=overflow_penalty)
                     for e in first)
    cost_second = sum(edge_cost(grid, *e, overflow_penalty=overflow_penalty)
                      for e in second)
    return first if cost_first <= cost_second else second


def backtrack_path(dist_of: Callable[[GCell], float],
                   cost_of: Callable[[int, int, int], float],
                   window: Window, source: GCell, target: GCell
                   ) -> List[Tuple[int, int, int]]:
    """Canonical walk from target to source over a distance field.

    At each cell the neighbors are scanned in a fixed order (left,
    right, down, up); the first one whose distance plus the connecting
    edge's cost **exactly equals** the cell's distance is taken.  With
    exact distances the equality always holds for at least one neighbor
    of every reachable cell, and the fixed order makes the chosen path
    unique — independent of how the distance field was computed.
    """
    edges: List[Tuple[int, int, int]] = []
    cell = target
    while cell != source:
        cx, cy = cell
        d = dist_of(cell)
        for nxt, direction, ex, ey in (
                ((cx - 1, cy), HORIZONTAL, cx - 1, cy),
                ((cx + 1, cy), HORIZONTAL, cx, cy),
                ((cx, cy - 1), VERTICAL, cx, cy - 1),
                ((cx, cy + 1), VERTICAL, cx, cy)):
            if not window_contains(window, nxt):
                continue
            if dist_of(nxt) + cost_of(direction, ex, ey) == d:
                edges.append((direction, ex, ey))
                cell = nxt
                break
        else:  # pragma: no cover - impossible for an exact field
            raise AssertionError(f"inconsistent distance field at {cell}")
    edges.reverse()
    return edges


def maze_route(grid: RoutingGrid, source: GCell, target: GCell,
               margin: int = BBOX_MARGIN,
               overflow_penalty: float = OVERFLOW_PENALTY
               ) -> List[Tuple[int, int, int]]:
    """Shortest congestion-cost route between two GCells (edge tuples).

    Runs Dijkstra to exhaustion over the search window (so every cell's
    distance is final), then reconstructs the path with the canonical
    backtrack.  Falls back to the cheaper L-shape when the window
    cannot connect the pins (degenerate or inverted windows).
    """
    if source == target:
        return []
    window = maze_window(grid, source, target, margin)
    if not (window_contains(window, source)
            and window_contains(window, target)):
        return l_fallback(grid, source, target, overflow_penalty)
    x_lo, x_hi, y_lo, y_hi = window

    # Hot loop: hoist array and scalar lookups out of the search.
    demand_h = grid.demand[HORIZONTAL]
    demand_v = grid.demand[VERTICAL]
    history_h = grid.history[HORIZONTAL]
    history_v = grid.history[VERTICAL]
    hcap = grid.hcap
    vcap = grid.vcap
    inf = float("inf")

    best: Dict[GCell, float] = {source: 0.0}
    heap: List[Tuple[float, GCell]] = [(0.0, source)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        g, cell = pop(heap)
        if g > best.get(cell, inf):
            continue
        cx, cy = cell
        for nxt, horizontal, ex, ey in (
                ((cx - 1, cy), True, cx - 1, cy),
                ((cx + 1, cy), True, cx, cy),
                ((cx, cy - 1), False, cx, cy - 1),
                ((cx, cy + 1), False, cx, cy)):
            nx, ny = nxt
            if not (x_lo <= nx <= x_hi and y_lo <= ny <= y_hi):
                continue
            if horizontal:
                demand = demand_h[ex, ey]
                cost = 1.0 + HISTORY_WEIGHT * history_h[ex, ey]
                if demand + 1 > hcap:
                    cost += overflow_penalty * (demand + 1 - hcap)
            else:
                demand = demand_v[ex, ey]
                cost = 1.0 + HISTORY_WEIGHT * history_v[ex, ey]
                if demand + 1 > vcap:
                    cost += overflow_penalty * (demand + 1 - vcap)
            ng = g + cost
            if ng < best.get(nxt, inf):
                best[nxt] = ng
                push(heap, (ng, nxt))
    if best.get(target, inf) == inf:
        return l_fallback(grid, source, target, overflow_penalty)
    return backtrack_path(
        lambda cell: best.get(cell, inf),
        lambda direction, ex, ey: edge_cost(
            grid, direction, ex, ey, overflow_penalty=overflow_penalty),
        window, source, target)


def l_route_edges(source: GCell, target: GCell,
                  horizontal_first: bool = True) -> List[Tuple[int, int, int]]:
    """The edges of an L-shaped route."""
    edges: List[Tuple[int, int, int]] = []
    sx, sy = source
    tx, ty = target
    if horizontal_first:
        for x in range(min(sx, tx), max(sx, tx)):
            edges.append((HORIZONTAL, x, sy))
        for y in range(min(sy, ty), max(sy, ty)):
            edges.append((VERTICAL, tx, y))
    else:
        for y in range(min(sy, ty), max(sy, ty)):
            edges.append((VERTICAL, sx, y))
        for x in range(min(sx, tx), max(sx, tx)):
            edges.append((HORIZONTAL, x, ty))
    return edges
