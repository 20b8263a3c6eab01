"""Recursive min-cut bisection placement (Fiduccia–Mattheyses).

The workhorse global placer of this reproduction.  The die is split
recursively in half (alternating cut direction by region aspect); at
each split the cells of the region are bipartitioned to minimise the
number of cut nets with classic FM passes (incremental gain updates,
lazy-heap selection), with

* **terminal propagation** — pins outside the region (pads and cells
  already assigned elsewhere) bias the nets they touch toward the
  matching half, and
* width-balance constraints so each half fits its side's row capacity.

The initial split at every level is the median of a one-shot quadratic
solution, so FM starts from a wirelength-aware ordering rather than
noise.  Min-cut placement is the same family that drove the
timing-driven tools of the paper's era.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import PlacementError
from .floorplan import Floorplan
from .quadratic import QpNet, solve_quadratic

Point = Tuple[float, float]

#: Stop recursing below this many cells; arrange them locally.
LEAF_CELLS = 3
#: Maximum FM passes per bisection.
FM_PASSES = 2
#: Allowed imbalance: each side may exceed half the region width by this.
BALANCE_SLACK = 0.12


def mincut_place(num_cells: int, nets: Sequence[QpNet],
                 widths: Sequence[float], floorplan: Floorplan,
                 seed: int = 0,
                 timings: Optional[Dict[str, float]] = None) -> np.ndarray:
    """Place ``num_cells`` cells; returns (n, 2) center positions.

    ``nets`` use the same structure as the quadratic solver (movable
    indices + fixed points), so the two global placers are
    interchangeable.  ``timings`` accumulates per-phase seconds
    (``t_quadratic`` for the seed solve, ``t_mincut`` for FM).
    """
    if num_cells == 0:
        return np.zeros((0, 2))
    widths_arr = np.asarray(widths, dtype=float)
    if widths_arr.shape[0] != num_cells:
        raise PlacementError("widths length does not match cell count")
    center = (floorplan.width / 2.0, floorplan.height / 2.0)
    t0 = time.perf_counter()
    guess = solve_quadratic(num_cells, nets, default=center)
    if timings is not None:
        timings["t_quadratic"] = timings.get("t_quadratic", 0.0) \
            + (time.perf_counter() - t0)
    t0 = time.perf_counter()
    if seed:
        # Seeded jitter diversifies FM tie-breaking, so other seeds
        # explore other placements.
        rng = np.random.default_rng(seed)
        scale = 0.01 * (floorplan.width + floorplan.height)
        guess = guess + rng.normal(0.0, scale, size=guess.shape)

    net_cells: List[List[int]] = [list(dict.fromkeys(n.movables))
                                  for n in nets]
    net_fixed: List[List[Point]] = [list(n.fixed) for n in nets]
    nets_of: List[List[int]] = [[] for _ in range(num_cells)]
    for net_id, cells in enumerate(net_cells):
        for c in cells:
            nets_of[c].append(net_id)

    out = np.zeros((num_cells, 2))
    region_center: List[Point] = [center] * num_cells

    stack: List[Tuple[List[int], float, float, float, float]] = [
        (list(range(num_cells)), 0.0, 0.0,
         floorplan.width, floorplan.height)]
    while stack:
        cells, x0, y0, x1, y1 = stack.pop()
        if len(cells) <= LEAF_CELLS:
            _place_leaf(out, cells, guess, x0, y0, x1, y1)
            for c in cells:
                region_center[c] = (float(out[c, 0]), float(out[c, 1]))
            continue
        vertical = (x1 - x0) >= (y1 - y0)
        axis = 0 if vertical else 1
        mid = ((x0 + x1) / 2.0) if vertical else ((y0 + y1) / 2.0)
        left, right = _fm_bisect(cells, guess, widths_arr, nets_of,
                                 net_cells, net_fixed, region_center,
                                 axis, mid)
        if vertical:
            areas = ((x0, y0, mid, y1), (mid, y0, x1, y1))
        else:
            areas = ((x0, y0, x1, mid), (x0, mid, x1, y1))
        for group, (gx0, gy0, gx1, gy1) in zip((left, right), areas):
            if not group:
                continue
            cx, cy = (gx0 + gx1) / 2.0, (gy0 + gy1) / 2.0
            for c in group:
                region_center[c] = (cx, cy)
            stack.append((group, gx0, gy0, gx1, gy1))
    if timings is not None:
        timings["t_mincut"] = timings.get("t_mincut", 0.0) \
            + (time.perf_counter() - t0)
    return out


def _place_leaf(out: np.ndarray, cells: List[int], guess: np.ndarray,
                x0: float, y0: float, x1: float, y1: float) -> None:
    """Spread up to LEAF_CELLS cells across their final region."""
    order = sorted(cells, key=lambda c: (guess[c, 0], guess[c, 1]))
    n = len(order)
    for k, c in enumerate(order):
        out[c, 0] = x0 + (x1 - x0) * (k + 0.5) / n
        out[c, 1] = (y0 + y1) / 2.0


def _fm_bisect(cells: List[int], guess: np.ndarray, widths: np.ndarray,
               nets_of: List[List[int]], net_cells: List[List[int]],
               net_fixed: List[List[Point]], region_center: List[Point],
               axis: int, mid: float) -> Tuple[List[int], List[int]]:
    """Split ``cells`` into (left, right) minimising cut nets."""
    cell_list = sorted(cells, key=lambda c: (guess[c, axis], c))
    cell_set = set(cell_list)
    total_w = float(widths[cell_list].sum())
    max_side = total_w / 2.0 + BALANCE_SLACK * total_w

    side: Dict[int, int] = {}
    side_width = [0.0, 0.0]
    acc = 0.0
    for c in cell_list:
        s = 0 if acc < total_w / 2.0 else 1
        side[c] = s
        side_width[s] += widths[c]
        acc += widths[c]

    # Per-net state: internal members and side tallies (tallies include
    # external pulls from pads / already-assigned cells).
    members: Dict[int, List[int]] = {}
    tallies: Dict[int, List[int]] = {}
    for net_id in sorted({n for c in cell_list for n in nets_of[c]}):
        inside = [c for c in net_cells[net_id] if c in cell_set]
        if not inside:
            continue
        tally = [0, 0]
        for c in net_cells[net_id]:
            if c in cell_set:
                tally[side[c]] += 1
            else:
                point = region_center[c]
                tally[0 if point[axis] < mid else 1] += 1
        for point in net_fixed[net_id]:
            tally[0 if point[axis] < mid else 1] += 1
        members[net_id] = inside
        tallies[net_id] = tally

    def initial_gains() -> Dict[int, int]:
        gains: Dict[int, int] = {c: 0 for c in cell_list}
        for net_id, inside in members.items():
            tally = tallies[net_id]
            for c in inside:
                s = side[c]
                here = tally[s]
                there = tally[1 - s]
                if here == 1 and there > 0:
                    gains[c] += 1
                elif there == 0:
                    gains[c] -= 1
        return gains

    for _pass in range(FM_PASSES):
        gains = initial_gains()
        stamp: Dict[int, int] = {c: 0 for c in cell_list}
        heap: List[Tuple[int, int, int]] = []
        for c in cell_list:
            heapq.heappush(heap, (-gains[c], stamp[c], c))
        locked: Set[int] = set()
        moves: List[Tuple[int, int]] = []
        gain_total = 0
        best_gain = 0
        best_prefix = 0

        def bump(c: int, delta: int) -> None:
            if c in locked:
                return
            gains[c] += delta
            stamp[c] += 1
            heapq.heappush(heap, (-gains[c], stamp[c], c))

        while heap:
            neg_gain, st, c = heapq.heappop(heap)
            if c in locked or st != stamp[c]:
                continue
            s = side[c]
            if side_width[1 - s] + widths[c] > max_side:
                continue  # skipped; may retry later via stale entries
            # Apply the move with standard FM gain updates.
            locked.add(c)
            for net_id in nets_of[c]:
                tally = tallies.get(net_id)
                if tally is None:
                    continue
                inside = members[net_id]
                t = 1 - s
                if tally[t] == 0:
                    for other in inside:
                        bump(other, +1)
                elif tally[t] == 1:
                    for other in inside:
                        if other != c and side[other] == t:
                            bump(other, -1)
                tally[s] -= 1
                tally[t] += 1
                if tally[s] == 0:
                    for other in inside:
                        bump(other, -1)
                elif tally[s] == 1:
                    for other in inside:
                        if other != c and side[other] == s:
                            bump(other, +1)
            side_width[s] -= widths[c]
            side_width[1 - s] += widths[c]
            side[c] = 1 - s
            moves.append((c, s))
            gain_total += -neg_gain
            if gain_total > best_gain:
                best_gain = gain_total
                best_prefix = len(moves)
            if len(moves) - best_prefix > 50:
                break  # deep losing streak
        for c, original in reversed(moves[best_prefix:]):
            current = side[c]
            side_width[current] -= widths[c]
            side_width[original] += widths[c]
            side[c] = original
            for net_id in nets_of[c]:
                tally = tallies.get(net_id)
                if tally is not None:
                    tally[current] -= 1
                    tally[original] += 1
        if best_gain <= 0:
            break

    left = [c for c in cell_list if side[c] == 0]
    right = [c for c in cell_list if side[c] == 1]
    if not left or not right:
        half = len(cell_list) // 2
        left, right = cell_list[:half], cell_list[half:]
    return left, right
