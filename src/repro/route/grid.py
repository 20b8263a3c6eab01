"""Global-routing grid (GCells) and routing-resource model.

The die is tiled into GCells; each boundary between adjacent GCells is
an *edge* with a track capacity derived from the metal stack — the
paper's experiments fix **three metal layers**, which is what makes the
routability window in its Tables 2/4 exist at all.

Capacity model: with three layers, M2 carries vertical tracks, M3
horizontal tracks, and M1 contributes a partial share (the rest is used
inside the cells).  Tracks per edge = (usable layers) × gcell span /
track pitch × derate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

from ..errors import RoutingError
from ..place.floorplan import Floorplan

Point = Tuple[float, float]
GCell = Tuple[int, int]

HORIZONTAL = 0
VERTICAL = 1


@dataclass(frozen=True)
class RoutingResources:
    """The metal stack available to the router."""

    metal_layers: int = 3
    track_pitch: float = 0.56     # µm (0.18 µm-class M2/M3 pitch)
    m1_usable: float = 0.25       # share of M1 left over after cell use
    derate: float = 0.80          # blockage / via / manufacturing margin

    def __post_init__(self) -> None:  # noqa: D105
        if self.metal_layers < 2:
            raise RoutingError("need at least two metal layers to route")

    def layer_shares(self) -> Tuple[float, float]:
        """(horizontal, vertical) effective full-layer counts.

        Convention: M1 horizontal (partial), M2 vertical, M3 horizontal,
        M4 vertical, ...
        """
        horizontal = self.m1_usable
        vertical = 0.0
        for layer in range(2, self.metal_layers + 1):
            if layer % 2 == 0:
                vertical += 1.0
            else:
                horizontal += 1.0
        return horizontal, vertical


class RoutingGrid:
    """GCell grid with per-edge demand/capacity bookkeeping.

    Horizontal edges connect (x, y) to (x+1, y) — they consume
    horizontal tracks; vertical edges connect (x, y) to (x, y+1).

    Every edge also has a **flat id**: horizontal edge (ex, ey) maps to
    ``ex * ny + ey`` and vertical edge (ex, ey) to
    ``num_h_edges + ex * (ny - 1) + ey``.  ``demand``/``history`` are
    C-order views of the flat arrays, so per-edge tuple code and
    flat-id code share one set of books.  (The router copies the flat
    books into Python lists while it negotiates and writes demand back
    before every whole-grid step.)
    """

    def __init__(self, floorplan: Floorplan, resources: RoutingResources,
                 gcell_rows: int = 2):  # noqa: D107
        self.floorplan = floorplan
        self.resources = resources
        gcell_h = gcell_rows * floorplan.row_height
        self.ny = max(2, int(round(floorplan.height / gcell_h)))
        self.nx = max(2, int(round(floorplan.width / gcell_h)))
        self.gw = floorplan.width / self.nx
        self.gh = floorplan.height / self.ny
        h_share, v_share = resources.layer_shares()
        self.hcap = max(1, int(self.gh / resources.track_pitch
                               * h_share * resources.derate))
        self.vcap = max(1, int(self.gw / resources.track_pitch
                               * v_share * resources.derate))
        self.num_h_edges = (self.nx - 1) * self.ny
        self.num_v_edges = self.nx * (self.ny - 1)
        self.num_edges = self.num_h_edges + self.num_v_edges
        self.demand_flat = np.zeros(self.num_edges, dtype=np.int32)
        self.history_flat = np.zeros(self.num_edges, dtype=np.float64)
        # demand[HORIZONTAL]: (nx-1, ny); demand[VERTICAL]: (nx, ny-1)
        # — views of the flat arrays (writes through either are shared).
        self.demand = [
            self.demand_flat[:self.num_h_edges].reshape(self.nx - 1, self.ny),
            self.demand_flat[self.num_h_edges:].reshape(self.nx, self.ny - 1)]
        self.history = [
            self.history_flat[:self.num_h_edges].reshape(self.nx - 1, self.ny),
            self.history_flat[self.num_h_edges:].reshape(self.nx, self.ny - 1)]
        self.capacity_flat = np.empty(self.num_edges, dtype=np.int32)
        self.capacity_flat[:self.num_h_edges] = self.hcap
        self.capacity_flat[self.num_h_edges:] = self.vcap

    # -- coordinate mapping -----------------------------------------------

    def gcell_of(self, point: Point) -> GCell:
        """The GCell containing a die point (clamped to the core).

        Pure-scalar clamping: this runs once per pin per routing call,
        and ``np.clip`` on scalars costs microseconds — enough to
        dominate router init on small designs.
        """
        x = point[0] / self.gw
        y = point[1] / self.gh
        nx1 = self.nx - 1
        ny1 = self.ny - 1
        return (int(x if x < nx1 else nx1) if x > 0 else 0,
                int(y if y < ny1 else ny1) if y > 0 else 0)

    def gcell_center(self, cell: GCell) -> Point:
        """Die coordinates of a GCell center."""
        return ((cell[0] + 0.5) * self.gw, (cell[1] + 0.5) * self.gh)

    # -- edges ----------------------------------------------------------

    def edge_between(self, a: GCell, b: GCell) -> Tuple[int, int, int]:
        """(direction, ex, ey) of the edge joining two adjacent GCells."""
        (ax, ay), (bx, by) = a, b
        if ay == by and abs(ax - bx) == 1:
            return (HORIZONTAL, min(ax, bx), ay)
        if ax == bx and abs(ay - by) == 1:
            return (VERTICAL, ax, min(ay, by))
        raise RoutingError(f"gcells {a} and {b} are not adjacent")

    def capacity(self, direction: int) -> int:
        """Track capacity of edges in a direction."""
        return self.hcap if direction == HORIZONTAL else self.vcap

    def edge_length(self, direction: int) -> float:
        """Physical length (µm) represented by one edge crossing."""
        return self.gw if direction == HORIZONTAL else self.gh

    # -- flat edge ids --------------------------------------------------

    def edge_id(self, direction: int, ex: int, ey: int) -> int:
        """Flat id of one edge."""
        if direction == HORIZONTAL:
            return ex * self.ny + ey
        return self.num_h_edges + ex * (self.ny - 1) + ey

    def edge_ids(self, edges: Iterable[Tuple[int, int, int]]) -> np.ndarray:
        """Flat ids of a sequence of (direction, ex, ey) edges."""
        edges = list(edges)
        if not edges:
            return np.empty(0, dtype=np.int64)
        arr = np.asarray(edges, dtype=np.int64)
        horizontal = arr[:, 0] == HORIZONTAL
        ids = np.where(horizontal,
                       arr[:, 1] * self.ny + arr[:, 2],
                       self.num_h_edges + arr[:, 1] * (self.ny - 1)
                       + arr[:, 2])
        return ids

    def decode_edge_ids(self, ids: np.ndarray) -> List[Tuple[int, int, int]]:
        """(direction, ex, ey) tuples of a flat-id array."""
        ids = np.asarray(ids, dtype=np.int64)
        horizontal = ids < self.num_h_edges
        vid = ids - self.num_h_edges
        ex = np.where(horizontal, ids // self.ny, vid // (self.ny - 1))
        ey = np.where(horizontal, ids % self.ny, vid % (self.ny - 1))
        direction = np.where(horizontal, HORIZONTAL, VERTICAL)
        return list(zip(direction.tolist(), ex.tolist(), ey.tolist()))

    def add_demand(self, edges: Iterable[Tuple[int, int, int]],
                   amount: int = 1) -> None:
        """Adjust demand on a set of edges."""
        for direction, ex, ey in edges:
            self.demand[direction][ex, ey] += amount

    def overflow_total(self) -> int:
        """Total demand above capacity (the routing-violation proxy)."""
        return int(np.maximum(self.demand_flat - self.capacity_flat, 0).sum())

    def overflow_max(self) -> int:
        """Worst single-edge overflow."""
        over = self.demand_flat - self.capacity_flat
        return int(max(over.max(initial=0), 0))

    def overflowed_edges(self) -> List[Tuple[int, int, int]]:
        """All edges whose demand exceeds capacity."""
        out: List[Tuple[int, int, int]] = []
        for direction, cap in ((HORIZONTAL, self.hcap), (VERTICAL, self.vcap)):
            xs, ys = np.nonzero(self.demand[direction] > cap)
            out.extend((direction, int(x), int(y)) for x, y in zip(xs, ys))
        return out

    def edge_congestion(self, direction: int, ex: int, ey: int) -> float:
        """demand / capacity of one edge."""
        return float(self.demand[direction][ex, ey]) / self.capacity(direction)

    def overflow_map(self) -> np.ndarray:
        """(nx, ny) max surrounding-edge overflow per GCell (int)."""
        over = np.zeros((self.nx, self.ny), dtype=np.int64)
        oh = np.maximum(self.demand[HORIZONTAL] - self.hcap, 0)
        ov = np.maximum(self.demand[VERTICAL] - self.vcap, 0)
        over[:-1, :] = np.maximum(over[:-1, :], oh)
        over[1:, :] = np.maximum(over[1:, :], oh)
        over[:, :-1] = np.maximum(over[:, :-1], ov)
        over[:, 1:] = np.maximum(over[:, 1:], ov)
        return over

    def utilization_map(self) -> np.ndarray:
        """(nx, ny) max surrounding-edge congestion per GCell."""
        util = np.zeros((self.nx, self.ny))
        dh = self.demand[HORIZONTAL] / self.hcap
        dv = self.demand[VERTICAL] / self.vcap
        util[:-1, :] = np.maximum(util[:-1, :], dh)
        util[1:, :] = np.maximum(util[1:, :], dh)
        util[:, :-1] = np.maximum(util[:, :-1], dv)
        util[:, 1:] = np.maximum(util[:, 1:], dv)
        return util

    def reset_demand(self) -> None:
        """Clear all demand (history is kept)."""
        self.demand[HORIZONTAL][:] = 0
        self.demand[VERTICAL][:] = 0
