"""Row legalization (Tetris-style) for standard-cell placements.

Cells are snapped onto rows without overlap: processed in x order, each
cell is placed at the end of the row cursor that minimises its
displacement.  Raises :class:`PlacementError` when the die cannot hold
the cells at all (total width exceeding row capacity), which is the
placement-level "does not fit" failure the paper's area arguments are
about.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import PlacementError
from .floorplan import Floorplan

Point = Tuple[float, float]


def legalize_rows(positions: np.ndarray, widths: Sequence[float],
                  floorplan: Floorplan,
                  row_search: int = 6) -> np.ndarray:
    """Legalize (n, 2) positions into rows; returns new (n, 2) array.

    Each output position is the *center* of the placed cell;
    y coordinates are row centers.  ``row_search`` bounds how many rows
    above/below the target row are tried before widening the search.
    Row choices are bit-identical to the scalar scan of
    :func:`_legalize_reference`.
    """
    n = positions.shape[0]
    widths = np.asarray(widths, dtype=float)
    if widths.shape[0] != n:
        raise PlacementError("widths length does not match positions")
    total_width = float(widths.sum())
    capacity = floorplan.width * floorplan.num_rows
    if total_width > capacity + 1e-6:
        raise PlacementError(
            f"cells ({total_width:.0f} µm) exceed row capacity "
            f"({capacity:.0f} µm): die too small")
    cursors = np.zeros(floorplan.num_rows)
    out = np.zeros_like(positions, dtype=float)
    order = np.argsort(positions[:, 0], kind="stable")
    _legalize_vector(positions, widths, floorplan, row_search,
                     cursors, out, order)
    return out


def _legalize_vector(positions: np.ndarray, widths: np.ndarray,
                     floorplan: Floorplan, row_search: int,
                     cursors: np.ndarray, out: np.ndarray,
                     order: np.ndarray) -> None:
    """Fast legalizer: flat Python floats, hoisted row centers.

    The row windows are tiny (tens of entries), so the win here comes
    from stripping per-candidate numpy scalar overhead, not from array
    ops: coordinates, widths and cursors live in plain lists and the
    row centers are precomputed once.  IEEE double arithmetic is the
    same either way, so costs — and therefore every row choice — are
    bit-identical to the reference scan.
    """
    num_rows = floorplan.num_rows
    row_height = floorplan.row_height
    rows_y = [floorplan.row_y(r) for r in range(num_rows)]
    limit = floorplan.width + 1e-9
    last_row = num_rows - 1
    xs = positions[:, 0].tolist()
    ys = positions[:, 1].tolist()
    ws = widths.tolist()
    cur = cursors.tolist()
    inf = float("inf")
    for i in order.tolist():
        x = xs[i]
        y = ys[i]
        width = ws[i]
        target = int(min(max(y / row_height, 0), last_row))
        best_row = -1
        best_cost = inf
        radius = row_search
        while best_row < 0:
            lo = max(0, target - radius)
            hi = min(last_row, target + radius)
            for row in range(lo, hi + 1):
                place_x = cur[row]
                if place_x + width > limit:
                    continue
                cost = (abs(place_x + width / 2.0 - x)
                        + abs(rows_y[row] - y))
                if cost < best_cost:
                    best_cost = cost
                    best_row = row
            if best_row < 0:
                if lo == 0 and hi == last_row:
                    raise PlacementError(
                        "legalization failed: no row can accept cell "
                        f"{i} (width {width:.2f})")
                radius *= 2
        out[i, 0] = cur[best_row] + width / 2.0
        out[i, 1] = rows_y[best_row]
        cur[best_row] += width
    cursors[:] = cur


def _legalize_reference(positions: np.ndarray, widths: np.ndarray,
                        floorplan: Floorplan, row_search: int,
                        cursors: np.ndarray, out: np.ndarray,
                        order: np.ndarray) -> None:
    """Scalar per-row scan (the oracle :func:`_legalize_vector` must
    match)."""
    for i in order:
        x, y = positions[i]
        width = widths[i]
        target = int(np.clip(y / floorplan.row_height, 0,
                             floorplan.num_rows - 1))
        best_row = -1
        best_cost = float("inf")
        radius = row_search
        while best_row < 0:
            lo = max(0, target - radius)
            hi = min(floorplan.num_rows - 1, target + radius)
            for row in range(lo, hi + 1):
                if cursors[row] + width > floorplan.width + 1e-9:
                    continue
                place_x = cursors[row]
                cost = (abs(place_x + width / 2.0 - x)
                        + abs(floorplan.row_y(row) - y))
                if cost < best_cost:
                    best_cost = cost
                    best_row = row
            if best_row < 0:
                if lo == 0 and hi == floorplan.num_rows - 1:
                    raise PlacementError(
                        "legalization failed: no row can accept cell "
                        f"{i} (width {width:.2f})")
                radius *= 2
        out[i, 0] = cursors[best_row] + width / 2.0
        out[i, 1] = floorplan.row_y(best_row)
        cursors[best_row] += width


def check_legal(positions: np.ndarray, widths: Sequence[float],
                floorplan: Floorplan, tolerance: float = 1e-6) -> None:
    """Raise :class:`PlacementError` on overlap or out-of-die cells."""
    n = positions.shape[0]
    widths = np.asarray(widths, dtype=float)
    by_row: Dict[int, List[Tuple[float, float]]] = {}
    for i in range(n):
        x, y = positions[i]
        row = int(round(y / floorplan.row_height - 0.5))
        if abs(floorplan.row_y(row) - y) > tolerance:
            raise PlacementError(f"cell {i} is not on a row (y={y})")
        left = x - widths[i] / 2.0
        right = x + widths[i] / 2.0
        if left < -tolerance or right > floorplan.width + tolerance:
            raise PlacementError(f"cell {i} extends outside the die")
        by_row.setdefault(row, []).append((left, right))
    for row, spans in by_row.items():
        spans.sort()
        for (l1, r1), (l2, r2) in zip(spans, spans[1:]):
            if r1 > l2 + tolerance:
                raise PlacementError(
                    f"overlap in row {row}: [{l1:.2f},{r1:.2f}] vs "
                    f"[{l2:.2f},{r2:.2f}]")
