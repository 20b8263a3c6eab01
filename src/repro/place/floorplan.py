"""Floorplans: die geometry, standard-cell rows and pad assignment.

The paper fixes a die size and row count per experiment (e.g. SPLA:
207062 µm², aspect ratio 1, 71 rows) and keeps three metal layers; this
module models exactly that: a rectangular core of equal-height rows
with I/O pads distributed around the perimeter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..errors import PlacementError

Point = Tuple[float, float]


@dataclass(frozen=True)
class Floorplan:
    """A rectangular standard-cell core."""

    width: float        # µm
    row_height: float   # µm
    num_rows: int

    def __post_init__(self) -> None:  # noqa: D105
        if self.width <= 0 or self.row_height <= 0 or self.num_rows <= 0:
            raise PlacementError("floorplan dimensions must be positive")

    @property
    def height(self) -> float:
        """Core height (µm)."""
        return self.row_height * self.num_rows

    @property
    def area(self) -> float:
        """Die area (µm²) — the figure the paper's tables report."""
        return self.width * self.height

    def row_y(self, row: int) -> float:
        """Center y of a row."""
        if not 0 <= row < self.num_rows:
            raise PlacementError(f"row {row} out of range")
        return (row + 0.5) * self.row_height

    def utilization(self, cell_area: float) -> float:
        """Area utilization in percent (the paper's column)."""
        return 100.0 * cell_area / self.area

    @classmethod
    def from_rows(cls, num_rows: int, row_height: float = 5.2,
                  aspect: float = 1.0) -> "Floorplan":
        """A core of ``num_rows`` rows with the given aspect (w/h)."""
        height = num_rows * row_height
        return cls(width=height * aspect, row_height=row_height,
                   num_rows=num_rows)

    @classmethod
    def for_area(cls, area: float, row_height: float = 5.2,
                 aspect: float = 1.0) -> "Floorplan":
        """The floorplan closest to ``area`` µm² at the given aspect."""
        height = math.sqrt(area / aspect)
        num_rows = max(1, round(height / row_height))
        actual_height = num_rows * row_height
        return cls(width=area / actual_height, row_height=row_height,
                   num_rows=num_rows)

    @classmethod
    def for_gates(cls, num_gates: int, rows: int = 0,
                  utilization: float = 35.0) -> "Floorplan":
        """The flows' default die: ``rows`` rows, else at least one base
        gate of 12 µm² per ``num_gates`` at ``utilization`` percent."""
        if rows:
            return cls.from_rows(rows)
        return cls.for_area(max(1, num_gates) * 12.0 / (utilization / 100.0))

    def with_rows(self, num_rows: int) -> "Floorplan":
        """Same width, different row count (the paper's die escalation)."""
        return Floorplan(width=self.width, row_height=self.row_height,
                         num_rows=num_rows)

    def contains(self, point: Point, margin: float = 1e-6) -> bool:
        """True when a point lies inside the core (with tolerance)."""
        x, y = point
        return (-margin <= x <= self.width + margin
                and -margin <= y <= self.height + margin)


def assign_pads(floorplan: Floorplan, inputs: Sequence[str],
                outputs: Sequence[str]) -> Dict[str, Point]:
    """Deterministic perimeter pad assignment.

    Pins are spaced evenly around the die boundary, inputs first
    (starting at the left edge, counter-clockwise), then outputs — the
    fixed terminals the quadratic placer anchors against, mirroring the
    paper's "floorplan constraints such as pin assignment".
    """
    names = list(inputs) + list(outputs)
    if not names:
        return {}
    w, h = floorplan.width, floorplan.height
    perimeter = 2.0 * (w + h)
    step = perimeter / len(names)
    pads: Dict[str, Point] = {}
    for i, name in enumerate(names):
        distance = (i + 0.5) * step
        pads[name] = _perimeter_point(distance, w, h)
    return pads


def _perimeter_point(distance: float, w: float, h: float) -> Point:
    """Walk ``distance`` counter-clockwise from the bottom-left corner."""
    distance %= 2.0 * (w + h)
    if distance < w:
        return (distance, 0.0)
    distance -= w
    if distance < h:
        return (w, distance)
    distance -= h
    if distance < w:
        return (w - distance, h)
    distance -= w
    return (0.0, h - distance)
