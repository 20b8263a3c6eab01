"""Covering cost objectives (Section 3.2, Eq. 5, and Section 3.3).

The dynamic-programming tree covering is objective-agnostic: every
candidate solution carries an (area, wire, arrival) triple and the
objective folds it into the scalar the DP minimises.

* ``MinArea``            — classic DAGON:   cost = AREA
* ``AreaCongestion(K)``  — the paper:       cost = AREA + K * WIRE
  where WIRE = WIRE1 + WIRE2 (Eq. 4): the match's own fanin distances
  plus the fanins' *stored* wire costs, accumulated down to the current
  tree's leaves (Eqs. 2–3) and restarting at tree boundaries.
* ``AreaCongestion(K, transitive_wire=True)`` — the Pedram–Bhat [9]
  variant the paper argues against: WIRE additionally accumulates
  *across* tree boundaries, over all transitive fanins down to the
  primary inputs (used by the ablation bench).
* ``MinDelay``           — Rudell-style minimum arrival under a
  constant-load delay estimate, with optional wire term.

Note the classic limitation of constant-load delay covering: the DP
minimises a *load-independent* arrival estimate, so it reliably reduces
logic depth but can lose on post-route STA when its duplication loads
shared nets (Rudell's load-binned formulation addresses this; out of
scope here).  The paper's own objective is the area/wire form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CoverObjective:
    """Scalarisation of (area, wire, arrival) used by the covering DP.

    ``k`` is the paper's congestion minimization factor K; ``mode``
    selects the primary figure of merit; ``transitive_wire`` switches
    WIRE2 from the paper's one-level lookback to full transitive
    accumulation; ``load_estimate`` (pF) is the constant load used for
    arrival estimation during covering.
    """

    mode: str = "area"            # "area" or "delay"
    k: float = 0.0
    transitive_wire: bool = False
    load_estimate: float = 0.010

    def __post_init__(self) -> None:  # noqa: D105
        if self.mode not in ("area", "delay"):
            raise ValueError(f"unknown objective mode {self.mode!r}")
        if not 0 <= self.k < math.inf:
            raise ValueError("congestion factor K must be finite and "
                             "non-negative")

    def cost(self, area: float, wire: float, arrival: float) -> float:
        """The scalar the DP minimises (Eq. 5 for area mode)."""
        if self.mode == "area":
            return area + self.k * wire
        return arrival + self.k * wire

    @property
    def uses_positions(self) -> bool:
        """True when the objective needs placement information."""
        return self.k > 0.0


def min_area() -> CoverObjective:
    """The DAGON baseline objective (K = 0)."""
    return CoverObjective(mode="area", k=0.0)


def area_congestion(k: float, transitive_wire: bool = False) -> CoverObjective:
    """The paper's congestion-aware objective: AREA + K * WIRE."""
    return CoverObjective(mode="area", k=k, transitive_wire=transitive_wire)


def min_delay(k: float = 0.0, load_estimate: float = 0.010) -> CoverObjective:
    """Minimum-arrival covering with optional congestion term."""
    return CoverObjective(mode="delay", k=k, load_estimate=load_estimate)
