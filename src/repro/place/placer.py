"""Placer facade: place base networks and mapped netlists.

Two entry points:

* :func:`place_base_network` — the *layout image* of Section 3: the
  technology-independent NAND2/INV network is placed once (quadratic
  solve + spreading; no legalization — the mapper only needs geometry)
  and drives partitioning and wire cost.
* :func:`place_netlist` — the physical-design placement of a mapped
  netlist (quadratic + spreading + row legalization), the input to
  global routing and STA.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..geometry import PositionMap
from ..errors import PlacementError
from ..network.dag import BaseNetwork
from ..network.netlist import MappedNetlist
from .annealing import anneal
from .floorplan import Floorplan, Point, assign_pads
from .legalize import check_legal, legalize_rows
from .mincut import mincut_place
from .quadratic import QpNet, solve_quadratic
from .spreading import spread

if TYPE_CHECKING:
    # Annotation only: placement needs just ``cell_width``, and a
    # runtime import would close the cycle library -> obs -> io -> place.
    from ..library.cell import CellLibrary

#: Solve → spread → anchor rounds of the global placement loop.
GLOBAL_ITERATIONS = 3
#: Anchor-net weight schedule per iteration (pull toward spread slots).
ANCHOR_WEIGHTS = (0.12, 0.30, 0.60)

#: Per-phase timing accumulator: phase key -> seconds.
Timings = Dict[str, float]


def _tick(timings: Optional[Timings], key: str, t0: float) -> None:
    """Accumulate elapsed wall time since ``t0`` under ``key``."""
    if timings is not None:
        timings[key] = timings.get(key, 0.0) + (time.perf_counter() - t0)


def _global_place(num_movable: int, nets: List[QpNet], floorplan: Floorplan,
                  weights: Optional[np.ndarray] = None,
                  iterations: int = GLOBAL_ITERATIONS,
                  method: str = "mincut", seed: int = 0,
                  timings: Optional[Timings] = None) -> np.ndarray:
    """Global placement: min-cut bisection (default) or iterated quadratic.

    ``method="mincut"`` runs the FM recursive-bisection placer seeded by
    one quadratic solve — the quality workhorse.  ``method="quadratic"``
    runs the pure analytical loop (solve → spread → anchor), kept as a
    faster, lower-quality alternative and for cross-checking.
    """
    if method == "mincut":
        cell_widths = weights if weights is not None else np.ones(num_movable)
        return mincut_place(num_movable, nets, cell_widths, floorplan,
                            seed=seed, timings=timings)
    if method != "quadratic":
        raise PlacementError(f"unknown placement method {method!r}")
    center = (floorplan.width / 2.0, floorplan.height / 2.0)
    t0 = time.perf_counter()
    solved = solve_quadratic(num_movable, nets, default=center)
    _tick(timings, "t_quadratic", t0)
    t0 = time.perf_counter()
    spread_pos = spread(solved, floorplan, weights=weights)
    _tick(timings, "t_spread", t0)
    for round_ in range(1, iterations):
        weight = ANCHOR_WEIGHTS[min(round_ - 1, len(ANCHOR_WEIGHTS) - 1)]
        anchored = list(nets)
        for i in range(num_movable):
            anchor = QpNet(movables=[i],
                           fixed=[(float(spread_pos[i, 0]),
                                   float(spread_pos[i, 1]))])
            anchored.append(anchor)
        # Scale anchor influence by duplicating the weight through the
        # clique weight formula: a 2-pin net has weight 1, so emulate a
        # weaker pull by mixing previous and new solutions instead.
        t0 = time.perf_counter()
        solved_new = solve_quadratic(num_movable, anchored, default=center)
        _tick(timings, "t_quadratic", t0)
        solved = (1.0 - weight) * solved_new + weight * spread_pos
        t0 = time.perf_counter()
        spread_pos = spread(solved, floorplan, weights=weights)
        _tick(timings, "t_spread", t0)
    return spread_pos


@dataclass
class Placement:
    """A legalized standard-cell placement."""

    positions: Dict[str, Point]   # instance name -> cell center
    pads: Dict[str, Point]        # PI / PO name -> pad location
    floorplan: Floorplan

    def pin_point(self, name: str) -> Point:
        """Location of an instance or pad by name."""
        if name in self.positions:
            return self.positions[name]
        if name in self.pads:
            return self.pads[name]
        raise PlacementError(f"unknown placement object {name!r}")

    def net_points(self, netlist: MappedNetlist) -> Dict[str, List[Point]]:
        """All pin locations per net (driver, sinks, and I/O pads)."""
        points: Dict[str, List[Point]] = {}
        drivers = netlist.driver_map()
        sinks = netlist.sink_map()
        for net in netlist.nets():
            pts: List[Point] = []
            driver = drivers.get(net)
            if driver is not None:
                pts.append(self.positions[driver])
            elif net in self.pads:
                pts.append(self.pads[net])
            for inst, _pin in sinks.get(net, []):
                pts.append(self.positions[inst])
            points[net] = pts
        for po in netlist.outputs:
            if po in self.pads:
                points.setdefault(netlist.output_net[po], []).append(
                    self.pads[po])
        return points


def place_base_network(network: BaseNetwork, floorplan: Floorplan,
                       seed: int = 0, method: str = "mincut",
                       timings: Optional[Timings] = None) -> PositionMap:
    """Place the technology-independent network on the layout image.

    Returns a :class:`PositionMap` over *all* vertices: primary inputs
    sit on their perimeter pads, gates at their spread locations.
    """
    num_vertices = network.num_vertices()
    gate_ids = [v for v in network.vertices() if not network.is_pi(v)]
    movable_index = {v: i for i, v in enumerate(gate_ids)}
    pads = assign_pads(floorplan, sorted(network.input_vertex),
                       sorted(network.outputs))

    nets: List[QpNet] = []
    fanout = network.fanout_map()
    for v in network.vertices():
        readers = fanout[v]
        drives_po = [po for po in network.outputs
                     if network.outputs[po] == v]
        movables: List[int] = []
        fixed: List[Point] = []
        if network.is_pi(v):
            fixed.append(pads[network.labels[v]])
        else:
            movables.append(movable_index[v])
        for r in readers:
            movables.append(movable_index[r])
        for po in drives_po:
            fixed.append(pads[po])
        if len(movables) + len(fixed) >= 2:
            nets.append(QpNet(movables=movables, fixed=fixed))

    spread_pos = _global_place(len(gate_ids), nets, floorplan,
                               method=method, seed=seed, timings=timings)

    points: List[Point] = [(0.0, 0.0)] * num_vertices
    for name, v in network.input_vertex.items():
        points[v] = pads[name]
    for v, i in movable_index.items():
        points[v] = (float(spread_pos[i, 0]), float(spread_pos[i, 1]))
    return PositionMap(points)


def place_netlist(netlist: MappedNetlist, library: CellLibrary,
                  floorplan: Floorplan,
                  anneal_moves: int = 0, seed: int = 0,
                  method: str = "mincut",
                  timings: Optional[Timings] = None) -> Placement:
    """Place a mapped netlist: quadratic + spreading + legalization.

    ``anneal_moves > 0`` runs an SA refinement before legalization
    (small blocks only).
    """
    inst_names = sorted(netlist.instances)
    index = {name: i for i, name in enumerate(inst_names)}
    widths = [library.cell_width(netlist.instances[n].cell_name)
              for n in inst_names]
    pads = assign_pads(floorplan, list(netlist.inputs),
                       list(netlist.outputs))

    drivers = netlist.driver_map()
    sinks = netlist.sink_map()
    nets: List[QpNet] = []
    po_nets: Dict[str, List[str]] = {}
    for po in netlist.outputs:
        po_nets.setdefault(netlist.output_net[po], []).append(po)
    for net in netlist.nets():
        movables: List[int] = []
        fixed: List[Point] = []
        driver = drivers.get(net)
        if driver is not None:
            movables.append(index[driver])
        elif net in pads:
            fixed.append(pads[net])
        for inst, _pin in sinks.get(net, []):
            movables.append(index[inst])
        for po in po_nets.get(net, []):
            fixed.append(pads[po])
        if len(movables) + len(fixed) >= 2:
            nets.append(QpNet(movables=movables, fixed=fixed))

    spread_pos = _global_place(len(inst_names), nets, floorplan,
                               weights=np.asarray(widths), method=method,
                               seed=seed, timings=timings)
    if anneal_moves > 0:
        net_movables = [n.movables for n in nets]
        net_fixed = [n.fixed for n in nets]
        t0 = time.perf_counter()
        spread_pos = anneal(spread_pos, net_movables, net_fixed, floorplan,
                            moves=anneal_moves, seed=seed)
        _tick(timings, "t_anneal", t0)
    t0 = time.perf_counter()
    legal = legalize_rows(spread_pos, widths, floorplan)
    _tick(timings, "t_legalize", t0)
    check_legal(legal, widths, floorplan)
    positions = {name: (float(legal[i, 0]), float(legal[i, 1]))
                 for name, i in index.items()}
    return Placement(positions=positions, pads=pads, floorplan=floorplan)
