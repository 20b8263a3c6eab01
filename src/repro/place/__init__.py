"""Placement substrate: floorplans, quadratic placement, legalization."""

from .annealing import anneal
from .floorplan import Floorplan, assign_pads
from .legalize import check_legal, legalize_rows
from .placer import Placement, place_base_network, place_netlist
from .quadratic import QpNet, solve_quadratic
from .spreading import spread

__all__ = [
    "Floorplan",
    "Placement",
    "QpNet",
    "anneal",
    "assign_pads",
    "check_legal",
    "legalize_rows",
    "place_base_network",
    "place_netlist",
    "solve_quadratic",
    "spread",
]
