"""Cross-cutting measures of netlists and layouts.

Small, dependency-light functions shared by flows, benches and tests:
wirelength measures, fanout statistics and structural summaries.  (Run
telemetry renderers live in :mod:`repro.obs.metrics`.)
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .network.boolnet import BooleanNetwork
from .network.dag import BaseNetwork
from .network.netlist import MappedNetlist

Point = Tuple[float, float]


def hpwl(points: Sequence[Point]) -> float:
    """Half-perimeter wirelength of one pin set."""
    if len(points) < 2:
        return 0.0
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def total_hpwl(net_points: Dict[str, Sequence[Point]]) -> float:
    """Sum of HPWL over all nets."""
    return sum(hpwl(p) for p in net_points.values())


def fanout_histogram(network: BaseNetwork) -> Dict[int, int]:
    """Histogram of gate fanout counts in a base network."""
    hist: Dict[int, int] = {}
    for v, count in enumerate(network.fanout_counts()):
        if network.is_pi(v):
            continue
        hist[count] = hist.get(count, 0) + 1
    return hist


def max_fanout(network: BaseNetwork) -> int:
    """Largest fanout of any signal (inputs included)."""
    counts = network.fanout_counts()
    return max(counts) if counts else 0


def mapped_pin_count(netlist: MappedNetlist) -> int:
    """Total pin count (inputs + outputs of all instances)."""
    return sum(len(inst.pins) + 1 for inst in netlist.instances.values())


def average_fanin(netlist: MappedNetlist) -> float:
    """Mean input-pin count per instance."""
    if not netlist.instances:
        return 0.0
    return sum(len(inst.pins) for inst in netlist.instances.values()) \
        / len(netlist.instances)


def literal_count(network: BooleanNetwork) -> int:
    """SOP literal count (alias of the network method, for symmetry)."""
    return network.num_literals()


def logic_depth(netlist: MappedNetlist) -> int:
    """Longest instance chain from any input to any output."""
    drivers = netlist.driver_map()
    depth: Dict[str, int] = {net: 0 for net in netlist.inputs}
    best = 0
    for inst_name in netlist.topological_instances():
        inst = netlist.instances[inst_name]
        level = 1 + max((depth.get(net, 0) for net in inst.input_nets()),
                        default=0)
        depth[inst.output] = level
        best = max(best, level)
    return best
