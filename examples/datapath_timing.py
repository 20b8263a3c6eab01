#!/usr/bin/env python
"""Timing-driven mapping of a datapath block (multiplier + comparator).

Demonstrates the secondary objectives of the mapper: the same base
network mapped for minimum area, minimum delay, and area+congestion,
then compared after place & route with the static timing analyzer —
including the paper's observation that congestion-aware mapping keeps
timing competitive because it reduces wire meandering.

Run:  python examples/datapath_timing.py
"""

from repro.circuits import array_multiplier, comparator
from repro.core import (
    FlowConfig,
    area_congestion,
    evaluate_netlist,
    map_network,
    min_area,
    min_delay,
    timing_of_point,
)
from repro.library import CORELIB018
from repro.measures import logic_depth
from repro.network import BooleanNetwork, check_base_vs_mapped, decompose
from repro.place import Floorplan, place_base_network
from repro.synth import optimize


def build_datapath() -> BooleanNetwork:
    """A 5x5 multiplier whose product is compared against a constant bus.

    The two blocks are merged into one network: the multiplier feeds a
    10-bit comparator against primary inputs k0..k9.
    """
    mul = array_multiplier(5)
    net = BooleanNetwork("datapath")
    for name in mul.inputs:
        net.add_input(name)
    for k in range(10):
        net.add_input(f"k{k}")
    for name in mul.topological_order():
        net.add_node(name, mul.nodes[name].sop)
    cmp_block = comparator(10)
    from repro.network import Sop

    def rename(signal: str) -> str:
        if signal in cmp_block.inputs:
            # a* pins read the product bus, b* pins the constant bus.
            index = int(signal[1:])
            return f"m{index}" if signal.startswith("a") else f"k{index}"
        return f"c_{signal}"  # internal comparator node

    for name in cmp_block.topological_order():
        sop = cmp_block.nodes[name].sop
        net.add_node(rename(name), Sop.from_cubes(
            [[(rename(var), phase) for var, phase in cube]
             for cube in sop.cubes]))
    net.add_output("c_eq")
    net.add_output("c_gt")
    for k in range(10):
        net.add_output(f"m{k}")
    return net


def main() -> None:
    network = build_datapath()
    optimize(network, effort="fast")
    base = decompose(network)
    print(f"datapath: {base}")

    probe = map_network(base, CORELIB018, min_area())
    floorplan = Floorplan.for_area(probe.stats["cell_area"] / 0.40,
                                   aspect=1.0)
    positions = place_base_network(base, floorplan)
    config = FlowConfig(library=CORELIB018)

    objectives = [
        ("min-area", min_area(), "dagon"),
        ("min-delay", min_delay(), "placement"),
        ("area+K*wire", area_congestion(0.005), "placement"),
    ]
    print(f"{'objective':<12} {'cells':>6} {'area um2':>9} {'depth':>6} "
          f"{'viol':>5} {'wl um':>8} {'critical path':>28}")
    for label, objective, style in objectives:
        mapping = map_network(base, CORELIB018, objective,
                              partition_style=style, positions=positions)
        check_base_vs_mapped(base, mapping.netlist, CORELIB018)
        point = evaluate_netlist(mapping.netlist, floorplan, config)
        point.mapping = mapping
        timing = timing_of_point(point, config)
        print(f"{label:<12} {mapping.netlist.num_cells():>6} "
              f"{point.cell_area:>9.0f} "
              f"{logic_depth(mapping.netlist):>6} "
              f"{point.violations:>5} {point.routed_wirelength:>8.0f} "
              f"{timing.describe_critical():>28}")


if __name__ == "__main__":
    main()
