#!/usr/bin/env python
"""Post-mapping optimization: fanout buffering and gate sizing.

After congestion-aware mapping, two classic physical-synthesis passes
clean up timing:

1. **fanout buffering** splits the high-fanout shared nets (the very
   nets the paper's congestion story is about) with buffer trees, and
2. **gate sizing** upsizes drivers on the critical path — exactly the
   "cell sizing capability" Sylvester–Keutzer assume in the paper's
   Section 2.1, with its area cost reported.

Run:  python examples/postmap_optimization.py
"""

from repro.circuits import spla_like
from repro.core import FlowConfig, area_congestion, evaluate_netlist, map_network
from repro.library import CORELIB018
from repro.measures import mapped_pin_count
from repro.network import check_base_vs_mapped, decompose
from repro.place import Floorplan, place_base_network
from repro.synth import optimize
from repro.timing import StaticTimingAnalyzer, buffer_fanout, size_gates


def main() -> None:
    network = spla_like(0.05)
    optimize(network, effort="rugged")
    base = decompose(network)
    floorplan = Floorplan.from_rows(18, aspect=1.0)
    positions = place_base_network(base, floorplan)
    mapping = map_network(base, CORELIB018, area_congestion(0.001),
                          partition_style="placement", positions=positions)
    netlist = mapping.netlist
    config = FlowConfig(library=CORELIB018)
    sta = StaticTimingAnalyzer(CORELIB018)

    def snapshot(label: str) -> None:
        point = evaluate_netlist(netlist, floorplan, config)
        lengths = {n: point.routing.net_wirelength(n)
                   for n in point.routing.routes}
        report = sta.analyze(netlist, lengths)
        print(f"{label:<22} cells={netlist.num_cells():4d} "
              f"area={netlist.total_area(CORELIB018):7.0f} um2  "
              f"pins={mapped_pin_count(netlist):5d}  "
              f"viol={point.violations:3d}  "
              f"critical={report.critical_arrival:6.3f} ns")

    snapshot("mapped")

    buffered = buffer_fanout(netlist, CORELIB018, max_fanout=8)
    check_base_vs_mapped(base, netlist, CORELIB018)
    print(f"  + buffering: {buffered.nets_buffered} nets split, "
          f"{buffered.buffers_added} buffers "
          f"(+{buffered.area_added:.1f} um2)")
    snapshot("buffered")

    sized = size_gates(netlist, CORELIB018)
    check_base_vs_mapped(base, netlist, CORELIB018)
    print(f"  + sizing: {sized.swaps} swaps "
          f"(+{100 * sized.area_penalty:.1f}% area)")
    snapshot("sized")


if __name__ == "__main__":
    main()
