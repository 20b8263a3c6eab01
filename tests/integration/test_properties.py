"""Cross-module property-based tests (hypothesis).

Random circuits through the whole pipeline: every stage must uphold its
contract regardless of circuit shape.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import random_pla
from repro.core import (
    FlowConfig,
    PositionMap,
    area_congestion,
    map_network,
    placement_partition,
)
from repro.library import CORELIB018
from repro.measures import logic_depth
from repro.network import check_base_vs_mapped, decompose
from repro.place import Floorplan, check_legal, place_base_network, place_netlist
from repro.route import GlobalRouter
from repro.timing import StaticTimingAnalyzer


def pla_strategy():
    return st.builds(
        random_pla,
        name=st.just("prop"),
        num_inputs=st.integers(4, 8),
        num_outputs=st.integers(2, 4),
        num_products=st.integers(4, 14),
        literals=st.just((2, 4)),
        outputs_per_product=st.just((1, 2)),
        seed=st.integers(0, 2 ** 20),
    )


@settings(max_examples=10, deadline=None)
@given(pla_strategy())
def test_full_pipeline_invariants(pla):
    """Map -> place -> route -> STA upholds every stage contract."""
    base = decompose(pla.to_network())
    floorplan = Floorplan.from_rows(14, aspect=1.0)
    positions = place_base_network(base, floorplan)

    # Partition invariants.
    part = placement_partition(base, positions)
    live = base.transitive_fanin(base.roots())
    covered = set()
    for tree in part.trees.values():
        covered |= tree.members
    for v in base.gates():
        if v in live:
            assert v in covered

    # Mapping preserves the function.
    mapping = map_network(base, CORELIB018, area_congestion(0.002),
                          partition_style="placement", positions=positions)
    check_base_vs_mapped(base, mapping.netlist, CORELIB018)

    # Placement is legal.
    placement = place_netlist(mapping.netlist, CORELIB018, floorplan)
    names = sorted(placement.positions)
    pos = np.array([placement.positions[n] for n in names])
    widths = [CORELIB018.cell_width(mapping.netlist.instances[n].cell_name)
              for n in names]
    check_legal(pos, widths, floorplan)

    # Routed wirelength is at least a connected-tree lower bound and the
    # demand bookkeeping is consistent.
    router = GlobalRouter(floorplan, max_iterations=4)
    result = router.route(placement.net_points(mapping.netlist))
    total_edges = sum(len(r.edges) for r in result.routes.values())
    demand_sum = int(result.grid.demand[0].sum()
                     + result.grid.demand[1].sum())
    assert total_edges == demand_sum
    assert result.violations >= 0

    # STA: arrival at every output is positive and bounded below by a
    # depth-based floor (each level adds at least the smallest
    # intrinsic delay).
    sta = StaticTimingAnalyzer(CORELIB018)
    report = sta.analyze(mapping.netlist)
    min_intrinsic = min(c.intrinsic_delay for c in CORELIB018.cells())
    depth = logic_depth(mapping.netlist)
    assert report.critical_arrival >= depth * min_intrinsic * 0.99


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 20))
def test_area_wire_tradeoff_is_universal(seed):
    """For any circuit: K=big never wins on area, (almost) never loses
    on wire.

    The wire side carries a small tolerance: covering is a greedy
    per-tree DP with incremental center-of-mass commits, so its total
    WIRE is not *strictly* monotone in K — earlier trees' commitments
    can shift later trees' geometry by a fraction of a percent (the
    paper's own Section 6 notes the unpredictability of multi-objective
    synthesis costs).
    """
    pla = random_pla("t", num_inputs=6, num_outputs=3, num_products=10,
                     literals=(2, 4), outputs_per_product=(1, 2), seed=seed)
    base = decompose(pla.to_network())
    floorplan = Floorplan.from_rows(12, aspect=1.0)
    positions = place_base_network(base, floorplan)
    lo = map_network(base, CORELIB018, area_congestion(0.0),
                     partition_style="placement", positions=positions)
    hi = map_network(base, CORELIB018, area_congestion(100.0),
                     partition_style="placement", positions=positions)
    assert hi.stats["cell_area"] >= lo.stats["cell_area"] - 1e-9
    assert hi.estimated_wirelength <= lo.estimated_wirelength * 1.02
