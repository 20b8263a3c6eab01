"""Integration tests for the paper's qualitative claims (small scale).

These are fast, scaled-down versions of the benchmark harness: they
assert the *shape* of the paper's results on small circuits so the
properties are exercised in every test run (the full-size shapes live
in benchmarks/).
"""

import pytest

from repro.circuits import random_pla
from repro.core import (
    FlowConfig,
    area_congestion,
    k_sweep,
    map_network,
    min_area,
)
from repro.library import CORELIB018
from repro.network import decompose
from repro.place import Floorplan, place_base_network
from repro.synth import optimize


@pytest.fixture(scope="module")
def setup():
    pla = random_pla("shape", num_inputs=12, num_outputs=8,
                     num_products=60, literals=(4, 8),
                     outputs_per_product=(1, 3), groups=4,
                     input_window=8, seed=2002)
    base = decompose(pla.to_network())
    config = FlowConfig(library=CORELIB018, max_route_iterations=8)
    probe = map_network(base, CORELIB018, min_area())
    floorplan = Floorplan.for_area(probe.stats["cell_area"] / 0.45,
                                   aspect=1.0)
    positions = place_base_network(base, floorplan)
    return base, config, floorplan, positions


class TestKSweepShape:
    @pytest.fixture(scope="class")
    def points(self, setup):
        base, config, floorplan, positions = setup
        return k_sweep(base, floorplan, config,
                       k_values=[0.0, 0.001, 0.01, 0.5, 5.0],
                       positions=positions)

    def test_area_trends_up_with_k(self, points):
        areas = [p.cell_area for p in points]
        assert areas[0] <= areas[-1]
        assert areas[0] == min(areas)

    def test_utilization_follows_area(self, points):
        assert points[-1].utilization >= points[0].utilization

    def test_large_k_grows_cells(self, points):
        assert points[-1].num_cells > points[0].num_cells

    def test_area_penalty_small_in_window(self, points):
        """Moderate K costs only a few percent of area (paper §5)."""
        base_area = points[0].cell_area
        window_area = points[1].cell_area
        assert window_area <= base_area * 1.05

    def test_mapper_wire_estimate_never_worse(self, points):
        est = [p.mapping.estimated_wirelength for p in points]
        assert min(est[1:]) <= est[0] + 1e-6


class TestFigure1Tradeoff:
    def test_k_trades_area_for_wire(self, setup):
        """The Figure 1 trade-off: higher K => more area, less wire."""
        base, config, floorplan, positions = setup
        lo = map_network(base, CORELIB018, area_congestion(0.0),
                         partition_style="placement", positions=positions)
        hi = map_network(base, CORELIB018, area_congestion(5.0),
                         partition_style="placement", positions=positions)
        assert hi.stats["cell_area"] >= lo.stats["cell_area"]
        assert hi.estimated_wirelength <= lo.estimated_wirelength


class TestSisVsDagonShape:
    def test_sis_smaller_but_more_shared(self):
        """Aggressive optimization: less area, at least as much fanout."""
        from repro.measures import max_fanout
        pla = random_pla("sd", num_inputs=12, num_outputs=8,
                         num_products=60, literals=(4, 8),
                         outputs_per_product=(1, 3), groups=4,
                         input_window=8, seed=7)
        sis_net = pla.to_network()
        optimize(sis_net, effort="high")
        dag_net = pla.to_network()
        optimize(dag_net, effort="standard")
        sis_base = decompose(sis_net)
        dag_base = decompose(dag_net)
        sis = map_network(sis_base, CORELIB018, min_area())
        dag = map_network(dag_base, CORELIB018, min_area())
        assert sis.stats["cell_area"] <= dag.stats["cell_area"] * 1.02
