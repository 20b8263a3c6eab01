"""The router's scalar kernels vs the reference engine's, ties included.

:func:`repro.route.router._best_pattern` and
:func:`repro.route.router._maze` work on flat Python lists, scan the
L/Z candidates with pruning and stop the Dijkstra when the target
settles.  Each must return exactly the edges the per-edge reference
kernels return — ``_best_pattern_reference`` and
:func:`repro.route.maze.maze_route` — edge for edge and in order, on
clipped windows, straight and equal pins, and uniform costs where
many paths tie.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import benchmark
from repro.core.flow import FlowConfig, run_k_point
from repro.library import CORELIB018
from repro.network import decompose
from repro.place import Floorplan
from repro.place.placer import place_base_network
from repro.route import GlobalRouter, RoutingGrid, RoutingResources
from repro.route.maze import maze_route
from repro.route.reference import _best_pattern_reference, route_reference
from repro.route.router import _best_pattern, _maze

#: Capacities (hcap, vcap): (16, 7), (6, 2) and (1, 2).
RESOURCES = [RoutingResources(), RoutingResources(derate=0.3),
             RoutingResources(metal_layers=2, derate=0.25, m1_usable=0.0)]


def make_grid(nx, ny, resources=RESOURCES[0]):
    """An ``nx`` x ``ny`` GCell grid (one row per GCell)."""
    floorplan = Floorplan(width=5.2 * nx, row_height=5.2, num_rows=ny)
    grid = RoutingGrid(floorplan, resources, gcell_rows=1)
    assert (grid.nx, grid.ny) == (nx, ny)
    return grid


def load(grid, seed):
    """Demand drawn around capacity and integer history."""
    rng = np.random.default_rng(seed)
    caps = grid.capacity_flat.astype(np.int64)
    grid.demand_flat[:] = rng.integers(np.maximum(caps - 3, 0), caps + 2)
    grid.history_flat[:] = rng.integers(0, 4, grid.num_edges)


def assert_kernels_agree(grid, a, b, penalty):
    demand = grid.demand_flat.tolist()
    history = grid.history_flat.tolist()
    pattern = _best_pattern(grid, demand, history, a, b)
    expected = _best_pattern_reference(grid, a, b, penalty)
    if expected is None:
        assert pattern is None
    else:
        assert grid.decode_edge_ids(pattern) == expected
    path = _maze(grid, demand, history, a, b, penalty)
    assert grid.decode_edge_ids(path) == \
        maze_route(grid, a, b, overflow_penalty=penalty)
    # The kernels only read the books.
    assert grid.demand_flat.tolist() == demand
    assert grid.history_flat.tolist() == history


@st.composite
def kernel_cases(draw):
    nx = draw(st.integers(2, 16))
    ny = draw(st.integers(2, 16))

    def coord(n):                      # a border coordinate one time in 4
        return draw(st.integers(0, n - 1) | st.integers(0, n - 1)
                    | st.integers(0, n - 1) | st.sampled_from([0, n - 1]))

    a = (coord(nx), coord(ny))
    # b differs from a in both coordinates: the test derives the
    # straight and equal pairs from (a, b) itself.
    b = ((a[0] + draw(st.integers(1, nx - 1))) % nx,
         (a[1] + draw(st.integers(1, ny - 1))) % ny)
    return (nx, ny, draw(st.sampled_from(RESOURCES)),
            draw(st.integers(0, 2 ** 32 - 1)), a, b,
            4.0 * draw(st.integers(1, 25)))


class TestScalarKernels:
    @given(kernel_cases())
    @settings(max_examples=300, deadline=None)
    def test_kernels_match_reference(self, case):
        nx, ny, resources, seed, a, b, penalty = case
        grid = make_grid(nx, ny, resources)
        load(grid, seed)
        # Any pair, both straight pairs through ``a``, and equal pins.
        for target in (b, (b[0], a[1]), (a[0], b[1]), a):
            assert_kernels_agree(grid, a, target, penalty)

    @pytest.mark.parametrize("a,b", [((1, 2), (13, 11)), ((13, 11), (1, 2)),
                                     ((0, 15), (15, 0)), ((3, 3), (4, 9)),
                                     ((7, 0), (7, 15))])
    def test_uniform_costs_tie_break(self, a, b):
        """History 0 and every edge below capacity: many equal-cost
        paths, so only the canonical tie-break picks one."""
        grid = make_grid(16, 16)
        assert_kernels_agree(grid, a, b, penalty=8.0)


class TestRealCongestedDesign:
    def test_pdc_k0_matches_reference(self):
        """``pdc@0.04`` on 14 rows at K = 0 negotiates for 7 rounds and
        keeps 34 violations; the flow's routing and the reference
        engine's must agree on every segment and on the books."""
        config = FlowConfig(library=CORELIB018, workers=1)
        base = decompose(benchmark("pdc", 0.04))
        floorplan = Floorplan.from_rows(14)
        positions = place_base_network(base, floorplan, seed=config.seed)
        point = run_k_point(base, positions, floorplan, config, 0.0)
        routed = point.routing
        assert (routed.violations, routed.iterations) == (34, 7)

        router = GlobalRouter(floorplan, config.resources,
                              gcell_rows=config.gcell_rows,
                              max_iterations=config.max_route_iterations,
                              seed=config.seed)
        grid = RoutingGrid(floorplan, config.resources, config.gcell_rows)
        ref = route_reference(
            router, grid, point.placement.net_points(point.mapping.netlist),
            {})
        assert (ref.violations, ref.overflowed_nets, ref.iterations,
                ref.total_wirelength) == \
            (routed.violations, routed.overflowed_nets, routed.iterations,
             routed.total_wirelength)
        assert routed.routes.keys() == ref.routes.keys()
        for name, route in routed.routes.items():
            assert route.edges == ref.routes[name].edges, name
            assert [ids.tolist() for ids in route.seg_edge_ids] == \
                [ids.tolist() for ids in ref.routes[name].seg_edge_ids]
        assert np.array_equal(routed.grid.demand_flat, ref.grid.demand_flat)
        assert np.array_equal(routed.grid.history_flat,
                              ref.grid.history_flat)
