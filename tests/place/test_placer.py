"""Tests for the placement facade (base networks and mapped netlists)."""

import pytest

from repro.core import map_network, min_area
from repro.errors import PlacementError
from repro.library import CORELIB018
from repro.measures import hpwl, total_hpwl
from repro.place import Floorplan, check_legal, place_base_network, place_netlist
from repro.place.spreading import spread
from repro.place.annealing import anneal

import numpy as np


class TestPlaceBaseNetwork:
    def test_all_vertices_positioned(self, small_base, tiny_floorplan):
        positions = place_base_network(small_base, tiny_floorplan)
        assert len(positions) == small_base.num_vertices()

    def test_gates_inside_die(self, medium_base, small_floorplan):
        positions = place_base_network(medium_base, small_floorplan)
        for v in medium_base.gates():
            assert small_floorplan.contains(positions.get(v))

    def test_inputs_on_pads(self, small_base, tiny_floorplan):
        positions = place_base_network(small_base, tiny_floorplan)
        fp = tiny_floorplan
        for name, v in small_base.input_vertex.items():
            x, y = positions.get(v)
            on_edge = (x in (0.0, fp.width)) or (y in (0.0, fp.height)) or \
                abs(x) < 1e-9 or abs(x - fp.width) < 1e-9 or \
                abs(y) < 1e-9 or abs(y - fp.height) < 1e-9
            assert on_edge

    def test_deterministic(self, small_base, tiny_floorplan):
        a = place_base_network(small_base, tiny_floorplan)
        b = place_base_network(small_base, tiny_floorplan)
        assert a.as_points() == b.as_points()


class TestPlaceNetlist:
    @pytest.fixture
    def mapped(self, medium_base):
        return map_network(medium_base, CORELIB018, min_area()).netlist

    @pytest.fixture
    def small_floorplan(self):
        # Sized for the medium mapped netlist at ~55% utilization.
        return Floorplan.from_rows(22, aspect=1.0)

    def test_placement_is_legal(self, mapped, small_floorplan):
        placement = place_netlist(mapped, CORELIB018, small_floorplan)
        names = sorted(placement.positions)
        pos = np.array([placement.positions[n] for n in names])
        widths = [CORELIB018.cell_width(mapped.instances[n].cell_name)
                  for n in names]
        check_legal(pos, widths, small_floorplan)

    def test_all_instances_placed(self, mapped, small_floorplan):
        placement = place_netlist(mapped, CORELIB018, small_floorplan)
        assert set(placement.positions) == set(mapped.instances)

    def test_pads_for_all_ios(self, mapped, small_floorplan):
        placement = place_netlist(mapped, CORELIB018, small_floorplan)
        for name in mapped.inputs + mapped.outputs:
            assert name in placement.pads

    def test_net_points_cover_nets(self, mapped, small_floorplan):
        placement = place_netlist(mapped, CORELIB018, small_floorplan)
        points = placement.net_points(mapped)
        for net in mapped.nets():
            assert net in points
            assert len(points[net]) >= 1

    def test_hpwl_positive(self, mapped, small_floorplan):
        placement = place_netlist(mapped, CORELIB018, small_floorplan)
        assert total_hpwl(placement.net_points(mapped)) > 0

    def test_pin_point_lookup(self, mapped, small_floorplan):
        placement = place_netlist(mapped, CORELIB018, small_floorplan)
        inst = next(iter(mapped.instances))
        assert placement.pin_point(inst) == placement.positions[inst]
        with pytest.raises(PlacementError):
            placement.pin_point("does_not_exist")

    def test_too_small_die_rejected(self, mapped):
        with pytest.raises(PlacementError):
            place_netlist(mapped, CORELIB018, Floorplan.from_rows(2))

    def test_quadratic_method_also_works(self, mapped, small_floorplan):
        placement = place_netlist(mapped, CORELIB018, small_floorplan,
                                  method="quadratic")
        assert set(placement.positions) == set(mapped.instances)

    def test_unknown_method_rejected(self, mapped, small_floorplan):
        with pytest.raises(PlacementError):
            place_netlist(mapped, CORELIB018, small_floorplan,
                          method="banana")


class TestSpreading:
    def test_spread_inside_region(self, tiny_floorplan):
        rng = np.random.default_rng(0)
        points = rng.normal(loc=20.0, scale=0.5, size=(50, 2))
        out = spread(points, tiny_floorplan)
        assert (out[:, 0] >= 0).all()
        assert (out[:, 0] <= tiny_floorplan.width).all()
        assert (out[:, 1] >= 0).all()
        assert (out[:, 1] <= tiny_floorplan.height).all()

    def test_spread_distributes(self, tiny_floorplan):
        rng = np.random.default_rng(0)
        points = rng.normal(loc=20.0, scale=0.1, size=(64, 2))
        out = spread(points, tiny_floorplan)
        # After spreading, points occupy a substantial part of the die.
        assert np.ptp(out[:, 0]) > tiny_floorplan.width * 0.5

    def test_empty(self, tiny_floorplan):
        assert spread(np.zeros((0, 2)), tiny_floorplan).shape == (0, 2)


class TestAnnealing:
    def test_anneal_improves_or_keeps_hpwl(self, tiny_floorplan):
        rng = np.random.default_rng(2)
        n = 24
        positions = rng.uniform(0, 40, size=(n, 2))
        nets = [[i, (i + 1) % n] for i in range(n)]
        fixed = [[] for _ in nets]

        def total(pos):
            return sum(hpwl([tuple(pos[i]) for i in net]) for net in nets)

        before = total(positions)
        after_pos = anneal(positions, nets, fixed, tiny_floorplan,
                           moves=4000, seed=1)
        after = total(after_pos)
        assert after <= before * 1.02

    def test_zero_moves_identity(self, tiny_floorplan):
        positions = np.ones((4, 2))
        out = anneal(positions, [[0, 1]], [[]], tiny_floorplan, moves=0)
        assert np.allclose(out, positions)
