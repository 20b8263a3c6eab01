"""Tests for floorplans and pad assignment."""

import pytest

from repro.errors import PlacementError
from repro.place import Floorplan, assign_pads


class TestFloorplan:
    def test_dimensions(self):
        fp = Floorplan(width=100.0, row_height=5.0, num_rows=20)
        assert fp.height == pytest.approx(100.0)
        assert fp.area == pytest.approx(10_000.0)

    def test_invalid_dimensions(self):
        with pytest.raises(PlacementError):
            Floorplan(width=-1.0, row_height=5.0, num_rows=10)
        with pytest.raises(PlacementError):
            Floorplan(width=10.0, row_height=5.0, num_rows=0)

    def test_row_y_centers(self):
        fp = Floorplan(width=10.0, row_height=4.0, num_rows=3)
        assert fp.row_y(0) == pytest.approx(2.0)
        assert fp.row_y(2) == pytest.approx(10.0)

    def test_row_y_out_of_range(self):
        fp = Floorplan(width=10.0, row_height=4.0, num_rows=3)
        with pytest.raises(PlacementError):
            fp.row_y(3)

    def test_from_rows_aspect(self):
        fp = Floorplan.from_rows(10, row_height=5.2, aspect=2.0)
        assert fp.height == pytest.approx(52.0)
        assert fp.width == pytest.approx(104.0)

    def test_for_area_close(self):
        fp = Floorplan.for_area(10_000.0, aspect=1.0)
        assert fp.area == pytest.approx(10_000.0, rel=0.02)

    def test_for_gates_default_die(self):
        """12 um2 per gate at 35 % utilization, or the given rows; a
        gate-less netlist gets the one-gate die instead of failing."""
        fp = Floorplan.for_gates(350)
        assert fp.area == pytest.approx(350 * 12.0 / 0.35, rel=0.02)
        assert Floorplan.for_gates(350, rows=9) == Floorplan.from_rows(9)
        assert Floorplan.for_gates(0) == Floorplan.for_gates(1)
        assert Floorplan.for_gates(0).area > 0

    def test_with_rows(self):
        fp = Floorplan.from_rows(10)
        bigger = fp.with_rows(12)
        assert bigger.width == fp.width
        assert bigger.num_rows == 12

    def test_utilization(self):
        fp = Floorplan(width=100.0, row_height=10.0, num_rows=10)
        assert fp.utilization(5000.0) == pytest.approx(50.0)

    def test_contains(self):
        fp = Floorplan(width=10.0, row_height=1.0, num_rows=10)
        assert fp.contains((5.0, 5.0))
        assert not fp.contains((11.0, 5.0))


class TestPads:
    def test_all_on_perimeter(self):
        fp = Floorplan.from_rows(10)
        pads = assign_pads(fp, [f"i{k}" for k in range(6)],
                           [f"o{k}" for k in range(4)])
        assert len(pads) == 10
        for x, y in pads.values():
            on_x = x == pytest.approx(0.0) or x == pytest.approx(fp.width)
            on_y = y == pytest.approx(0.0) or y == pytest.approx(fp.height)
            assert on_x or on_y

    def test_deterministic(self):
        fp = Floorplan.from_rows(10)
        a = assign_pads(fp, ["a", "b"], ["y"])
        b = assign_pads(fp, ["a", "b"], ["y"])
        assert a == b

    def test_distinct_positions(self):
        fp = Floorplan.from_rows(10)
        pads = assign_pads(fp, [f"i{k}" for k in range(20)], [])
        assert len(set(pads.values())) == 20

    def test_empty(self):
        fp = Floorplan.from_rows(10)
        assert assign_pads(fp, [], []) == {}
