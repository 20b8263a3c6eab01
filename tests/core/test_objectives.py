"""Tests for covering objectives."""

import pytest

from repro.core import CoverObjective, area_congestion, min_area, min_delay


class TestConstruction:
    def test_min_area(self):
        obj = min_area()
        assert obj.mode == "area"
        assert obj.k == 0.0
        assert not obj.uses_positions

    def test_area_congestion(self):
        obj = area_congestion(0.005)
        assert obj.k == 0.005
        assert obj.uses_positions

    def test_transitive_variant(self):
        assert area_congestion(0.1, transitive_wire=True).transitive_wire

    def test_min_delay(self):
        obj = min_delay(load_estimate=0.02)
        assert obj.mode == "delay"
        assert obj.load_estimate == 0.02

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            area_congestion(-1.0)

    @pytest.mark.parametrize("k", [float("nan"), float("inf")])
    def test_non_finite_k_rejected(self, k):
        with pytest.raises(ValueError, match="finite"):
            area_congestion(k)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            CoverObjective(mode="power")


class TestCost:
    def test_area_mode_eq5(self):
        obj = area_congestion(0.5)
        assert obj.cost(area=10.0, wire=4.0, arrival=99.0) == \
            pytest.approx(10.0 + 0.5 * 4.0)

    def test_k_zero_ignores_wire(self):
        obj = min_area()
        assert obj.cost(10.0, 1e9, 0.0) == pytest.approx(10.0)

    def test_delay_mode(self):
        obj = min_delay()
        assert obj.cost(area=1e9, wire=0.0, arrival=2.5) == pytest.approx(2.5)

    def test_delay_mode_with_wire(self):
        obj = min_delay(k=0.1)
        assert obj.cost(0.0, 10.0, 2.5) == pytest.approx(3.5)

    def test_cost_monotone_in_each_axis(self):
        obj = area_congestion(0.01)
        base = obj.cost(10.0, 100.0, 0.0)
        assert obj.cost(11.0, 100.0, 0.0) > base
        assert obj.cost(10.0, 110.0, 0.0) > base
