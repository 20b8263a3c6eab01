"""Tests for the delay objective of the covering DP."""

import pytest

from repro.circuits import ripple_carry_adder
from repro.core import PositionMap, map_network, min_area, min_delay
from repro.library import CORELIB018
from repro.measures import logic_depth
from repro.network import check_base_vs_mapped, decompose


@pytest.fixture(scope="module")
def adder_base():
    return decompose(ripple_carry_adder(8))


class TestMinDelayObjective:
    def test_preserves_function(self, adder_base):
        result = map_network(adder_base, CORELIB018, min_delay())
        check_base_vs_mapped(adder_base, result.netlist, CORELIB018)

    def test_no_deeper_than_min_area(self, adder_base):
        area_map = map_network(adder_base, CORELIB018, min_area())
        delay_map = map_network(adder_base, CORELIB018, min_delay())
        assert logic_depth(delay_map.netlist) <= \
            logic_depth(area_map.netlist)

    def test_pays_area_for_speed(self, adder_base):
        area_map = map_network(adder_base, CORELIB018, min_area())
        delay_map = map_network(adder_base, CORELIB018, min_delay())
        # Min-delay never undercuts min-area on area (min-area is optimal).
        assert delay_map.stats["cell_area"] >= \
            area_map.stats["cell_area"] - 1e-9

    def test_constant_load_limitation_is_bounded(self, adder_base):
        """Known limitation: constant-load covering reduces depth but
        its duplication can load shared nets; post-route arrival must
        still stay within a bounded factor of the min-area netlist."""
        from repro.timing import StaticTimingAnalyzer
        sta = StaticTimingAnalyzer(CORELIB018)
        area_map = map_network(adder_base, CORELIB018, min_area())
        delay_map = map_network(adder_base, CORELIB018, min_delay())
        a_arr = sta.analyze(area_map.netlist).critical_arrival
        d_arr = sta.analyze(delay_map.netlist).critical_arrival
        assert d_arr <= a_arr * 1.6

    def test_load_estimate_changes_choices(self, adder_base):
        light = map_network(adder_base, CORELIB018,
                            min_delay(load_estimate=0.001))
        heavy = map_network(adder_base, CORELIB018,
                            min_delay(load_estimate=0.05))
        # Under heavy estimated load, low-resistance (bigger) cells win.
        def mean_resistance(netlist):
            cells = [CORELIB018.cell(i.cell_name)
                     for i in netlist.instances.values()]
            return sum(c.drive_resistance for c in cells) / len(cells)
        assert mean_resistance(heavy.netlist) <= \
            mean_resistance(light.netlist) + 1e-9
