"""Tests for cross-cutting metrics."""

import pytest

from repro.core import map_network, min_area
from repro.library import CORELIB018
from repro.measures import (
    average_fanin,
    fanout_histogram,
    hpwl,
    logic_depth,
    mapped_pin_count,
    max_fanout,
    total_hpwl,
)
from repro.network import MappedNetlist


class TestHpwl:
    def test_bbox(self):
        assert hpwl([(0, 0), (3, 4)]) == 7.0

    def test_degenerate(self):
        assert hpwl([(1, 1)]) == 0.0
        assert hpwl([]) == 0.0

    def test_total(self):
        nets = {"a": [(0, 0), (1, 1)], "b": [(0, 0), (2, 0)]}
        assert total_hpwl(nets) == pytest.approx(4.0)


class TestBaseNetworkMetrics:
    def test_fanout_histogram(self, small_base):
        hist = fanout_histogram(small_base)
        assert sum(hist.values()) == small_base.num_gates()

    def test_max_fanout_positive(self, small_base):
        assert max_fanout(small_base) >= 1


class TestMappedMetrics:
    @pytest.fixture
    def netlist(self, small_base):
        return map_network(small_base, CORELIB018, min_area()).netlist

    def test_pin_count(self, netlist):
        expected = sum(len(i.pins) + 1 for i in netlist.instances.values())
        assert mapped_pin_count(netlist) == expected

    def test_average_fanin(self, netlist):
        assert 1.0 <= average_fanin(netlist) <= 4.0

    def test_average_fanin_empty(self):
        assert average_fanin(MappedNetlist()) == 0.0

    def test_logic_depth(self, netlist):
        depth = logic_depth(netlist)
        assert depth >= 1

    def test_logic_depth_chain(self):
        nl = MappedNetlist()
        nl.add_input("a")
        prev = "a"
        for i in range(5):
            nl.add_instance("INV_X1", {"A": prev}, f"n{i}", name=f"u{i}")
            prev = f"n{i}"
        nl.add_output(prev, net=prev)
        assert logic_depth(nl) == 5
