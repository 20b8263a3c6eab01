"""Unit tests for the Boolean network container."""

import pytest

from repro.errors import NetworkError
from repro.network import BooleanNetwork, parse_sop


def build_chain(depth=5):
    net = BooleanNetwork("chain")
    net.add_input("a")
    net.add_input("b")
    prev = "a"
    for i in range(depth):
        name = f"n{i}"
        net.add_node(name, parse_sop(f"{prev} b"))
        prev = name
    net.add_output(prev)
    return net


class TestConstruction:
    def test_duplicate_input_rejected(self):
        net = BooleanNetwork()
        net.add_input("a")
        with pytest.raises(NetworkError):
            net.add_input("a")

    def test_duplicate_output_rejected(self):
        net = build_chain(depth=2)
        net.add_output("a")
        net.check()
        net.add_output("n1")
        with pytest.raises(NetworkError,
                           match="duplicate primary output 'n1'"):
            net.check()

    def test_node_shadowing_input_rejected(self):
        net = BooleanNetwork()
        net.add_input("a")
        with pytest.raises(NetworkError):
            net.add_node("a", parse_sop("1"))

    def test_new_name_unique(self):
        net = BooleanNetwork()
        net.add_input("n1")
        fresh = net.new_name("n")
        assert fresh != "n1"
        assert not net.signal_exists(fresh)


class TestTopology:
    def test_topological_order_respects_fanin(self, small_network):
        order = small_network.topological_order()
        assert order.index("g1") < order.index("g2")
        assert order.index("g1") < order.index("g4")
        assert order.index("g3") < order.index("g4")

    def test_cycle_detected(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_node("x", parse_sop("a y"))
        net.add_node("y", parse_sop("x"))
        net.add_output("y")
        with pytest.raises(NetworkError, match="cycle"):
            net.topological_order()

    def test_dangling_fanin_detected(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_node("x", parse_sop("a missing"))
        net.add_output("x")
        with pytest.raises(NetworkError, match="undefined|dangling"):
            net.check()

    def test_deep_chain_no_recursion_error(self):
        net = build_chain(depth=5000)
        order = net.topological_order()
        assert len(order) == 5000


class TestFanout:
    def test_fanout_counts(self, small_network):
        counts = small_network.fanout_counts()
        assert counts["g1"] == 2          # g2 and g4
        assert counts["g3"] == 2          # g4 and the PO
        assert counts["g2"] == 1          # PO only

    def test_fanouts_map(self, small_network):
        fans = small_network.fanouts()
        assert set(fans["g1"]) == {"g2", "g4"}


class TestTransitiveFanin:
    def test_includes_inputs(self, small_network):
        cone = small_network.transitive_fanin(["g2"])
        assert "a" in cone and "g1" in cone and "g2" in cone
        assert "g3" not in cone


class TestCleanup:
    def test_remove_dangling(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_node("used", parse_sop("a"))
        net.add_node("dead", parse_sop("a'"))
        net.add_output("used")
        removed = net.remove_dangling()
        assert removed == 1
        assert "dead" not in net.nodes

    def test_copy_is_independent(self, small_network):
        clone = small_network.copy()
        clone.set_function("g1", parse_sop("a"))
        assert small_network.nodes["g1"].sop != clone.nodes["g1"].sop

    def test_stats(self, small_network):
        stats = small_network.stats()
        assert stats["inputs"] == 8
        assert stats["outputs"] == 3
        assert stats["nodes"] == 4
        assert stats["literals"] == small_network.num_literals()


class TestOutputs:
    def test_undefined_output_fails_check(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_output("nope")
        with pytest.raises(NetworkError):
            net.check()

    def test_output_on_input_allowed(self):
        net = BooleanNetwork()
        net.add_input("a")
        net.add_output("a")
        net.check()
