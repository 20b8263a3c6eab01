"""Unit tests for the mapped-netlist container."""

import pytest

from repro.errors import NetworkError
from repro.library import CORELIB018
from repro.network import MappedNetlist


@pytest.fixture
def tiny():
    nl = MappedNetlist("tiny")
    nl.add_input("a")
    nl.add_input("b")
    nl.add_instance("NAND2_X1", {"A": "a", "B": "b"}, "n1", name="u1")
    nl.add_instance("INV_X1", {"A": "n1"}, "y", name="u2")
    nl.add_output("y")
    return nl


class TestConstruction:
    def test_duplicate_input(self, tiny):
        with pytest.raises(NetworkError):
            tiny.add_input("a")

    def test_duplicate_output(self, tiny):
        with pytest.raises(NetworkError):
            tiny.add_output("y")

    def test_duplicate_instance_name(self, tiny):
        with pytest.raises(NetworkError):
            tiny.add_instance("INV_X1", {"A": "a"}, "z", name="u1")

    def test_output_aliasing(self, tiny):
        tiny.add_output("y_copy", net="y")
        assert tiny.output_net["y_copy"] == "y"
        tiny.check()

    def test_output_on_input_passthrough(self, tiny):
        tiny.add_output("a_out", net="a")
        tiny.check()


class TestMaps:
    def test_driver_map(self, tiny):
        assert tiny.driver_map() == {"n1": "u1", "y": "u2"}

    def test_multiple_drivers_rejected(self, tiny):
        tiny.add_instance("INV_X1", {"A": "a"}, "y", name="u3")
        with pytest.raises(NetworkError, match="multiple drivers"):
            tiny.driver_map()

    def test_sink_map(self, tiny):
        sinks = tiny.sink_map()
        assert sinks["n1"] == [("u2", "A")]
        assert ("u1", "A") in sinks["a"]

    def test_nets(self, tiny):
        assert set(tiny.nets()) == {"a", "b", "n1", "y"}


class TestTopology:
    def test_topological_instances(self, tiny):
        order = tiny.topological_instances()
        assert order.index("u1") < order.index("u2")

    def test_cycle_detected(self):
        nl = MappedNetlist()
        nl.add_instance("INV_X1", {"A": "x"}, "y", name="u1")
        nl.add_instance("INV_X1", {"A": "y"}, "x", name="u2")
        nl.add_output("y")
        with pytest.raises(NetworkError, match="cycle"):
            nl.topological_instances()

    def test_undriven_net_detected(self):
        nl = MappedNetlist()
        nl.add_instance("INV_X1", {"A": "ghost"}, "y", name="u1")
        nl.add_output("y")
        with pytest.raises(NetworkError):
            nl.check()


class TestCleanupAndStats:
    def test_remove_unused(self, tiny):
        tiny.add_instance("INV_X1", {"A": "a"}, "dead", name="u9")
        removed = tiny.remove_unused()
        assert removed == 1
        assert "u9" not in tiny.instances

    def test_remove_unused_keeps_live(self, tiny):
        assert tiny.remove_unused() == 0
        assert len(tiny.instances) == 2

    def test_total_area(self, tiny):
        expected = (CORELIB018.cell("NAND2_X1").area
                    + CORELIB018.cell("INV_X1").area)
        assert tiny.total_area(CORELIB018) == pytest.approx(expected)

    def test_cell_histogram(self, tiny):
        assert tiny.cell_histogram() == {"NAND2_X1": 1, "INV_X1": 1}

    def test_fresh_names(self, tiny):
        assert tiny.new_instance_name() not in tiny.instances
        fresh_net = tiny.new_net_name()
        assert fresh_net not in tiny.nets()


class TestRenameNet:
    def test_renames_driver_and_sinks(self, tiny):
        tiny.rename_net("n1", "mid")
        assert tiny.instances["u1"].output == "mid"
        assert tiny.instances["u2"].pins["A"] == "mid"
        tiny.check()

    def test_renames_po_binding(self, tiny):
        tiny.rename_net("y", "out")
        assert tiny.output_net["y"] == "out"
        assert tiny.instances["u2"].output == "out"
        tiny.check()

    def test_renames_primary_input(self, tiny):
        tiny.rename_net("a", "a2")
        assert "a2" in tiny.inputs and "a" not in tiny.inputs
        assert tiny.instances["u1"].pins["A"] == "a2"

    def test_rejects_existing_net(self, tiny):
        with pytest.raises(NetworkError):
            tiny.rename_net("n1", "y")   # y is driven
        with pytest.raises(NetworkError):
            tiny.rename_net("n1", "a")   # a is a primary input

    def test_rename_to_self_is_noop(self, tiny):
        tiny.rename_net("n1", "n1")
        assert tiny.instances["u1"].output == "n1"


class TestStructureKey:
    def _copy(self, nl):
        out = MappedNetlist("other_name")
        for net in nl.inputs:
            out.add_input(net)
        for inst in nl.instances.values():
            out.add_instance(inst.cell_name, inst.pins, inst.output,
                             name=inst.name)
        for name in nl.outputs:
            out.add_output(name, net=nl.output_net[name])
        return out

    def test_equal_structures_equal_keys(self, tiny):
        assert self._copy(tiny).structure_key() == tiny.structure_key()

    def test_any_change_changes_the_key(self, tiny):
        key = tiny.structure_key()
        cell = self._copy(tiny)
        cell.instances["u2"].cell_name = "BUF_X1"
        pin = self._copy(tiny)
        pin.instances["u1"].pins["B"] = "a"
        output = self._copy(tiny)
        output.add_output("y_copy", net="y")
        for changed in (cell, pin, output):
            assert changed.structure_key() != key
