"""Mapped (technology-dependent) gate-level netlists.

The output of technology mapping: instances of library cells connected
by nets.  This is the structure that gets placed, routed and timed.
Cells are referenced by name through a :class:`repro.library.cell.CellLibrary`
so the netlist stays serialisable without holding library objects.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..errors import NetworkError


class Instance:
    """One placed-and-routed unit: a library cell instance.

    ``pins`` maps formal pin names of the cell to net names; ``output``
    is the net driven by the instance's output pin.
    """

    __slots__ = ("name", "cell_name", "pins", "output")

    def __init__(self, name: str, cell_name: str,
                 pins: Dict[str, str], output: str):  # noqa: D107
        self.name = name
        self.cell_name = cell_name
        self.pins = dict(pins)
        self.output = output

    def input_nets(self) -> List[str]:
        """Net names on the instance's input pins, in pin-name order."""
        return [self.pins[p] for p in sorted(self.pins)]

    def __repr__(self) -> str:
        return f"Instance({self.name}:{self.cell_name} -> {self.output})"


class MappedNetlist:
    """A flat standard-cell netlist.

    Nets are identified by string names.  Primary inputs and outputs are
    nets; every other net must be driven by exactly one instance.
    """

    def __init__(self, name: str = "mapped"):  # noqa: D107
        self.name = name
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.output_net: Dict[str, str] = {}
        self.instances: Dict[str, Instance] = {}
        self._uid = 0

    # -- construction ---------------------------------------------------

    def add_input(self, net: str) -> str:
        """Declare a primary-input net."""
        if net in self.inputs:
            raise NetworkError(f"duplicate primary input {net!r}")
        self.inputs.append(net)
        return net

    def add_output(self, name: str, net: Optional[str] = None) -> str:
        """Declare a primary output ``name`` observing net ``net``.

        When ``net`` is omitted the output observes the net of the same
        name (the common case).  Several outputs may observe one net
        (shared drivers), and an output may observe a primary input
        directly (a passthrough).
        """
        if name in self.output_net:
            raise NetworkError(f"duplicate primary output {name!r}")
        self.outputs.append(name)
        self.output_net[name] = net if net is not None else name
        return name

    def add_instance(self, cell_name: str, pins: Dict[str, str],
                     output: str, name: Optional[str] = None) -> Instance:
        """Instantiate a cell driving net ``output``."""
        if name is None:
            name = self.new_instance_name(cell_name)
        if name in self.instances:
            raise NetworkError(f"duplicate instance name {name!r}")
        inst = Instance(name, cell_name, pins, output)
        self.instances[name] = inst
        return inst

    def new_instance_name(self, prefix: str = "u") -> str:
        """Fresh instance name."""
        while True:
            self._uid += 1
            candidate = f"{prefix}_{self._uid}"
            if candidate not in self.instances:
                return candidate

    def rename_net(self, old: str, new: str) -> None:
        """Rename a net everywhere: driver, sink pins, PIs and PO bindings.

        ``new`` must not already name a net (a driven net or a primary
        input).  Primary *output* names are observation points, not
        nets, and are left untouched unless they observe ``old``.
        """
        if old == new:
            return
        if new in self.driver_map() or new in self.inputs:
            raise NetworkError(f"cannot rename {old!r}: net {new!r} exists")
        if old in self.inputs:
            self.inputs[self.inputs.index(old)] = new
        for inst in self.instances.values():
            if inst.output == old:
                inst.output = new
            for pin, net in inst.pins.items():
                if net == old:
                    inst.pins[pin] = new
        for name, net in self.output_net.items():
            if net == old:
                self.output_net[name] = new

    def new_net_name(self, prefix: str = "w") -> str:
        """Fresh net name (checks drivers and PIs)."""
        drivers = self.driver_map()
        inputs = set(self.inputs)
        while True:
            self._uid += 1
            candidate = f"{prefix}_{self._uid}"
            if candidate not in drivers and candidate not in inputs:
                return candidate

    # -- queries ----------------------------------------------------------

    def num_cells(self) -> int:
        """Number of cell instances."""
        return len(self.instances)

    def cell_histogram(self) -> Dict[str, int]:
        """Instance count per library cell name."""
        hist: Dict[str, int] = {}
        for inst in self.instances.values():
            hist[inst.cell_name] = hist.get(inst.cell_name, 0) + 1
        return hist

    def driver_map(self) -> Dict[str, str]:
        """Net name -> driving instance name."""
        out: Dict[str, str] = {}
        for inst in self.instances.values():
            if inst.output in out:
                raise NetworkError(f"net {inst.output!r} has multiple drivers")
            out[inst.output] = inst.name
        return out

    def sink_map(self) -> Dict[str, List[Tuple[str, str]]]:
        """Net name -> list of (instance name, pin name) sinks."""
        out: Dict[str, List[Tuple[str, str]]] = {}
        for inst_name in sorted(self.instances):
            inst = self.instances[inst_name]
            for pin in sorted(inst.pins):
                out.setdefault(inst.pins[pin], []).append((inst_name, pin))
        return out

    def nets(self) -> List[str]:
        """All net names: primary inputs plus every driven net."""
        seen: Set[str] = set()
        out: List[str] = []
        for net in self.inputs:
            seen.add(net)
            out.append(net)
        for inst_name in sorted(self.instances):
            net = self.instances[inst_name].output
            if net not in seen:
                seen.add(net)
                out.append(net)
        return out

    def topological_instances(self) -> List[str]:
        """Instance names in fanin-before-fanout order."""
        drivers = self.driver_map()
        inputs = set(self.inputs)
        state: Dict[str, int] = {}
        order: List[str] = []
        for root in sorted(self.instances):
            if state.get(root, 0) == 2:
                continue
            stack: List[Tuple[str, Iterator[str]]] = [
                (root, iter(self.instances[root].input_nets()))]
            state[root] = 1
            while stack:
                name, net_iter = stack[-1]
                advanced = False
                for net in net_iter:
                    if net in inputs:
                        continue
                    driver = drivers.get(net)
                    if driver is None:
                        raise NetworkError(f"net {net!r} has no driver")
                    mark = state.get(driver, 0)
                    if mark == 1:
                        raise NetworkError(f"combinational cycle through {driver!r}")
                    if mark == 0:
                        state[driver] = 1
                        stack.append(
                            (driver, iter(self.instances[driver].input_nets())))
                        advanced = True
                        break
                if not advanced:
                    stack.pop()
                    state[name] = 2
                    order.append(name)
        return order

    def check(self) -> None:
        """Validate: single drivers, no dangling nets, acyclic."""
        drivers = self.driver_map()
        inputs = set(self.inputs)
        for inst in self.instances.values():
            for pin, net in inst.pins.items():
                if net not in drivers and net not in inputs:
                    raise NetworkError(
                        f"instance {inst.name!r} pin {pin!r} reads undriven net {net!r}")
        for name in self.outputs:
            net = self.output_net[name]
            if net not in drivers and net not in inputs:
                raise NetworkError(f"primary output {name!r} is undriven")
        self.topological_instances()

    def total_area(self, library) -> float:
        """Sum of cell areas (µm²) against a :class:`CellLibrary`."""
        return sum(library.cell(inst.cell_name).area
                   for inst in self.instances.values())

    def structure_key(self) -> Tuple:
        """Everything placement and routing read, as one comparable tuple.

        Inputs and outputs in order, the output bindings, and every
        instance in insertion order as (name, cell, pin -> net pairs in
        order, output net).  Two netlists with equal keys place and
        route identically; compare whole keys, not hashes, so that
        equality of keys is equality of netlists.
        """
        return (tuple(self.inputs), tuple(self.outputs),
                tuple(self.output_net.items()),
                tuple((inst.name, inst.cell_name, tuple(inst.pins.items()),
                       inst.output) for inst in self.instances.values()))

    def remove_unused(self) -> int:
        """Drop instances whose outputs reach no primary output.

        Returns the number of instances removed.
        """
        drivers = self.driver_map()
        live_nets: Set[str] = set()
        work = [self.output_net[name] for name in self.outputs]
        while work:
            net = work.pop()
            if net in live_nets:
                continue
            live_nets.add(net)
            driver = drivers.get(net)
            if driver is not None:
                work.extend(self.instances[driver].input_nets())
        dead = [name for name, inst in self.instances.items()
                if inst.output not in live_nets]
        for name in dead:
            del self.instances[name]
        return len(dead)

    def stats(self) -> Dict[str, int]:
        """Summary statistics."""
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "cells": len(self.instances),
            "nets": len(self.nets()),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (f"MappedNetlist({self.name!r}, {s['inputs']} in, "
                f"{s['outputs']} out, {s['cells']} cells)")
