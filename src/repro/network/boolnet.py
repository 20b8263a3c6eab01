"""Multi-level Boolean networks (the SIS-style logic representation).

A :class:`BooleanNetwork` is a DAG of named internal nodes, each holding
a sum-of-products expression over the names of its fanins (which may be
primary inputs or other internal nodes).  Primary outputs point at
signals by name.  This is the form the technology-independent optimizer
(:mod:`repro.synth`) rewrites, and the input to technology decomposition
(:mod:`repro.network.decompose`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from ..errors import NetworkError
from .sop import Sop


class Node:
    """One internal node: a named signal defined by an SOP over fanins."""

    __slots__ = ("name", "sop")

    def __init__(self, name: str, sop: Sop):  # noqa: D107
        self.name = name
        self.sop = sop

    @property
    def fanin_names(self) -> frozenset:
        """Names of the signals this node reads."""
        return self.sop.support()

    def num_literals(self) -> int:
        """SOP literal count of this node."""
        return self.sop.num_literals()

    def __repr__(self) -> str:
        return f"Node({self.name} = {self.sop.to_string()})"


class BooleanNetwork:
    """A combinational multi-level logic network.

    Invariants maintained by the mutators:

    * every fanin name of every node is a primary input or another node,
    * the node graph is acyclic (checked by :meth:`topological_order`),
    * primary outputs are distinct and refer to existing signals.
    """

    def __init__(self, name: str = "network"):  # noqa: D107
        self.name = name
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.nodes: Dict[str, Node] = {}
        self._uid = 0

    # -- construction ---------------------------------------------------

    def add_input(self, name: str) -> str:
        """Declare a primary input."""
        if name in self.nodes or name in self.inputs:
            raise NetworkError(f"signal {name!r} already exists")
        self.inputs.append(name)
        return name

    def add_output(self, name: str) -> str:
        """Declare a primary output on an existing (or future) signal."""
        self.outputs.append(name)
        return name

    def add_node(self, name: str, sop: Sop) -> Node:
        """Create an internal node computing ``sop``."""
        if name in self.nodes or name in self.inputs:
            raise NetworkError(f"signal {name!r} already exists")
        node = Node(name, sop)
        self.nodes[name] = node
        return node

    def new_name(self, prefix: str = "n") -> str:
        """A fresh signal name not colliding with anything in the network."""
        while True:
            self._uid += 1
            candidate = f"{prefix}{self._uid}"
            if candidate not in self.nodes and candidate not in self.inputs:
                return candidate

    def set_function(self, name: str, sop: Sop) -> None:
        """Replace the SOP of an existing node."""
        self.nodes[name].sop = sop

    def remove_node(self, name: str) -> None:
        """Delete an internal node (caller guarantees it is unused)."""
        del self.nodes[name]

    # -- queries ----------------------------------------------------------

    def is_input(self, name: str) -> bool:
        """True when ``name`` is a primary input."""
        return name in self._input_set()

    def _input_set(self) -> Set[str]:
        return set(self.inputs)

    def signal_exists(self, name: str) -> bool:
        """True when ``name`` is an input or an internal node."""
        return name in self.nodes or name in self._input_set()

    def fanouts(self) -> Dict[str, List[str]]:
        """Map from each signal to the node names that read it."""
        out: Dict[str, List[str]] = {name: [] for name in self.inputs}
        for name in self.nodes:
            out.setdefault(name, [])
        for node in self.nodes.values():
            for fanin in sorted(node.fanin_names):
                out[fanin].append(node.name)
        return out

    def fanout_counts(self) -> Dict[str, int]:
        """Fanout count per signal, counting PO use as one fanout each."""
        counts = {name: len(users) for name, users in self.fanouts().items()}
        for output in self.outputs:
            counts[output] = counts.get(output, 0) + 1
        return counts

    def num_literals(self) -> int:
        """Total SOP literal count over all nodes (the area proxy)."""
        return sum(node.num_literals() for node in self.nodes.values())

    def topological_order(self) -> List[str]:
        """Node names in fanin-before-fanout order.

        Raises :class:`NetworkError` on combinational cycles or dangling
        fanins.
        """
        inputs = self._input_set()
        state: Dict[str, int] = {}
        order: List[str] = []
        # Iterative DFS to avoid recursion limits on deep networks.
        for root in sorted(self.nodes):
            self._visit_iterative(root, inputs, state, order)
        return order

    def _visit_iterative(self, root: str, inputs: Set[str],
                         state: Dict[str, int], order: List[str]) -> None:
        if root in inputs or state.get(root, 0) == 2:
            return
        stack: List[tuple] = [(root, iter(sorted(self.nodes[root].fanin_names)))]
        state[root] = 1
        while stack:
            name, fanin_iter = stack[-1]
            advanced = False
            for fanin in fanin_iter:
                if fanin in inputs:
                    continue
                node = self.nodes.get(fanin)
                if node is None:
                    raise NetworkError(f"dangling signal {fanin!r} (used by {name!r})")
                mark = state.get(fanin, 0)
                if mark == 1:
                    raise NetworkError(f"combinational cycle through {fanin!r}")
                if mark == 0:
                    state[fanin] = 1
                    stack.append((fanin, iter(sorted(node.fanin_names))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                state[name] = 2
                order.append(name)

    def transitive_fanin(self, roots: Iterable[str]) -> Set[str]:
        """All signals (inputs included) feeding the given roots."""
        inputs = self._input_set()
        seen: Set[str] = set()
        work = list(roots)
        while work:
            name = work.pop()
            if name in seen:
                continue
            seen.add(name)
            if name in inputs:
                continue
            node = self.nodes.get(name)
            if node is None:
                raise NetworkError(f"dangling signal {name!r}")
            work.extend(node.fanin_names)
        return seen

    def check(self) -> None:
        """Validate all structural invariants; raise on violation."""
        inputs = self._input_set()
        if len(inputs) != len(self.inputs):
            raise NetworkError("duplicate primary input names")
        seen: Set[str] = set()
        for output in self.outputs:
            if output in seen:
                raise NetworkError(f"duplicate primary output {output!r}")
            seen.add(output)
        for node in self.nodes.values():
            for fanin in node.fanin_names:
                if fanin not in inputs and fanin not in self.nodes:
                    raise NetworkError(
                        f"node {node.name!r} reads undefined signal {fanin!r}")
        for output in self.outputs:
            if output not in inputs and output not in self.nodes:
                raise NetworkError(f"primary output {output!r} is undefined")
        self.topological_order()

    # -- cleanup ----------------------------------------------------------

    def remove_dangling(self) -> int:
        """Delete nodes not in the transitive fanin of any output.

        Returns the number of nodes removed.
        """
        live = self.transitive_fanin(self.outputs)
        dead = [name for name in self.nodes if name not in live]
        for name in dead:
            del self.nodes[name]
        return len(dead)

    def copy(self, name: Optional[str] = None) -> "BooleanNetwork":
        """Deep-enough copy (SOPs are immutable and shared)."""
        other = BooleanNetwork(name or self.name)
        other.inputs = list(self.inputs)
        other.outputs = list(self.outputs)
        other.nodes = {n: Node(n, node.sop) for n, node in self.nodes.items()}
        other._uid = self._uid
        return other

    def stats(self) -> Dict[str, int]:
        """Summary statistics used in reports and tests."""
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "nodes": len(self.nodes),
            "literals": self.num_literals(),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (f"BooleanNetwork({self.name!r}, {s['inputs']} in, "
                f"{s['outputs']} out, {s['nodes']} nodes, {s['literals']} lits)")
