"""The technology mapper: partition, cover, commit, build the netlist.

Ties together Sections 3.1 and 3.2 of the paper:

1. partition the placed base network into subject trees,
2. cover the trees in topological order with the DP of
   :mod:`repro.core.covering` under the chosen objective,
3. commit each tree's cover — collapsing covered base-gate positions
   onto match centers of mass so later trees see updated geometry —
   and emit library-cell instances into a :class:`MappedNetlist`.

Phase fixes at tree boundaries share one inverter per net, and mapped
instances carry seed positions (their match's center of mass) that the
placer may use as an initial guess.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..errors import MappingError
from ..library.cell import CellLibrary
from ..obs import StatsRegistry
from ..network.dag import BaseNetwork
from ..network.netlist import MappedNetlist
from .covering import (
    BoundaryInfo,
    CoverMemo,
    TreeCover,
    cover_tree,
    run_on_stack,
)
from .matching import Matcher, POS
from .objectives import CoverObjective, min_area
from .partition import (
    DAGON,
    PLACEMENT,
    Partition,
    partition as make_partition,
)
from .wirecost import Point, PositionMap


@dataclass
class MappingResult:
    """Everything a mapping run produces."""

    netlist: MappedNetlist
    partition: Partition
    objective: CoverObjective
    positions: PositionMap                  # committed layout image
    instance_positions: Dict[str, Point]    # seed positions per instance
    estimated_wirelength: float             # sum of committed WIRE1 terms
    net_of_vertex: Dict[int, str]
    #: ``map.``-namespaced phase times (``map.t_partition`` /
    #: ``map.t_cover`` / ``map.t_build``), match-cache work counters
    #: (integers end-to-end) and result counts/gauges (``map.cells``,
    #: ``map.cell_area``, ``map.match_queries``, ...).
    stats: StatsRegistry = field(default_factory=StatsRegistry)


class TechnologyMapper:
    """Maps a base network onto a cell library.

    Parameters
    ----------
    network:
        The NAND2/INV subject graph.
    library:
        The target cell library.
    objective:
        Covering objective (area / area+K*wire / delay).
    partition_style:
        ``"dagon"``, ``"cone"`` or ``"placement"``.
    positions:
        Placement of the base network (required for the placement
        partitioner and whenever the objective uses wire cost).
    partition:
        A precomputed :class:`Partition` of ``network`` under the same
        positions.  The partition depends only on the base network and
        its placement — not on the objective — so a K sweep computes it
        once and passes it to every mapping run.
    matcher:
        A shared :class:`Matcher` over ``network``/``library``.  Its
        per-``(vertex, tree)`` memo makes repeated runs (one per K)
        enumerate each tree's matches once, and it carries the cross-K
        covering-DP memo (:class:`repro.core.covering.CoverMemo`): a
        tree whose DP inputs are unchanged and whose optimal assignment
        agrees at two evaluated Ks bracketing this run's K skips the DP
        entirely.  Exact — reused covers commit bit-identical netlists.
        A fresh matcher starts with an empty memo.
    """

    def __init__(self, network: BaseNetwork, library: CellLibrary,
                 objective: Optional[CoverObjective] = None,
                 partition_style: str = DAGON,
                 positions: Optional[PositionMap] = None,
                 max_tree_size: Optional[int] = None,
                 partition: Optional[Partition] = None,
                 matcher: Optional[Matcher] = None):  # noqa: D107
        self.network = network
        self.library = library
        self.objective = objective or min_area()
        self.partition_style = partition_style
        needs_positions = (partition_style == PLACEMENT
                           or self.objective.uses_positions)
        if positions is None:
            if needs_positions:
                raise MappingError(
                    "this objective/partitioner needs base-network positions")
            positions = PositionMap.zeros(network.num_vertices())
        self.positions = positions.copy()
        self.max_tree_size = max_tree_size
        self.partition = partition
        self.matcher = matcher if matcher is not None \
            else Matcher(network, library)

    def run(self) -> MappingResult:
        """Execute the full mapping flow and return the result."""
        network = self.network
        matcher = self.matcher
        hits0 = matcher.stats["match_cache_hits"]
        misses0 = matcher.stats["match_cache_misses"]
        t0 = time.perf_counter()
        if self.partition is not None:
            part = self.partition
        else:
            kwargs = {}
            if self.max_tree_size is not None:
                kwargs["max_tree_size"] = self.max_tree_size
            part = make_partition(network, self.partition_style,
                                  positions=self.positions, **kwargs)
        t_partition = time.perf_counter() - t0
        builder = _NetlistBuilder(network, self.library, part,
                                  self.positions, self.objective)
        memo = getattr(matcher, "_cover_memo", None)
        if memo is None:
            memo = CoverMemo()
            matcher._cover_memo = memo
        memo_hits = 0
        memo_credit = 0
        t0 = time.perf_counter()
        t_dp = 0.0
        for root in part.roots:
            tree = part.trees[root]
            t1 = time.perf_counter()
            probe = memo.probe(tree, part.materialized, matcher,
                               self.objective, builder.boundary)
            cover = probe.lookup()
            if cover is None:
                cover = cover_tree(network, tree, matcher,
                                   self.library, self.objective,
                                   builder.boundary, part.materialized)
                probe.store(cover)
            else:
                memo_hits += 1
                memo_credit += len(tree.members)
            t_dp += time.perf_counter() - t1
            builder.commit_tree(cover)
        t_cover = time.perf_counter() - t0
        t0 = time.perf_counter()
        result = builder.finish()
        # A memo hit skips the DP and with it the one match query per
        # tree member the covering would have issued; crediting those
        # queries to the hit column keeps ``map.match_queries`` — a
        # deterministic count asserted identical across execution
        # plans — equal to one query per member of every covered tree,
        # memo or no memo.
        hits = matcher.stats["match_cache_hits"] - hits0 + memo_credit
        misses = matcher.stats["match_cache_misses"] - misses0
        result.stats.time("map.t_partition", t_partition)
        result.stats.time("map.t_cover", t_cover)
        result.stats.time("cover.t_dp", t_dp)
        result.stats.count("cover.trees", len(part.roots))
        result.stats.work("cover.memo_hits", memo_hits)
        result.stats.time("map.t_build", time.perf_counter() - t0)
        # Hits/misses depend on how warm the shared memo is (which K
        # points a process ran before); their sum — the number of match
        # queries the covering issued — is a property of the run alone.
        result.stats.work("map.match_cache_hits", hits)
        result.stats.work("map.match_cache_misses", misses)
        result.stats.count("map.match_queries", hits + misses)
        return result


class _NetlistBuilder:
    """Accumulates committed covers into a mapped netlist."""

    def __init__(self, network: BaseNetwork, library: CellLibrary,
                 part: Partition, positions: PositionMap,
                 objective: CoverObjective):  # noqa: D107
        self.network = network
        self.library = library
        self.part = part
        self.positions = positions
        self.objective = objective
        self.netlist = MappedNetlist(network.name + "_mapped")
        self.boundary = BoundaryInfo(positions, arrivals={})
        self.net_of_vertex: Dict[int, str] = {}
        self.inv_net: Dict[int, str] = {}        # vertex -> complement net
        self.instance_positions: Dict[str, Point] = {}
        self.wirelength = 0.0
        self.claimed_area = 0.0     # DP-predicted area, for auditing
        self._net_uid = 0
        self._reserved = set(network.input_vertex) | set(network.outputs)
        self._po_of_vertex: Dict[int, List[str]] = {}
        for po in sorted(network.outputs):
            self._po_of_vertex.setdefault(network.outputs[po], []).append(po)
        for name in sorted(network.input_vertex):
            v = network.input_vertex[name]
            self.netlist.add_input(name)
            self.net_of_vertex[v] = name

    # -- net naming -----------------------------------------------------

    def _fresh_net(self, prefix: str) -> str:
        while True:
            self._net_uid += 1
            candidate = f"{prefix}{self._net_uid}"
            if candidate not in self._reserved:
                self._reserved.add(candidate)
                return candidate

    def _root_net_name(self, vertex: int) -> str:
        pos = self._po_of_vertex.get(vertex)
        if pos:
            return pos[0]
        return self._fresh_net("n")

    # -- committing one tree ---------------------------------------------

    def commit_tree(self, cover: TreeCover) -> None:
        """Realise the root's positive-phase solution as instances."""
        root = cover.tree.root
        root_net = self._root_net_name(root)
        self._realized: Dict[Tuple[int, bool], str] = {}
        self._realized_sol: Dict[int, str] = {}
        net = run_on_stack(self._realize(cover, root, POS,
                                         want_net=root_net))
        if net != root_net:  # pragma: no cover - defensive
            raise MappingError(f"root net mismatch at vertex {root}")
        self.net_of_vertex[root] = root_net
        sol = cover.root_solution()
        self.claimed_area += sol.area
        self.boundary.arrivals[root] = sol.arrival
        self.boundary.wires[root] = sol.wire_transitive
        # The root's committed location is its top match's center of mass.
        self.positions.set(root, sol.com)

    # The three realisation steps below are walk steps for
    # :func:`~repro.core.covering.run_on_stack` (a subject tree has no
    # depth bound): each yields where it needs a sub-step's net.

    def _realize(self, cover: TreeCover, vertex: int, phase: bool,
                 want_net: Optional[str] = None
                 ) -> Generator[Any, str, str]:
        key = (vertex, phase)
        if key in self._realized:
            net = self._realized[key]
            if want_net is None or net == want_net:
                return net
            # Already realized under another name: rename that net to
            # the requested one instead of emitting a duplicate driver.
            self._rename_net(net, want_net)
            return want_net
        net = yield self._realize_solution(cover, cover.solutions[key],
                                           want_net)
        self._realized[key] = net
        return net

    def _rename_net(self, old: str, new: str) -> None:
        """Rename a realized net and patch all builder bookkeeping."""
        self.netlist.rename_net(old, new)
        self._reserved.add(new)
        for table in (self._realized, self._realized_sol,
                      self.net_of_vertex, self.inv_net):
            for key, net in table.items():
                if net == old:
                    table[key] = new

    def _realize_solution(self, cover: TreeCover, sol,
                          want_net: Optional[str] = None
                          ) -> Generator[Any, str, str]:
        """Realise one Solution object as instances; memoised by identity.

        Conversions embed their source Solution, so realisation never
        cycles through the per-phase table.
        """
        if want_net is None and id(sol) in self._realized_sol:
            return self._realized_sol[id(sol)]
        if sol.match is None:
            # Inverter phase conversion.
            if sol.inv_source is None:
                raise MappingError("conversion solution without a source")
            source_net = yield self._realize_solution(cover, sol.inv_source)
            net = want_net or self._fresh_net("w")
            inv = self.library.inverter
            inst = self.netlist.add_instance(
                inv.name, {inv.input_pins[0]: source_net}, net)
            self.instance_positions[inst.name] = sol.com
        else:
            match = sol.match
            pins: Dict[str, str] = {}
            for pin, (u, leaf_phase) in match.leaves:
                pins[pin] = yield self._leaf_net(cover, u, leaf_phase)
            net = want_net or self._fresh_net("w")
            inst = self.netlist.add_instance(match.cell.name, pins, net)
            self.instance_positions[inst.name] = sol.com
            self.positions.commit(match.consumed, sol.com)
            self.wirelength += sol.wire1
        self._realized_sol[id(sol)] = net
        return net

    def _leaf_net(self, cover: TreeCover, vertex: int, phase: bool
                  ) -> Generator[Any, str, str]:
        tree = cover.tree
        shared = (vertex not in tree.members
                  or (vertex in self.part.materialized
                      and vertex != tree.root))
        if not shared:
            return (yield self._realize(cover, vertex, phase))
        base_net = self.net_of_vertex.get(vertex)
        if base_net is None:
            raise MappingError(
                f"materialized vertex {vertex} referenced before its tree "
                "was committed")
        if phase == POS:
            return base_net
        inv_net = self.inv_net.get(vertex)
        if inv_net is None:
            inv = self.library.inverter
            inv_net = self._fresh_net("w")
            inst = self.netlist.add_instance(
                inv.name, {inv.input_pins[0]: base_net}, inv_net)
            self.instance_positions[inst.name] = self.positions.get(vertex)
            self.inv_net[vertex] = inv_net
            # Later trees' DPs see the complement as already paid for.
            self.boundary.complemented.add(vertex)
        return inv_net

    # -- finalisation ------------------------------------------------------

    def finish(self) -> MappingResult:
        """Attach primary outputs, prune dead logic, compute stats."""
        for po in sorted(self.network.outputs):
            v = self.network.outputs[po]
            net = self.net_of_vertex.get(v)
            if net is None:
                raise MappingError(f"primary output {po!r} was never mapped")
            self.netlist.add_output(po, net)
        removed = self.netlist.remove_unused()
        self.instance_positions = {
            name: pos for name, pos in self.instance_positions.items()
            if name in self.netlist.instances}
        self.netlist.check()
        area = self.netlist.total_area(self.library)
        stats = StatsRegistry()
        stats.count("map.cells", self.netlist.num_cells())
        stats.gauge("map.cell_area", area)
        stats.count("map.removed_unused", removed)
        stats.gauge("map.estimated_wirelength", self.wirelength)
        stats.gauge("map.dp_claimed_area", self.claimed_area)
        return MappingResult(
            netlist=self.netlist, partition=self.part,
            objective=self.objective, positions=self.positions,
            instance_positions=self.instance_positions,
            estimated_wirelength=self.wirelength,
            net_of_vertex=self.net_of_vertex, stats=stats)


def map_network(network: BaseNetwork, library: CellLibrary,
                objective: Optional[CoverObjective] = None,
                partition_style: str = DAGON,
                positions: Optional[PositionMap] = None,
                max_tree_size: Optional[int] = None,
                partition: Optional[Partition] = None,
                matcher: Optional[Matcher] = None) -> MappingResult:
    """One-call convenience wrapper around :class:`TechnologyMapper`."""
    mapper = TechnologyMapper(network, library, objective=objective,
                              partition_style=partition_style,
                              positions=positions,
                              max_tree_size=max_tree_size,
                              partition=partition, matcher=matcher)
    return mapper.run()
