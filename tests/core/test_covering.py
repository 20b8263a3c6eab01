"""Tests for the dynamic-programming tree covering."""

import itertools
import random

import numpy as np
import pytest

from repro.core import (
    EUCLIDEAN,
    MANHATTAN,
    BoundaryInfo,
    Matcher,
    PositionMap,
    POS,
    NEG,
    area_congestion,
    cover_tree,
    dagon_partition,
    min_area,
    min_delay,
    placement_partition,
)
from repro.core.covering import _cover_reference
from repro.library import CORELIB018
from repro.network import BooleanNetwork, decompose, parse_sop
from repro.network.dag import BaseNetwork
from tests.place.test_engine_equivalence import (
    WIDE_LIBRARY,
    and_tree_network,
    busy_boundary,
    random_position_map,
    random_tree_network,
    solution_key,
)


def cover_all(base, objective=None, positions=None):
    """Cover every tree of a dagon partition; return total root cost."""
    objective = objective or min_area()
    positions = positions or PositionMap.zeros(base.num_vertices())
    part = dagon_partition(base)
    matcher = Matcher(base, CORELIB018)
    boundary = BoundaryInfo(positions)
    total = 0.0
    for root in part.roots:
        cover = cover_tree(base, part.trees[root], matcher, CORELIB018,
                           objective, boundary, part.materialized)
        total += cover.root_solution().area
    return total


class TestMinAreaOptimality:
    def test_and2_cheaper_than_nand_inv(self):
        net = BaseNetwork("and2")
        a = net.add_input("a")
        b = net.add_input("b")
        i = net.add_inv(net.add_nand2(a, b))
        net.set_output("y", i)
        total = cover_all(net)
        assert total == pytest.approx(CORELIB018.cell("AND2_X1").area)

    def test_nand3_cheaper_than_pieces(self):
        net = BooleanNetwork("n3")
        for v in "abc":
            net.add_input(v)
        net.add_node("f", parse_sop("a' + b' + c'"))
        net.add_output("f")
        base = decompose(net)
        total = cover_all(base)
        assert total == pytest.approx(CORELIB018.cell("NAND3_X1").area)

    def test_matches_brute_force_on_small_trees(self):
        """DP cost equals exhaustive minimum over random small trees."""
        rng = random.Random(3)
        for trial in range(8):
            net = BaseNetwork(f"t{trial}")
            inputs = [net.add_input(f"i{k}") for k in range(4)]
            frontier = list(inputs)
            for _ in range(5):
                if rng.random() < 0.4:
                    v = net.add_inv(rng.choice(frontier))
                else:
                    v = net.add_nand2(rng.choice(frontier),
                                      rng.choice(frontier))
                frontier.append(v)
            net.set_output("y", frontier[-1])
            dp_cost = cover_all(net)
            brute = _brute_force_min_area(net)
            assert dp_cost == pytest.approx(brute), \
                f"DP {dp_cost} != brute {brute}"


def _brute_force_min_area(base):
    """Exhaustive min-area cover cost of a (single-root) base network.

    Enumerates all covers by recursive choice of matches; exponential,
    fine for <= ~8 gates.  Mirrors the DP's shared-vertex cost model:
    materialized (multi-fanout) vertices are costed once.
    """
    part = dagon_partition(base)
    matcher = Matcher(base, CORELIB018)
    inv = CORELIB018.inverter

    memo = {}

    def best(root, members, phase):
        key = (root, phase)
        if key in memo:
            return memo[key]
        matches = matcher.matches_at(root, lambda v: v in members)
        best_cost = float("inf")
        for match in matches[phase]:
            cost = match.cell.area
            for _, (u, leaf_phase) in match.leaves:
                if u not in members or (u in part.materialized
                                        and u != root):
                    cost += 0.0 if leaf_phase == POS else inv.area
                else:
                    cost += best(u, members, leaf_phase)
            best_cost = min(best_cost, cost)
        # Phase conversion via inverter.
        for match in matches[not phase]:
            cost = match.cell.area + inv.area
            for _, (u, leaf_phase) in match.leaves:
                if u not in members or (u in part.materialized
                                        and u != root):
                    cost += 0.0 if leaf_phase == POS else inv.area
                else:
                    cost += best(u, members, leaf_phase)
            best_cost = min(best_cost, cost)
        memo[key] = best_cost
        return best_cost

    total = 0.0
    for root in part.roots:
        memo.clear()
        total += best(root, part.trees[root].members, POS)
    return total


class TestWireCost:
    def test_wire_zero_when_colocated(self, small_base):
        positions = PositionMap.zeros(small_base.num_vertices())
        part = placement_partition(small_base, positions)
        matcher = Matcher(small_base, CORELIB018)
        boundary = BoundaryInfo(positions)
        for root in part.roots:
            cover = cover_tree(small_base, part.trees[root], matcher,
                               CORELIB018, area_congestion(1.0), boundary,
                               part.materialized)
            assert cover.root_solution().wire1 == pytest.approx(0.0)

    def test_high_k_reduces_wire(self, medium_base):
        rng = random.Random(9)
        positions = PositionMap(
            [(rng.uniform(0, 200), rng.uniform(0, 200))
             for _ in range(medium_base.num_vertices())])
        part = placement_partition(medium_base, positions)
        matcher = Matcher(medium_base, CORELIB018)

        def total_wire(objective):
            boundary = BoundaryInfo(positions.copy())
            wire = 0.0
            for root in part.roots:
                cover = cover_tree(medium_base, part.trees[root], matcher,
                                   CORELIB018, objective, boundary,
                                   part.materialized)
                wire += cover.root_solution().wire_transitive
            return wire

        assert total_wire(area_congestion(50.0)) <= \
            total_wire(area_congestion(0.0)) + 1e-9

    def test_area_grows_with_k(self, medium_base):
        rng = random.Random(9)
        positions = PositionMap(
            [(rng.uniform(0, 200), rng.uniform(0, 200))
             for _ in range(medium_base.num_vertices())])
        low = cover_all(medium_base, area_congestion(0.0), positions)
        high = cover_all(medium_base, area_congestion(50.0), positions)
        assert high >= low


class TestWire2Recursion:
    """Regression for Eq. 3: WIRE2 must use the fanins' *stored* wire.

    The pre-fix code summed the fanins' one-level WIRE1 instead, so a
    three-level tree "forgot" the wire of its grandchildren.  The chain
    below is hand-computed: identity NAND2 covers are the only sensible
    option, so every wire figure is exact.
    """

    def _chain(self):
        net = BaseNetwork("chain3")
        a = net.add_input("a")          # vertex 0
        b = net.add_input("b")          # vertex 1
        v1 = net.add_nand2(a, b)        # vertex 2
        c = net.add_input("c")          # vertex 3
        v2 = net.add_nand2(v1, c)       # vertex 4
        d = net.add_input("d")          # vertex 5
        v3 = net.add_nand2(v2, d)       # vertex 6
        net.set_output("y", v3)
        positions = PositionMap([
            (0.0, 0.0),   # a
            (2.0, 0.0),   # b
            (1.0, 0.0),   # v1 -> match com (1, 0)
            (4.0, 0.0),   # c
            (3.0, 0.0),   # v2 -> match com (3, 0)
            (8.0, 0.0),   # d
            (6.0, 0.0),   # v3 -> match com (6, 0)
        ])
        return net, positions

    def _cover(self, k):
        net, positions = self._chain()
        part = dagon_partition(net)
        assert part.roots == [6]
        matcher = Matcher(net, CORELIB018)
        boundary = BoundaryInfo(positions)
        return cover_tree(net, part.trees[6], matcher, CORELIB018,
                          area_congestion(k), boundary, part.materialized)

    def test_hand_computed_wire_accumulates_three_levels(self):
        # wire1(v1) = |v1-a| + |v1-b|  = 1 + 1 = 2     (Eq. 2)
        # wire(v1)  = 2                                (leaves are PIs)
        # wire1(v2) = |v2-v1| + |v2-c| = 2 + 1 = 3
        # wire(v2)  = 3 + wire(v1)     = 5             (Eq. 3 + Eq. 4)
        # wire1(v3) = |v3-v2| + |v3-d| = 3 + 2 = 5
        # wire(v3)  = 5 + wire(v2)     = 10
        # The pre-fix code scored wire(v3) = wire1(v3) + wire1(v2) = 8.
        sol = self._cover(0.01).root_solution()
        nand = CORELIB018.cell("NAND2_X1")
        assert sol.wire1 == pytest.approx(5.0)
        assert sol.wire == pytest.approx(10.0)
        assert sol.area == pytest.approx(3 * nand.area)
        assert sol.cost == pytest.approx(3 * nand.area + 0.01 * 10.0)

    def test_paper_wire_equals_transitive_within_one_tree(self):
        # With no tree boundaries above PIs the two accumulations agree.
        sol = self._cover(0.01).root_solution()
        assert sol.wire == pytest.approx(sol.wire_transitive)


def _oai_library():
    """INV + NAND2 + OAI21 only, with hand-friendly areas."""
    from repro.library.cell import CellLibrary, LibCell
    from repro.library.patterns import leaf, pinv, pnand

    def cell(name, patterns, area):
        pins = {p: 0.002 for p in patterns[0].leaves()}
        return LibCell(name=name, patterns=tuple(patterns), area=area,
                       intrinsic_delay=0.03, drive_resistance=6.0,
                       pin_caps=pins)

    oai21 = pnand(pnand(pinv(leaf("A")), pinv(leaf("B"))), leaf("C"))
    return CellLibrary("oai_mini", [
        cell("INV", [pinv(leaf("A"))], 2.0),
        cell("NAND2", [pnand(leaf("A"), leaf("B"))], 4.0),
        cell("OAI21", [oai21], 9.0),
    ])


class TestSharedComplementCost:
    """Regression: a NEG reference to a materialized net costs one
    inverter *total*, not one per referencing tree.

    The netlist builder shares a single complement inverter per net;
    the pre-fix DP charged ``inv.area`` for every NEG leaf, so its
    claimed area drifted from the realised netlist area by one inverter
    per extra sharer.

    Construction: p and q are materialized NAND2 nets.  Two trees
    ``r = NAND2(s, e)`` with ``s = NAND2(p, q)`` are each covered by
    OAI21 (= (p' + q')' NAND e), whose two ``pinv``-over-leaf pattern
    nodes NEG-reference the shared nets p and q.  With r far from the
    rest, OAI21's center of mass halves the long wires, beating the
    two-NAND2 cover (area 8, wire 200) at K = 0.2:

        tree 1: area 9 + 2 + 2 (both complements new), wire 150
        tree 2: area 9 + 0 + 0 (complements exist),    wire 150
    """

    def _base(self):
        from repro.network.dag import NAND2 as KIND_NAND2
        net = BaseNetwork("sharedneg")
        p = net.add_nand2(net.add_input("x1"), net.add_input("y1"))
        q = net.add_nand2(net.add_input("x2"), net.add_input("y2"))
        e1 = net.add_input("e1")
        s1 = net.add_nand2(p, q)
        r1 = net.add_nand2(s1, e1)
        e2 = net.add_input("e2")
        # A second, *distinct* NAND2(p, q) — bypassing the structural
        # hash, which would merge it with s1 into one multi-fanout
        # vertex and break the two-sharing-trees shape.
        s2 = net._new_vertex(KIND_NAND2, (p, q))
        r2 = net.add_nand2(s2, e2)
        net.set_output("o1", r1)
        net.set_output("o2", r2)
        positions = PositionMap(
            [(0.0, 0.0) if v in (r1, r2) else (100.0, 0.0)
             for v in range(net.num_vertices())])
        return net, positions

    def test_dp_claimed_area_matches_realized_area(self):
        from repro.core import map_network
        net, positions = self._base()
        lib = _oai_library()
        result = map_network(net, lib, area_congestion(0.2),
                             partition_style="dagon", positions=positions)
        # p, q, two OAI21 covers, and ONE shared inverter per complement.
        hist = result.netlist.cell_histogram()
        assert hist == {"NAND2": 2, "INV": 2, "OAI21": 2}
        assert result.stats["cell_area"] == pytest.approx(30.0)
        assert result.stats["dp_claimed_area"] == \
            pytest.approx(result.stats["cell_area"])

    def test_prefix_behaviour_overcharges_per_sharing_tree(self, monkeypatch):
        # Simulate the pre-fix DP (every NEG leaf pays the inverter) and
        # check the claimed area drifts by exactly the two re-charged
        # complements — i.e. this regression genuinely fails on the old
        # cost model while the realised netlist is unchanged.
        from repro.core import map_network
        monkeypatch.setattr(BoundaryInfo, "has_complement",
                            lambda self, vertex: False)
        net, positions = self._base()
        lib = _oai_library()
        result = map_network(net, lib, area_congestion(0.2),
                             partition_style="dagon", positions=positions)
        assert result.netlist.cell_histogram() == \
            {"NAND2": 2, "INV": 2, "OAI21": 2}
        assert result.stats["dp_claimed_area"] == \
            pytest.approx(result.stats["cell_area"] + 2 * lib.inverter.area)


class TestSolutionBookkeeping:
    def test_root_positive_solution_exists(self, small_base):
        part = dagon_partition(small_base)
        matcher = Matcher(small_base, CORELIB018)
        boundary = BoundaryInfo(PositionMap.zeros(small_base.num_vertices()))
        for root in part.roots:
            cover = cover_tree(small_base, part.trees[root], matcher,
                               CORELIB018, min_area(), boundary,
                               part.materialized)
            sol = cover.root_solution()
            assert sol.area > 0
            assert sol.match is not None or sol.inv_source is not None

    def test_arrival_monotone_with_depth(self):
        net = BaseNetwork("chain")
        a = net.add_input("a")
        v = a
        arrivals = []
        part_matcher = None
        for depth in range(1, 5):
            v = net.add_inv(v)
        net.set_output("y", v)
        part = dagon_partition(net)
        matcher = Matcher(net, CORELIB018)
        boundary = BoundaryInfo(PositionMap.zeros(net.num_vertices()))
        cover = cover_tree(net, part.trees[part.roots[0]], matcher,
                           CORELIB018, min_area(), boundary,
                           part.materialized)
        assert cover.root_solution().arrival > 0


def record_bytes(record):
    """Every field of a :class:`CoverRecord` as (dtype, bytes) pairs:
    equal tuples are bitwise-equal records."""
    fields = [np.asarray(value) for value in record]
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in fields)


def choices(record):
    return (record.starts.tolist(), record.chosen.tolist(),
            record.pairs.tolist(), record.converted.tolist())


#: One objective per scoring mode, each at a few Ks.
MODES = {
    "area": area_congestion,
    "transitive": lambda k: area_congestion(k, transitive_wire=True),
    "delay": min_delay,
}


class TestCoverRecord:
    """The K-independent record each covering DP leaves for the memo."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("metric", [MANHATTAN, EUCLIDEAN])
    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("k", [0.0, 0.01])
    def test_twins_record_bitwise(self, seed, metric, mode, k):
        """The array DP and its scalar oracle build bitwise-equal
        records, shared leaves with committed figures included."""
        base = random_tree_network(seed)
        positions = random_position_map(base, seed, metric)
        boundary = busy_boundary(base, positions, seed)
        part = dagon_partition(base)
        matcher = Matcher(base, CORELIB018)
        for root in part.roots:
            args = (base, part.trees[root], matcher, CORELIB018,
                    MODES[mode](k), boundary, part.materialized)
            assert record_bytes(_cover_reference(*args).record) == \
                record_bytes(cover_tree(*args).record), root

    @pytest.mark.parametrize("k", [0.0, 0.01])
    def test_twins_record_bitwise_on_wide_matches(self, k):
        base = and_tree_network(32)
        positions = random_position_map(base, 0)
        part = dagon_partition(base)
        matcher = Matcher(base, WIDE_LIBRARY)
        for root in part.roots:
            args = (base, part.trees[root], matcher, WIDE_LIBRARY,
                    area_congestion(k), BoundaryInfo(positions),
                    part.materialized)
            assert record_bytes(_cover_reference(*args).record) == \
                record_bytes(cover_tree(*args).record)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_reproduces_iff_the_dp_chooses_alike(self, mode):
        """Re-scoring a record at another K holds exactly when the DP
        there makes the same choices, and then every solution but its
        scalar cost is bitwise the stored one."""
        ks = (0.0, 0.001, 0.01, 0.1, 1.0)
        held = failed = 0
        for seed in range(4):
            base = random_tree_network(seed, size=24)
            boundary = busy_boundary(
                base, random_position_map(base, seed), seed)
            part = dagon_partition(base)
            matcher = Matcher(base, CORELIB018)
            for root in part.roots:
                covers = {k: cover_tree(base, part.trees[root], matcher,
                                        CORELIB018, MODES[mode](k),
                                        boundary, part.materialized)
                          for k in ks}
                for k1, k2 in itertools.product(ks, ks):
                    stored, fresh = covers[k1], covers[k2]
                    holds = stored.record.reproduces(MODES[mode](k2))
                    assert holds == (choices(stored.record)
                                     == choices(fresh.record))
                    if not holds:
                        failed += 1
                        continue
                    held += k1 != k2
                    for key, sol in fresh.solutions.items():
                        assert solution_key(sol)[1:] == \
                            solution_key(stored.solutions[key])[1:]
        assert held and failed
