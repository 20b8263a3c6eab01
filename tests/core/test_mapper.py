"""Tests for the end-to-end technology mapper."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.circuits import random_logic_network, random_pla
from repro.core import (
    PositionMap,
    TechnologyMapper,
    area_congestion,
    map_network,
    min_area,
    min_delay,
)
from repro.core.matching import NEG, POS
from repro.errors import MappingError
from repro.library import CORELIB018
from repro.network import check_base_vs_mapped, decompose
from repro.network.dag import BaseNetwork


def random_positions(base, seed=0, size=150.0):
    rng = random.Random(seed)
    return PositionMap([(rng.uniform(0, size), rng.uniform(0, size))
                        for _ in range(base.num_vertices())])


class TestFunctionPreservation:
    @pytest.mark.parametrize("style", ["dagon", "cone"])
    def test_min_area_styles(self, small_base, style):
        result = map_network(small_base, CORELIB018, min_area(),
                             partition_style=style)
        check_base_vs_mapped(small_base, result.netlist, CORELIB018)

    @pytest.mark.parametrize("k", [0.0, 0.01, 1.0, 50.0])
    def test_congestion_objectives(self, small_base, k):
        positions = random_positions(small_base)
        result = map_network(small_base, CORELIB018, area_congestion(k),
                             partition_style="placement",
                             positions=positions)
        check_base_vs_mapped(small_base, result.netlist, CORELIB018)

    def test_min_delay(self, small_base):
        positions = random_positions(small_base)
        result = map_network(small_base, CORELIB018, min_delay(),
                             partition_style="placement",
                             positions=positions)
        check_base_vs_mapped(small_base, result.netlist, CORELIB018)

    def test_medium_network(self, medium_base):
        result = map_network(medium_base, CORELIB018, min_area())
        check_base_vs_mapped(medium_base, result.netlist, CORELIB018)

    @given(st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=12, deadline=None)
    def test_random_networks_preserved(self, seed):
        net = random_logic_network("r", num_inputs=8, num_nodes=14,
                                   num_outputs=4, seed=seed)
        if not net.nodes:
            return
        base = decompose(net)
        positions = random_positions(base, seed=seed)
        result = map_network(base, CORELIB018, area_congestion(0.05),
                             partition_style="placement",
                             positions=positions)
        check_base_vs_mapped(base, result.netlist, CORELIB018)


def and_chain(gates):
    """An AND chain of NAND2+INV pairs: one single-fanout subject tree
    ``2 * gates`` vertices deep."""
    net = BaseNetwork(f"and{gates}")
    acc = net.add_input("x0")
    for i in range(1, gates + 1):
        acc = net.add_inv(net.add_nand2(acc, net.add_input(f"x{i}")))
    net.set_output("y", acc)
    return net


class TestDeepTrees:
    """Tree depth has no bound, so no walk over a cover may recurse
    once per match level (the fingerprint and the netlist builder did,
    and a 1,000-gate chain raised RecursionError)."""

    @pytest.mark.parametrize("k", [0.0, 0.01])
    def test_thousand_gate_chain_maps(self, k):
        base = and_chain(1000)
        if k:
            result = map_network(base, CORELIB018, area_congestion(k),
                                 positions=random_positions(base))
        else:
            result = map_network(base, CORELIB018)
        assert len(result.partition.roots) == 1
        check_base_vs_mapped(base, result.netlist, CORELIB018)


class TestResultContents:
    def test_stats_consistent(self, small_base):
        result = map_network(small_base, CORELIB018, min_area())
        assert result.stats["cells"] == result.netlist.num_cells()
        assert result.stats["cell_area"] == pytest.approx(
            result.netlist.total_area(CORELIB018))

    def test_instance_positions_cover_instances(self, small_base):
        positions = random_positions(small_base)
        result = map_network(small_base, CORELIB018, area_congestion(0.01),
                             partition_style="placement",
                             positions=positions)
        assert set(result.instance_positions) == \
            set(result.netlist.instances)

    def test_po_nets_named_after_pos(self, small_base):
        result = map_network(small_base, CORELIB018, min_area())
        for po in small_base.outputs:
            assert po in result.netlist.output_net

    def test_shared_po_driver(self):
        from repro.network import BooleanNetwork, parse_sop
        net = BooleanNetwork("t")
        net.add_input("a")
        net.add_input("b")
        net.add_node("g", parse_sop("a b"))
        net.add_output("g")
        base = decompose(net)
        base.set_output("g2", base.outputs["g"])  # second PO, same driver
        result = map_network(base, CORELIB018, min_area())
        assert result.netlist.output_net["g"] == \
            result.netlist.output_net["g2"]
        check_base_vs_mapped(base, result.netlist, CORELIB018)

    def test_netlist_is_checked(self, medium_base):
        result = map_network(medium_base, CORELIB018, min_area())
        result.netlist.check()  # no exception


class TestObjectiveBehaviour:
    def test_min_area_beats_others_on_area(self, medium_base):
        positions = random_positions(medium_base)
        area0 = map_network(medium_base, CORELIB018, min_area(),
                            partition_style="placement",
                            positions=positions).stats["cell_area"]
        area_hi = map_network(medium_base, CORELIB018, area_congestion(50.0),
                              partition_style="placement",
                              positions=positions).stats["cell_area"]
        assert area0 <= area_hi

    def test_high_k_reduces_estimated_wire(self, medium_base):
        positions = random_positions(medium_base)
        wire0 = map_network(medium_base, CORELIB018, area_congestion(0.0),
                            partition_style="placement",
                            positions=positions).estimated_wirelength
        wire_hi = map_network(medium_base, CORELIB018, area_congestion(50.0),
                              partition_style="placement",
                              positions=positions).estimated_wirelength
        assert wire_hi <= wire0 + 1e-6

    def test_positions_required_for_wire_objective(self, small_base):
        with pytest.raises(MappingError):
            TechnologyMapper(small_base, CORELIB018,
                             objective=area_congestion(0.1))

    def test_positions_required_for_placement_partition(self, small_base):
        with pytest.raises(MappingError):
            TechnologyMapper(small_base, CORELIB018,
                             partition_style="placement")

    def test_inverter_sharing_at_boundaries(self):
        # Two trees both need the complement of a shared signal: the
        # mapper must create one shared inverter, not two.
        from repro.network import BooleanNetwork, parse_sop
        net = BooleanNetwork("t")
        for v in "abc":
            net.add_input(v)
        net.add_node("s", parse_sop("a b"))      # shared, multi-fanout
        net.add_node("f", parse_sop("s' c"))
        net.add_node("g", parse_sop("s' c'"))
        net.add_output("f")
        net.add_output("g")
        net.add_output("s")
        base = decompose(net)
        result = map_network(base, CORELIB018, min_area())
        check_base_vs_mapped(base, result.netlist, CORELIB018)


class TestPlaVariety:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pla_circuits(self, seed):
        pla = random_pla("m", num_inputs=8, num_outputs=4, num_products=12,
                         literals=(2, 5), outputs_per_product=(1, 2),
                         seed=seed)
        base = decompose(pla.to_network())
        positions = random_positions(base, seed=seed)
        result = map_network(base, CORELIB018, area_congestion(0.005),
                             partition_style="placement",
                             positions=positions)
        check_base_vs_mapped(base, result.netlist, CORELIB018)


def mapping_key(result):
    """What a reused cover must leave exactly as a fresh DP leaves it."""
    return (result.netlist.structure_key(), result.instance_positions,
            result.estimated_wirelength, result.stats["map.dp_claimed_area"])


class TestCoverMemo:
    """Cross-K covering reuse: re-scored stored covers skip the DP
    without changing any result."""

    #: The K values the memo tests draw from, both sides of the
    #: area-to-wire switch.
    KS = (0.0, 0.0005, 0.001, 0.01, 0.1, 1.0)
    OBJECTIVES = {
        "area": area_congestion,
        "transitive": lambda k: area_congestion(k, transitive_wire=True),
        "delay": min_delay,
    }

    def _map_at(self, base, positions, k, matcher=None):
        return map_network(base, CORELIB018, area_congestion(k),
                           partition_style="placement", positions=positions,
                           matcher=matcher)

    def test_bracketed_probe_hits_and_matches(self, small_base):
        from repro.core import Matcher

        positions = random_positions(small_base)
        matcher = Matcher(small_base, CORELIB018)
        lo, hi, mid = 0.0, 0.0002, 0.0001
        first = self._map_at(small_base, positions, lo, matcher=matcher)
        assert first.stats["cover.memo_hits"] == 0
        self._map_at(small_base, positions, hi, matcher=matcher)
        probe = self._map_at(small_base, positions, mid, matcher=matcher)
        assert probe.stats["cover.memo_hits"] > 0
        # A memo hit must be invisible in the result: identical netlist
        # to a cold mapping (fresh matcher, empty memo) at the same K.
        cold = self._map_at(small_base, positions, mid,
                            matcher=Matcher(small_base, CORELIB018))
        assert probe.netlist.cell_histogram() == \
            cold.netlist.cell_histogram()
        assert probe.stats["cell_area"] == cold.stats["cell_area"]
        assert cold.stats["cover.memo_hits"] == 0
        # The deterministic match-query count is execution-plan
        # independent: hits are credited for the queries a skipped DP
        # would have issued.
        assert probe.stats["map.match_queries"] == \
            cold.stats["map.match_queries"]

    def test_exact_k_repeat_hits(self, small_base):
        from repro.core import Matcher

        positions = random_positions(small_base)
        matcher = Matcher(small_base, CORELIB018)
        first = self._map_at(small_base, positions, 0.001, matcher=matcher)
        again = self._map_at(small_base, positions, 0.001, matcher=matcher)
        assert first.stats["cover.memo_hits"] == 0
        assert again.stats["cover.memo_hits"] > 0
        assert again.netlist.cell_histogram() == \
            first.netlist.cell_histogram()

    def test_shared_refs_cover_every_candidate_leaf(self, small_base):
        """The signature's shared-leaf references, read from the vertex
        tables, are every shared leaf of every candidate match."""
        from repro.core import Matcher

        positions = random_positions(small_base)
        matcher = Matcher(small_base, CORELIB018)
        self._map_at(small_base, positions, 0.001, matcher=matcher)
        refs = matcher._cover_memo._refs
        assert refs
        for (_, members, mat), (members_sorted, shared) in refs.items():
            walked = {(u, ph)
                      for v in members
                      for phase in (POS, NEG)
                      for m in matcher.peek(v, members)[phase]
                      for _, (u, ph) in m.leaves
                      if u not in members or u in mat}
            assert members_sorted == sorted(members)
            assert shared == tuple(sorted(walked))

    def test_ascending_walk_reuses_and_matches_fresh(self, small_base):
        """Sweeps walk K upward: the cover of the K below is re-scored,
        and every mapping equals a fresh matcher's."""
        from repro.core import Matcher

        positions = random_positions(small_base)
        matcher = Matcher(small_base, CORELIB018)
        hits = 0
        for k in (0.0, 0.001, 0.01, 0.1, 1.0):
            walked = self._map_at(small_base, positions, k, matcher=matcher)
            fresh = self._map_at(small_base, positions, k,
                                 matcher=Matcher(small_base, CORELIB018))
            assert mapping_key(walked) == mapping_key(fresh)
            hits += walked.stats["cover.memo_hits"]
        assert hits > 0

    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    def test_shared_matcher_maps_like_fresh(self, small_base, objective):
        """Property: over ascending, descending and shuffled K lists with
        repeats, a matcher shared across the list maps every K exactly
        as a fresh matcher does — re-scores that hold reuse a cover,
        re-scores that fail fall back to the DP."""
        from repro.core import Matcher

        make = self.OBJECTIVES[objective]
        positions = random_positions(small_base)
        fresh = {}
        rejected = []

        def fresh_key(k):
            if k not in fresh:
                fresh[k] = mapping_key(map_network(
                    small_base, CORELIB018, make(k),
                    partition_style="placement", positions=positions))
            return fresh[k]

        @settings(max_examples=15, deadline=None)
        @given(ks=st.lists(st.sampled_from(self.KS), min_size=2,
                           max_size=8),
               order=st.sampled_from(["ascending", "descending",
                                      "shuffled"]))
        @example(ks=[0.0, 1.0, 0.0], order="ascending")
        def check(ks, order):
            if order != "shuffled":
                ks = sorted(ks, reverse=order == "descending")
            matcher = Matcher(small_base, CORELIB018)
            for k in ks:
                shared = map_network(small_base, CORELIB018, make(k),
                                     partition_style="placement",
                                     positions=positions, matcher=matcher)
                assert mapping_key(shared) == fresh_key(k)
            rejected.append(matcher._cover_memo.rejected)

        check()
        assert sum(rejected) > 0
