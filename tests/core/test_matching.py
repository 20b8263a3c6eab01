"""Tests for the phase-aware structural matcher."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Match, Matcher, NEG, POS
from repro.library import CORELIB018, CellLibrary, LibCell, leaf, pinv, pnand
from repro.library.patterns import LEAF, P_INV, P_NAND
from repro.network import BooleanNetwork, decompose, parse_sop
from repro.network.dag import INV, NAND2, BaseNetwork


def all_consumable(_v):
    return True


@pytest.fixture
def and_base():
    """INV(NAND2(a, b)) — an AND2 shape."""
    net = BaseNetwork("and2")
    a = net.add_input("a")
    b = net.add_input("b")
    n = net.add_nand2(a, b)
    i = net.add_inv(n)
    net.set_output("y", i)
    return net, n, i


class TestBasicMatches:
    def test_nand_cell_matches_nand_vertex(self, and_base):
        base, nand_v, _ = and_base
        matcher = Matcher(base, CORELIB018)
        matches = matcher.matches_at(nand_v, all_consumable)
        names = {m.cell.name for m in matches[POS]}
        assert "NAND2_X1" in names
        assert "NAND2_X2" in names

    def test_and_cell_matches_inv_of_nand(self, and_base):
        base, _, inv_v = and_base
        matcher = Matcher(base, CORELIB018)
        matches = matcher.matches_at(inv_v, all_consumable)
        names = {m.cell.name for m in matches[POS]}
        assert "AND2_X1" in names
        assert "INV_X1" in names  # inverter covering just the INV

    def test_and_match_consumes_both_gates(self, and_base):
        base, nand_v, inv_v = and_base
        matcher = Matcher(base, CORELIB018)
        and_matches = [m for m in matcher.matches_at(inv_v, all_consumable)[POS]
                       if m.cell.name == "AND2_X1"]
        assert and_matches
        assert and_matches[0].consumed == {nand_v, inv_v}

    def test_neg_phase_and_at_nand(self, and_base):
        """AND2 rooted at the NAND vertex with NEG phase: out == NOT nand."""
        base, nand_v, _ = and_base
        matcher = Matcher(base, CORELIB018)
        matches = matcher.matches_at(nand_v, all_consumable)
        names = {m.cell.name for m in matches[NEG]}
        assert "AND2_X1" in names

    def test_leaf_bindings_point_at_inputs(self, and_base):
        base, nand_v, _ = and_base
        matcher = Matcher(base, CORELIB018)
        nand_match = [m for m in matcher.matches_at(nand_v, all_consumable)[POS]
                      if m.cell.name == "NAND2_X1"][0]
        bound = {v for _, (v, _) in nand_match.leaves}
        assert bound == {base.input_vertex["a"], base.input_vertex["b"]}


class TestPolarityPropagation:
    def test_or_matches_nand_of_inverters(self):
        net = BaseNetwork("or2")
        a = net.add_input("a")
        b = net.add_input("b")
        na = net.add_inv(a)
        nb = net.add_inv(b)
        out = net.add_nand2(na, nb)
        net.set_output("y", out)
        matcher = Matcher(net, CORELIB018)
        matches = matcher.matches_at(out, all_consumable)
        or_matches = [m for m in matches[POS] if m.cell.name == "OR2_X1"]
        assert or_matches
        # One variant consumes both subject inverters (leaves = a, b)...
        assert any(m.consumed == {na, nb, out} for m in or_matches)
        # ...and another lets the pattern INVs supply the negation,
        # binding the inverter outputs with negative polarity.
        assert any(m.consumed == {out}
                   and all(not phase for _, (_, phase) in m.leaves)
                   for m in or_matches)

    def test_boundary_stops_consumption(self):
        net = BaseNetwork("bound")
        a = net.add_input("a")
        b = net.add_input("b")
        n1 = net.add_nand2(a, b)
        i1 = net.add_inv(n1)
        net.set_output("y", i1)
        matcher = Matcher(net, CORELIB018)
        # n1 is not consumable: AND2 cannot match at i1.
        matches = matcher.matches_at(i1, lambda v: v == i1)
        names = {m.cell.name for m in matches[POS]}
        assert "AND2_X1" not in names
        assert "INV_X1" in names

    def test_root_not_consumable_no_matches(self, and_base):
        base, _, inv_v = and_base
        matcher = Matcher(base, CORELIB018)
        matches = matcher.matches_at(inv_v, lambda v: False)
        assert matches[POS] == [] and matches[NEG] == []


class TestMatchMemoization:
    """ISSUE 2 satellite: per-(vertex, tree) match memoization."""

    def _deep_base(self):
        net = BaseNetwork("memo")
        a = net.add_input("a")
        b = net.add_input("b")
        n1 = net.add_nand2(a, b)
        i1 = net.add_inv(n1)
        c = net.add_input("c")
        n2 = net.add_nand2(i1, c)
        net.set_output("y", n2)
        return net, (n1, i1, n2)

    @staticmethod
    def _keys(matches):
        return {(m.cell.name, m.phase, tuple(sorted(m.leaves)), m.consumed)
                for phase in (POS, NEG) for m in matches[phase]}

    def test_memoized_equals_fresh_for_two_memberships(self):
        # The same vertex under two different tree memberships must
        # return exactly the matches a fresh enumeration yields.
        net, (n1, i1, n2) = self._deep_base()
        matcher = Matcher(net, CORELIB018)
        small = frozenset({n2})
        large = frozenset({n1, i1, n2})
        for members in (small, large):
            fresh = Matcher(net, CORELIB018).matches_at(
                n2, members.__contains__)
            memo = matcher.matches_in_tree(n2, members)
            assert self._keys(memo) == self._keys(fresh)
        # The two memberships genuinely differ: the large one lets
        # bigger patterns consume down through i1/n1.
        consumed_large = {m.consumed
                          for m in matcher.matches_in_tree(n2, large)[POS]}
        assert any(len(cset) > 1 for cset in consumed_large)
        consumed_small = {m.consumed
                          for m in matcher.matches_in_tree(n2, small)[POS]}
        assert all(cset == frozenset({n2}) for cset in consumed_small)

    def test_cache_counters(self):
        net, (n1, i1, n2) = self._deep_base()
        matcher = Matcher(net, CORELIB018)
        members = frozenset({n1, i1, n2})
        first = matcher.matches_in_tree(n2, members)
        assert matcher.stats == {"match_cache_hits": 0,
                                 "match_cache_misses": 1}
        again = matcher.matches_in_tree(n2, members)
        assert again is first  # the cached dict itself
        assert matcher.stats == {"match_cache_hits": 1,
                                 "match_cache_misses": 1}
        # A different membership is a different cache key.
        matcher.matches_in_tree(n2, frozenset({n2}))
        assert matcher.stats["match_cache_misses"] == 2


class TestComplexCells:
    def test_aoi21_matches(self):
        net = BooleanNetwork("aoi")
        for v in "abc":
            net.add_input(v)
        net.add_node("f", parse_sop("a' c' + b' c'"))  # NOT(ab + c)
        net.add_output("f")
        base = decompose(net)
        matcher = Matcher(base, CORELIB018)
        root = base.outputs["f"]
        matches = matcher.matches_at(root, all_consumable)
        assert any(m.cell.name == "AOI21_X1" for m in matches[POS]) or \
            any(m.cell.name == "AOI21_X1" for m in matches[NEG])

    def test_symmetry_gives_both_orders(self, and_base):
        base, nand_v, _ = and_base
        matcher = Matcher(base, CORELIB018)
        # OAI21: NAND(OR(A,B), C): at the nand vertex, leaf C can bind to
        # either input; deduplication keeps distinct bindings only.
        matches = matcher.matches_at(nand_v, all_consumable)[POS]
        keys = {(m.cell.name, tuple(sorted(m.leaves))) for m in matches}
        assert len(keys) == len(matches)  # all deduped


def _signature(matches):
    """Everything a match list carries, in order (consumed-set iteration
    order included: the covering DP sums centroids in that order)."""
    return [(m.cell.name, m.phase, m.root, m.leaves, list(m.consumed))
            for phase in (POS, NEG) for m in matches[phase]]


@st.composite
def _subjects(draw):
    """A small random subject graph, a root gate and a tree around it.

    Each gate takes its first input from the three newest signals, so
    the graphs grow the deep INV/NAND2 chains the largest patterns need.
    """
    net = BaseNetwork("h")
    signals = [net.add_input(f"i{k}") for k in range(draw(
        st.integers(2, 4)))]
    for _ in range(draw(st.integers(1, 20))):
        first = signals[-1 - draw(st.integers(0, min(2, len(signals) - 1)))]
        if draw(st.booleans()):
            signals.append(net.add_inv(first))
        else:
            signals.append(net.add_nand2(first,
                                         draw(st.sampled_from(signals))))
    gates = sorted(net.gates())
    root = draw(st.sampled_from(gates[len(gates) // 2:]))
    members = frozenset(v for v in gates
                        if v == root or draw(st.booleans()))
    return net, root, members, gates


def _fresh(net, vertex, members):
    return Matcher(net, CORELIB018).matches_at(vertex, members.__contains__)


def _plain_recursion(net, vertex, consumable):
    """The matcher's semantics as one unshared recursion over each cell's
    pattern trees: the reference the shared enumeration must reproduce,
    consumed-set construction included."""
    def match(p, s, phase):
        if p.kind == LEAF:
            return [(((p.pin, (s, phase)),), frozenset())]
        out = []
        if p.kind == P_INV:
            out.extend(match(p.children[0], s, not phase))
        if net.kind[s] == INV and consumable(s):
            out.extend((b, c | {s})
                       for b, c in match(p, net.fanins[s][0], not phase))
        if (p.kind == P_NAND and phase == POS and net.kind[s] == NAND2
                and consumable(s)):
            a, b = net.fanins[s]
            for sa, sb in ([(a, b)] if a == b else [(a, b), (b, a)]):
                for lb, lc in match(p.children[0], sa, POS):
                    for rb, rc in match(p.children[1], sb, POS):
                        out.append((lb + rb, lc | rc | {s}))
        return out

    found = {POS: [], NEG: []}
    if consumable(vertex):
        for cell in CORELIB018.cells():
            for pattern in cell.patterns:
                for phase in (POS, NEG):
                    for leaves, consumed in match(pattern, vertex, phase):
                        if vertex in consumed:
                            found[phase].append(Match(cell, vertex, phase,
                                                      leaves, consumed))
    out = {}
    for phase in (POS, NEG):
        seen, out[phase] = set(), []
        for m in found[phase]:
            key = (m.cell.name, tuple(sorted(m.leaves)), m.consumed)
            if key not in seen:
                seen.add(key)
                out[phase].append(m)
    return out


_PROPERTY = settings(max_examples=80, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestSharedEnumerationIsExact:
    """Cone-keyed sharing returns exactly what a fresh enumeration does."""

    @_PROPERTY
    @given(_subjects())
    def test_enumeration_equals_plain_recursion(self, subject):
        net, root, members, gates = subject
        matcher = Matcher(net, CORELIB018)
        for v in sorted(members):
            assert _signature(matcher.matches_in_tree(v, members)) == \
                _signature(_plain_recursion(net, v, members.__contains__))
        assert _signature(matcher.matches_at(root, all_consumable)) == \
            _signature(_plain_recursion(net, root, all_consumable))

    def test_consumed_sets_iterate_like_the_plain_recursion(self):
        # Vertices 8 and 16 share a hash slot, so a consumed set's
        # iteration order shows how it was built; the covering DP sums
        # centroids in that order.
        net = BaseNetwork("slots")
        ins = [net.add_input(f"i{k}") for k in range(8)]
        na = net.add_inv(ins[0])
        for k in range(1, 8):
            net.add_nand2(ins[0], ins[k])
        nb = net.add_inv(ins[1])
        out = net.add_nand2(na, nb)
        assert (na, nb) == (8, 16)
        members = frozenset({na, nb, out})
        shared = Matcher(net, CORELIB018).matches_in_tree(out, members)
        assert any(len(m.consumed) == 3 for m in shared[POS])
        assert _signature(shared) == _signature(
            _plain_recursion(net, out, members.__contains__))

    @_PROPERTY
    @given(_subjects())
    def test_matches_in_tree_equals_fresh(self, subject):
        net, root, members, gates = subject
        matcher = Matcher(net, CORELIB018)
        # Warm the per-tree memo through the other members first, as
        # the covering DP does.
        for v in sorted(members):
            assert _signature(matcher.matches_in_tree(v, members)) == \
                _signature(_fresh(net, v, members))
        assert _signature(matcher.matches_in_tree(root, members)) == \
            _signature(_fresh(net, root, members))

    @_PROPERTY
    @given(_subjects(), st.data())
    def test_trees_agreeing_on_the_cone_share_one_list(self, subject, data):
        net, root, members, gates = subject
        matcher = Matcher(net, CORELIB018)
        cone = set(matcher.cone(root))
        outside = [v for v in gates if v not in cone]
        flipped = frozenset(data.draw(st.lists(
            st.sampled_from(outside), unique=True))) if outside \
            else frozenset()
        other = members.symmetric_difference(flipped)
        first = matcher.matches_in_tree(root, members)
        shared = matcher.matches_in_tree(root, other)
        assert shared is first
        assert matcher.stats["match_cache_misses"] == 1
        assert _signature(shared) == _signature(_fresh(net, root, other))

    @_PROPERTY
    @given(_subjects(), st.data())
    def test_trees_differing_in_the_cone_miss(self, subject, data):
        net, root, members, gates = subject
        matcher = Matcher(net, CORELIB018)
        inside = [v for v in matcher.cone(root) if v != root]
        if not inside:
            return
        other = members.symmetric_difference(
            {data.draw(st.sampled_from(inside))})
        matcher.matches_in_tree(root, members)
        changed = matcher.matches_in_tree(root, other)
        assert matcher.stats["match_cache_misses"] == 2
        assert _signature(changed) == _signature(_fresh(net, root, other))

    @_PROPERTY
    @given(_subjects())
    def test_enumeration_queries_only_the_cone(self, subject):
        net, root, members, gates = subject
        matcher = Matcher(net, CORELIB018)
        queried = set()

        def everything(v):
            queried.add(v)
            return True

        def recording(v):
            queried.add(v)
            return v in members

        matcher.matches_at(root, everything)
        matcher.matches_at(root, recording)
        assert queried <= set(matcher.cone(root))


class TestConeDepth:
    """The cone depth follows the library, not a hard-coded constant."""

    @staticmethod
    def _library_with_nand_depth_4():
        def cell(name, pattern, area):
            return LibCell(name=name, patterns=(pattern,), area=area,
                           intrinsic_delay=0.03, drive_resistance=5.0,
                           pin_caps={p: 0.002 for p in pattern.leaves()})
        deep = pnand(pinv(pnand(pinv(pnand(pinv(pnand(
            pinv(leaf("A")), leaf("B"))), leaf("C"))), leaf("D"))),
            leaf("E"))
        return CellLibrary("deep", [
            cell("INV", pinv(leaf("A")), 1.0),
            cell("ND2", pnand(leaf("A"), leaf("B")), 2.0),
            cell("DEEP", deep, 9.0)])

    @staticmethod
    def _chain():
        net = BaseNetwork("chain")
        a, b, c, d, e = (net.add_input(x) for x in "abcde")
        bottom = net.add_inv(a)
        top = net.add_nand2(bottom, b)
        for pin in (c, d, e):
            top = net.add_nand2(net.add_inv(top), pin)
        net.set_output("y", top)
        return net, top, bottom

    def test_deep_pattern_widens_the_cone(self):
        library = self._library_with_nand_depth_4()
        assert library.pattern_table.nand_depth == 4
        net, top, bottom = self._chain()
        assert bottom in Matcher(net, library).cone(top)
        assert bottom not in Matcher(net, CORELIB018).cone(top)

    def test_deep_membership_changes_the_matches(self):
        library = self._library_with_nand_depth_4()
        net, top, bottom = self._chain()
        matcher = Matcher(net, library)
        whole = frozenset(net.gates())
        without = whole - {bottom}
        deep_whole = [m for m in matcher.matches_in_tree(top, whole)[POS]
                      if m.cell.name == "DEEP"]
        deep_without = [m for m in matcher.matches_in_tree(top, without)[POS]
                        if m.cell.name == "DEEP"]
        assert any(bottom in m.consumed for m in deep_whole)
        assert not any(bottom in m.consumed for m in deep_without)
        assert matcher.stats["match_cache_misses"] == 2
