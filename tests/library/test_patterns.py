"""Tests for pattern trees."""

import pytest

from repro.errors import LibraryError
from repro.library import (
    CORELIB018,
    PatternTable,
    leaf,
    pattern_to_sop,
    pinv,
    pnand,
)
from repro.network.sop import parse_sop


class TestStructure:
    def test_leaves_order(self):
        p = pnand(pinv(leaf("A")), leaf("B"))
        assert p.leaves() == ["A", "B"]

    def test_num_gates(self):
        p = pnand(pinv(leaf("A")), leaf("B"))
        assert p.num_gates() == 2

    def test_depth(self):
        p = pinv(pnand(leaf("A"), pinv(leaf("B"))))
        assert p.depth() == 3

    def test_read_once_enforced(self):
        p = pnand(leaf("A"), leaf("A"))
        with pytest.raises(LibraryError, match="read-once"):
            p.check()

    def test_leaf_without_pin_rejected(self):
        from repro.library.patterns import PatternNode, LEAF
        with pytest.raises(LibraryError):
            PatternNode(LEAF).check()

    def test_bad_arity_rejected(self):
        from repro.library.patterns import P_INV, P_NAND, PatternNode
        with pytest.raises(LibraryError):
            PatternNode(P_INV, children=[leaf("A"), leaf("B")]).check()
        with pytest.raises(LibraryError):
            PatternNode(P_NAND, children=[leaf("A")]).check()

    def test_to_string(self):
        p = pnand(pinv(leaf("A")), leaf("B"))
        assert p.to_string() == "NAND(INV(A), B)"


class TestFunctionDerivation:
    @pytest.mark.parametrize("pattern,expected", [
        (pinv(leaf("A")), "A'"),
        (pnand(leaf("A"), leaf("B")), "A' + B'"),
        (pinv(pnand(leaf("A"), leaf("B"))), "A B"),
        (pnand(pinv(leaf("A")), pinv(leaf("B"))), "A + B"),
        (pinv(pnand(pinv(leaf("A")), pinv(leaf("B")))), "A' B'"),
        (pinv(pnand(pnand(leaf("A"), leaf("B")), pinv(leaf("C")))),
         "A' C' + B' C'"),                            # AOI21
        (pnand(pnand(pinv(leaf("A")), pinv(leaf("B"))), leaf("C")),
         "A' B' + C'"),                               # OAI21
    ])
    def test_known_functions(self, pattern, expected):
        assert pattern_to_sop(pattern) == parse_sop(expected)

    def test_buffer(self):
        assert pattern_to_sop(pinv(pinv(leaf("A")))) == parse_sop("A")


class TestPatternTable:
    """The library's patterns compiled into one interned table."""

    def test_corelib_interns_to_distinct_shapes(self):
        table = CORELIB018.pattern_table
        assert sum(len(ids) for _, ids in table.entries) == 24
        assert len({i for _, ids in table.entries for i in ids}) == 20
        assert len(table.nodes) == 33

    def test_inverter_sizes_share_one_node(self):
        ids = {cell.name: roots
               for cell, roots in CORELIB018.pattern_table.entries}
        assert ids["INV_X1"] == ids["INV_X2"] == ids["INV_X4"]
        assert ids["BUF_X1"] == ids["BUF_X2"]
        assert ids["NAND2_X1"] == ids["NAND2_X2"]

    def test_equal_subtrees_share_ids(self):
        table = PatternTable([("x", [pnand(pinv(leaf("A")), leaf("B")),
                                     pinv(pnand(pinv(leaf("A")),
                                                leaf("B")))])])
        (_, (outer_nand, outer_inv)), = table.entries
        assert table.nodes[outer_inv][2] == (outer_nand,)
        # LEAF A, LEAF B, INV(A), NAND(INV(A), B), INV(NAND(...)).
        assert len(table.nodes) == 5

    def test_leaves_with_different_pins_stay_distinct(self):
        table = PatternTable([("x", [pnand(leaf("A"), leaf("B"))])])
        a, b = table.nodes[table.entries[0][1][0]][2]
        assert a != b

    def test_children_precede_parents(self):
        table = CORELIB018.pattern_table
        for nid, (_, _, children) in enumerate(table.nodes):
            assert all(child < nid for child in children)

    def test_nand_depth(self):
        assert CORELIB018.pattern_table.nand_depth == 3
        chain = pnand(pinv(pnand(pinv(pnand(pinv(pnand(
            leaf("A"), leaf("B"))), leaf("C"))), leaf("D"))), leaf("E"))
        assert PatternTable([("x", [chain])]).nand_depth == 4
        assert PatternTable([("x", [pinv(leaf("A"))])]).nand_depth == 0

    def test_nand_phase(self):
        table = PatternTable([("x", [pnand(leaf("A"), leaf("B")),
                                     pinv(pnand(leaf("A"), leaf("B"))),
                                     pinv(pinv(leaf("A")))])])
        (_, (nand, and2, buf)), = table.entries
        assert table.nand_phase[nand] is True
        assert table.nand_phase[and2] is False
        assert table.nand_phase[buf] is None
