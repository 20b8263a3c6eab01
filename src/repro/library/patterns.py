"""Pattern trees: library cells expressed over the base functions.

Technology mapping matches library cells structurally against the
subject graph, so every cell carries one or more *pattern trees* built
from the same base functions the subject graph uses (two-input NANDs
and inverters).  Leaves name the cell's formal input pins; each pin
appears exactly once (read-once patterns — the precondition for tree
matching, satisfied by every cell in a DAGON-style library).

The cell's logic function is *derived* from its pattern
(:func:`pattern_to_sop`), which makes pattern/function consistency true
by construction and testable for multi-pattern cells.

A library compiles its patterns once into a :class:`PatternTable`, the
interned form the matcher enumerates.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import LibraryError
from ..network.sop import Sop

LEAF = "leaf"
P_INV = "inv"
P_NAND = "nand2"


class PatternNode:
    """A node of a pattern tree (LEAF, INV or NAND2)."""

    __slots__ = ("kind", "pin", "children")

    def __init__(self, kind: str, pin: Optional[str] = None,
                 children: Optional[List["PatternNode"]] = None):  # noqa: D107
        self.kind = kind
        self.pin = pin
        self.children = children or []

    def leaves(self) -> List[str]:
        """Pin names in left-to-right order."""
        if self.kind == LEAF:
            assert self.pin is not None
            return [self.pin]
        out: List[str] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def num_gates(self) -> int:
        """Base gates in the pattern (LEAF nodes excluded)."""
        if self.kind == LEAF:
            return 0
        return 1 + sum(child.num_gates() for child in self.children)

    def depth(self) -> int:
        """Gate depth of the pattern."""
        if self.kind == LEAF:
            return 0
        return 1 + max(child.depth() for child in self.children)

    def check(self) -> None:
        """Validate arity and the read-once property."""
        if self.kind == LEAF:
            if self.pin is None:
                raise LibraryError("leaf pattern node without a pin name")
        elif self.kind == P_INV:
            if len(self.children) != 1:
                raise LibraryError("INV pattern node needs exactly one child")
        elif self.kind == P_NAND:
            if len(self.children) != 2:
                raise LibraryError("NAND2 pattern node needs exactly two children")
        else:
            raise LibraryError(f"unknown pattern node kind {self.kind!r}")
        for child in self.children:
            child.check()
        leaves = self.leaves()
        if len(leaves) != len(set(leaves)):
            raise LibraryError(f"pattern is not read-once: {leaves}")

    def to_string(self) -> str:
        """Compact textual form, e.g. ``NAND(INV(A), B)``."""
        if self.kind == LEAF:
            return str(self.pin)
        if self.kind == P_INV:
            return f"INV({self.children[0].to_string()})"
        return f"NAND({self.children[0].to_string()}, {self.children[1].to_string()})"

    def __repr__(self) -> str:
        return f"PatternNode({self.to_string()})"


def leaf(pin: str) -> PatternNode:
    """A leaf bound to formal pin ``pin``."""
    return PatternNode(LEAF, pin=pin)


def pinv(child: PatternNode) -> PatternNode:
    """An inverter pattern node."""
    return PatternNode(P_INV, children=[child])


def pnand(left: PatternNode, right: PatternNode) -> PatternNode:
    """A two-input NAND pattern node."""
    return PatternNode(P_NAND, children=[left, right])


#: One interned pattern node: (kind, pin or None, child node ids).
InternedNode = Tuple[str, Optional[str], Tuple[int, ...]]


class PatternTable:
    """A library's pattern trees compiled into one interned node table.

    Structurally equal sub-trees (same kind, same pin, equal children)
    get one id, so cells and patterns share every common sub-pattern:
    CORELIB018's 24 patterns over 143 nodes intern to 20 distinct
    patterns over 33 nodes.  ``nodes[i]`` is the :data:`InternedNode`
    of id ``i``; children precede their parents.  ``entries`` pairs each
    owner (a cell) with the ids of its patterns, in input order.
    ``nand_depth`` is the largest number of NAND2 nodes on a pattern's
    root-to-leaf path: a match reaches at most that many subject NAND2s
    below its root.  ``nand_phase[i]`` is the one output phase (``True``
    = positive) in which node ``i`` can cover a subject NAND2 it is
    rooted at: a NAND2 node covers it positively and each INV above
    flips that; ``None`` for an INV chain down to a leaf, which covers
    no NAND2.
    """

    def __init__(self, entries: Iterable[Tuple[Any, Sequence[PatternNode]]]
                 ) -> None:  # noqa: D107
        self.nodes: List[InternedNode] = []
        self._ids: Dict[InternedNode, int] = {}
        self._nands: List[int] = []
        self.nand_phase: List[Optional[bool]] = []
        self.entries: Tuple[Tuple[Any, Tuple[int, ...]], ...] = tuple(
            (owner, tuple(self._intern(p) for p in patterns))
            for owner, patterns in entries)
        self.nand_depth = max((self._nands[i] for _, ids in self.entries
                               for i in ids), default=0)

    def _intern(self, node: PatternNode) -> int:
        key = (node.kind, node.pin,
               tuple(self._intern(child) for child in node.children))
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.nodes)
            self.nodes.append(key)
            self._nands.append(int(node.kind == P_NAND) + max(
                (self._nands[c] for c in key[2]), default=0))
            phase: Optional[bool] = None
            if node.kind == P_NAND:
                phase = True
            elif node.kind == P_INV and self.nand_phase[key[2][0]] is not None:
                phase = not self.nand_phase[key[2][0]]
            self.nand_phase.append(phase)
        return nid


def pattern_to_sop(node: PatternNode) -> Sop:
    """The logic function of a pattern tree, as an SOP over pin names.

    Complementation uses De Morgan expansion; fine for the small
    pattern sizes of a standard-cell library.
    """
    pos, _ = _sop_pair(node)
    return pos


def _sop_pair(node: PatternNode) -> Tuple[Sop, Sop]:
    """(function, complement) of a pattern subtree."""
    if node.kind == LEAF:
        assert node.pin is not None
        return (Sop.literal(node.pin, True), Sop.literal(node.pin, False))
    if node.kind == P_INV:
        pos, neg = _sop_pair(node.children[0])
        return neg, pos
    lpos, lneg = _sop_pair(node.children[0])
    rpos, rneg = _sop_pair(node.children[1])
    # NAND: out = (l & r)', out' = l & r
    out_neg = lpos.mul(rpos).remove_scc()
    out_pos = lneg.add(rneg).remove_scc()
    return out_pos, out_neg
