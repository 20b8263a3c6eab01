"""Structural pattern matching of library cells onto subject trees.

The matcher is *phase aware*: a pattern can be matched so that its
output realises either the subject signal (``POS``) or its complement
(``NEG``).  An INV pattern node may either consume a subject inverter
or supply a free negation (the classic inverter-pair trick expressed as
polarity propagation), and a subject inverter may likewise be consumed
while flipping the requested polarity.  NAND2 inputs are symmetric, so
both child orders are tried.

A :class:`Match` records the cell, the root vertex and polarity, the
set of consumed subject vertices, and the leaf bindings
``pin -> (vertex, phase)``.  The tree-covering DP
(:mod:`repro.core.covering`) consumes these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..library.cell import CellLibrary, LibCell
from ..library.patterns import LEAF, P_INV, P_NAND
from ..network.dag import BaseNetwork, INV, NAND2

POS = True
NEG = False

#: One partial result: (bindings, consumed vertex set).
_Partial = Tuple[Tuple[Tuple[str, Tuple[int, bool]], ...], FrozenSet[int]]

#: A whole-vertex enumeration key: (vertex, bitmask of the tree members
#: among ``Matcher.cone(vertex)``, bit ``i`` = ``cone[i]``).
ConeKey = Tuple[int, int]

#: Running-size weights of :attr:`Matcher.memo_nbytes`, fitted against
#: full object walks of matchers filled by K sweeps (match lists and
#: covering vertex tables; each cover-memo store adds its own bytes).
_QUERY_NBYTES = 200
_MATCH_NBYTES = 540

_NOTHING: FrozenSet[int] = frozenset()


@dataclass(frozen=True)
class Match:
    """A committed-candidate cell match rooted at a subject vertex."""

    cell: LibCell
    root: int
    phase: bool
    leaves: Tuple[Tuple[str, Tuple[int, bool]], ...]  # (pin, (vertex, phase))
    consumed: FrozenSet[int]

    def leaf_refs(self) -> List[Tuple[int, bool]]:
        """The (vertex, phase) pairs the match's input pins bind to."""
        return [ref for _, ref in self.leaves]

    def __repr__(self) -> str:
        sign = "+" if self.phase else "-"
        return (f"Match({self.cell.name}@{self.root}{sign}, "
                f"leaves={list(self.leaves)})")


class Matcher:
    """Enumerates matches of a library's patterns over a base network.

    Enumeration depends only on the network, the library and which
    subject vertices are consumable — never on the covering objective —
    and is shared at three levels:

    * **Interned library.**  Enumeration walks the library's
      :class:`~repro.library.patterns.PatternTable`, so cells with the
      same pattern (INV_X1/X2/X4, ...) and patterns with a common
      sub-tree share its sub-matches.
    * **Per-tree memo.**  Within one subject tree, sub-pattern results
      are memoized per ``(node id, subject vertex, phase)`` and shared
      by every cell, pattern and root vertex of the tree.
    * **Cone key.**  A whole-vertex enumeration asks about consumability
      only inside the vertex's static fanin :meth:`cone`, so it is keyed
      by the vertex and the tree members in that cone.  Trees that agree
      on the cone share one match list (and one covering vertex table).

    In front sits a memo per ``(vertex, tree members)`` query, so a K
    sweep that re-maps the same partitioned network asks each query
    once.  ``stats`` counts queries answered without enumerating
    (``match_cache_hits``) and enumerations (``match_cache_misses``);
    every miss is exactly one :meth:`matches_at` call.  ``memo_nbytes``
    is a running estimate of the bytes the memos hold.
    """

    def __init__(self, network: BaseNetwork, library: CellLibrary):  # noqa: D107
        self.network = network
        self.library = library
        self._table = library.pattern_table
        self._nodes = self._table.nodes
        self._kind = network.kind
        self._fanins = network.fanins
        self._cones: Dict[int, Tuple[int, ...]] = {}
        self._keys: Dict[Tuple[int, FrozenSet[int]], ConeKey] = {}
        self._by_cone: Dict[ConeKey, Dict[bool, List[Match]]] = {}
        # The tree whose sub-pattern memo is live, and its predicate.
        self._tree: Optional[FrozenSet[int]] = None
        self._in_tree: Optional[Callable[[int], bool]] = None
        self._sub_memo: Dict[Tuple[int, int, bool], List[_Partial]] = {}
        self.stats: Dict[str, int] = {"match_cache_hits": 0,
                                      "match_cache_misses": 0}
        self.memo_nbytes = 0

    def cone(self, vertex: int) -> Tuple[int, ...]:
        """The subject vertices an enumeration at ``vertex`` may query.

        Every vertex reachable from ``vertex`` through any number of
        subject INVs and at most ``D`` subject NAND2s, sorted; ``D`` is
        the library's :attr:`~PatternTable.nand_depth`.  A match descends
        through a subject NAND2 only by consuming a NAND2 pattern node,
        and asks ``consumable(u)`` only while its pattern still has a
        gate left, so every queried ``u`` lies within ``D`` NAND2 levels.
        """
        cone = self._cones.get(vertex)
        if cone is None:
            kind, fanins = self._kind, self._fanins
            depth = self._table.nand_depth
            used_at: Dict[int, int] = {}
            stack = [(vertex, 0)]
            while stack:
                u, used = stack.pop()
                if used_at.get(u, depth + 1) <= used:
                    continue
                used_at[u] = used
                if kind[u] == INV:
                    stack.append((fanins[u][0], used))
                elif kind[u] == NAND2 and used < depth:
                    stack.extend((f, used + 1) for f in fanins[u])
            cone = self._cones[vertex] = tuple(sorted(used_at))
        return cone

    def cone_key(self, vertex: int, members: FrozenSet[int]) -> ConeKey:
        """The enumeration key of a ``(vertex, tree members)`` query."""
        query = (vertex, members)
        key = self._keys.get(query)
        if key is None:
            mask = sum(1 << bit for bit, u in enumerate(self.cone(vertex))
                       if u in members)
            key = self._keys[query] = (vertex, mask)
            self.memo_nbytes += _QUERY_NBYTES
        return key

    def matches_in_tree(self, vertex: int, members: FrozenSet[int]
                        ) -> Dict[bool, List[Match]]:
        """Memoized :meth:`matches_at` for a tree's membership set.

        ``members`` must be the frozen member set of the subject tree
        rooted above ``vertex`` (consumability == membership).  The
        returned dict is shared between callers and must not be mutated.
        """
        key = self.cone_key(vertex, members)
        cached = self._by_cone.get(key)
        if cached is not None:
            self.stats["match_cache_hits"] += 1
            return cached
        self.stats["match_cache_misses"] += 1
        if members is not self._tree:
            self._tree = members
            self._in_tree = members.__contains__
            self._sub_memo = {}
        out = self.matches_at(vertex, self._in_tree)
        self._by_cone[key] = out
        self.memo_nbytes += _MATCH_NBYTES * (len(out[POS]) + len(out[NEG]))
        return out

    def peek(self, vertex: int, members: FrozenSet[int]
             ) -> Optional[Dict[bool, List[Match]]]:
        """An already-enumerated query's matches; counters untouched."""
        key = self._keys.get((vertex, members))
        return self._by_cone.get(key) if key is not None else None

    def matches_at(self, vertex: int, consumable: Callable[[int], bool]
                   ) -> Dict[bool, List[Match]]:
        """All matches rooted at ``vertex``, keyed by output phase.

        ``consumable(v)`` says whether subject vertex ``v`` may be
        covered (i.e. is internal to the current tree).  Matches that
        consume nothing (pure polarity conversions) are dropped — the
        covering DP models those explicitly with inverter insertion.
        """
        out: Dict[bool, List[Match]] = {POS: [], NEG: []}
        if not consumable(vertex):
            return out
        memo = self._sub_memo if consumable is self._in_tree else {}
        # Only an INV root can be consumed in either phase; a NAND2 root
        # has one phase per pattern (see PatternTable.nand_phase).
        at_nand = self._kind[vertex] == NAND2
        nand_phase = self._table.nand_phase
        for cell, roots in self._table.entries:
            for nid in roots:
                for phase in (POS, NEG):
                    if at_nand and nand_phase[nid] is not phase:
                        continue
                    for bindings, consumed in self._sub(
                            nid, vertex, phase, consumable, memo):
                        if vertex not in consumed:
                            continue  # pure phase conversion
                        out[phase].append(Match(
                            cell=cell, root=vertex, phase=phase,
                            leaves=bindings, consumed=consumed))
        for phase in (POS, NEG):
            out[phase] = _dedupe(out[phase])
        return out

    def _sub(self, nid: int, s: int, phase: bool,
             consumable: Callable[[int], bool],
             memo: Dict[Tuple[int, int, bool], List[_Partial]]
             ) -> List[_Partial]:
        """All ways pattern node ``nid`` realises (``phase`` of) vertex ``s``."""
        p_kind, pin, children = self._nodes[nid]
        if p_kind == LEAF:
            return [(((pin, (s, phase)),), _NOTHING)]
        key = (nid, s, phase)
        results = memo.get(key)
        if results is not None:
            return results
        results = []
        kind = self._kind[s]
        if p_kind == P_INV:
            # The pattern inverter supplies the negation without
            # consuming a subject gate.
            results.extend(self._sub(children[0], s, not phase,
                                     consumable, memo))
        if kind == INV and consumable(s):
            # Consume the subject inverter, flipping the polarity the
            # remaining pattern must realise.
            child = self._fanins[s][0]
            for bindings, consumed in self._sub(nid, child, not phase,
                                                consumable, memo):
                results.append((bindings, consumed | {s}))
        if (p_kind == P_NAND and phase == POS and kind == NAND2
                and consumable(s)):
            a, b = self._fanins[s]
            left, right = children
            orders = [(a, b)] if a == b else [(a, b), (b, a)]
            for sa, sb in orders:
                rights = self._sub(right, sb, POS, consumable, memo)
                for lb, lc in self._sub(left, sa, POS, consumable, memo):
                    for rb, rc in rights:
                        # Pins are disjoint by read-once-ness.
                        results.append((lb + rb, lc | rc | {s}))
        # A pattern INV over a subject INV is reached both ways (the
        # pattern supplies the negation, or consumes the subject gate),
        # which repeats results.  Keeping first occurrences only leaves
        # the matches after :func:`_dedupe` unchanged.
        if len(results) > 1:
            results = list(dict.fromkeys(results))
        memo[key] = results
        return results


def _dedupe(matches: List[Match]) -> List[Match]:
    """Drop duplicate matches (same cell, bindings and cover)."""
    seen: Set[Tuple] = set()
    out: List[Match] = []
    for m in matches:
        key = (m.cell.name, tuple(sorted(m.leaves)), m.consumed)
        if key not in seen:
            seen.add(key)
            out.append(m)
    return out
