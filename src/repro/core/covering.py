"""Dynamic-programming tree covering (Section 3.2).

Keutzer's optimal tree covering, extended per the paper:

* every tree vertex gets a best solution for **both polarities** (an
  inverter converts between them at known cost),
* each candidate's cost is ``AREA + K * WIRE`` (Eq. 5) where

  - ``AREA(m, v)``  = cell area + sum of the fanin subtrees' area costs
    (Eq. 1),
  - ``WIRE1(m, v)`` = summed distance from the match's center of mass
    to the centers of mass of its fanins' chosen matches (Eq. 2),
  - ``WIRE2(m, v)`` = the sum of the fanins' **stored** wire costs
    (Eq. 3) — each fanin contributes the full ``WIRE`` of its own
    chosen solution, so deep trees accumulate their wire all the way
    down to this tree's leaves — and ``WIRE = WIRE1 + WIRE2`` (Eq. 4).
    (Shared leaves contribute zero: their wire is charged to the tree
    that materializes them.)  The Pedram–Bhat ``transitive_wire``
    variant additionally carries wire *across* tree boundaries, down to
    the primary inputs, via the committed figures in
    :class:`BoundaryInfo`,

* the center of mass of the selected match is stored per vertex so
  parents retrieve it in O(1) — the incremental companion-placement
  update of Section 3.2,
* leaves that refer to *materialized* signals (tree boundaries or
  absorbed multi-fanout vertices) cost nothing in area — their logic is
  paid for by their own tree — and sit at their committed positions.
  A NEG reference to a materialized signal costs one inverter the
  *first* time any tree needs that complement; the netlist builder
  shares a single inverter per net, and :class:`BoundaryInfo` tells the
  DP which complements already exist so it does not charge them again.

An arrival-time estimate rides along for the delay objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Generator, List, NamedTuple,
                    Optional, Set, Tuple)

import numpy as np

from ..errors import MappingError
from ..library.cell import CellLibrary
from ..network.dag import BaseNetwork
from .matching import Match, Matcher, NEG, POS
from .objectives import CoverObjective
from .partition import Tree
from .wirecost import EUCLIDEAN, Point, PositionMap


@dataclass
class Solution:
    """Best cover found for one (vertex, phase)."""

    cost: float
    area: float
    wire1: float            # Eq. 2 of the chosen match (one level)
    wire: float             # Eq. 4: wire1 + fanins' stored wire
    wire_transitive: float  # accumulated across tree boundaries to PIs
    arrival: float
    com: Point              # center of mass of the chosen match
    match: Optional[Match]  # None for an inverter phase-conversion
    inv_source_phase: Optional[bool] = None
    inv_source: Optional["Solution"] = None


class TreeCover:
    """The covering result for one subject tree, with its DP record."""

    def __init__(self, tree: Tree,
                 solutions: Dict[Tuple[int, bool], Solution],
                 record: "CoverRecord"):  # noqa: D107
        self.tree = tree
        self.solutions = solutions
        self.record = record

    def root_solution(self) -> Solution:
        """The committed solution: the root in positive phase."""
        return self.solutions[(self.tree.root, POS)]


class CoverRecord(NamedTuple):
    """What one covering DP scored and chose, everything but K.

    Over every candidate match the DP scored, in its scan order
    (members ascending, each vertex's POS matches before its NEG ones):

    * ``primary``: the objective's primary term (AREA, or the arrival
      in delay mode) and ``wire``: the scored WIRE, both float64;
    * ``starts``: the first candidate of each non-empty (vertex, phase)
      slice, and ``chosen``: the slice's first-occurrence argmin;
    * ``pairs``: the POS slices whose vertex has a NEG slice too (it
      follows), and ``converted``: whether the inverter conversion beat
      the match-based winner, into POS for each pair, then into NEG;
      ``inv_term`` is what a conversion adds to the primary term (the
      inverter's area, or its delay).
    """

    primary: np.ndarray
    wire: np.ndarray
    starts: np.ndarray
    chosen: np.ndarray
    pairs: np.ndarray
    converted: np.ndarray
    inv_term: float

    @property
    def nbytes(self) -> int:
        """Bytes of the record's arrays."""
        return sum(a.nbytes for a in self[:-1])

    def reproduces(self, objective: CoverObjective) -> bool:
        """Whether the DP at ``objective.k`` makes every recorded choice.

        Costs are recomputed with the DP's own expression
        (``objective.cost``: primary + K·WIRE in both modes) over the
        recorded figures.  A candidate's figures depend only on the
        choices below it, so if every choice holds, by induction from
        the leaves up the figures are the DP's own inputs at this K
        and the DP would rebuild the recorded cover exactly (its
        scalar ``cost`` fields aside).
        """
        primary, wire, starts, chosen = (self.primary, self.wire,
                                         self.starts, self.chosen)
        n = len(primary)
        cost = objective.cost(primary, wire, primary)
        least = np.repeat(np.minimum.reduceat(cost, starts),
                          np.diff(starts, append=n))
        first = np.minimum.reduceat(
            np.where(cost == least, np.arange(n), n), starts)
        if not np.array_equal(first, chosen):
            return False
        if not len(self.pairs):
            return True
        pos, neg = chosen[self.pairs], chosen[self.pairs + 1]
        source = np.concatenate((neg, pos))
        converted = primary[source] + self.inv_term
        won = (objective.cost(converted, wire[source], converted)
               < cost[np.concatenate((pos, neg))])
        return bool(np.array_equal(won, self.converted))


class _RecordBuilder:
    """Collects a :class:`CoverRecord` while a DP scans its vertices."""

    def __init__(self) -> None:  # noqa: D107
        self.primary: List[np.ndarray] = []
        self.wire: List[np.ndarray] = []
        self.starts: List[int] = []
        self.chosen: List[int] = []
        self.pairs: List[int] = []
        self.into = ([], [])  # conversion won: into POS, into NEG
        self.n = 0

    def vertex(self, primary: np.ndarray, wire: np.ndarray, pos_count: int,
               best: Dict[bool, Optional[int]],
               converted: Tuple[bool, bool]) -> None:
        """One vertex: its candidates' figures (POS first), the index of
        each phase's winner within its slice, and the conversions."""
        base = self.n
        if pos_count:
            self.starts.append(base)
            self.chosen.append(base + best[POS])
        if len(primary) > pos_count:
            if pos_count:
                self.pairs.append(len(self.starts) - 1)
                self.into[0].append(converted[0])
                self.into[1].append(converted[1])
            self.starts.append(base + pos_count)
            self.chosen.append(base + pos_count + best[NEG])
        self.primary.append(primary)
        self.wire.append(wire)
        self.n = base + len(primary)

    def finish(self, inv_term: float) -> CoverRecord:
        """The record of the scanned tree."""
        return CoverRecord(
            np.concatenate(self.primary), np.concatenate(self.wire),
            np.array(self.starts, dtype=np.intp),
            np.array(self.chosen, dtype=np.intp),
            np.array(self.pairs, dtype=np.intp),
            np.array(self.into[0] + self.into[1], dtype=bool), inv_term)


class BoundaryInfo:
    """What the DP knows about signals materialized outside this tree."""

    def __init__(self, positions: PositionMap,
                 arrivals: Optional[Dict[int, float]] = None,
                 wires: Optional[Dict[int, float]] = None,
                 complemented: Optional[Set[int]] = None):  # noqa: D107
        self.positions = positions
        self.arrivals = arrivals or {}
        self.wires = wires if wires is not None else {}
        self.complemented = complemented if complemented is not None else set()

    def position(self, vertex: int) -> Point:
        """Committed position of a materialized signal."""
        return self.positions.get(vertex)

    def arrival(self, vertex: int) -> float:
        """Committed arrival time of a materialized signal (ns)."""
        return self.arrivals.get(vertex, 0.0)

    def wire(self, vertex: int) -> float:
        """Committed transitive wire cost of a materialized signal (µm)."""
        return self.wires.get(vertex, 0.0)

    def has_complement(self, vertex: int) -> bool:
        """Whether the complement net of a signal already exists.

        The netlist builder shares one inverter per materialized net;
        once some tree has paid for it, later NEG references are free.
        """
        return vertex in self.complemented


def run_on_stack(walk: Generator[Any, Any, Any]) -> Any:
    """Run a recursive walk, written as generators, on an explicit stack.

    Where a recursive function would call itself, a walk step yields
    the sub-walk's generator instead and is sent the sub-walk's return
    value.  Steps run in exactly the order the recursion would run
    them, but the depth is bounded by memory rather than by the
    interpreter's recursion limit — which matters for walks over a
    cover's solutions: a single-fanout chain is one subject tree, so
    its covers have no depth bound.
    """
    stack = [walk]
    value = None
    while True:
        try:
            sub = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            value = done.value
        else:
            stack.append(sub)
            value = None


#: What one cover-memo store adds to :attr:`Matcher.memo_nbytes` beside
#: its record's arrays: a fixed part (the entry, the signature, the
#: tree's shared references) and a part per solution of the stored
#: cover, fitted like the matcher's own weights.
_STORE_NBYTES = 7500
_SOLUTION_NBYTES = 460


class CoverMemo:
    """Cross-K covering-DP reuse: re-score stored covers at a new K.

    Fix a subject tree and every DP input other than K — the match
    lists, the member positions, the boundary figures of every shared
    leaf any candidate can reference; together the *signature*.  Then
    K enters the DP only through ``objective.cost``: a candidate's
    primary term (AREA, or its arrival in delay mode) and scored WIRE
    are functions of the choices made below it.  Each DP therefore
    leaves a :class:`CoverRecord` of those figures and of its choices,
    and :meth:`CoverRecord.reproduces` re-scores them at another K with
    one segmented argmin and the two conversion comparisons.  When
    every choice holds, the DP at that K would rebuild the stored cover
    bit for bit, so it is reused; no envelope or tie argument is
    needed.

    The memo keeps, per tree and signature, the ``(record, cover)`` of
    every K the DP or a re-score settled.  A lookup at a settled K hits
    outright; otherwise it re-scores the covers of the nearest settled
    Ks below and above, in that order, and files a reproduced one under
    its own K too.  Sweeps and the Figure 3 loop walk K upward, so the
    cover just below is the last one mapped, and the DP runs only on
    trees whose choices moved (or whose signature changed because an
    earlier tree's did); bracketing K searches re-score from both sides.

    One memo hangs off each :class:`Matcher` (created by the mapper,
    like the matcher's vertex tables), and each store adds its record's
    and cover's estimated bytes to the matcher's ``memo_nbytes``.  The
    memo itself never queries the matcher — shared-leaf reference sets
    are read from the vertex tables of *peeked* match lists at store
    time, right after a DP ran — and the mapper credits each hit with
    the ``len(tree.members)`` match queries the skipped DP would have
    issued, which keeps ``map.match_queries`` independent of the
    execution plan.
    """

    def __init__(self) -> None:  # noqa: D107
        #: key -> {signature -> {k -> (record, cover)}}.
        self._entries: Dict[Tuple, Dict[Tuple, Dict[float, Tuple]]] = {}
        #: key -> (sorted members, sorted shared (vertex, phase) refs).
        self._refs: Dict[Tuple, Tuple[List[int], Tuple]] = {}
        self.lookups = 0
        self.hits = 0
        self.stores = 0
        #: Re-scored covers whose choices did not hold at the new K.
        self.rejected = 0

    def probe(self, tree: Tree, materialized: Set[int], matcher: Matcher,
              objective: CoverObjective,
              boundary: BoundaryInfo) -> "_MemoProbe":
        """A lookup/store handle for one ``cover_tree`` call site."""
        mat = frozenset(v for v in tree.members
                        if v in materialized and v != tree.root)
        key = (tree.root, tree.frozen_members(), mat)
        return _MemoProbe(self, key, matcher, objective, boundary)


class _MemoProbe:
    """Binds a :class:`CoverMemo` to one tree, objective and boundary.

    The probe is built *before* the tree's cover is committed, so its
    signature captures the DP inputs exactly as the DP (or the reused
    cover) saw them.
    """

    __slots__ = ("memo", "key", "matcher", "objective", "boundary", "_sig")

    def __init__(self, memo: CoverMemo, key: Tuple, matcher: Matcher,
                 objective: CoverObjective,
                 boundary: BoundaryInfo) -> None:  # noqa: D107
        self.memo = memo
        self.key = key
        self.matcher = matcher
        self.objective = objective
        self.boundary = boundary
        self._sig: Optional[Tuple] = None

    def _is_shared(self, v: int) -> bool:
        return v not in self.key[1] or v in self.key[2]

    def _signature(self) -> Optional[Tuple]:
        """Every DP input other than K, as one hashable tuple.

        ``None`` until the shared-reference set of this tree is known
        (it is derived on the first store; see :meth:`_derive_refs`).
        """
        if self._sig is None:
            cached = self.memo._refs.get(self.key)
            if cached is None:
                return None
            members_sorted, refs = cached
            boundary = self.boundary
            positions = boundary.positions
            obj = self.objective
            shared_vals = []
            for u, ph in refs:
                vals: Tuple[Any, ...] = (
                    u, ph, boundary.position(u), boundary.wire(u),
                    boundary.arrival(u))
                if ph == NEG:
                    vals += (boundary.has_complement(u),)
                shared_vals.append(vals)
            self._sig = (obj.mode, obj.transitive_wire, obj.load_estimate,
                         positions.metric,
                         tuple(positions.get(v) for v in members_sorted),
                         tuple(shared_vals))
        return self._sig

    def lookup(self) -> Optional[TreeCover]:
        """The reusable cover for this tree at ``objective.k``, if any."""
        memo = self.memo
        memo.lookups += 1
        sig = self._signature()
        by_sig = memo._entries.get(self.key) if sig is not None else None
        entries = by_sig.get(sig) if by_sig else None
        if not entries:
            return None
        k = self.objective.k
        entry = entries.get(k)
        if entry is None:
            below = max((x for x in entries if x < k), default=None)
            above = min((x for x in entries if x > k), default=None)
            tried = None
            for near in (below, above):
                if near is None or entries[near] is tried:
                    continue
                tried = entries[near]
                if tried[0].reproduces(self.objective):
                    entry = entries[k] = tried
                    break
                memo.rejected += 1
            if entry is None:
                return None
        memo.hits += 1
        return entry[1]

    def store(self, cover: TreeCover) -> None:
        """Record a freshly computed cover at ``objective.k``."""
        memo = self.memo
        if self.key not in memo._refs:
            refs = self._derive_refs()
            if refs is None:  # pragma: no cover - defensive
                return
            memo._refs[self.key] = refs
            self._sig = None
        sig = self._signature()
        if sig is None:  # pragma: no cover - defensive
            return
        entries = memo._entries.setdefault(self.key, {}).setdefault(sig, {})
        entries[self.objective.k] = (cover.record, cover)
        memo.stores += 1
        self.matcher.memo_nbytes += (cover.record.nbytes + _STORE_NBYTES
                                     + _SOLUTION_NBYTES * len(cover.solutions))

    def _derive_refs(self) -> Optional[Tuple[List[int], Tuple]]:
        """Shared-leaf references of *any* candidate match of the tree.

        Read from the members' vertex tables, whose sorted leaf codes
        ``2 * u + phase`` list every reference of their match lists.
        The match lists are peeked from the matcher's memo (populated
        by the DP that just ran, which also built the tables) —
        peeking instead of querying keeps the matcher's hit/miss
        counters, and with them ``map.match_queries``, untouched.
        Losing candidates matter too: a boundary change at a leaf only
        a losing match references can flip the argmin, so the
        signature must cover every reference.
        """
        frozen = self.key[1]
        members_sorted = sorted(frozen)
        codes = []
        for v in members_sorted:
            matches = self.matcher.peek(v, frozen)
            if matches is None:  # pragma: no cover - defensive
                return None
            codes.append(_vertex_table(self.matcher, v, frozen,
                                       matches).codes)
        shared = [(code >> 1, bool(code & 1))
                  for code in np.unique(np.concatenate(codes)).tolist()
                  if self._is_shared(code >> 1)]
        return (members_sorted, tuple(shared))


def cover_tree(network: BaseNetwork, tree: Tree, matcher: Matcher,
               library: CellLibrary, objective: CoverObjective,
               boundary: BoundaryInfo,
               materialized: Set[int]) -> TreeCover:
    """Cover one subject tree bottom-up; returns the full DP table and
    its :class:`CoverRecord`.

    ``materialized`` lists vertices whose signal exists as a net even if
    they are members of this tree (multi-fanout absorption); the root
    itself is excluded from that treatment since this call is what
    materializes it.  The array DP is bit-identical to the per-match
    scalar DP of :func:`_cover_reference`, record included.
    """
    return _cover_vector(network, tree, matcher, library, objective,
                         boundary, materialized)


def _cover_reference(network: BaseNetwork, tree: Tree, matcher: Matcher,
                     library: CellLibrary, objective: CoverObjective,
                     boundary: BoundaryInfo,
                     materialized: Set[int]) -> TreeCover:
    """The per-match scalar DP (the oracle :func:`_cover_vector` must
    match)."""
    members = tree.members
    root = tree.root
    inv = library.inverter
    positions = boundary.positions

    def is_shared(v: int) -> bool:
        """Leaf refs to these vertices use the existing net."""
        return v not in members or (v in materialized and v != root)

    solutions: Dict[Tuple[int, bool], Solution] = {}

    def leaf_solution(vertex: int, phase: bool) -> Solution:
        """Cost of supplying (phase of) a signal at a match leaf."""
        if is_shared(vertex):
            pos = boundary.position(vertex)
            arrival = boundary.arrival(vertex)
            # Paper-mode wire restarts at tree boundaries (the signal's
            # wire is charged to its own tree); the transitive variant
            # carries the committed figure across.
            wire_t = boundary.wire(vertex)
            if phase == POS:
                return Solution(cost=0.0, area=0.0, wire1=0.0, wire=0.0,
                                wire_transitive=wire_t, arrival=arrival,
                                com=pos, match=None)
            # A shared inverter realises the complement at the signal's
            # location; the netlist builder dedupes these per net, so
            # its area is charged only while the net does not exist yet.
            inv_area = 0.0 if boundary.has_complement(vertex) else inv.area
            arrival_neg = arrival + inv.delay(objective.load_estimate)
            return Solution(
                cost=objective.cost(inv_area, 0.0, arrival_neg),
                area=inv_area, wire1=0.0, wire=0.0,
                wire_transitive=wire_t,
                arrival=arrival_neg,
                com=pos, match=None, inv_source_phase=POS)
        sol = solutions.get((vertex, phase))
        if sol is None:
            raise MappingError(
                f"no solution for internal vertex {vertex} phase {phase}")
        return sol

    by_area = objective.mode == "area"
    record = _RecordBuilder()
    frozen = tree.frozen_members()
    for v in sorted(members):
        cand: Dict[bool, Optional[Solution]] = {POS: None, NEG: None}
        best: Dict[bool, Optional[int]] = {POS: None, NEG: None}
        primary: List[float] = []
        wire: List[float] = []
        matches = matcher.matches_in_tree(v, frozen)
        for phase in (POS, NEG):
            for i, match in enumerate(matches[phase]):
                sol = _evaluate(match, v, objective, positions,
                                leaf_solution)
                primary.append(sol.area if by_area else sol.arrival)
                wire.append(_wire_for_mode(sol, objective))
                if cand[phase] is None or sol.cost < cand[phase].cost:
                    cand[phase] = sol
                    best[phase] = i
        if primary:
            converted = _apply_conversions(cand, inv, objective)
            record.vertex(np.array(primary, dtype=float),
                          np.array(wire, dtype=float), len(matches[POS]),
                          best, converted)
        for phase in (POS, NEG):
            if cand[phase] is not None:
                solutions[(v, phase)] = cand[phase]
    if (root, POS) not in solutions:
        raise MappingError(f"tree rooted at {root} has no positive cover")
    return TreeCover(tree, solutions, record.finish(
        _inv_term(inv, objective)))


def _wire_for_mode(sol: Solution, objective: CoverObjective) -> float:
    """The wire figure the objective scores (paper vs transitive)."""
    if objective.transitive_wire:
        return sol.wire_transitive
    return sol.wire


def _inv_term(inv, objective: CoverObjective) -> float:
    """What a phase conversion adds to the objective's primary term."""
    if objective.mode == "area":
        return inv.area
    return inv.delay(objective.load_estimate)


def _apply_conversions(cand: Dict[bool, Optional[Solution]], inv,
                       objective: CoverObjective) -> Tuple[bool, bool]:
    """Inverter phase conversions, applied to both phases in place.

    A conversion always chains from the opposite phase's *match-based*
    best, never from another conversion — this keeps realisation
    acyclic.  Returns whether a conversion won into POS and into NEG.
    """
    match_based = dict(cand)
    won = {POS: False, NEG: False}
    for phase in (POS, NEG):
        source = match_based[not phase]
        if source is None:
            continue
        arrival = source.arrival + inv.delay(objective.load_estimate)
        converted = Solution(
            cost=objective.cost(source.area + inv.area,
                                _wire_for_mode(source, objective),
                                arrival),
            area=source.area + inv.area,
            wire1=source.wire1,
            wire=source.wire,
            wire_transitive=source.wire_transitive,
            arrival=arrival,
            com=source.com,
            match=None,
            inv_source_phase=not phase,
            inv_source=source)
        if cand[phase] is None or converted.cost < cand[phase].cost:
            cand[phase] = converted
            won[phase] = True
    return won[POS], won[NEG]


#: Widest zero-padded consumed-set row whose sum reproduces the
#: reference's ``mean`` bit for bit.  numpy adds fewer than 8 values in
#: sequence, so trailing zero pads change nothing; from 8 values on it
#: adds them pairwise in 8 interleaved lanes, where pads would change
#: which values meet.  Wider consumed sets are averaged at their exact
#: width instead.
_PAD_SUM_MAX = 7


class _VertexTable:
    """Padded match descriptors for one (vertex, tree) DP step.

    Both phases' candidate lists are concatenated (POS first) so a
    single batched evaluation scores every match at the vertex; the
    per-phase winner is the first-occurrence argmin over each slice,
    which reproduces the reference scan's strict-``<`` selection.
    Per-match lists are padded to the widest match, so one DP step is
    one fixed set of whole-table array operations:

    * ``leaf_code`` ``(m, kmax)``: leaf refs ``(u, phase)`` as
      ``2 * u + phase`` in pin order; pads are ``-1``, the DP's
      neutral leaf row, and ``leaf_real`` is False there;
    * ``consumed`` ``(m, min(cmax, _PAD_SUM_MAX))``: the consumed set in
      ``list(frozenset)`` order (the reference centroid's order);
      pads are ``-1``, a zero position, and ``consumed_n`` holds the
      set sizes;
    * ``wide``: the rows whose consumed set is wider than
      ``_PAD_SUM_MAX``, as ``(rows, ids)`` groups of one size each;
    * ``codes``: the sorted unique leaf codes.

    Tables depend only on the match lists (never on the objective or
    the positions), so they are cached on the matcher under the same
    cone key as the match lists (one table per shared list) and
    amortize across K points and overlapping trees.
    """

    __slots__ = ("matches", "pos_count", "m", "cell_area", "leaf_code",
                 "leaf_real", "consumed", "consumed_n", "wide", "codes",
                 "_delay_cache")

    def __init__(self, matches_by_phase: Dict[bool, List[Match]]):  # noqa: D107
        matches = list(matches_by_phase[POS]) + list(matches_by_phase[NEG])
        self.matches = matches
        self.pos_count = len(matches_by_phase[POS])
        self.m = len(matches)
        self._delay_cache: Dict[float, np.ndarray] = {}
        self.cell_area = np.array([mt.cell.area for mt in matches],
                                  dtype=float)
        codes = [2 * u + ph for mt in matches for _, (u, ph) in mt.leaves]
        self.leaf_code = _padded(codes, [len(mt.leaves) for mt in matches])
        self.leaf_real = self.leaf_code >= 0
        self.codes = np.array(sorted(set(codes)), dtype=np.intp)
        # ``list(frozenset)`` order is what the reference centroid
        # iterates; capture it verbatim so row sums agree bitwise.
        sizes = [len(mt.consumed) for mt in matches]
        consumed = _padded([u for mt in matches for u in mt.consumed], sizes)
        self.consumed = np.ascontiguousarray(consumed[:, :_PAD_SUM_MAX])
        self.consumed_n = np.array(sizes, dtype=float)
        self.wide = []
        for size in sorted({n for n in sizes if n > _PAD_SUM_MAX}):
            rows = np.flatnonzero(self.consumed_n == size)
            self.wide.append((rows, consumed[rows, :size]))

    def delays(self, load: float) -> np.ndarray:
        """Per-match cell delay under the objective's load estimate."""
        d = self._delay_cache.get(load)
        if d is None:
            d = np.array([mt.cell.delay(load) for mt in self.matches],
                         dtype=float)
            self._delay_cache[load] = d
        return d


def _padded(flat: List[int], sizes: List[int]) -> np.ndarray:
    """Consecutive runs of ``flat`` as rows of a ``-1``-padded matrix."""
    lengths = np.array(sizes, dtype=np.intp)
    out = np.full((len(sizes), max(sizes, default=0)), -1, dtype=np.intp)
    out[np.arange(out.shape[1]) < lengths[:, None]] = flat
    return out


def _vertex_table(matcher: Matcher, vertex: int, frozen,
                  matches_by_phase: Dict[bool, List[Match]]) -> _VertexTable:
    cache = getattr(matcher, "_vertex_tables", None)
    if cache is None:
        cache = {}
        matcher._vertex_tables = cache
    key = matcher.cone_key(vertex, frozen)
    table = cache.get(key)
    if table is None:
        table = _VertexTable(matches_by_phase)
        cache[key] = table
    return table


def _cover_vector(network: BaseNetwork, tree: Tree, matcher: Matcher,
                  library: CellLibrary, objective: CoverObjective,
                  boundary: BoundaryInfo,
                  materialized: Set[int]) -> TreeCover:
    """Array DP over the tree: one padded batch per vertex.

    Evaluates every candidate match at a vertex with one fixed set of
    numpy ops over the vertex's :class:`_VertexTable`, instead of one
    `_evaluate` call per match.  All floating-point summation orders
    reproduce the reference engine's exactly (left-to-right leaf sums,
    ``mean`` over the consumed set in set-iteration order), and every
    pad is neutral, so the result is bit-identical.
    """
    members = tree.members
    root = tree.root
    inv = library.inverter
    positions = boundary.positions
    X, Y = positions.arrays()
    euclid = positions.metric == EUCLIDEAN
    nv = len(positions)
    load = objective.load_estimate
    inv_delay = inv.delay(load)

    # Positions plus a trailing zero, the consumed-set pad.
    XY = np.zeros((2, nv + 1))
    XY[0, :nv] = X
    XY[1, :nv] = Y
    # Leaf values, one row per leaf code 2·u + phase (NEG=0, POS=1)
    # with columns area, wire, transitive wire, arrival, com x, com y;
    # the last row is the leaf pad: zero sums, an arrival below any
    # real one (every match has a leaf) and a com the DP masks out.
    L = np.empty((2 * nv + 1, 6))
    L[-1] = (0.0, 0.0, 0.0, -np.inf, 0.0, 0.0)
    ok = np.zeros(2 * nv + 1, dtype=bool)
    ok[-1] = True

    def is_shared(v: int) -> bool:
        return v not in members or (v in materialized and v != root)

    def fill_shared(code: int) -> None:
        """Boundary values for a leaf reference to a materialized net."""
        u, phase = code >> 1, bool(code & 1)
        if not is_shared(u):
            raise MappingError(
                f"no solution for internal vertex {u} phase {phase}")
        pos = boundary.position(u)
        arrival = boundary.arrival(u)
        if phase == POS:
            area = 0.0
        else:
            area = 0.0 if boundary.has_complement(u) else inv.area
            arrival = arrival + inv_delay
        L[code] = (area, 0.0, boundary.wire(u), arrival, pos[0], pos[1])
        ok[code] = True

    by_area = objective.mode == "area"
    record = _RecordBuilder()
    solutions: Dict[Tuple[int, bool], Solution] = {}
    frozen = tree.frozen_members()
    for v in sorted(members):
        matches = matcher.matches_in_tree(v, frozen)
        table = _vertex_table(matcher, v, frozen, matches)
        cand: Dict[bool, Optional[Solution]] = {POS: None, NEG: None}
        if table.m:
            codes = table.codes
            missing = ~ok[codes]
            if missing.any():
                for code in codes[missing].tolist():
                    fill_shared(code)
            leaf = L.take(table.leaf_code, axis=0)     # (m, kmax, 6)
            com = (XY.take(table.consumed, axis=1).sum(axis=2)
                   / table.consumed_n)
            for rows, ids in table.wide:
                com[0, rows] = X[ids].mean(axis=1)
                com[1, rows] = Y[ids].mean(axis=1)
            delta = com.T[:, None, :] - leaf[:, :, 4:]
            if euclid:
                dist = np.hypot(delta[:, :, 0], delta[:, :, 1])
            else:
                np.abs(delta, out=delta)
                dist = delta[:, :, 0] + delta[:, :, 1]
            dist *= table.leaf_real
            amax = leaf[:, :, 3].max(axis=1)
            # Sum leaf area, wire, transitive wire and distance (in the
            # arrival column, now spent) column by column, left to
            # right, as the reference's ``sum`` does.
            leaf[:, :, 3] = dist
            sums = leaf[:, 0, :4]
            for j in range(1, leaf.shape[1]):
                sums = sums + leaf[:, j, :4]
            area = table.cell_area + sums[:, 0]
            wire2 = sums[:, 2] if objective.transitive_wire else sums[:, 1]
            arr = amax + table.delays(load)
            wire = sums[:, 3] + wire2
            cost = objective.cost(area, wire, arr)

            def winner(i: int) -> Solution:
                _, wire2, wire2_t, wire1 = sums[i].tolist()
                return Solution(
                    cost=cost.item(i), area=area.item(i),
                    wire1=wire1, wire=wire1 + wire2,
                    wire_transitive=wire1 + wire2_t,
                    arrival=arr.item(i),
                    com=(com.item(0, i), com.item(1, i)),
                    match=table.matches[i])

            pc = table.pos_count
            best: Dict[bool, Optional[int]] = {POS: None, NEG: None}
            if pc:
                best[POS] = int(cost[:pc].argmin())
                cand[POS] = winner(best[POS])
            if table.m > pc:
                best[NEG] = int(cost[pc:].argmin())
                cand[NEG] = winner(pc + best[NEG])
            converted = _apply_conversions(cand, inv, objective)
            record.vertex(area if by_area else arr, wire, pc, best,
                          converted)
        for phase in (POS, NEG):
            sol = cand[phase]
            if sol is None:
                continue
            solutions[(v, phase)] = sol
            if not is_shared(v):
                code = 2 * v + phase
                L[code] = (sol.area, sol.wire, sol.wire_transitive,
                           sol.arrival, sol.com[0], sol.com[1])
                ok[code] = True
    if (root, POS) not in solutions:
        raise MappingError(f"tree rooted at {root} has no positive cover")
    return TreeCover(tree, solutions, record.finish(
        _inv_term(inv, objective)))


def _evaluate(match: Match, vertex: int, objective: CoverObjective,
              positions: PositionMap,
              leaf_solution: Callable[[int, bool], Solution],
              load: Optional[float] = None) -> Solution:
    """Score one candidate match (Eqs. 1–5)."""
    leaf_sols: List[Solution] = []
    for _, (u, phase) in match.leaves:
        leaf_sols.append(leaf_solution(u, phase))
    area = match.cell.area + sum(s.area for s in leaf_sols)
    com = positions.centroid(match.consumed)
    wire1 = sum(positions.dist(com, s.com) for s in leaf_sols)
    # Eq. 3: WIRE2 is the fanins' *stored* wire cost — the full WIRE of
    # each fanin's chosen solution, not just its one-level WIRE1 — so
    # wire accumulates through deep trees instead of being forgotten
    # two levels down.
    wire2 = sum(s.wire for s in leaf_sols)
    wire = wire1 + wire2
    wire_transitive = wire1 + sum(s.wire_transitive for s in leaf_sols)
    arrival = (max((s.arrival for s in leaf_sols), default=0.0)
               + match.cell.delay(load if load is not None
                                  else objective.load_estimate))
    wire_scored = wire_transitive if objective.transitive_wire else wire
    cost = objective.cost(area, wire_scored, arrival)
    return Solution(cost=cost, area=area, wire1=wire1, wire=wire,
                    wire_transitive=wire_transitive, arrival=arrival,
                    com=com, match=match)
