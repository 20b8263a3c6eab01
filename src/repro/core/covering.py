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

import bisect as _bisect
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

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
    """The covering result for one subject tree."""

    def __init__(self, tree: Tree,
                 solutions: Dict[Tuple[int, bool], Solution]):  # noqa: D107
        self.tree = tree
        self.solutions = solutions

    def root_solution(self) -> Solution:
        """The committed solution: the root in positive phase."""
        return self.solutions[(self.tree.root, POS)]


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


def _assignment_fingerprint(cover: TreeCover,
                            is_shared: Callable[[int], bool]) -> Tuple:
    """Canonical description of the realized assignment of a cover.

    Serialises the chosen-solution tree reachable from the root's
    positive phase: match choices (cell name + pin-to-leaf bindings),
    inverter phase conversions, and shared-leaf references (the
    terminals).  Everything the netlist builder commits — instances,
    connectivity, centers of mass, the boundary figures — is a pure
    function of this fingerprint plus the DP-input signature, so two
    covers with equal fingerprints under equal signatures realise
    identically.
    """
    memo: Dict[Tuple[int, bool], Tuple] = {}

    def ref_fp(vertex: int, phase: bool) -> Tuple:
        if is_shared(vertex):
            return ("s", vertex, phase)
        got = memo.get((vertex, phase))
        if got is None:
            got = sol_fp(cover.solutions[(vertex, phase)])
            memo[(vertex, phase)] = got
        return got

    def sol_fp(sol: Solution) -> Tuple:
        if sol.match is None:
            if sol.inv_source is None:
                raise MappingError("conversion solution without a source")
            return ("i", sol_fp(sol.inv_source))
        m = sol.match
        return ("m", m.cell.name, m.phase,
                tuple((pin, ref_fp(u, ph)) for pin, (u, ph) in m.leaves))

    return ref_fp(cover.tree.root, POS)


class CoverMemo:
    """Cross-K covering-DP reuse (the parametric-optimisation memo).

    For a fixed subject tree and fixed DP inputs other than K — the
    match lists, the member positions, the boundary figures of every
    shared leaf any candidate can reference — the total cost of a full
    cover assignment is *affine in K* (``cost = AREA + K·WIRE``,
    Eq. 5; in delay mode ``arrival + K·WIRE``, equally affine), so the
    DP optimum over assignments is the lower envelope of a family of
    lines: concave, piecewise linear in K.  If the DP returned the
    *same* assignment at K₁ and at K₂ > K₁, that assignment is optimal
    throughout [K₁, K₂] and a probe at any interior K can reuse the
    stored cover without re-running the DP.

    The memo stores, per tree and per DP-input signature, the evaluated
    ``(K, assignment fingerprint, cover)`` triples in K order.  A
    lookup hits when its K was evaluated exactly, or when the two
    bracketing evaluated Ks carry equal fingerprints.  Ascending walks
    (sweeps, the Figure 3 loop) never have a right bracket, so they
    never hit; the memo pays off in the bracketing searches of
    :mod:`repro.core.ksearch`, which probe interior Ks by construction.
    Exact cost ties between *distinct* assignments are the one case the
    affine argument does not pin down; the DP's deterministic scan
    order resolves such ties identically at every K where they hold,
    and the equivalence tests assert memo-on runs bit-identical to
    memo-off runs.

    One memo hangs off each :class:`Matcher` (created by the mapper,
    like the matcher's vertex tables).  The memo itself never queries
    the matcher — shared-leaf reference sets are *peeked* from the
    matcher's match memo at store time, right after a DP ran — and the
    mapper credits each hit with the ``len(tree.members)`` match
    queries the skipped DP would have issued, which keeps
    ``map.match_queries`` independent of the execution plan.
    """

    def __init__(self) -> None:  # noqa: D107
        #: key -> {signature -> [(k, fingerprint, cover)] sorted by k}.
        self._entries: Dict[Tuple, Dict[Tuple, List[Tuple]]] = {}
        #: key -> (sorted members, sorted shared (vertex, phase) refs).
        self._refs: Dict[Tuple, Tuple[List[int], Tuple]] = {}
        self.lookups = 0
        self.hits = 0
        self.stores = 0

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
        self.memo.lookups += 1
        sig = self._signature()
        if sig is None:
            return None
        by_sig = self.memo._entries.get(self.key)
        entries = by_sig.get(sig) if by_sig else None
        if not entries:
            return None
        k = self.objective.k
        ks = [entry[0] for entry in entries]
        i = _bisect.bisect_left(ks, k)
        if i < len(entries) and entries[i][0] == k:
            self.memo.hits += 1
            return entries[i][2]
        if 0 < i < len(entries) and entries[i - 1][1] == entries[i][1]:
            # K is bracketed by two evaluated Ks whose optimal
            # assignments agree — affine costs make that assignment
            # optimal at every K in between.
            self.memo.hits += 1
            return entries[i - 1][2]
        return None

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
        fp = _assignment_fingerprint(cover, self._is_shared)
        entries = memo._entries.setdefault(self.key, {}).setdefault(sig, [])
        k = self.objective.k
        ks = [entry[0] for entry in entries]
        i = _bisect.bisect_left(ks, k)
        if i < len(entries) and entries[i][0] == k:
            return
        entries.insert(i, (k, fp, cover))
        memo.stores += 1

    def _derive_refs(self) -> Optional[Tuple[List[int], Tuple]]:
        """Shared-leaf references of *any* candidate match of the tree.

        Peeked from the matcher's match memo (populated by the DP that
        just ran) — peeking instead of querying keeps the matcher's
        hit/miss counters, and with them ``map.match_queries``,
        untouched.  Losing candidates matter too: a boundary change at
        a leaf only a losing match references can flip the argmin, so
        the signature must cover every reference.
        """
        frozen = self.key[1]
        members_sorted = sorted(frozen)
        shared = set()
        for v in members_sorted:
            matches = self.matcher.peek(v, frozen)
            if matches is None:  # pragma: no cover - defensive
                return None
            for phase in (POS, NEG):
                for m in matches[phase]:
                    for _, (u, ph) in m.leaves:
                        if self._is_shared(u):
                            shared.add((u, ph))
        return (members_sorted, tuple(sorted(shared)))


def cover_tree(network: BaseNetwork, tree: Tree, matcher: Matcher,
               library: CellLibrary, objective: CoverObjective,
               boundary: BoundaryInfo,
               materialized: Set[int]) -> TreeCover:
    """Cover one subject tree bottom-up; returns the full DP table.

    ``materialized`` lists vertices whose signal exists as a net even if
    they are members of this tree (multi-fanout absorption); the root
    itself is excluded from that treatment since this call is what
    materializes it.  The array DP is bit-identical to the per-match
    scalar DP of :func:`_cover_reference`.
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

    def consumable(v: int) -> bool:
        return v in members

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

    frozen = tree.frozen_members()
    order = [v for v in sorted(members)]
    for v in order:
        cand: Dict[bool, Optional[Solution]] = {POS: None, NEG: None}
        matches = matcher.matches_in_tree(v, frozen)
        for phase in (POS, NEG):
            for match in matches[phase]:
                sol = _evaluate(match, v, objective, positions,
                                leaf_solution)
                if sol is not None and (cand[phase] is None
                                        or sol.cost < cand[phase].cost):
                    cand[phase] = sol
        _apply_conversions(cand, inv, objective)
        for phase in (POS, NEG):
            if cand[phase] is not None:
                solutions[(v, phase)] = cand[phase]
    if (root, POS) not in solutions:
        raise MappingError(f"tree rooted at {root} has no positive cover")
    return TreeCover(tree, solutions)


def _wire_for_mode(sol: Solution, objective: CoverObjective) -> float:
    """The wire figure the objective scores (paper vs transitive)."""
    if objective.transitive_wire:
        return sol.wire_transitive
    return sol.wire


def _apply_conversions(cand: Dict[bool, Optional[Solution]], inv,
                       objective: CoverObjective) -> None:
    """Inverter phase conversions, applied to both phases in place.

    A conversion always chains from the opposite phase's *match-based*
    best, never from another conversion — this keeps realisation
    acyclic.
    """
    match_based = dict(cand)
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


class _VertexTable:
    """Flattened match descriptors for one (vertex, tree) DP step.

    Both phases' candidate lists are concatenated (POS first) so a
    single batched evaluation scores every match at the vertex; the
    per-phase winner is the first-occurrence argmin over each slice,
    which reproduces the reference scan's strict-``<`` selection.
    Tables depend only on the match lists (never on the objective or
    the positions), so they are cached on the matcher under the same
    cone key as the match lists (one table per shared list) and
    amortize across K points and overlapping trees.
    """

    __slots__ = ("matches", "pos_count", "m", "cell_area", "leaf_groups",
                 "cons_groups", "leaf_u", "leaf_p", "_delay_cache")

    def __init__(self, matches_by_phase: Dict[bool, List[Match]]):  # noqa: D107
        matches = list(matches_by_phase[POS]) + list(matches_by_phase[NEG])
        self.matches = matches
        self.pos_count = len(matches_by_phase[POS])
        self.m = len(matches)
        self._delay_cache: Dict[float, np.ndarray] = {}
        if not self.m:
            return
        self.cell_area = np.array([mt.cell.area for mt in matches],
                                  dtype=float)
        by_leaves: Dict[int, List[int]] = {}
        by_consumed: Dict[int, List[int]] = {}
        for i, mt in enumerate(matches):
            by_leaves.setdefault(len(mt.leaves), []).append(i)
            by_consumed.setdefault(len(mt.consumed), []).append(i)
        self.leaf_groups = []
        codes = []  # leaf refs (u, p) as u * 2 + p
        for k, idxs in sorted(by_leaves.items()):
            idx = np.array(idxs, dtype=np.intp)
            lu = np.array([[u for _, (u, _) in matches[i].leaves]
                           for i in idxs], dtype=np.intp).reshape(len(idxs), k)
            lp = np.array([[int(ph) for _, (_, ph) in matches[i].leaves]
                           for i in idxs], dtype=np.intp).reshape(len(idxs), k)
            self.leaf_groups.append((k, idx, lu, lp))
            codes.append((2 * lu + lp).ravel())
        self.cons_groups = []
        for s, idxs in sorted(by_consumed.items()):
            idx = np.array(idxs, dtype=np.intp)
            # ``list(frozenset)`` order is what the reference centroid
            # iterates; capture it verbatim so row sums agree bitwise.
            cids = np.array([list(matches[i].consumed) for i in idxs],
                            dtype=np.intp)
            self.cons_groups.append((idx, cids))
        ordered = np.unique(np.concatenate(codes))
        self.leaf_u = ordered // 2
        self.leaf_p = ordered % 2

    def delays(self, load: float) -> np.ndarray:
        """Per-match cell delay under the objective's load estimate."""
        d = self._delay_cache.get(load)
        if d is None:
            d = np.array([mt.cell.delay(load) for mt in self.matches],
                         dtype=float)
            self._delay_cache[load] = d
        return d


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
    """Array DP over the tree: per-vertex batched match evaluation.

    Evaluates every candidate match at a vertex in one batch of numpy
    ops — leaf gathers grouped by leaf count, centroids grouped by
    consumed-set size — instead of one `_evaluate` call per match.  All
    floating-point summation orders reproduce the reference engine's
    exactly (sequential leaf sums, ``mean`` over the consumed set in
    set-iteration order), so the result is bit-identical.
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

    # Leaf value tables, one row per network vertex, one column per
    # phase (NEG=0, POS=1): area, wire, transitive wire, arrival, com.
    L_area = np.empty((nv, 2))
    L_wire = np.empty((nv, 2))
    L_wiret = np.empty((nv, 2))
    L_arr = np.empty((nv, 2))
    L_cx = np.empty((nv, 2))
    L_cy = np.empty((nv, 2))
    L_ok = np.zeros((nv, 2), dtype=bool)

    def is_shared(v: int) -> bool:
        return v not in members or (v in materialized and v != root)

    def fill_shared(u: int, phase: bool) -> None:
        """Boundary values for a leaf reference to a materialized net."""
        if not is_shared(u):
            raise MappingError(
                f"no solution for internal vertex {u} phase {phase}")
        pos = boundary.position(u)
        arrival = boundary.arrival(u)
        wire_t = boundary.wire(u)
        p = int(phase)
        if phase == POS:
            L_area[u, p] = 0.0
            L_arr[u, p] = arrival
        else:
            L_area[u, p] = (0.0 if boundary.has_complement(u)
                            else inv.area)
            L_arr[u, p] = arrival + inv_delay
        L_wire[u, p] = 0.0
        L_wiret[u, p] = wire_t
        L_cx[u, p] = pos[0]
        L_cy[u, p] = pos[1]
        L_ok[u, p] = True

    solutions: Dict[Tuple[int, bool], Solution] = {}
    frozen = tree.frozen_members()
    for v in sorted(members):
        matches = matcher.matches_in_tree(v, frozen)
        table = _vertex_table(matcher, v, frozen, matches)
        cand: Dict[bool, Optional[Solution]] = {POS: None, NEG: None}
        if table.m:
            missing = ~L_ok[table.leaf_u, table.leaf_p]
            if missing.any():
                for u, p in zip(table.leaf_u[missing].tolist(),
                                table.leaf_p[missing].tolist()):
                    fill_shared(u, bool(p))
            m = table.m
            area = np.empty(m)
            wire1 = np.empty(m)
            wire = np.empty(m)
            wire_t = np.empty(m)
            arr = np.empty(m)
            comx = np.empty(m)
            comy = np.empty(m)
            for idx, cids in table.cons_groups:
                comx[idx] = X[cids].mean(axis=1)
                comy[idx] = Y[cids].mean(axis=1)
            delays = table.delays(load)
            for k, idx, lu, lp in table.leaf_groups:
                if k == 0:
                    area[idx] = table.cell_area[idx]
                    wire1[idx] = 0.0
                    wire[idx] = 0.0
                    wire_t[idx] = 0.0
                    arr[idx] = delays[idx]
                    continue
                la = L_area[lu, lp]
                lw = L_wire[lu, lp]
                lt = L_wiret[lu, lp]
                lr = L_arr[lu, lp]
                lx = L_cx[lu, lp]
                ly = L_cy[lu, lp]
                cx = comx[idx]
                cy = comy[idx]
                if euclid:
                    w1 = np.hypot(cx - lx[:, 0], cy - ly[:, 0])
                else:
                    w1 = np.abs(cx - lx[:, 0]) + np.abs(cy - ly[:, 0])
                asum = la[:, 0]
                w2 = lw[:, 0]
                t2 = lt[:, 0]
                amax = lr[:, 0]
                for j in range(1, k):
                    if euclid:
                        d = np.hypot(cx - lx[:, j], cy - ly[:, j])
                    else:
                        d = np.abs(cx - lx[:, j]) + np.abs(cy - ly[:, j])
                    w1 = w1 + d
                    asum = asum + la[:, j]
                    w2 = w2 + lw[:, j]
                    t2 = t2 + lt[:, j]
                    amax = np.maximum(amax, lr[:, j])
                area[idx] = table.cell_area[idx] + asum
                wire1[idx] = w1
                wire[idx] = w1 + w2
                wire_t[idx] = w1 + t2
                arr[idx] = amax + delays[idx]
            wire_scored = wire_t if objective.transitive_wire else wire
            cost = objective.cost(area, wire_scored, arr)

            def winner(i: int) -> Solution:
                return Solution(
                    cost=float(cost[i]), area=float(area[i]),
                    wire1=float(wire1[i]), wire=float(wire[i]),
                    wire_transitive=float(wire_t[i]),
                    arrival=float(arr[i]),
                    com=(float(comx[i]), float(comy[i])),
                    match=table.matches[i])

            if table.pos_count:
                cand[POS] = winner(int(np.argmin(cost[:table.pos_count])))
            if table.m > table.pos_count:
                cand[NEG] = winner(table.pos_count
                                   + int(np.argmin(cost[table.pos_count:])))
        _apply_conversions(cand, inv, objective)
        for phase in (POS, NEG):
            sol = cand[phase]
            if sol is None:
                continue
            solutions[(v, phase)] = sol
            if not is_shared(v):
                p = int(phase)
                L_area[v, p] = sol.area
                L_wire[v, p] = sol.wire
                L_wiret[v, p] = sol.wire_transitive
                L_arr[v, p] = sol.arrival
                L_cx[v, p] = sol.com[0]
                L_cy[v, p] = sol.com[1]
                L_ok[v, p] = True
    if (root, POS) not in solutions:
        raise MappingError(f"tree rooted at {root} has no positive cover")
    return TreeCover(tree, solutions)


def _evaluate(match: Match, vertex: int, objective: CoverObjective,
              positions: PositionMap,
              leaf_solution: Callable[[int, bool], Solution],
              load: Optional[float] = None) -> Optional[Solution]:
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
