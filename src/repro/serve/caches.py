"""Session-scoped caches shared across the jobs of one engine.

One-shot CLI invocations pay the full cold-start tax on every run:
re-import, library pattern rebuild, netlist parse + decomposition,
technology-independent placement, match enumeration, cold route
negotiation.  A :class:`SessionCaches` instance owns everything of that
which is reusable *across* jobs, keyed so that reuse is always sound:

* **Parsed netlists** — content-keyed: a BLIF file keys on the SHA-256
  of its text (two paths with the same content share one parse; an
  edited file re-parses), a generated benchmark on its normalized
  ``name@scale`` spec.  The cached object is the *decomposed*
  :class:`~repro.network.dag.BaseNetwork` plus its source network;
  flow jobs never mutate either.
* **Layouts** — the technology-independent placement and the
  K-independent partition, keyed by (netlist, die, seed, partition
  style): exactly the products :func:`~repro.core.flow.k_sweep`
  hoists out of its per-K loop, hoisted one level further — out of the
  per-job loop.
* **Matchers** — one :class:`~repro.core.matching.Matcher` per
  (netlist, library): its per-(vertex, tree) match memo and the
  :class:`~repro.core.covering.CoverMemo` the mapper hangs off it
  compose across jobs exactly as they do across the K points of one
  sweep.
* **Route pools** — one :class:`~repro.route.router.RouteCache` per
  (netlist, die): jobs warm-start from the last clean snapshot a
  previous job on the *same* die/netlist stored, through the same
  clean-snapshot sharding that keeps parallel sweep rounds
  bit-identical.  A job on a different die or netlist gets its own
  pool entry, so it can never adopt a foreign shard (the grid key
  inside :class:`RouteCache` backstops even hand-constructed misuse).
* **Evaluations** — one :class:`~repro.core.flow.EvalMemo` per
  (netlist, die), the route pool's key: the netlist is mapped once per
  session at each K (while its layout entry stays resident), every
  mapped netlist a job places on that die is placed once per session,
  and re-routed only when the pool's routes changed since it was last
  routed.  Keying by source, never by netlist content alone, keeps each
  memo beside the one pool its whole evaluations can be reused under.

Every cache is a pure speedup: mapping, placement and match results are
deterministic functions of their keys, and route warm starts never
change reported rows — so a warm engine emits byte-identical result
lines to a cold one, bounded or not, disk-backed or not.

Lifecycle
---------
Long sessions cannot grow without bound, so every family is an LRU
store governed by one :class:`CacheBounds`: ``max_entries`` caps each
family's entry count, ``max_bytes`` caps the *estimated* total byte
footprint across all five families (evicting the globally
least-recently-used entry first, whatever family it lives in).
Evictions are counted per family and in total, and the running byte
estimate is exported as the ``serve.cache_bytes`` gauge — both visible
in ``--profile`` and the engine summary.  Because entries are pure
speedups, eviction can never change a result line, only the wall-clock
of a later job that re-misses.

Below the in-memory tier sits an optional
:class:`~repro.serve.persist.PersistentCache` (``--cache-dir``):
layouts are written through on first computation, route pools after
every job that advanced their snapshot, and a *cold* process warm
starts from disk where the version/fingerprint/key guards allow —
stale or corrupt entries are skipped, never adopted (see
:mod:`repro.serve.persist`).  Matchers and evaluation memos live in
memory only.  Memory hit/miss counters are unaffected by the disk
tier: a disk hit is still a memory miss, it just skips the recompute.
"""

from __future__ import annotations

import hashlib
import sys
import types
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..circuits import DEFAULT_SCALE, benchmark
from ..core import EvalMemo, FlowConfig, Matcher, Partition, PositionMap
from ..core.partition import partition as make_partition
from ..io import parse_blif
from ..library.cell import CellLibrary
from ..network.boolnet import BooleanNetwork
from ..network.dag import BaseNetwork
from ..network.decompose import decompose
from ..obs import StatsRegistry
from ..place import Floorplan, place_base_network
from ..route.router import RouteCache, routes_equal
from .persist import PersistentCache

__all__ = ["CacheBounds", "SessionCaches", "approx_nbytes", "die_key",
           "load_source", "source_key"]

#: (width, row height, rows) — everything that distinguishes one die.
DieKey = Tuple[float, float, int]

#: The cache family names, in reporting order.
FAMILIES = ("netlist", "layout", "matcher", "route_pool", "evaluation")


def _benchmark_spec(source: str) -> Tuple[str, float]:
    """(name, scale) of a ``name[@scale]`` source."""
    name, _, scale = source.partition("@")
    return name, float(scale) if scale else DEFAULT_SCALE


def source_key(source: str) -> str:
    """Content key of a job source (BLIF path or ``name[@scale]``)."""
    if source.endswith(".blif"):
        with open(source, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        return f"blif:sha256:{digest}"
    name, scale = _benchmark_spec(source)
    return f"bench:{name.lower()}@{scale:g}"


def load_source(source: str) -> BooleanNetwork:
    """The network of a job source (BLIF path or ``name[@scale]``)."""
    if source.endswith(".blif"):
        with open(source) as handle:
            return parse_blif(handle.read())
    return benchmark(*_benchmark_spec(source))


def die_key(floorplan: Floorplan) -> DieKey:
    """The cache key of a die (grid geometry is derived from these)."""
    return (floorplan.width, floorplan.row_height, floorplan.num_rows)


@dataclass(frozen=True)
class CacheBounds:
    """Size limits for one :class:`SessionCaches` (0 = unbounded).

    ``max_entries`` bounds each family independently (a session may
    hold at most that many netlists, layouts, matchers, route pools and
    evaluation memos *each*); ``max_bytes`` bounds the estimated total
    footprint of all families together.  Both are enforced on insertion
    by evicting least-recently-used entries first.
    """

    max_entries: int = 0
    max_bytes: int = 0

    @property
    def bounded(self) -> bool:
        """Whether any limit is active."""
        return self.max_entries > 0 or self.max_bytes > 0


#: Types the byte estimator never descends into: code objects and the
#: process-wide shared library singleton (counted by nobody — it exists
#: once regardless of cache contents).
_OPAQUE_TYPES: Tuple[type, ...] = (
    type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
    types.MethodType, CellLibrary)


def approx_nbytes(obj: Any, max_visits: int = 200_000) -> int:
    """Estimated deep byte footprint of a cache entry.

    A deterministic, bounded object walk: numpy arrays contribute their
    ``nbytes``, containers and instance ``__dict__``/``__slots__`` are
    descended into (each object counted once), and the walk stops at
    ``max_visits`` objects so a pathological entry cannot stall
    insertion.  Shared sub-objects *between* entries are counted in
    each entry that reaches them — this is an accounting estimate for
    eviction pressure, not an allocator audit.
    """
    seen: set = set()
    stack = [obj]
    total = 0
    visits = 0
    while stack and visits < max_visits:
        item = stack.pop()
        ident = id(item)
        if ident in seen:
            continue
        seen.add(ident)
        visits += 1
        if isinstance(item, _OPAQUE_TYPES):
            continue
        if isinstance(item, np.ndarray):
            total += int(item.nbytes) + 128
            continue
        try:
            total += sys.getsizeof(item)
        except TypeError:  # pragma: no cover - exotic objects
            total += 64
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif not isinstance(item, (str, bytes, bytearray, int, float,
                                   complex, bool, type(None))):
            state = getattr(item, "__dict__", None)
            if state is not None:
                stack.append(state)
            for slot in getattr(type(item), "__slots__", ()):
                value = getattr(item, slot, None)
                if value is not None:
                    stack.append(value)
    return total


class _Entry:
    """One cached value with its recency tick and byte estimates.

    ``base`` is the estimate taken at insertion; ``nbytes`` the current
    one, which :meth:`SessionCaches.sync` refreshes for entries that
    grow after insertion.
    """

    __slots__ = ("value", "tick", "base", "nbytes")

    def __init__(self, value: Any, tick: int, nbytes: int):  # noqa: D107
        self.value = value
        self.tick = tick
        self.base = nbytes
        self.nbytes = nbytes


class SessionCaches:
    """The five cross-job cache families plus lifecycle bookkeeping.

    ``bounds`` activates LRU eviction (see :class:`CacheBounds`);
    ``persist`` attaches the on-disk tier (see
    :class:`~repro.serve.persist.PersistentCache`).  Both default to
    off, which reproduces the unbounded in-memory behaviour exactly.
    """

    def __init__(self, library: CellLibrary,
                 bounds: Optional[CacheBounds] = None,
                 persist: Optional[PersistentCache] = None):  # noqa: D107
        self.library = library
        self.bounds = bounds if bounds is not None else CacheBounds()
        self.persist = persist
        self._families: Dict[str, Dict[Any, _Entry]] = {
            family: {} for family in FAMILIES}
        #: The (grid key, routes dict) last persisted per route-pool key
        #: (or adopted from disk), kept with a disk tier only.  Identity
        #: settles most comparisons (``store()`` rebinds the dict only
        #: when its contents change), and holding the dict pins its id.
        self._route_saved: Dict[Any, Tuple[Any, dict]] = {}
        self._tick = 0
        self._counts: Dict[str, int] = {}
        for family in FAMILIES:
            self._counts[f"{family}_hits"] = 0
            self._counts[f"{family}_misses"] = 0
            self._counts[f"{family}_evictions"] = 0

    # -- the LRU machinery ----------------------------------------------

    def _next_tick(self) -> int:
        self._tick += 1
        return self._tick

    def _get(self, family: str, key: Any) -> Optional[Any]:
        entry = self._families[family].get(key)
        if entry is None:
            self._counts[f"{family}_misses"] += 1
            return None
        entry.tick = self._next_tick()
        self._counts[f"{family}_hits"] += 1
        return entry.value

    def _put(self, family: str, key: Any, value: Any) -> None:
        nbytes = approx_nbytes(value)
        self._families[family][key] = _Entry(value, self._next_tick(),
                                             nbytes)
        if self.bounds.bounded:
            self._enforce_bounds()

    def _evict(self, family: str, key: Any) -> None:
        entry = self._families[family].pop(key)
        if family == "route_pool":
            # A dirty pool's snapshot would otherwise be lost: flush it
            # to the disk tier (when there is one) before letting go.
            self._persist_route_pool(key, entry.value)
            self._route_saved.pop(key, None)
        self._counts[f"{family}_evictions"] += 1

    def _enforce_bounds(self) -> None:
        limit = self.bounds.max_entries
        if limit > 0:
            for family in FAMILIES:
                entries = self._families[family]
                while len(entries) > limit:
                    oldest = min(entries, key=lambda k: entries[k].tick)
                    self._evict(family, oldest)
        limit = self.bounds.max_bytes
        if limit > 0:
            while self.cache_bytes() > limit:
                victim = None  # (tick, family, key)
                for family in FAMILIES:
                    for key, entry in self._families[family].items():
                        if victim is None or entry.tick < victim[0]:
                            victim = (entry.tick, family, key)
                if victim is None:
                    break
                self._evict(victim[1], victim[2])

    def cache_bytes(self) -> int:
        """The current estimated footprint across all families."""
        return sum(entry.nbytes
                   for entries in self._families.values()
                   for entry in entries.values())

    # -- netlists --------------------------------------------------------

    def network(self, source: str) -> Tuple[str, object, BaseNetwork]:
        """(key, source network, decomposed base) for a job source."""
        key = source_key(source)
        cached = self._get("netlist", key)
        if cached is not None:
            network, base = cached
            return key, network, base
        network = load_source(source)
        base = decompose(network)
        self._put("netlist", key, (network, base))
        return key, network, base

    # -- layouts ---------------------------------------------------------

    def layout(self, key: str, base: BaseNetwork, floorplan: Floorplan,
               config: FlowConfig) -> Tuple[PositionMap, Partition]:
        """(positions, partition) for a (netlist, die, config) triple.

        The placement is seeded exactly as the uninjected entry points
        seed it (``config.seed``), so cached layouts are bit-identical
        to freshly computed ones.  On a
        memory miss the disk tier is consulted before recomputing; a
        fresh computation is written through to it.
        """
        lkey = (key, die_key(floorplan), config.seed, config.partition_style)
        cached = self._get("layout", lkey)
        if cached is not None:
            return cached
        stored = self.persist.load("layout", lkey) \
            if self.persist is not None else None
        if stored is not None:
            positions, part = stored
        else:
            positions = place_base_network(base, floorplan,
                                           seed=config.seed)
            part = make_partition(base, config.partition_style,
                                  positions=positions)
            if self.persist is not None:
                self.persist.store("layout", lkey, (positions, part))
        self._put("layout", lkey, (positions, part))
        return positions, part

    # -- matchers --------------------------------------------------------

    def matcher(self, key: str, base: BaseNetwork) -> Matcher:
        """The shared matcher (match memo + cover memo) of a netlist.

        Matchers are memo *carriers*, not memo *contents*: they are
        never persisted — their value is the in-process match/cover
        memos, which rebuild incrementally anyway.  Those memos grow
        with every job; :meth:`sync` keeps the entry's byte estimate in
        step with them.
        """
        cached = self._get("matcher", key)
        if cached is not None:
            return cached
        matcher = Matcher(base, self.library)
        self._put("matcher", key, matcher)
        return matcher

    # -- route pools -----------------------------------------------------

    def route_pool(self, key: str, floorplan: Floorplan) -> RouteCache:
        """The per-(netlist, die) warm-start route cache.

        Distinct dies (or netlists) map to distinct pool entries, so a
        job can never warm-start from a foreign shard; within one
        entry, the flow layer's clean-snapshot rule (only
        zero-violation routings are stored) applies across jobs exactly
        as it does across the K points of one sweep.  A cold pool is
        seeded from the disk tier when a guarded snapshot exists there.
        """
        rkey = (key, die_key(floorplan))
        cached = self._get("route_pool", rkey)
        if cached is not None:
            return cached
        # Inserted empty, like matchers and memos: :meth:`sync` adds
        # the pool's running estimate of the routes it holds.
        cache = RouteCache()
        self._put("route_pool", rkey, cache)
        stored = self.persist.load("route", rkey) \
            if self.persist is not None else None
        if stored is not None:
            cache.install(stored["grid_key"],
                          {sig: [np.asarray(arr) for arr in arrs]
                           for sig, arrs in stored["routes"]})
            # The adopted snapshot is what disk already holds — do not
            # rewrite it until a job advances it.
            self._route_saved[rkey] = (cache.grid_key, cache.routes)
        return cache

    # -- evaluations -----------------------------------------------------

    def evaluation(self, key: str, floorplan: Floorplan) -> EvalMemo:
        """The per-(netlist, die) evaluation memo (the mappings of ``key``
        at each K, and the placements and whole evaluations of the
        netlists mapped from it on that die).

        Keyed like :meth:`route_pool`, so the pool a memo's whole
        evaluations saw is the one its next job routes with.  Never
        persisted; the memo grows with every job and :meth:`sync` keeps
        the entry's byte estimate in step with it.
        """
        ekey = (key, die_key(floorplan))
        cached = self._get("evaluation", ekey)
        if cached is not None:
            return cached
        memo = EvalMemo()
        self._put("evaluation", ekey, memo)
        return memo

    def _persist_route_pool(self, rkey: Any, cache: RouteCache) -> None:
        """Write one pool's snapshot through to disk if it advanced.

        "Advanced" means the pool holds other routes than the ones this
        session last persisted (or adopted from disk).
        :meth:`RouteCache.store` keeps the dict when a job re-stores
        equal routes, so the same dict settles it at once; another dict
        is compared by grid key and contents (:func:`routes_equal`), so
        a job whose stores change the routes and then bring them back
        writes nothing.
        """
        if self.persist is None or not cache.routes:
            return
        saved = self._route_saved.get(rkey)
        unchanged = saved is not None and (
            saved[1] is cache.routes
            or saved[0] == cache.grid_key
            and routes_equal(saved[1], cache.routes))
        if not unchanged:
            payload = {"grid_key": cache.grid_key,
                       "routes": sorted((sig, list(arrs)) for sig, arrs
                                        in cache.routes.items())}
            if not self.persist.store("route", rkey, payload):
                return
        self._route_saved[rkey] = (cache.grid_key, cache.routes)

    def sync(self) -> None:
        """Refresh the byte estimates of entries that grew, and flush
        advanced route-pool snapshots to the disk tier.

        The engine calls this after every job.  Three families *grow*
        after insertion, so their accounting is brought up to date here
        rather than on some later, unrelated access: matchers fill their
        match memos, evaluation memos keep mappings, placements and
        routings, and route pools take clean snapshots from the flow
        layer (or a seed from disk).  Each keeps a running
        ``memo_nbytes`` estimate, which is added to the insertion-time
        walk, so a filled entry is never re-walked.
        """
        for family in ("matcher", "route_pool", "evaluation"):
            for entry in self._families[family].values():
                entry.nbytes = entry.base + entry.value.memo_nbytes
        if self.persist is not None:
            for rkey, entry in self._families["route_pool"].items():
                self._persist_route_pool(rkey, entry.value)
        if self.bounds.bounded:
            self._enforce_bounds()

    @property
    def route_pool_keys(self) -> Tuple[Tuple[str, DieKey], ...]:
        """The (netlist, die) keys currently pooled (isolation tests)."""
        return tuple(self._families["route_pool"])

    # -- reporting -------------------------------------------------------

    def stats(self) -> StatsRegistry:
        """The hit/miss/eviction tallies, sizes and disk-tier counters
        as ``serve.*`` stats (see the module docstring for semantics).

        Tallies are ``work`` (they vary with the execution plan); entry
        counts are ``metric`` entries, which sum when the registries of
        disjoint chain-local caches merge; the byte estimate is the
        ``serve.cache_bytes`` gauge.
        """
        registry = StatsRegistry()
        for name, value in self._counts.items():
            registry.work(f"serve.{name}", value)
        for family in FAMILIES:
            registry.metric(f"serve.{family}_entries",
                            len(self._families[family]))
        registry.work("serve.evictions", sum(
            self._counts[f"{family}_evictions"] for family in FAMILIES))
        registry.gauge("serve.cache_bytes", self.cache_bytes())
        persist = self.persist.counters() if self.persist is not None \
            else {"persist_hits": 0, "persist_misses": 0,
                  "persist_skipped": 0, "persist_writes": 0}
        for name, value in persist.items():
            registry.work(f"serve.{name}", value)
        return registry
