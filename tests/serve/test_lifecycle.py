"""Tests for cache lifecycle: LRU bounds, eviction arithmetic, sizing.

The fast tests drive the cheap ``route_pool`` family (a miss allocates
an empty :class:`RouteCache` — no placement or routing) and the
white-box ``_put`` path with synthetic numpy payloads, so a 100-access
mixed stream runs in milliseconds; one engine-level test then checks
that bounded caches change nothing but the wall clock.
"""

import numpy as np
import pytest

from repro.circuits import benchmark
from repro.core import FlowConfig, Matcher, area_congestion, map_network
from repro.core.flow import PAPER_K_VALUES
from repro.core.partition import partition as make_partition
from repro.library import CORELIB018
from repro.network import decompose
from repro.place import Floorplan
from repro.place.placer import place_base_network
from repro.serve import CacheBounds, Job, ServeEngine, SessionCaches
from repro.serve.caches import FAMILIES, approx_nbytes


def _mixed_keys(n):
    """A 100-job-style mixed stream of (netlist, die) route-pool keys.

    Cycles 10 netlists over 3 dies with a skewed revisit pattern, so
    the stream has genuine hits, misses and re-misses after eviction.
    """
    keys = []
    for i in range(n):
        net = f"bench:n{i % 10}@0.01"
        rows = 12 + (i % 3)
        keys.append((net, Floorplan.from_rows(rows)))
        if i % 4 == 0:  # revisit the hottest key
            keys.append(("bench:n0@0.01", Floorplan.from_rows(12)))
    return keys


class TestEntryBounds:
    def test_100_job_mixed_stream_respects_entry_bound(self):
        bounds = CacheBounds(max_entries=8)
        caches = SessionCaches(CORELIB018, bounds=bounds)
        keys = _mixed_keys(100)
        for net, floorplan in keys:
            caches.route_pool(net, floorplan)
            assert len(caches.route_pool_keys) <= 8
        counters = caches.stats()
        accesses = len(keys)
        # hits + misses == accesses; inserts == misses; whatever was
        # inserted is either still resident or was evicted.
        assert counters["route_pool_hits"] + \
            counters["route_pool_misses"] == accesses
        assert counters["route_pool_misses"] == \
            counters["route_pool_entries"] + \
            counters["route_pool_evictions"]
        assert counters["route_pool_evictions"] > 0
        assert counters["evictions"] == counters["route_pool_evictions"]

    def test_unbounded_never_evicts(self):
        caches = SessionCaches(CORELIB018)
        for net, floorplan in _mixed_keys(100):
            caches.route_pool(net, floorplan)
        assert caches.stats()["evictions"] == 0

    def test_lru_evicts_least_recently_used(self):
        caches = SessionCaches(CORELIB018, bounds=CacheBounds(max_entries=2))
        f = Floorplan.from_rows(12)
        caches.route_pool("bench:a@1", f)
        caches.route_pool("bench:b@1", f)
        caches.route_pool("bench:a@1", f)     # refresh a
        caches.route_pool("bench:c@1", f)     # must evict b, not a
        keys = {net for net, _die in caches.route_pool_keys}
        assert keys == {"bench:a@1", "bench:c@1"}


class TestByteBounds:
    def test_byte_bound_evicts_globally_oldest(self):
        bounds = CacheBounds(max_bytes=64 * 1024)
        caches = SessionCaches(CORELIB018, bounds=bounds)
        for i in range(20):
            caches._put("layout", f"k{i}", np.zeros(4096))  # ~32 KiB each
            assert caches.cache_bytes() <= bounds.max_bytes
        counters = caches.stats()
        assert counters["layout_evictions"] == 20 - \
            counters["layout_entries"]
        # The survivors are exactly the most recent insertions.
        survivors = set(caches._families["layout"])
        assert survivors == {f"k{19 - i}" for i in range(len(survivors))}
        assert survivors

    def test_byte_bound_spans_families(self):
        caches = SessionCaches(CORELIB018,
                               bounds=CacheBounds(max_bytes=64 * 1024))
        caches._put("layout", "old", np.zeros(4096))
        caches._put("matcher", "new", np.zeros(4096))
        caches._put("route_pool", "newer", np.zeros(4096))
        # 96 KiB total: the globally oldest entry goes first.
        assert "old" not in caches._families["layout"]
        assert caches.stats()["layout_evictions"] == 1

    def test_counters_report_cache_bytes(self):
        caches = SessionCaches(CORELIB018)
        assert caches.stats()["cache_bytes"] == 0
        caches._put("layout", "k", np.zeros(1024))
        assert caches.stats()["cache_bytes"] >= 8192

    def test_stats_kinds(self):
        caches = SessionCaches(CORELIB018,
                               bounds=CacheBounds(max_entries=1))
        caches._put("layout", "a", np.zeros(8))
        caches._put("layout", "b", np.zeros(8))
        stats = caches.stats()
        assert stats["serve.evictions"] == 1
        assert stats.kind("serve.evictions") == "work"
        assert stats.kind("serve.cache_bytes") == "gauge"
        assert stats["serve.cache_bytes"] > 0


class TestGrowingMatchers:
    """Matchers fill their memos after insertion; ``sync`` accounts it."""

    @pytest.fixture(scope="class")
    def base(self):
        return decompose(benchmark("spla", 0.01))

    def test_sync_tracks_matcher_growth(self, base):
        caches = SessionCaches(CORELIB018)
        matcher = caches.matcher("k", base)
        empty = caches.cache_bytes()
        map_network(base, CORELIB018, matcher=matcher)
        assert matcher.memo_nbytes > 0
        assert caches.cache_bytes() == empty  # not yet re-accounted
        caches.sync()
        assert caches.cache_bytes() == empty + matcher.memo_nbytes

    @pytest.fixture(scope="class")
    def placed(self, base):
        """Base positions and the K-independent partition of a K loop."""
        positions = place_base_network(base, Floorplan.from_rows(12))
        return positions, make_partition(base, "placement",
                                         positions=positions)

    @staticmethod
    def _map_at(base, placed, k, matcher):
        positions, part = placed
        return map_network(base, CORELIB018, area_congestion(k),
                           partition_style="placement", positions=positions,
                           partition=part, matcher=matcher)

    def test_running_estimate_tracks_an_object_walk(self, base, placed):
        """The estimate stays within 2x of an object walk after the
        first K point and after the paper's whole 14-point schedule,
        when stored covers have grown the matcher's cover memo."""
        matcher = Matcher(base, CORELIB018)
        empty = approx_nbytes(matcher, max_visits=10**7)
        for i, k in enumerate(PAPER_K_VALUES):
            self._map_at(base, placed, k, matcher)
            if i in (0, len(PAPER_K_VALUES) - 1):
                walked = approx_nbytes(matcher, max_visits=10**7) - empty
                assert 0.5 * walked <= matcher.memo_nbytes <= 2.0 * walked

    def test_storing_covers_grows_the_estimate(self, base, placed):
        """A K point that makes no new match query but stores covers in
        the cover memo still grows the estimate."""
        matcher = Matcher(base, CORELIB018)
        self._map_at(base, placed, 0.0, matcher)
        before, stores = matcher.memo_nbytes, matcher._cover_memo.stores
        self._map_at(base, placed, 1.0, matcher)
        assert matcher._cover_memo.stores > stores
        assert matcher.memo_nbytes > before

    def test_bounded_session_evicts_a_grown_matcher(self, base):
        limit = 2 * approx_nbytes(Matcher(base, CORELIB018))
        caches = SessionCaches(CORELIB018,
                               bounds=CacheBounds(max_bytes=limit))
        matcher = caches.matcher("k", base)
        map_network(base, CORELIB018, matcher=matcher)
        assert caches.stats()["matcher_entries"] == 1
        assert approx_nbytes(matcher) > limit
        caches.sync()
        counters = caches.stats()
        assert counters["matcher_evictions"] == 1
        assert counters["matcher_entries"] == 0
        assert counters["cache_bytes"] <= limit


class TestApproxNbytes:
    def test_arrays_dominate(self):
        small = approx_nbytes({"x": 1})
        big = approx_nbytes({"x": np.zeros(100_000)})
        assert big - small >= 800_000

    def test_shared_objects_counted_once_per_entry(self):
        arr = np.zeros(10_000)
        assert approx_nbytes([arr, arr]) < 2 * approx_nbytes([arr])

    def test_library_is_opaque(self):
        assert approx_nbytes(CORELIB018) < 1024

    def test_deterministic(self):
        value = {"a": [np.arange(64), (1, 2.5, "s")], "b": {3, 4}}
        assert approx_nbytes(value) == approx_nbytes(value)


class TestEngineWithBounds:
    #: Three tiny calibrated jobs over two dies.
    JOBS = [Job(id="a", cmd="ksweep", source="spla@0.01", rows=12,
                k=(0.0,)),
            Job(id="b", cmd="ksweep", source="spla@0.01", rows=13,
                k=(0.0,)),
            Job(id="c", cmd="ksweep", source="spla@0.01", rows=12,
                k=(0.005,))]

    @pytest.fixture(scope="class")
    def unbounded(self):
        return ServeEngine(FlowConfig(library=CORELIB018)).run(self.JOBS)

    def test_eviction_changes_nothing_but_work(self, unbounded):
        engine = ServeEngine(FlowConfig(library=CORELIB018),
                             bounds=CacheBounds(max_entries=1))
        results = engine.run(self.JOBS)
        assert [r.to_json() for r in results] == \
            [r.to_json() for r in unbounded]
        counters = engine.cache_counters()
        assert counters["evictions"] > 0
        for family in FAMILIES:
            assert counters[f"{family}_entries"] <= 1
        summary = engine.summary()
        assert summary["cache"]["evictions"] == counters["evictions"]
