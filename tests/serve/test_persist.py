"""Tests for the persistent on-disk cache tier.

Covers the unit contract (guards skip, never fail), the session-level
round trip (a cold engine byte-identically reuses a warm engine's disk
cache), and the failure modes the ISSUE names: corrupted and
version-mismatched entries are skipped, not fatal.
"""

import json
import os
import pickle
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import FlowConfig
from repro.library import CORELIB018
from repro.place import Floorplan
from repro.serve import (
    CacheBounds,
    Job,
    PersistentCache,
    ServeEngine,
    SessionCaches,
    cache_fingerprint,
)
from repro.serve.persist import CACHE_FORMAT

JOBS = [Job(id="a", cmd="ksweep", source="spla@0.01", rows=12,
            k=(0.0, 0.005)),
        Job(id="b", cmd="flow", source="spla@0.01", rows=12)]


def _config():
    return FlowConfig(library=CORELIB018)


def _lines(results):
    return [r.to_json() for r in results]


class _Planted:
    """Unpickles to ``open(path, "w")``: loading it creates ``path``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


class TestPersistentCacheUnit:
    def test_round_trip(self, tmp_path):
        cache = PersistentCache(str(tmp_path), "fp")
        assert cache.load("layout", ("k", 1)) is None
        assert cache.store("layout", ("k", 1), {"x": [1, 2, 3]})
        assert cache.load("layout", ("k", 1)) == {"x": [1, 2, 3]}
        assert cache.counters() == {"persist_hits": 1, "persist_misses": 1,
                                    "persist_skipped": 0,
                                    "persist_writes": 1}

    def test_kinds_do_not_alias(self, tmp_path):
        cache = PersistentCache(str(tmp_path), "fp")
        cache.store("layout", "k", "L")
        assert cache.load("route", "k") is None

    def test_fingerprint_mismatch_skipped(self, tmp_path):
        PersistentCache(str(tmp_path), "fp-old").store("layout", "k", "v")
        cache = PersistentCache(str(tmp_path), "fp-new")
        assert cache.load("layout", "k") is None
        assert cache.counters()["persist_skipped"] == 1

    def test_format_version_mismatch_skipped(self, tmp_path):
        cache = PersistentCache(str(tmp_path), "fp")
        cache.store("layout", "k", "v")
        path = cache._path("layout", "k")
        with open(path, "rb") as handle:
            entry = pickle.load(handle)
        entry["format"] = CACHE_FORMAT + 1
        with open(path, "wb") as handle:
            pickle.dump(entry, handle)
        assert cache.load("layout", "k") is None
        assert cache.counters()["persist_skipped"] == 1

    def test_key_echo_guards_renamed_files(self, tmp_path):
        cache = PersistentCache(str(tmp_path), "fp")
        cache.store("layout", "honest", "v")
        os.rename(cache._path("layout", "honest"),
                  cache._path("layout", "imposter"))
        assert cache.load("layout", "imposter") is None
        assert cache.counters()["persist_skipped"] == 1

    def test_corrupt_file_skipped_not_fatal(self, tmp_path):
        cache = PersistentCache(str(tmp_path), "fp")
        cache.store("layout", "k", "v")
        with open(cache._path("layout", "k"), "wb") as handle:
            handle.write(b"\x80garbage")
        assert cache.load("layout", "k") is None
        assert cache.counters()["persist_skipped"] == 1
        # Overwriting repairs the entry.
        cache.store("layout", "k", "v2")
        assert cache.load("layout", "k") == "v2"

    def test_planted_pickle_cannot_run_code(self, tmp_path):
        """A file naming a global no payload uses is skipped before the
        global is called."""
        cache = PersistentCache(str(tmp_path / "cache"), "fp")
        marker = tmp_path / "PWNED"
        with open(cache._path("layout", "k"), "wb") as handle:
            pickle.dump(_Planted(str(marker)), handle)
        assert cache.load("layout", "k") is None
        assert not marker.exists()
        assert cache.counters()["persist_skipped"] == 1

    def test_unpicklable_payload_reports_false(self, tmp_path):
        cache = PersistentCache(str(tmp_path), "fp")
        assert cache.store("layout", "k", lambda: None) is False
        assert cache.counters()["persist_writes"] == 0
        assert not [name for name in os.listdir(tmp_path)
                    if not name.startswith(".")]

    def test_failed_replace_reports_false_and_leaves_nothing(
            self, tmp_path, monkeypatch):
        cache = PersistentCache(str(tmp_path), "fp")

        def refuse(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        assert cache.store("layout", "k", {"x": [1, 2, 3]}) is False
        assert cache.counters()["persist_writes"] == 0
        assert os.listdir(tmp_path) == []

    def test_fingerprint_covers_library_content(self):
        assert cache_fingerprint(CORELIB018) == \
            cache_fingerprint(CORELIB018)
        assert cache_fingerprint(CORELIB018).startswith("sha256:")


class TestRoutePoolWrites:
    @staticmethod
    def _routing(edge_ids):
        """What :meth:`RouteCache.store` reads of a one-net routing."""
        route = SimpleNamespace(signature=((0, 0), (1, 1)),
                                seg_edge_ids=[np.asarray(edge_ids)])
        grid = SimpleNamespace(nx=4, ny=4, hcap=2, vcap=2)
        return SimpleNamespace(grid=grid, routes={"n1": route})

    def test_routes_brought_back_are_not_rewritten(self, tmp_path):
        persist = PersistentCache(str(tmp_path),
                                  cache_fingerprint(CORELIB018))
        caches = SessionCaches(CORELIB018, persist=persist)
        pool = caches.route_pool("bench:a@1", Floorplan.from_rows(12))
        writes = []
        for stores in ([[1, 2]], [[3, 4], [1, 2]], [[3, 4]]):
            for edge_ids in stores:
                pool.store(self._routing(edge_ids))
            caches.sync()
            writes.append(persist.counters()["persist_writes"])
        # A -> B -> A between two syncs leaves the disk's A in place;
        # the move to B is written.
        assert writes == [1, 1, 2]


class TestSessionRoundTrip:
    @pytest.fixture(scope="class")
    def warm_dir(self, tmp_path_factory):
        """A cache dir populated by a warm engine, plus its results."""
        cache_dir = str(tmp_path_factory.mktemp("serve-cache"))
        engine = ServeEngine(_config(), cache_dir=cache_dir)
        results = engine.run(JOBS)
        return cache_dir, _lines(results), engine.cache_counters()

    def test_warm_engine_writes_entries(self, warm_dir):
        cache_dir, _, counters = warm_dir
        assert counters["persist_writes"] > 0
        assert [name for name in os.listdir(cache_dir)
                if name.startswith("layout-")]
        assert [name for name in os.listdir(cache_dir)
                if name.startswith("route-")]

    def test_cold_engine_reuses_disk_byte_identically(self, warm_dir):
        cache_dir, expected, _ = warm_dir
        cold = ServeEngine(_config(), cache_dir=cache_dir)
        results = cold.run(JOBS)
        assert _lines(results) == expected
        counters = cold.cache_counters()
        assert counters["persist_hits"] > 0
        # The layout was adopted from disk: no recompute, so the disk
        # tier skipped exactly the placement the warm engine paid for.
        assert counters["layout_misses"] > 0

    def test_corrupted_dir_degrades_to_cold(self, warm_dir):
        cache_dir, expected, _ = warm_dir
        broken = str(warm_dir[0]) + "-broken"
        os.makedirs(broken, exist_ok=True)
        for name in os.listdir(cache_dir):
            with open(os.path.join(cache_dir, name), "rb") as handle:
                data = handle.read()
            with open(os.path.join(broken, name), "wb") as handle:
                handle.write(data[: len(data) // 2])  # truncate all
        engine = ServeEngine(_config(), cache_dir=broken)
        results = engine.run(JOBS)
        assert _lines(results) == expected
        counters = engine.cache_counters()
        assert counters["persist_skipped"] > 0
        assert all(r.ok for r in results)

    def test_eviction_composes_with_disk(self, warm_dir):
        cache_dir, expected, _ = warm_dir
        engine = ServeEngine(_config(), cache_dir=cache_dir,
                             bounds=CacheBounds(max_entries=1))
        results = engine.run(JOBS + JOBS)
        assert _lines(results[: len(JOBS)]) == expected
        counters = engine.cache_counters()
        assert counters["persist_hits"] > 0


class TestProcessColdStart:
    def test_killed_process_leaves_reusable_cache(self, tmp_path):
        """Warm process -> exit -> cold process reuses the disk cache."""
        jobs_path = tmp_path / "jobs.jsonl"
        jobs_path.write_text(
            '{"id": "a", "cmd": "ksweep", "source": "spla@0.01", '
            '"rows": 12, "k": [0.0]}\n')
        cache_dir = tmp_path / "cache"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def run(out_name, summary_name):
            argv = [sys.executable, "-m", "repro.cli", "serve",
                    str(jobs_path), "-o", str(tmp_path / out_name),
                    "--cache-dir", str(cache_dir),
                    "--summary", str(tmp_path / summary_name)]
            proc = subprocess.run(argv, env=env, capture_output=True,
                                  text=True)
            assert proc.returncode == 0, proc.stderr
            return ((tmp_path / out_name).read_text(),
                    json.loads((tmp_path / summary_name).read_text()))

        warm_out, warm_summary = run("warm.out", "warm.json")
        cold_out, cold_summary = run("cold.out", "cold.json")
        assert cold_out == warm_out
        assert warm_summary["cache"]["persist_writes"] > 0
        assert cold_summary["cache"]["persist_hits"] > 0
        assert cold_summary["cache"]["persist_skipped"] == 0
