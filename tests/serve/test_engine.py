"""Tests for the batch engine: cache sharing, isolation, determinism."""

import json
import os

import pytest

from repro.core import FlowConfig
from repro.library import CORELIB018
from repro.serve import Job, ServeEngine, SessionCaches, source_key

#: Tiny calibrated requests: spla@0.01 on 12 rows routes clean at K=0.
SWEEP12 = Job(id="s12", cmd="ksweep", source="spla@0.01", rows=12,
              k=(0.0, 0.005))
SWEEP12B = Job(id="s12b", cmd="ksweep", source="spla@0.01", rows=12,
               k=(0.0, 0.005))
SWEEP13 = Job(id="s13", cmd="ksweep", source="spla@0.01", rows=13,
              k=(0.0,))
FLOW12 = Job(id="f12", cmd="flow", source="spla@0.01", rows=12)


def _config():
    return FlowConfig(library=CORELIB018)


def _lines(results):
    return [r.to_json() for r in results]


@pytest.fixture(scope="module")
def warm_run():
    """One engine over the module's job mix (shared by the tests)."""
    engine = ServeEngine(_config())
    results = engine.run([SWEEP12, SWEEP12B, SWEEP13, FLOW12])
    return engine, results


class TestStream:
    def test_results_in_submission_order(self, warm_run):
        _, results = warm_run
        assert [r.id for r in results] == ["s12", "s12b", "s13", "f12"]

    def test_on_result_streams_in_order(self):
        seen = []
        engine = ServeEngine(_config())
        engine.run([SWEEP12, SWEEP13],
                   on_result=lambda r: seen.append(r.id))
        assert seen == ["s12", "s13"]

    def test_all_jobs_ok(self, warm_run):
        _, results = warm_run
        assert all(r.ok for r in results)
        assert results[3].verdict == "converged"
        assert results[3].chosen_k == 0.0

    def test_error_job_does_not_stop_the_stream(self):
        engine = ServeEngine(_config())
        bad = Job(id="bad", cmd="flow", source="no_such_bench@0.01")
        results = engine.run([bad, SWEEP12])
        assert not results[0].ok
        assert results[0].verdict == "error"
        assert results[0].error
        assert results[0].rows == []
        assert results[1].ok
        summary = engine.summary()
        assert summary["jobs"] == 2
        assert summary["ok"] == 1

    def test_duplicate_output_blif_is_an_error_line(self, tmp_path):
        """A BLIF repeating a primary output ends in that job's error
        line (it used to map silently, dropping the repeat), and the
        next job still runs."""
        blif = tmp_path / "dup.blif"
        blif.write_text(".model dup\n.inputs a b\n.outputs y y\n"
                        ".names a b y\n11 1\n.end\n")
        dup = Job(id="dup", cmd="flow", source=str(blif))
        first, second = (json.loads(line) for line in _lines(
            ServeEngine(_config()).run([dup, FLOW12])))
        assert (first["id"], first["ok"], first["verdict"]) == \
            ("dup", False, "error")
        assert first["error"] == \
            "NetworkError: duplicate primary output 'y'"
        assert (second["id"], second["ok"]) == ("f12", True)

    def test_unexpected_exception_does_not_stop_the_stream(self,
                                                            monkeypatch):
        """Any Exception a job raises becomes its error line, the next
        job still runs, and the bytes do not depend on serve_workers."""
        dispatch = ServeEngine._dispatch

        def flaky(self, job):
            if job.id == "boom":
                raise TypeError("injected")
            return dispatch(self, job)

        monkeypatch.setattr(ServeEngine, "_dispatch", flaky)
        boom = Job(id="boom", cmd="ksweep", source="spla@0.01", rows=13,
                   k=(0.0,))
        lines = {workers: _lines(ServeEngine(_config(),
                                             serve_workers=workers)
                                 .run([boom, SWEEP12]))
                 for workers in (1, 2)}
        assert lines[1] == lines[2]
        first, second = (json.loads(line) for line in lines[1])
        assert (first["id"], first["ok"], first["verdict"]) == \
            ("boom", False, "error")
        assert first["error"] == "TypeError: injected"
        assert (second["id"], second["ok"]) == ("s12", True)

    def test_artifacts_one_directory_per_job_inside_dir(self, tmp_path):
        """Ids ``..``, ``a b`` and ``a_b`` get three directories under
        ``--artifacts DIR``, and nothing is written outside it."""
        art = tmp_path / "art"
        jobs = [Job(id=job_id, cmd="ksweep", source="spla@0.01", rows=12,
                    k=(0.0,)) for job_id in ("..", "a b", "a_b")]
        results = ServeEngine(_config(), artifacts_dir=str(art)).run(jobs)
        assert all(r.ok for r in results)
        assert os.listdir(tmp_path) == ["art"]
        dirs = sorted(os.listdir(art))
        assert len(dirs) == 3 and "a_b" in dirs
        for name in dirs:
            assert os.listdir(art / name), name


class TestCacheSharing:
    def test_repeat_job_hits_every_family(self, warm_run):
        engine, _ = warm_run
        counters = engine.caches.stats()
        # s12b repeats s12 exactly; s13/f12 share netlist + matcher too.
        assert counters["netlist_misses"] == 1
        assert counters["netlist_hits"] == 3
        assert counters["matcher_misses"] == 1
        assert counters["matcher_hits"] == 3
        # Two dies (12 and 13 rows) -> two layout/route-pool/evaluation
        # entries.
        assert counters["layout_entries"] == 2
        assert counters["route_pool_entries"] == 2
        assert counters["evaluation_entries"] == 2
        assert counters["layout_hits"] == 2      # s12b + f12
        assert counters["route_pool_hits"] == 2
        assert counters["evaluation_hits"] == 2

    def test_repeat_rows_identical_to_first(self, warm_run):
        _, results = warm_run
        first, repeat = results[0], results[1]
        assert repeat.rows == first.rows
        assert repeat.verdict == first.verdict

    def test_summary_shape(self, warm_run):
        engine, _ = warm_run
        summary = engine.summary()
        assert summary["jobs"] == 4
        assert summary["ok"] == 4
        assert summary["jobs_per_sec"] > 0
        assert set(summary["cache_hit_rates"]) == {
            "netlist", "layout", "matcher", "route_pool", "evaluation",
            "library_build"}
        assert summary["cache_hit_rates"]["netlist"] == 0.75
        assert len(summary["per_job"]) == 4
        assert {entry["id"] for entry in summary["per_job"]} == \
            {"s12", "s12b", "s13", "f12"}


class TestDieIsolation:
    """A job on a different die never adopts another job's route shard."""

    def test_route_pools_keyed_by_die(self):
        engine = ServeEngine(_config())
        engine.run([Job(id="a", cmd="ksweep", source="spla@0.01",
                        rows=12, k=(0.0,)),
                    Job(id="b", cmd="ksweep", source="spla@0.01",
                        rows=13, k=(0.0,))])
        keys = engine.caches.route_pool_keys
        assert len(keys) == 2
        netlist_keys = {key for key, _die in keys}
        assert netlist_keys == {source_key("spla@0.01")}
        assert len({die for _key, die in keys}) == 2
        # Single-K jobs on fresh dies: nothing to reuse, nothing to
        # skip — cross-die adoption would show up in either counter.
        work = engine.summary()["cache"]
        assert work["route.routes_reused"] == 0
        assert work["route.reuse_skipped"] == 0

    def test_same_die_repeat_warm_starts(self):
        engine = ServeEngine(_config())
        job = Job(id="a", cmd="ksweep", source="spla@0.01", rows=12,
                  k=(0.0,))
        engine.run([job, Job(id="b", cmd="ksweep", source="spla@0.01",
                             rows=12, k=(0.0,))])
        work = engine.summary()["cache"]
        assert work["route.routes_reused"] > 0
        assert work["route.reuse_skipped"] == 0

    def test_route_reuse_off_keeps_pools_empty(self):
        config = FlowConfig(library=CORELIB018, route_reuse=False)
        engine = ServeEngine(config)
        engine.run([SWEEP12, SWEEP12B])
        assert engine.caches.route_pool_keys == ()
        assert engine.summary()["cache"]["route.routes_reused"] == 0


class TestDeterminism:
    def test_workers_do_not_change_result_lines(self, warm_run):
        _, results = warm_run
        engine2 = ServeEngine(_config(), workers=2)
        results2 = engine2.run([SWEEP12, SWEEP12B, SWEEP13, FLOW12])
        assert _lines(results2) == _lines(results)

    def test_cold_engines_match_the_warm_stream(self, warm_run):
        _, results = warm_run
        cold = []
        for job in (SWEEP12, SWEEP12B, SWEEP13, FLOW12):
            cold.extend(ServeEngine(_config()).run([job]))
        assert _lines(cold) == _lines(results)

    def test_job_workers_override_is_pure(self, warm_run):
        _, results = warm_run
        job = Job(id="s12", cmd="ksweep", source="spla@0.01", rows=12,
                  k=(0.0, 0.005), workers=2)
        result = ServeEngine(_config()).run([job])[0]
        assert result.to_json() == results[0].to_json()


class TestSessionCachesUnit:
    def test_source_key_forms(self, tmp_path):
        assert source_key("spla@0.01") == "bench:spla@0.01"
        assert source_key("SPLA") == "bench:spla@0.125"
        blif = tmp_path / "c.blif"
        blif.write_text(".model c\n.inputs a\n.outputs y\n"
                        ".names a y\n1 1\n.end\n")
        key = source_key(str(blif))
        assert key.startswith("blif:sha256:")
        twin = tmp_path / "copy.blif"
        twin.write_text(blif.read_text())
        assert source_key(str(twin)) == key

    def test_network_cache_content_keyed(self):
        caches = SessionCaches(CORELIB018)
        key1, network1, base1 = caches.network("spla@0.01")
        key2, network2, base2 = caches.network("spla@0.01")
        assert key1 == key2
        assert network1 is network2
        assert base1 is base2
        assert caches.stats()["netlist_hits"] == 1

    def test_stats_registry_names(self):
        caches = SessionCaches(CORELIB018)
        caches.network("spla@0.01")
        stats = caches.stats()
        assert stats["serve.netlist_misses"] == 1
        assert stats["serve.netlist_entries"] == 1
