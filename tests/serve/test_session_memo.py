"""The session's evaluation memos: one per (netlist, die).

``spla@0.01`` on 12 rows routes clean at both Ks below, so every point
stores into the route pool and a repeat reuses only mappings and
placements.  ``pdc@0.03`` on 11 rows never routes clean, so the pool
never changes and a repeat reuses whole evaluations.
"""

import json

import pytest

import repro.core.flow as flow_mod
from repro.cli import main
from repro.core import FlowConfig
from repro.library import CORELIB018
from repro.serve import CacheBounds, Job, ServeEngine
from repro.serve.caches import approx_nbytes

CLEAN = dict(cmd="ksweep", source="spla@0.01", rows=12, k=(0.0, 0.005))
CONGESTED = dict(cmd="ksweep", source="pdc@0.03", rows=11,
                 k=(0.0, 0.0001, 0.00025))


def _engine(**kwargs):
    return ServeEngine(FlowConfig(library=CORELIB018), **kwargs)


def _counted(monkeypatch, name):
    """Count the calls of ``repro.core.flow``'s ``name`` from now on."""
    calls = [0]
    real = getattr(flow_mod, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(flow_mod, name, counted)
    return calls


@pytest.fixture
def place_calls(monkeypatch):
    """The number of ``place_netlist`` calls so far."""
    return _counted(monkeypatch, "place_netlist")


@pytest.fixture
def map_calls(monkeypatch):
    """The number of ``map_network`` calls so far."""
    return _counted(monkeypatch, "map_network")


def _structures(points):
    return {p.mapping.netlist.structure_key() for p in points}


class TestRepeatedJobs:
    def test_second_identical_job_places_nothing(self, place_calls):
        engine = _engine()
        engine.run_job(Job(id="a", **CLEAN))
        assert place_calls[0] == 2
        again, points = engine.run_job(Job(id="b", **CLEAN))
        assert place_calls[0] == 2
        assert all(p.stats["place.reused"] == 1 for p in points)
        fresh, _ = _engine().run_job(Job(id="b", **CLEAN))
        assert again.to_json() == fresh.to_json()

    def test_second_identical_job_maps_nothing(self, map_calls):
        engine = _engine()
        engine.run_job(Job(id="a", **CLEAN))
        assert map_calls[0] == 2
        again, points = engine.run_job(Job(id="b", **CLEAN))
        assert map_calls[0] == 2
        assert all(p.stats["map.reused"] == 1 for p in points)
        assert engine.summary()["cache"]["map.reused"] == len(points) == 2
        fresh, _ = _engine().run_job(Job(id="b", **CLEAN))
        assert again.to_json() == fresh.to_json()

    def test_kept_netlists_stay_read_only(self):
        """Points that reuse a mapping share its objects; evaluating
        them again changes none of them."""
        engine = _engine()
        _, first = engine.run_job(Job(id="a", **CLEAN))
        keys = [p.mapping.netlist.structure_key() for p in first]
        _, again = engine.run_job(Job(id="b", **CLEAN))
        assert all(a.mapping is b.mapping for a, b in zip(again, first))
        assert [p.mapping.netlist.structure_key() for p in again] == keys
        _, fresh = _engine().run_job(Job(id="c", **CLEAN))
        assert [p.mapping.netlist.structure_key() for p in fresh] == keys

    def test_repeats_raise_both_reuse_counters(self):
        engine = _engine()
        seen = []
        for job_id, fields in (("c1", CLEAN), ("c2", CLEAN),
                               ("p1", CONGESTED), ("p2", CONGESTED)):
            engine.run_job(Job(id=job_id, **fields))
            cache = engine.cache_counters()
            seen.append((cache["place.reused"], cache["eval.reused"]))
        # The clean repeat routes its stored placements again; the
        # first congested sweep reuses its own K = 0.00025 point, and
        # the congested repeat reuses all three evaluations.
        assert seen == [(0, 0), (2, 0), (2, 1), (2, 4)]
        summary = engine.summary()
        assert summary["cache"]["place.reused"] == 2
        assert summary["cache"]["eval.reused"] == 4
        assert engine.heartbeat()["cache"] == summary["cache"]

    def test_flow_then_ksweep_share_placements(self, place_calls):
        engine = _engine()
        flow_job = Job(id="f", cmd="flow", source="spla@0.01", rows=12)
        flow, flow_points = engine.run_job(flow_job)
        assert flow.verdict == "converged"
        placed = place_calls[0]
        sweep, points = engine.run_job(Job(id="s", **CLEAN))
        new = _structures(points) - _structures(flow_points)
        assert place_calls[0] - placed == len(new) < len(points)
        fresh, _ = _engine().run_job(Job(id="s", **CLEAN))
        assert sweep.to_json() == fresh.to_json()

    def test_memo_is_per_die(self, place_calls):
        """The same netlist on another die is placed again."""
        engine = _engine()
        engine.run_job(Job(id="a", **dict(CLEAN, k=(0.0,))))
        engine.run_job(Job(id="b", **dict(CLEAN, rows=13, k=(0.0,))))
        assert place_calls[0] == 2
        counters = engine.cache_counters()
        assert counters["evaluation_entries"] == 2
        assert counters["place.reused"] == 0


class TestBoundedMemos:
    JOBS = [Job(id="a", **CLEAN), Job(id="b", **dict(CLEAN, rows=13)),
            Job(id="c", **CLEAN), Job(id="d", **CONGESTED),
            Job(id="e", **CONGESTED), Job(id="f", **CLEAN)]

    def test_eviction_changes_no_row(self, map_calls):
        unbounded = _engine()
        expected = unbounded.run(self.JOBS)
        # c repeats a's two K points, e d's three, and f a's two.
        assert unbounded.cache_counters()["map.reused"] == 7
        mapped = map_calls[0]
        engine = _engine(bounds=CacheBounds(max_entries=1))
        results = engine.run(self.JOBS)
        assert [r.to_json() for r in results] == \
            [r.to_json() for r in expected]
        # Only e's memo and layout survive from the job before it; the
        # others were evicted, and their jobs map again.
        assert engine.cache_counters()["map.reused"] == 3
        assert map_calls[0] - mapped == mapped + 7 - 3
        counters = engine.cache_counters()
        assert counters["evaluation_evictions"] > 0
        assert counters["evaluation_entries"] == 1
        assert counters["evaluation_misses"] == \
            counters["evaluation_entries"] + counters["evaluation_evictions"]
        assert counters["evaluation_hits"] + \
            counters["evaluation_misses"] == len(self.JOBS)

    def test_sync_accounts_the_memo(self):
        engine = _engine()
        engine.run_job(Job(id="d", **CONGESTED))
        [entry] = engine.caches._families["evaluation"].values()
        memo = entry.value
        assert memo.memo_nbytes > 0
        assert entry.nbytes == entry.base + memo.memo_nbytes
        # The running estimate stays within 2x of an object walk of
        # what the memo keeps, less the layout its mappings share with
        # the session's netlist and layout entries.
        assert memo._mapped
        walked = approx_nbytes((memo._mapped, memo._placed, memo._done)
                               + memo._layout, max_visits=10**7) \
            - approx_nbytes(memo._layout, max_visits=10**7)
        assert 0.5 * walked <= memo.memo_nbytes <= 2.0 * walked

    def test_sync_accounts_the_route_pool(self):
        engine = _engine()
        engine.run_job(Job(id="a", **CLEAN))
        [entry] = engine.caches._families["route_pool"].values()
        pool = entry.value
        assert pool.routes
        assert entry.nbytes == entry.base + pool.memo_nbytes
        walked = approx_nbytes(pool.routes, max_visits=10**7)
        assert 0.5 * walked <= pool.memo_nbytes <= 2.0 * walked


class TestServeWorkers:
    STREAM = "\n".join(json.dumps(dict(fields, id=job_id, k=list(
        fields["k"]))) for job_id, fields in (
            ("a", CLEAN), ("b", CONGESTED), ("c", CLEAN),
            ("d", CONGESTED), ("e", dict(CLEAN, rows=13)),
            ("f", CLEAN))) + "\n"

    def test_repeats_identical_across_serve_workers(self, tmp_path):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(self.STREAM)
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"out{workers}.jsonl"
            summary = tmp_path / f"summary{workers}.json"
            assert main(["serve", str(jobs), "-o", str(out),
                         "--serve-workers", workers,
                         "--summary", str(summary)]) == 0
            outputs.append(out.read_bytes())
            cache = json.loads(summary.read_text())["cache"]
            assert cache["place.reused"] >= 2
            assert cache["eval.reused"] >= 3
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 6
