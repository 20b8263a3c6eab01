"""Tests for the cross-job parallel scheduler.

The contract under test: ``serve_workers > 1`` groups jobs into
(netlist, die) affinity chains, same-key jobs stay ordered, and the
emitted result stream is byte-identical to the sequential engine —
including error lines and interleaved chains.
"""

import pytest

from repro.core import FlowConfig
from repro.library import CORELIB018
from repro.serve import Job, ServeEngine, affinity_key, plan_chains

#: A mixed stream: three affinity chains (two interleaved) + a repeat.
MIXED = [
    Job(id="a0", cmd="ksweep", source="spla@0.01", rows=12, k=(0.0, 0.005)),
    Job(id="b0", cmd="ksweep", source="spla@0.01", rows=13, k=(0.0,)),
    Job(id="a1", cmd="ksweep", source="spla@0.01", rows=12, k=(0.0,)),
    Job(id="c0", cmd="flow", source="spla@0.02", rows=18, tolerance=6),
    Job(id="b1", cmd="ksweep", source="spla@0.01", rows=13, k=(0.005,)),
]


def _config():
    return FlowConfig(library=CORELIB018)


def _lines(results):
    return [r.to_json() for r in results]


class TestAffinityPlanning:
    def test_affinity_key_is_netlist_and_die(self):
        same_a = affinity_key(Job(id="x", cmd="flow", source="spla@0.01",
                                  rows=12))
        same_b = affinity_key(Job(id="y", cmd="ksweep", source="SPLA@0.01",
                                  rows=12))
        assert same_a == same_b          # command does not split chains
        other_die = affinity_key(Job(id="z", cmd="flow", source="spla@0.01",
                                     rows=13))
        other_net = affinity_key(Job(id="w", cmd="flow", source="spla@0.02",
                                     rows=12))
        assert other_die != same_a
        assert other_net != same_a

    def test_blif_twins_share_a_chain(self, tmp_path):
        text = ".model c\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n"
        one = tmp_path / "one.blif"
        two = tmp_path / "two.blif"
        one.write_text(text)
        two.write_text(text)
        job = Job(id="x", cmd="flow", source=str(one), rows=4)
        twin = Job(id="y", cmd="flow", source=str(two), rows=4)
        assert affinity_key(job) == affinity_key(twin)

    def test_unreadable_source_gets_a_fallback_key(self):
        job = Job(id="x", cmd="flow", source="/no/such/file.blif", rows=4)
        key = affinity_key(job)
        assert key == ("raw:/no/such/file.blif", 4)

    def test_malformed_scale_gets_a_fallback_key(self):
        job = Job(id="x", cmd="flow", source="spla@abc", rows=12)
        assert affinity_key(job) == ("raw:spla@abc", 12)

    def test_plan_chains_orders_and_groups(self):
        chains = plan_chains(MIXED)
        assert chains == [[0, 2], [1, 4], [3]]

    def test_chain_zero_holds_submission_index_zero(self):
        # The in-order streaming argument rests on this invariant.
        for jobs in ([MIXED[0]], MIXED, list(reversed(MIXED))):
            assert plan_chains(jobs)[0][0] == 0


class TestParallelByteIdentity:
    @pytest.fixture(scope="class")
    def sequential(self):
        engine = ServeEngine(_config())
        return engine, engine.run(MIXED)

    def test_serve_workers_2_matches_sequential(self, sequential):
        _, expected = sequential
        engine = ServeEngine(_config(), serve_workers=2)
        results = engine.run(MIXED)
        assert _lines(results) == _lines(expected)

    def test_streaming_order_is_submission_order(self, sequential):
        _, expected = sequential
        seen = []
        engine = ServeEngine(_config(), serve_workers=3)
        engine.run(MIXED, on_result=lambda r: seen.append(r.id))
        assert seen == [r.id for r in expected]

    def test_error_lines_identical_across_modes(self):
        jobs = [Job(id="bad", cmd="flow", source="zzz@0.01"),
                Job(id="ok", cmd="ksweep", source="spla@0.01", rows=12,
                    k=(0.0,))]
        seq = ServeEngine(_config()).run(jobs)
        par = ServeEngine(_config(), serve_workers=2).run(jobs)
        assert _lines(par) == _lines(seq)
        assert not par[0].ok and par[1].ok

    def test_parallel_summary_aggregates_chain_counters(self, sequential):
        engine = ServeEngine(_config(), serve_workers=2)
        engine.run(MIXED)
        summary = engine.summary()
        assert summary["jobs"] == len(MIXED)
        assert summary["ok"] == len(MIXED)
        assert summary["serve_workers"] == 2
        cache = summary["cache"]
        # Chain (spla@0.01, rows 12) repeats its netlist/die: the
        # chain-local caches must report hits even though the parent
        # engine's own caches never ran a job.
        assert cache["netlist_hits"] >= 2
        assert cache["layout_hits"] >= 1
        assert cache["route_pool_hits"] >= 1
        # Three affinity chains -> three chain-local route pools.
        assert cache["route_pool_entries"] == 3
        assert len(summary["per_job"]) == len(MIXED)
        assert {e["id"] for e in summary["per_job"]} == \
            {j.id for j in MIXED}

    def test_malformed_source_streams_an_error_line(self):
        """A bad ``name@scale`` fails its own job, not the planner."""
        jobs = [Job(id="m0", cmd="ksweep", source="spla@0.01", rows=12,
                    k=(0.0,)),
                Job(id="m1", cmd="ksweep", source="spla@abc", rows=12,
                    k=(0.0,)),
                Job(id="m2", cmd="ksweep", source="spla@0.01", rows=13,
                    k=(0.0,))]
        seq = ServeEngine(_config()).run(jobs)
        par = ServeEngine(_config(), serve_workers=2).run(jobs)
        assert _lines(par) == _lines(seq)
        assert [r.ok for r in seq] == [True, False, True]
        assert seq[1].error.startswith("ValueError")

    def test_single_chain_stream_still_works(self):
        jobs = [Job(id="x0", cmd="ksweep", source="spla@0.01", rows=12,
                    k=(0.0,)),
                Job(id="x1", cmd="ksweep", source="spla@0.01", rows=12,
                    k=(0.005,))]
        seq = ServeEngine(_config()).run(jobs)
        par = ServeEngine(_config(), serve_workers=4).run(jobs)
        assert _lines(par) == _lines(seq)
