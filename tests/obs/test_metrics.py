"""Tests for the streaming instrument kinds and the Prometheus export.

The load-bearing invariant: splitting one observation stream across
per-chain registries and merging them back **in chain order** is
bit-identical to observing the stream sequentially — the same
workers=1 vs workers=N discipline the scalar kinds obey.
"""

import json
import math
import pickle

import pytest

from repro.obs import (
    Histogram,
    LATENCY_BUCKETS,
    RollingGauge,
    StatsCollisionError,
    StatsRegistry,
    parse_prometheus,
    render_metrics_json,
    render_prometheus,
)

#: A stream with exact-bound hits, overflow, zero and sub-bucket values.
STREAM = [0.001, 0.0009, 5.0, 301.0, 0.25, 0.0, 0.013, 2.5, 64.2, 0.1]


class TestHistogram:
    def test_le_inclusive_bucketing(self):
        hist = Histogram(bounds=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 2.0, 3.0):
            hist.observe(value)
        assert hist.counts == [2, 2, 1]  # le=1.0, le=2.0, +Inf
        assert hist.count == 5
        assert hist.min == 0.5 and hist.max == 3.0
        assert hist.sum == pytest.approx(8.0)

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=())

    def test_merge_requires_matching_bounds(self):
        hist = Histogram(LATENCY_BUCKETS)
        with pytest.raises(StatsCollisionError):
            hist.merge(Histogram((1.0, 2.0)))

    def test_split_merge_is_bit_identical_to_sequential(self):
        # One worker observes the whole stream...
        sequential = Histogram()
        for value in STREAM:
            sequential.observe(value)
        # ...N chains observe contiguous shards, merged in chain order.
        for n in (2, 3, 5):
            shards = [Histogram() for _ in range(n)]
            for i, value in enumerate(STREAM):
                shards[i * n // len(STREAM)].observe(value)
            merged = Histogram()
            for shard in shards:
                merged.merge(shard)
            assert merged.snapshot() == sequential.snapshot()

    def test_snapshot_round_trip(self):
        """Instruments cross the process pool as pickles."""
        hist = Histogram(bounds=(0.5, 2.0))
        hist.observe(0.1)
        hist.observe(9.0)
        clone = pickle.loads(pickle.dumps(hist))
        assert clone.snapshot() == hist.snapshot()
        clone.observe(1.0)  # still a live instrument
        assert clone.count == hist.count + 1


class TestRollingGauge:
    def test_window_keeps_newest(self):
        gauge = RollingGauge(window=3)
        for value in (1.0, 2.0, 3.0, 4.0):
            gauge.record(value)
        assert gauge.samples == [2.0, 3.0, 4.0]
        assert gauge.last == 4.0
        assert gauge.count == 4
        assert gauge.min == 1.0 and gauge.max == 4.0

    def test_merge_concatenates_and_trims(self):
        ours = RollingGauge(window=4)
        theirs = RollingGauge(window=4)
        for value in (1.0, 2.0, 3.0):
            ours.record(value)
        for value in (10.0, 11.0):
            theirs.record(value)
        ours.merge(theirs)
        assert ours.samples == [2.0, 3.0, 10.0, 11.0]
        assert ours.count == 5
        with pytest.raises(StatsCollisionError):
            ours.merge(RollingGauge(window=2))

    def test_snapshot_round_trip(self):
        gauge = RollingGauge(window=2)
        gauge.record(7.5)
        clone = pickle.loads(pickle.dumps(gauge))
        assert clone.snapshot() == gauge.snapshot()


class TestRegistryInstruments:
    """``hist`` and ``rolling`` are kinds of :class:`StatsRegistry`."""

    def test_keys_must_be_namespaced(self):
        registry = StatsRegistry()
        with pytest.raises(ValueError):
            registry.observe("nodots", 1.0)
        with pytest.raises(ValueError):
            registry.record("nodots", 1.0)

    def test_kind_and_parameter_collisions(self):
        registry = StatsRegistry()
        registry.observe("serve.t", 1.0)
        with pytest.raises(StatsCollisionError):
            registry.record("serve.t", 1.0)
        with pytest.raises(StatsCollisionError):
            registry.observe("serve.t", 1.0, bounds=(1.0, 2.0))
        registry.record("serve.bytes", 10.0)
        with pytest.raises(StatsCollisionError):
            registry.observe("serve.bytes", 1.0)
        with pytest.raises(StatsCollisionError):
            registry.record("serve.bytes", 1.0, window=9)
        # a key names one thing: scalars and instruments share it
        with pytest.raises(StatsCollisionError):
            registry.count("serve.t", 1)
        with pytest.raises(StatsCollisionError):
            registry.gauge("serve.bytes", 1.0)
        registry.work("serve.jobs", 1)
        with pytest.raises(StatsCollisionError):
            registry.observe("serve.jobs", 1.0)
        with pytest.raises(StatsCollisionError):
            registry.record("serve.jobs", 1.0)
        # the failed writes changed nothing
        assert registry.as_dict() == {"serve.jobs": 1}
        assert registry.instruments()["serve.t"].count == 1
        assert registry.instruments()["serve.bytes"].count == 1

    def test_registry_split_merge_matches_sequential(self):
        sequential = StatsRegistry()
        for value in STREAM:
            sequential.observe("serve.job_seconds", value)
            sequential.record("serve.bytes", value * 100, window=4)
        shards = [StatsRegistry() for _ in range(3)]
        for i, value in enumerate(STREAM):
            shard = shards[i * 3 // len(STREAM)]
            shard.observe("serve.job_seconds", value)
            shard.record("serve.bytes", value * 100, window=4)
        merged = StatsRegistry()
        for shard in shards:
            # as chain outcomes come back through the process pool
            merged.merge(pickle.loads(pickle.dumps(shard)))
        assert _snapshots(merged) == _snapshots(sequential)
        assert list(merged.instruments()) == ["serve.job_seconds",
                                              "serve.bytes"]

    def test_merge_kind_mismatch_raises(self):
        ours = StatsRegistry()
        ours.observe("serve.x", 1.0)
        theirs = StatsRegistry()
        theirs.record("serve.x", 1.0)
        with pytest.raises(StatsCollisionError):
            ours.merge(theirs)
        with pytest.raises(StatsCollisionError):
            theirs.merge(ours)
        scalar = StatsRegistry()
        scalar.work("serve.x", 1)
        with pytest.raises(StatsCollisionError):
            ours.merge(scalar)
        with pytest.raises(StatsCollisionError):
            scalar.merge(ours)
        other_bounds = StatsRegistry()
        other_bounds.observe("serve.x", 1.0, bounds=(1.0, 2.0))
        with pytest.raises(StatsCollisionError):
            ours.merge(other_bounds)

    def test_merge_and_absorb_never_alias(self):
        source = StatsRegistry()
        source.observe("serve.job_seconds", 0.5)
        source.record("serve.bytes", 10.0)
        merged = StatsRegistry()
        merged.merge(source)
        absorbed = StatsRegistry()
        absorbed.absorb(source)
        for target in (merged, absorbed):
            for key, inst in target.instruments().items():
                assert inst is not source.instruments()[key]
            assert _snapshots(target) == _snapshots(source)
        merged.observe("serve.job_seconds", 1.5)
        absorbed.record("serve.bytes", 20.0)
        merged.merge(source)  # merging again adds, still unshared
        assert source.instruments()["serve.job_seconds"].count == 1
        assert source.instruments()["serve.bytes"].samples == [10.0]
        assert merged.instruments()["serve.job_seconds"].count == 3

    def test_scalar_views_stay_scalar(self):
        registry = StatsRegistry()
        registry.count("serve.jobs", 2)
        registry.observe("serve.job_seconds", 0.5)
        registry.record("serve.bytes", 10.0)
        assert registry.as_dict() == {"serve.jobs": 2}
        assert registry.kinds() == {"serve.jobs": "count"}
        assert registry.deterministic() == {"serve.jobs": 2}
        assert list(registry) == ["serve.jobs"]
        assert "serve.job_seconds" not in registry
        assert [inst.kind for inst in registry.instruments().values()] \
            == ["hist", "rolling"]


def _snapshots(registry):
    return {key: inst.snapshot()
            for key, inst in registry.instruments().items()}


#: ``render_prometheus`` of :func:`_pinned` — captured from the
#: two-registry renderer this one replaced; the bytes must not move.
PINNED_PROMETHEUS = """\
# TYPE repro_serve_jobs counter
repro_serve_jobs 3
# TYPE repro_serve_cache_bytes gauge
repro_serve_cache_bytes 1536.5
# TYPE repro_serve_workers gauge
repro_serve_workers 2
# TYPE repro_serve_t_run counter
repro_serve_t_run 1.25
# TYPE repro_serve_jobs_done counter
repro_serve_jobs_done 4
# TYPE repro_serve_job_seconds histogram
repro_serve_job_seconds_bucket{le="0.001"} 3
repro_serve_job_seconds_bucket{le="0.0025"} 3
repro_serve_job_seconds_bucket{le="0.005"} 3
repro_serve_job_seconds_bucket{le="0.01"} 3
repro_serve_job_seconds_bucket{le="0.025"} 4
repro_serve_job_seconds_bucket{le="0.05"} 4
repro_serve_job_seconds_bucket{le="0.1"} 5
repro_serve_job_seconds_bucket{le="0.25"} 6
repro_serve_job_seconds_bucket{le="0.5"} 6
repro_serve_job_seconds_bucket{le="1"} 6
repro_serve_job_seconds_bucket{le="2.5"} 7
repro_serve_job_seconds_bucket{le="5"} 8
repro_serve_job_seconds_bucket{le="10"} 8
repro_serve_job_seconds_bucket{le="30"} 8
repro_serve_job_seconds_bucket{le="60"} 8
repro_serve_job_seconds_bucket{le="120"} 9
repro_serve_job_seconds_bucket{le="300"} 9
repro_serve_job_seconds_bucket{le="+Inf"} 10
repro_serve_job_seconds_sum 373.06489999999997
repro_serve_job_seconds_count 10
# TYPE repro_serve_route_seconds histogram
repro_serve_route_seconds_bucket{le="0.5"} 0
repro_serve_route_seconds_bucket{le="1"} 1
repro_serve_route_seconds_bucket{le="+Inf"} 1
repro_serve_route_seconds_sum 0.75
repro_serve_route_seconds_count 1
# TYPE repro_serve_cache_bytes_recent gauge
repro_serve_cache_bytes_recent 2048
repro_serve_cache_bytes_recent_min 2048
repro_serve_cache_bytes_recent_max 2048
"""

#: The ``render_metrics_json`` document of :func:`_pinned`, captured
#: like :data:`PINNED_PROMETHEUS`; the file is its ``indent=2``,
#: ``sort_keys`` dump plus a newline.
PINNED_JSON = {
    "command": "serve",
    "counter_kinds": {"serve.cache_bytes": "gauge", "serve.jobs": "count",
                      "serve.jobs_done": "work", "serve.t_run": "time",
                      "serve.workers": "env"},
    "counters": {"serve.cache_bytes": 1536.5, "serve.jobs": 3,
                 "serve.jobs_done": 4, "serve.t_run": 1.25,
                 "serve.workers": 2},
    "instruments": {
        "serve.cache_bytes_recent": {
            "count": 1, "kind": "rolling", "last": 2048.0, "max": 2048.0,
            "min": 2048.0, "samples": [2048.0], "window": 64},
        "serve.job_seconds": {
            "bounds": [0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                       0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0],
            "count": 10,
            "counts": [3, 0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1],
            "kind": "hist", "max": 301.0, "min": 0.0,
            "sum": 373.06489999999997},
        "serve.route_seconds": {
            "bounds": [0.5, 1.0], "count": 1, "counts": [0, 1, 0],
            "kind": "hist", "max": 0.75, "min": 0.75, "sum": 0.75},
    },
    "schema_version": 1,
}


def _pinned():
    """Scalars of every rendered type, a histogram, a rolling gauge and
    a second histogram declared after the gauge."""
    registry = StatsRegistry()
    registry.count("serve.jobs", 3)
    registry.gauge("serve.cache_bytes", 1536.5)
    registry.env("serve.workers", 2)
    registry.time("serve.t_run", 1.25)
    registry.work("serve.jobs_done", 4)
    for value in STREAM:
        registry.observe("serve.job_seconds", value)
    registry.record("serve.cache_bytes_recent", 2048.0)
    registry.observe("serve.route_seconds", 0.75, bounds=(0.5, 1.0))
    return registry


class TestPrometheusExport:
    def _populated(self):
        registry = StatsRegistry()
        registry.count("serve.jobs", 3)
        registry.gauge("serve.cache_bytes", 1536.5)
        for value in STREAM:
            registry.observe("serve.job_seconds", value)
        registry.record("serve.cache_bytes_recent", 2048.0)
        return registry

    def test_pinned_bytes(self):
        registry = _pinned()
        assert render_prometheus(registry) == PINNED_PROMETHEUS
        assert render_metrics_json(registry, {"command": "serve"}) == \
            json.dumps(PINNED_JSON, indent=2, sort_keys=True) + "\n"

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        text = render_prometheus(self._populated())
        parsed = parse_prometheus(text)
        family = parsed["repro_serve_job_seconds"]
        assert family["type"] == "histogram"
        samples = family["samples"]
        inf = samples[("repro_serve_job_seconds_bucket", "+Inf")]
        assert inf == len(STREAM)
        assert samples["repro_serve_job_seconds_count"] == len(STREAM)
        assert samples["repro_serve_job_seconds_sum"] == \
            pytest.approx(sum(STREAM))
        # cumulative: counts never decrease along the bounds
        cumulative = [samples[("repro_serve_job_seconds_bucket", le)]
                      for le in ("0.001", "0.1", "300", "+Inf")]
        assert cumulative == sorted(cumulative)
        # le is inclusive: the exact 0.001 observation is inside le=0.001
        assert cumulative[0] == 3  # 0.001, 0.0009 and 0.0

    def test_counter_and_gauge_types(self):
        parsed = parse_prometheus(render_prometheus(self._populated()))
        assert parsed["repro_serve_jobs"]["type"] == "counter"
        assert parsed["repro_serve_cache_bytes"]["type"] == "gauge"
        assert parsed["repro_serve_cache_bytes_recent"]["type"] == "gauge"
        samples = parsed["repro_serve_cache_bytes_recent"]["samples"]
        assert samples["repro_serve_cache_bytes_recent"] == 2048.0
        assert samples["repro_serve_cache_bytes_recent_min"] == 2048.0

    def test_round_trip_preserves_every_value(self):
        text = render_prometheus(self._populated())
        parsed = parse_prometheus(text)
        total = sum(len(family["samples"]) for family in parsed.values())
        # every non-comment line survived the parse
        payload_lines = [line for line in text.splitlines()
                         if line and not line.startswith("#")]
        assert total == len(payload_lines)
        for family in parsed.values():
            for value in family["samples"].values():
                assert math.isfinite(value)

    def test_json_document_shape(self):
        doc = json.loads(render_metrics_json(self._populated(),
                                             {"command": "serve"}))
        assert doc["schema_version"] == 1
        assert doc["command"] == "serve"
        assert doc["counters"]["serve.jobs"] == 3
        assert doc["counter_kinds"]["serve.jobs"] == "count"
        instrument = doc["instruments"]["serve.job_seconds"]
        assert instrument["kind"] == "hist"
        assert instrument["count"] == len(STREAM)
