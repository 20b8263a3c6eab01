"""Tests for the typed, collision-safe stats registry."""

import numpy as np
import pytest

from repro.obs import (
    COUNT,
    ENV,
    GAUGE,
    METRIC,
    StatsCollisionError,
    StatsRegistry,
    TIME,
    WORK,
)


def _sample():
    stats = StatsRegistry()
    stats.time("route.t_init", 0.25)
    stats.count("route.violations", 3)
    stats.gauge("map.cell_area", 53.2)
    stats.metric("route.wirelength", 120.5)
    stats.work("route.iterations", 7)
    stats.env("exec.workers", 4)
    return stats


class TestWriting:
    def test_kinds_recorded(self):
        stats = _sample()
        assert stats.kind("route.t_init") == TIME
        assert stats.kind("route.violations") == COUNT
        assert stats.kind("map.cell_area") == GAUGE
        assert stats.kind("route.wirelength") == METRIC
        assert stats.kind("route.iterations") == WORK
        assert stats.kind("exec.workers") == ENV

    def test_integer_kinds_stay_int(self):
        stats = _sample()
        assert stats["route.violations"] == 3
        assert isinstance(stats["route.violations"], int)
        assert isinstance(stats["route.iterations"], int)
        assert isinstance(stats["exec.workers"], int)

    def test_numpy_integers_accepted(self):
        stats = StatsRegistry()
        stats.count("a.n", np.int64(5))
        assert stats["a.n"] == 5
        assert isinstance(stats["a.n"], int)

    def test_floats_rejected_for_integer_kinds(self):
        stats = StatsRegistry()
        with pytest.raises(TypeError):
            stats.count("a.n", 1.5)
        with pytest.raises(TypeError):
            stats.work("a.n", 2.0)

    def test_bools_rejected(self):
        stats = StatsRegistry()
        with pytest.raises(TypeError):
            stats.count("a.flag", True)

    def test_unnamespaced_keys_rejected(self):
        stats = StatsRegistry()
        with pytest.raises(ValueError):
            stats.count("violations", 1)
        with pytest.raises(ValueError):
            stats.time("Route.t_init", 0.1)

    def test_duplicate_write_is_an_error(self):
        """Satellite: duplicate-key writes must raise, never overwrite."""
        stats = _sample()
        with pytest.raises(StatsCollisionError):
            stats.count("route.violations", 9)
        with pytest.raises(StatsCollisionError):
            stats.time("route.violations", 0.1)  # even across kinds
        assert stats["route.violations"] == 3


class TestLookup:
    def test_canonical_and_suffix(self):
        stats = _sample()
        assert stats["route.wirelength"] == 120.5
        assert stats["wirelength"] == 120.5
        assert "wirelength" in stats
        assert stats.get("t_init") == 0.25

    def test_ambiguous_suffix_raises(self):
        stats = StatsRegistry()
        stats.time("map.t_total", 1.0)
        stats.time("eval.t_total", 2.0)
        with pytest.raises(KeyError):
            stats["t_total"]

    def test_missing_key(self):
        stats = _sample()
        with pytest.raises(KeyError):
            stats["route.nonexistent"]
        assert stats.get("route.nonexistent", 0) == 0
        assert "nonexistent" not in stats

    def test_mapping_protocol(self):
        stats = _sample()
        assert len(stats) == 6
        assert list(stats)[0] == "route.t_init"
        assert stats.as_dict()["exec.workers"] == 4


class TestAbsorb:
    def test_disjoint_registries_compose(self):
        a = _sample()
        b = StatsRegistry()
        b.time("map.t_cover", 0.5)
        a.absorb(b)
        assert a["map.t_cover"] == 0.5
        assert a["route.t_init"] == 0.25

    def test_shared_key_is_an_error(self):
        a = _sample()
        b = StatsRegistry()
        b.count("route.violations", 1)
        with pytest.raises(StatsCollisionError):
            a.absorb(b)


class TestMerge:
    def test_sums_and_maxes_by_kind(self):
        a = _sample()
        b = _sample()
        a.merge(b)
        assert a["route.t_init"] == 0.5          # time: sum
        assert a["route.violations"] == 6        # count: sum
        assert a["map.cell_area"] == 106.4       # gauge: sum
        assert a["route.wirelength"] == 241.0    # metric: sum
        assert a["route.iterations"] == 14       # work: sum
        assert a["exec.workers"] == 4            # env: max

    def test_merge_into_empty(self):
        out = StatsRegistry.merged([_sample(), _sample(), _sample()])
        assert out["route.violations"] == 9
        assert out["exec.workers"] == 4

    def test_kind_mismatch_is_an_error(self):
        a = StatsRegistry()
        a.count("x.n", 1)
        b = StatsRegistry()
        b.work("x.n", 1)
        with pytest.raises(StatsCollisionError):
            a.merge(b)

    def test_merge_order_independent_for_totals(self):
        parts = []
        for i in range(4):
            part = StatsRegistry()
            part.count("a.n", i)
            part.gauge("a.g", i * 0.5)
            parts.append(part)
        forward = StatsRegistry.merged(parts)
        backward = StatsRegistry.merged(reversed(parts))
        assert forward.as_dict() == backward.as_dict()


class TestDeterministicView:
    def test_only_count_and_gauge(self):
        stats = _sample()
        view = stats.deterministic()
        assert set(view) == {"route.violations", "map.cell_area"}
        assert view["route.violations"] == 3


class TestReplayed:
    def test_results_kept_work_and_time_zeroed(self):
        stats = _sample()
        replay = stats.replayed()
        assert list(replay) == list(stats)
        assert replay.kinds() == stats.kinds()
        assert replay.deterministic() == stats.deterministic()
        assert replay["route.wirelength"] == 120.5
        assert replay["exec.workers"] == 4
        assert replay["route.iterations"] == 0
        assert replay["route.t_init"] == 0.0

    def test_source_untouched(self):
        stats = _sample()
        stats.replayed()
        assert stats["route.iterations"] == 7
        assert stats["route.t_init"] == 0.25
