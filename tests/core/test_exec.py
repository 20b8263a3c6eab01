"""Tests for the parallel execution layer (repro.exec)."""

import pytest

from repro.circuits import random_pla
from repro.core import FlowConfig, k_sweep
from repro.exec import default_workers, fan_out, pool_available
from repro.library import CORELIB018
from repro.network import decompose
from repro.obs import StatsRegistry, Tracer
from repro.place import Floorplan, place_base_network


def _square(payload, task):
    return payload * task * task


def _boom(payload, task):
    raise ValueError(f"task {task} failed")


class TestFanOut:
    def test_serial_ordered(self):
        assert fan_out(_square, 2, [0, 1, 2, 3], workers=1) == [0, 2, 8, 18]

    def test_parallel_ordered_and_identical_to_serial(self):
        tasks = list(range(20))
        serial = fan_out(_square, 3, tasks, workers=1)
        stats = StatsRegistry()
        parallel = fan_out(_square, 3, tasks, workers=4, stats=stats)
        assert parallel == serial
        assert stats["exec.workers"] >= 1

    def test_single_task_stays_serial(self):
        stats = StatsRegistry()
        assert fan_out(_square, 1, [5], workers=8, stats=stats) == [25]
        assert stats["exec.parallel"] == 0

    def test_unpicklable_payload_falls_back_to_serial(self):
        # A lambda payload cannot cross a process boundary; the pool
        # attempt must degrade to the serial loop, not crash.
        stats = StatsRegistry()
        out = fan_out(lambda payload, task: task + 1,
                      None, [1, 2], workers=4, stats=stats)
        assert out == [2, 3]
        assert stats["exec.parallel"] in (0, 1)

    def test_task_error_propagates(self):
        with pytest.raises(ValueError):
            fan_out(_boom, None, [1, 2], workers=1)

    def test_default_workers_positive(self):
        assert default_workers() >= 1
        assert pool_available() in (True, False)


class TestFallbackObservability:
    """A pool failure must degrade to serial *and* leave a trail —
    never a silent `except: pass` (the ISSUE 7 satellite bugfix)."""

    def test_pool_failure_records_stats_and_event(self, monkeypatch):
        import repro.exec.pool as pool_mod

        if not pool_available():
            pytest.skip("no process pool on this platform")

        def induced_failure(fn, payload, tasks, nproc, deliver):
            raise RuntimeError("induced pool failure")

        monkeypatch.setattr(pool_mod, "_fan_out_pool", induced_failure)
        stats = StatsRegistry()
        tracer = Tracer("run", command="test")
        out = fan_out(_square, 2, [0, 1, 2], workers=4, stats=stats,
                      tracer=tracer)
        # The serial fallback still produces the right answers...
        assert out == [0, 2, 8]
        # ...but the degradation is visible in the environment facts...
        assert stats["exec.fallback"] == 1
        assert stats["exec.workers"] == 1
        assert stats["exec.parallel"] == 0
        # ...and the exception class lands in the trace.
        root = tracer.close()
        events = [c for c in root.children if c.name == "exec_fallback"]
        assert len(events) == 1
        assert events[0].attrs["error"] == "RuntimeError"
        assert "induced pool failure" in events[0].attrs["detail"]

    def test_healthy_pool_records_no_fallback(self):
        if not pool_available():
            pytest.skip("no process pool on this platform")
        stats = StatsRegistry()
        out = fan_out(_square, 2, list(range(8)), workers=2, stats=stats)
        assert out == [2 * t * t for t in range(8)]
        assert "exec.fallback" not in stats


@pytest.fixture(scope="module")
def sweep_setup():
    pla = random_pla("par", num_inputs=9, num_outputs=5, num_products=24,
                     literals=(3, 5), outputs_per_product=(1, 2), seed=21)
    base = decompose(pla.to_network())
    config = FlowConfig(library=CORELIB018, max_route_iterations=6)
    floorplan = Floorplan.from_rows(13, aspect=1.0)
    positions = place_base_network(base, floorplan)
    return base, config, floorplan, positions


class TestParallelKSweepDeterminism:
    """ISSUE 2 acceptance: workers=N is bit-identical to workers=1."""

    K_VALUES = [0.0, 0.0005, 0.005, 0.05, 0.5]

    def test_rows_identical_point_for_point(self, sweep_setup):
        base, config, floorplan, positions = sweep_setup
        serial = k_sweep(base, floorplan, config, k_values=self.K_VALUES,
                         positions=positions, workers=1)
        parallel = k_sweep(base, floorplan, config, k_values=self.K_VALUES,
                           positions=positions, workers=4)
        assert len(serial) == len(parallel) == len(self.K_VALUES)
        for s, p in zip(serial, parallel):
            assert s.row() == p.row()
            # Beyond the row tuple: the full evaluation agrees.
            assert s.routed_wirelength == p.routed_wirelength
            assert s.hpwl == p.hpwl
            assert s.mapping.netlist.cell_histogram() == \
                p.mapping.netlist.cell_histogram()

    def test_config_workers_used_as_default(self, sweep_setup):
        base, config, floorplan, positions = sweep_setup
        cfg = FlowConfig(library=config.library,
                         max_route_iterations=config.max_route_iterations,
                         workers=2)
        serial = k_sweep(base, floorplan, config, k_values=[0.0, 0.01],
                         positions=positions)
        viaconfig = k_sweep(base, floorplan, cfg, k_values=[0.0, 0.01],
                            positions=positions)
        assert [p.row() for p in serial] == [p.row() for p in viaconfig]

    def test_parallel_rounds_reuse_routes(self, sweep_setup):
        """ISSUE 7 satellite: workers>1 + route_reuse must actually
        warm-start (the pre-fix parallel path silently dropped the
        cache).  With 2 workers the sweep runs rounds [K0, K1], [K2];
        the second round warm-starts from the first's clean pick."""
        base, config, floorplan, positions = sweep_setup
        points = k_sweep(base, floorplan, config,
                         k_values=[0.0, 0.001, 0.01],
                         positions=positions, workers=2)
        assert points[0].stats["routes_reused"] == 0
        assert points[1].stats["routes_reused"] == 0
        if not any(p.violations == 0 for p in points[:2]):
            pytest.skip("no clean first-round point to seed the cache")
        assert points[2].stats["routes_reused"] > 0
        # And the warm rows still match a cold parallel sweep's.
        from dataclasses import replace
        cold = k_sweep(base, floorplan,
                       replace(config, route_reuse=False),
                       k_values=[0.0, 0.001, 0.01],
                       positions=positions, workers=2)
        assert [p.row() for p in points] == [p.row() for p in cold]

    def test_round_bookkeeping(self, sweep_setup):
        """Rounds [K0, K1] then [K2] report progress exactly like the
        serial sweep, in K order, and the ``sweep`` span carries the
        rounds' exec.* entries."""
        base, config, floorplan, positions = sweep_setup
        k_values = [0.0, 0.001, 0.01]
        serial, parallel = [], []
        k_sweep(base, floorplan, config, k_values=k_values,
                positions=positions, workers=1, progress=serial.append)
        tracer = Tracer("run", command="test")
        k_sweep(base, floorplan, config, k_values=k_values,
                positions=positions, workers=2, progress=parallel.append,
                tracer=tracer)
        assert parallel == serial
        assert [line.split(":")[0] for line in parallel] == \
            ["K=0", "K=0.001", "K=0.01"]
        sweep = tracer.close().children[0]
        assert sweep.name == "sweep"
        for key in ("exec.workers", "exec.parallel"):
            assert key in sweep.counters, key

    def test_fallback_round_maps_with_the_loops_matcher(self, sweep_setup,
                                                        monkeypatch):
        """A pool round that falls back to the serial loop maps its K
        points with the loop's matcher instead of building another."""
        import repro.core.flow as flow_mod
        import repro.exec.pool as pool_mod

        if not pool_available():
            pytest.skip("no process pool on this platform")
        base, config, floorplan, positions = sweep_setup
        k_values = [0.0, 0.001, 0.01]
        serial = k_sweep(base, floorplan, config, k_values=k_values,
                         positions=positions)

        def induced_failure(fn, payload, tasks, nproc, deliver):
            raise RuntimeError("induced pool failure")

        built = []

        class CountingMatcher(flow_mod.Matcher):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pool_mod, "_fan_out_pool", induced_failure)
        monkeypatch.setattr(flow_mod, "Matcher", CountingMatcher)
        points = k_sweep(base, floorplan, config, k_values=k_values,
                         positions=positions, workers=2)
        assert [p.row() for p in points] == [p.row() for p in serial]
        assert points[0].stats["exec.fallback"] == 1
        assert len(built) == 1

    def test_instrumentation_present(self, sweep_setup):
        base, config, floorplan, positions = sweep_setup
        points = k_sweep(base, floorplan, config, k_values=[0.0, 0.001],
                         positions=positions)
        for point in points:
            for key in ("map.t_partition", "map.t_cover", "map.t_build",
                        "map.match_cache_hits", "map.match_cache_misses",
                        "place.t_mincut", "place.t_legalize",
                        "route.t_init", "route.t_negotiate"):
                assert key in point.stats, key
            # Phase wall-times are the spans' own durations.
            phases = {span.name: span for span in point.trace.iter_spans()}
            assert set(phases) == {"k_point", "map", "evaluate", "place",
                                   "route"}
            assert all(span.duration > 0.0 for span in phases.values())
        # The matcher memo is shared across the sweep: the second K
        # re-uses the first K's enumerations.
        assert points[0].stats["match_cache_misses"] > 0
        assert points[1].stats["match_cache_misses"] == 0
        assert points[1].stats["match_cache_hits"] > 0
