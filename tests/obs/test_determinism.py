"""ISSUE 5 acceptance: telemetry is deterministic across workers.

``workers=4`` must report the same *deterministic* merged counters as
``workers=1`` (bit-identical), and the span trees must be identical
modulo wall-times (the :meth:`Span.skeleton` view).  Plan-dependent
``metric``/``work``/``time``/``env`` entries are exactly the ones
allowed to differ — serial sweeps share a matcher memo and a route
cache, parallel chunks do not.
"""

import pytest

from repro.circuits import benchmark, random_pla
from repro.core import EvalMemo, FlowConfig, k_sweep, run_k_point
from repro.core.partition import partition as make_partition
from repro.library import CORELIB018
from repro.network import decompose
from repro.obs import (METRIC, TIME, WORK, StatsCollisionError,
                       StatsRegistry, Tracer, merged_counters)
from repro.place import Floorplan, place_base_network

K_VALUES = [0.0, 0.001, 0.01]


@pytest.fixture(scope="module")
def sweep_setup():
    pla = random_pla("det", num_inputs=9, num_outputs=5, num_products=24,
                     literals=(3, 5), outputs_per_product=(1, 2), seed=11)
    base = decompose(pla.to_network())
    config = FlowConfig(library=CORELIB018, max_route_iterations=6)
    floorplan = Floorplan.from_rows(13, aspect=1.0)
    positions = place_base_network(base, floorplan)
    return base, config, floorplan, positions


def _traced_sweep(sweep_setup, workers):
    base, config, floorplan, positions = sweep_setup
    tracer = Tracer("run", command="test")
    points = k_sweep(base, floorplan, config, k_values=K_VALUES,
                     positions=positions, workers=workers, tracer=tracer)
    return points, tracer.close()


class TestCounterDeterminism:
    def test_merged_deterministic_counters_bit_identical(self, sweep_setup):
        serial, _ = _traced_sweep(sweep_setup, workers=1)
        parallel, _ = _traced_sweep(sweep_setup, workers=4)
        merged_serial = StatsRegistry.merged(p.stats for p in serial)
        merged_parallel = StatsRegistry.merged(p.stats for p in parallel)
        det_serial = merged_serial.deterministic()
        det_parallel = merged_parallel.deterministic()
        assert det_serial == det_parallel
        # The view is not vacuous: results of every phase are in it.
        for key in ("map.cells", "map.cell_area", "map.match_queries",
                    "route.violations", "map.estimated_wirelength"):
            assert key in det_serial
        # Routed wirelength is a metric, not a gauge: a warm-started
        # net keeps its cached legal route, so serial sweeps (which
        # thread the route cache) may total differently than cold
        # parallel chunks.
        assert merged_serial.kind("route.wirelength") == METRIC
        assert "route.wirelength" not in det_serial

    def test_per_point_deterministic_counters_match(self, sweep_setup):
        serial, _ = _traced_sweep(sweep_setup, workers=1)
        parallel, _ = _traced_sweep(sweep_setup, workers=4)
        for s, p in zip(serial, parallel):
            assert s.stats.deterministic() == p.stats.deterministic()

    def test_match_queries_independent_of_cache_state(self, sweep_setup):
        """hits + misses is a call count, not a cache property: it is
        the deterministic face of the plan-dependent hit/miss split."""
        serial, _ = _traced_sweep(sweep_setup, workers=1)
        parallel, _ = _traced_sweep(sweep_setup, workers=4)
        for s, p in zip(serial, parallel):
            assert s.stats["map.match_queries"] == \
                p.stats["map.match_queries"]
            assert s.stats["map.match_queries"] == \
                s.stats["map.match_cache_hits"] + \
                s.stats["map.match_cache_misses"]


class TestSpanTreeDeterminism:
    def test_skeletons_identical_modulo_walltimes(self, sweep_setup):
        _, root_serial = _traced_sweep(sweep_setup, workers=1)
        _, root_parallel = _traced_sweep(sweep_setup, workers=4)
        assert root_serial.skeleton() == root_parallel.skeleton()

    def test_tree_shape(self, sweep_setup):
        points, root = _traced_sweep(sweep_setup, workers=1)
        sweep = root.children[0]
        assert sweep.name == "sweep"
        assert [c.name for c in sweep.children] == ["k_point"] * len(K_VALUES)
        assert [c.attrs["k"] for c in sweep.children] == K_VALUES
        k_point = sweep.children[0]
        assert [c.name for c in k_point.children] == ["map", "evaluate"]
        evaluate = k_point.children[1]
        assert [c.name for c in evaluate.children] == ["place", "route"]
        assert all(not c.children for c in evaluate.children)

    def test_points_carry_their_subtree(self, sweep_setup):
        points, root = _traced_sweep(sweep_setup, workers=1)
        for point, child in zip(points, root.children[0].children):
            assert point.trace is child
            assert point.trace.attrs["k"] == point.k


class TestReuseDeterminism:
    """A serial sweep that reuses evaluations (``EvalMemo``) against the
    parallel path, which evaluates every K point: same rows, per-point
    deterministic counters and span skeletons."""

    REUSE_K = [0.0, 0.0001, 0.00025, 0.0005, 0.001, 0.0025]

    def test_reused_points_match_parallel(self):
        base = decompose(benchmark("pdc", 0.03))
        config = FlowConfig(library=CORELIB018)
        floorplan = Floorplan.for_gates(base.num_gates(), 11)
        positions = place_base_network(base, floorplan)
        runs = {}
        for workers in (1, 2):
            tracer = Tracer("run", command="test")
            points = k_sweep(base, floorplan, config, k_values=self.REUSE_K,
                             positions=positions, workers=workers,
                             tracer=tracer)
            runs[workers] = points, tracer.close()
        (serial, root_serial), (parallel, root_parallel) = runs[1], runs[2]
        assert sum(p.stats.get("eval.reused", 0) for p in serial) == 4
        assert [p.row() for p in serial] == [p.row() for p in parallel]
        for s, p in zip(serial, parallel):
            assert s.stats.deterministic() == p.stats.deterministic()
        assert root_serial.children[0].skeleton() == \
            root_parallel.children[0].skeleton()


class TestOnePointLedger:
    """A point's span subtree is its one ledger: ``EvalPoint.stats`` is
    the subtree's counters merged, and each key sits on one span."""

    K = [0.0, 0.0001, 0.00025]

    @staticmethod
    def _owners(point):
        """Each key of the point's subtree -> the span that holds it."""
        owners = {}
        for span in point.trace.iter_spans():
            for key in span.counters:
                assert key not in owners, (key, owners[key], span.name)
                owners[key] = span.name
        merged = merged_counters(point.trace)
        assert point.stats.as_dict() == merged.as_dict()
        assert point.stats.kinds() == merged.kinds()
        return owners

    def test_fresh_reused_and_pool_points(self):
        base = decompose(benchmark("pdc", 0.03))
        config = FlowConfig(library=CORELIB018)
        floorplan = Floorplan.for_gates(base.num_gates(), 11)
        positions = place_base_network(base, floorplan)
        serial = k_sweep(base, floorplan, config, k_values=self.K,
                         positions=positions)
        pooled = k_sweep(base, floorplan, config, k_values=self.K,
                         positions=positions, workers=2)
        fresh, reused, pool_point = serial[1], serial[2], pooled[0]
        owners = {}
        for label, point in (("fresh", fresh), ("reused", reused),
                             ("pool", pool_point)):
            owners[label] = self._owners(point)
            for key, span in (("map.cells", "map"), ("cover.t_dp", "map"),
                              ("place.t_mincut", "place"),
                              ("route.violations", "route")):
                assert owners[label][key] == span, (label, key)
        assert "eval.reused" not in owners["fresh"]
        assert owners["reused"]["eval.reused"] == "evaluate"
        assert owners["pool"]["exec.workers"] == "k_point"
        assert "exec.workers" not in owners["fresh"]

    def test_reused_mapping_replays_the_map_span(self):
        """A K point whose mapping the memo kept carries the fresh
        point's ``map`` span replayed, plus ``map.reused`` = 1."""
        base = decompose(benchmark("pdc", 0.03))
        config = FlowConfig(library=CORELIB018)
        floorplan = Floorplan.for_gates(base.num_gates(), 11)
        positions = place_base_network(base, floorplan)
        part = make_partition(base, config.partition_style,
                              positions=positions)
        memo = EvalMemo()
        fresh, again = (k_sweep(base, floorplan, config, k_values=self.K,
                                positions=positions, partition=part,
                                memo=memo) for _ in range(2))
        for made, reused in zip(fresh, again):
            assert "map.reused" not in self._owners(made)
            assert self._owners(reused)["map.reused"] == "map"
            kept, replay = made.trace.children[0], reused.trace.children[0]
            assert replay.name == kept.name == "map"
            assert replay.skeleton() == kept.skeleton()
            assert replay.counters.deterministic() == \
                kept.counters.deterministic()
            assert replay.counters["map.match_queries"] == \
                kept.counters["map.match_queries"] > 0
            assert replay.duration == 0.0
            kinds = replay.counters.kinds()
            assert kinds.pop("map.reused") == WORK
            assert kinds == kept.counters.kinds()
            assert all(replay.counters[key] == 0 for key, kind
                       in kinds.items() if kind in (WORK, TIME))
            assert reused.trace.skeleton() == made.trace.skeleton()


class TestFlowStatsAreCollisionSafe:
    def test_absorbing_a_phase_twice_raises(self, sweep_setup):
        """Satellite: the old dict-update silently overwrote shared
        keys; the registry turns that bug class into an error."""
        base, config, floorplan, positions = sweep_setup
        point = run_k_point(base, positions, floorplan, config, 0.0)
        with pytest.raises(StatsCollisionError):
            point.stats.absorb(point.routing.stats)
        with pytest.raises(StatsCollisionError):
            point.stats.absorb(point.mapping.stats)

    def test_point_stats_cover_all_namespaces(self, sweep_setup):
        base, config, floorplan, positions = sweep_setup
        point = run_k_point(base, positions, floorplan, config, 0.0)
        namespaces = {key.split(".", 1)[0] for key in point.stats}
        assert namespaces == {"map", "cover", "place", "route"}
