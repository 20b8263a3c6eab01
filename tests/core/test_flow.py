"""Tests for the flow drivers (Figure 3, K sweep, die escalation)."""

import pytest

from repro.circuits import random_pla
from repro.core import (
    FLOW_CONVERGED,
    FLOW_EARLY_STOP,
    FLOW_SCHEDULE_EXHAUSTED,
    FlowConfig,
    congestion_aware_flow,
    dagon_flow,
    evaluate_netlist,
    find_routable_die,
    k_sweep,
    run_k_point,
    sis_flow,
    timing_of_point,
)
from repro.errors import ReproError
from repro.library import CORELIB018
from repro.network import check_base_vs_mapped, decompose
from repro.obs import StatsCollisionError, Tracer
from repro.place import Floorplan, place_base_network


@pytest.fixture(scope="module")
def flow_setup():
    """A small PLA circuit with floorplan and placed base network."""
    pla = random_pla("flow", num_inputs=10, num_outputs=6, num_products=30,
                     literals=(3, 6), outputs_per_product=(1, 2),
                     groups=3, input_window=6, seed=77)
    base = decompose(pla.to_network())
    config = FlowConfig(library=CORELIB018, max_route_iterations=8)
    floorplan = Floorplan.from_rows(14, aspect=1.0)
    positions = place_base_network(base, floorplan)
    return base, config, floorplan, positions


class TestRunKPoint:
    def test_point_fields(self, flow_setup):
        base, config, floorplan, positions = flow_setup
        point = run_k_point(base, positions, floorplan, config, 0.0)
        assert point.cell_area > 0
        assert point.num_cells > 0
        assert 0 < point.utilization < 100
        assert point.violations >= 0
        assert point.hpwl > 0
        assert point.mapping is not None
        assert point.routable == (point.violations == 0)

    def test_row_format(self, flow_setup):
        base, config, floorplan, positions = flow_setup
        point = run_k_point(base, positions, floorplan, config, 0.001)
        k, area, cells, util, violations = point.row()
        assert k == 0.001
        assert area == point.cell_area


class TestKSweep:
    def test_sweep_shapes(self, flow_setup):
        base, config, floorplan, positions = flow_setup
        messages = []
        points = k_sweep(base, floorplan, config,
                         k_values=[0.0, 0.01, 5.0],
                         positions=positions,
                         progress=messages.append)
        assert len(points) == 3
        assert len(messages) == 3
        # Area is non-decreasing in K (the paper's monotone column).
        assert points[0].cell_area <= points[-1].cell_area + 1e-6
        # Utilization follows area.
        assert points[0].utilization <= points[-1].utilization + 1e-6

    def test_all_points_functionally_correct(self, flow_setup):
        base, config, floorplan, positions = flow_setup
        for point in k_sweep(base, floorplan, config,
                             k_values=[0.0, 1.0], positions=positions):
            check_base_vs_mapped(base, point.mapping.netlist, CORELIB018)


class TestCongestionAwareFlow:
    def test_converges_on_generous_die(self, flow_setup):
        base, config, _, _ = flow_setup
        generous = Floorplan.from_rows(24, aspect=1.0)
        result = congestion_aware_flow(base, generous, config,
                                       k_schedule=[0.0, 0.005],
                                       tolerance=5)
        assert result.converged
        assert result.chosen is not None
        assert result.chosen_k in (0.0, 0.005)

    def test_fails_on_hopeless_die(self, flow_setup):
        base, config, floorplan, positions = flow_setup
        # A die at ~97% utilization legalizes (barely) but cannot route.
        point = run_k_point(base, positions, floorplan, config, 0.0)
        tight = Floorplan.for_area(point.cell_area / 0.97, aspect=1.0)
        try:
            result = congestion_aware_flow(base, tight, config,
                                           k_schedule=[0.0, 0.001, 0.002])
        except Exception:
            return  # placement infeasible also counts as non-convergence
        assert not result.converged
        assert result.chosen is None


def _script_violations(monkeypatch, sequence):
    """Make every routing report the next scripted violation count.

    The real router still runs (so all other figures stay genuine);
    only the verdict is forced, which lets the tests drive the flow
    heuristics through exact violation profiles.
    """
    import repro.core.flow as flow_mod

    # Re-scripting within one test must wrap the pristine router, not
    # stack a second script on top of an exhausted one.
    real_router = getattr(flow_mod.GlobalRouter, "_script_real",
                          flow_mod.GlobalRouter)
    remaining = iter(sequence)

    class ScriptedRouter(real_router):
        _script_real = real_router

        def route(self, points, cache=None):
            routing = super().route(points, cache=cache)
            routing.violations = next(remaining)
            return routing

    monkeypatch.setattr(flow_mod, "GlobalRouter", ScriptedRouter)


def _script_point_violations(monkeypatch, sequence):
    """Make every K point of the flow report the next scripted count.

    Mapping, placement and routing still run; only the count the
    Figure 3 loop judges is forced.  Scripting per K point rather than
    per routing keeps one count per point when points that map to equal
    netlists share one evaluation (``EvalMemo``): a deterministic
    evaluation cannot give equal netlists different counts.
    """
    import repro.core.flow as flow_mod

    real_point = getattr(flow_mod.run_k_point, "_script_real",
                         flow_mod.run_k_point)
    remaining = iter(sequence)

    def scripted(*args, **kwargs):
        point = real_point(*args, **kwargs)
        point.violations = next(remaining)
        return point

    scripted._script_real = real_point
    monkeypatch.setattr(flow_mod, "run_k_point", scripted)


class TestFlowVerdicts:
    """The Figure 3 loop records *why* it stopped, not just whether."""

    SCHEDULE = [0.0, 0.001, 0.002, 0.005]

    def test_strictly_rising_violations_early_stop(self, flow_setup,
                                                   monkeypatch):
        base, config, floorplan, positions = flow_setup
        _script_point_violations(monkeypatch, [5, 6, 7])
        tracer = Tracer("run", command="flow")
        result = congestion_aware_flow(base, floorplan, config,
                                       k_schedule=self.SCHEDULE,
                                       positions=positions, tracer=tracer)
        assert result.verdict == FLOW_EARLY_STOP
        assert not result.converged
        assert result.chosen is None
        # The heuristic fires at the third point, not after the fourth.
        assert len(result.history) == 3
        flow_span = tracer.close().children[0]
        assert flow_span.attrs["verdict"] == FLOW_EARLY_STOP
        assert flow_span.counters["flow.early_stop"] == 1.0

    def test_plateau_does_not_trigger_heuristic(self, flow_setup,
                                                monkeypatch):
        base, config, floorplan, positions = flow_setup
        _script_point_violations(monkeypatch, [5, 5, 5, 5])
        tracer = Tracer("run", command="flow")
        result = congestion_aware_flow(base, floorplan, config,
                                       k_schedule=self.SCHEDULE,
                                       positions=positions, tracer=tracer)
        assert result.verdict == FLOW_SCHEDULE_EXHAUSTED
        assert not result.converged
        assert len(result.history) == len(self.SCHEDULE)
        flow_span = tracer.close().children[0]
        assert flow_span.counters["flow.early_stop"] == 0.0

    def test_tolerance_preempts_early_stop(self, flow_setup, monkeypatch):
        """One violation profile, two verdicts: [8, 6, 7, 8] early-stops
        at tolerance 0 (6 < 7 < 8), but at tolerance 6 the second point
        already converges — acceptance is checked before the heuristic
        ever sees a rising tail."""
        base, config, floorplan, positions = flow_setup
        profile = [8, 6, 7, 8]
        _script_point_violations(monkeypatch, profile)
        strict = congestion_aware_flow(base, floorplan, config,
                                       k_schedule=self.SCHEDULE,
                                       positions=positions)
        assert strict.verdict == FLOW_EARLY_STOP
        assert len(strict.history) == len(profile)
        _script_point_violations(monkeypatch, profile)
        tolerant = congestion_aware_flow(base, floorplan, config,
                                         k_schedule=self.SCHEDULE,
                                         positions=positions, tolerance=6)
        assert tolerant.verdict == FLOW_CONVERGED
        assert tolerant.converged
        assert tolerant.chosen_k == self.SCHEDULE[1]
        assert tolerant.chosen.violations == 6

    def test_converged_verdict_on_clean_map(self, flow_setup):
        base, config, _, _ = flow_setup
        generous = Floorplan.from_rows(24, aspect=1.0)
        result = congestion_aware_flow(base, generous, config,
                                       k_schedule=[0.0, 0.005], tolerance=5)
        assert result.converged
        assert result.verdict == FLOW_CONVERGED


class TestDieEscalationEdges:
    """find_routable_die's escalation under exact violation profiles."""

    def test_escalates_until_clean(self, flow_setup, monkeypatch):
        base, config, floorplan, positions = flow_setup
        point = run_k_point(base, positions, floorplan, config, 0.0)
        _script_violations(monkeypatch, [9, 3, 0])
        fp, result = find_routable_die(point.mapping.netlist,
                                       floorplan.num_rows, config,
                                       max_extra_rows=5)
        assert fp.num_rows == floorplan.num_rows + 2
        assert result.violations == 0

    def test_tolerance_accepts_earlier_die(self, flow_setup, monkeypatch):
        base, config, floorplan, positions = flow_setup
        point = run_k_point(base, positions, floorplan, config, 0.0)
        _script_violations(monkeypatch, [9, 3, 0])
        fp, result = find_routable_die(point.mapping.netlist,
                                       floorplan.num_rows, config,
                                       max_extra_rows=5, tolerance=3)
        assert fp.num_rows == floorplan.num_rows + 1
        assert result.violations == 3

    def test_near_miss_at_last_row_raises(self, flow_setup, monkeypatch):
        base, config, floorplan, positions = flow_setup
        point = run_k_point(base, positions, floorplan, config, 0.0)
        # One above tolerance at every attempted die: must raise, never
        # round a near miss down to success.
        _script_violations(monkeypatch, [3, 2, 1])
        with pytest.raises(ReproError):
            find_routable_die(point.mapping.netlist, floorplan.num_rows,
                              config, max_extra_rows=2)


class TestFindRoutableDie:
    def test_finds_die(self, flow_setup):
        base, config, floorplan, positions = flow_setup
        point = run_k_point(base, positions, floorplan, config, 0.0)
        fp, result = find_routable_die(point.mapping.netlist, 12, config,
                                       max_extra_rows=16, tolerance=2)
        assert result.violations <= 2
        assert fp.num_rows >= 12

    def test_exhausts_and_raises(self, flow_setup):
        base, config, floorplan, positions = flow_setup
        point = run_k_point(base, positions, floorplan, config, 0.0)
        netlist = point.mapping.netlist
        # Probe downward for a die this netlist cannot route (falling
        # back to placement-infeasible if routing never fails first).
        tight_rows = None
        for rows in range(floorplan.num_rows, 2, -1):
            fp = Floorplan.from_rows(rows, aspect=1.0)
            try:
                probe = evaluate_netlist(netlist, fp, config)
            except Exception:
                tight_rows = rows
                break
            if probe.violations > 0:
                tight_rows = rows
                break
        if tight_rows is None:
            pytest.skip("netlist routes at every legalizable die")
        with pytest.raises(ReproError):
            find_routable_die(netlist, tight_rows, config, max_extra_rows=0)


class TestBaselineFlows:
    def test_sis_flow_preserves_function(self):
        pla = random_pla("sisf", num_inputs=8, num_outputs=4,
                         num_products=16, literals=(2, 4),
                         outputs_per_product=(1, 2), seed=3)
        net = pla.to_network()
        result = sis_flow(net, CORELIB018)
        # sis_flow optimizes a copy; verify against the original.
        base = decompose(net)
        from repro.network import check_boolnet_vs_base
        check_boolnet_vs_base(net, base)
        from repro.network.simulate import simulate_boolnet, simulate_mapped
        from repro.network.equiv import _stimulus, _reorder, _compare
        stim, valid = _stimulus(net.inputs, 1024, seed=5)
        ref = simulate_boolnet(net, stim)
        got = simulate_mapped(result.netlist, CORELIB018,
                              _reorder(stim, net.inputs,
                                       result.netlist.inputs))
        assert _compare(ref, got, valid) is None

    def test_dagon_flow_area_not_smaller_than_sis(self):
        pla = random_pla("cmp", num_inputs=10, num_outputs=6,
                         num_products=40, literals=(3, 7),
                         outputs_per_product=(1, 3), seed=9)
        sis = sis_flow(pla.to_network(), CORELIB018)
        dag = dagon_flow(pla.to_network(), CORELIB018)
        assert sis.stats["cell_area"] <= dag.stats["cell_area"] * 1.05


class TestTiming:
    def test_timing_of_point(self, flow_setup):
        base, config, floorplan, positions = flow_setup
        point = run_k_point(base, positions, floorplan, config, 0.0)
        report = timing_of_point(point, config)
        assert report.critical_arrival > 0
        assert report.critical_output in point.mapping.netlist.outputs

    def test_timing_needs_mapping_or_netlist(self, flow_setup):
        base, config, floorplan, positions = flow_setup
        point = run_k_point(base, positions, floorplan, config, 0.0)
        netlist = point.mapping.netlist
        point.mapping = None
        with pytest.raises(ReproError):
            timing_of_point(point, config)
        report = timing_of_point(point, config, netlist=netlist)
        assert report.critical_arrival > 0


class TestPlaceAttemptSeeds:
    """An evaluation places and routes once, and both the placer and the
    router are seeded with ``config.seed`` (the router seed drives the
    negotiation's victim ordering), also when the routing fails."""

    def test_router_seed_advances_with_attempt(self, flow_setup, monkeypatch):
        import repro.core.flow as flow_mod

        base, config, floorplan, positions = flow_setup
        mapping = flow_mod.map_network(
            base, config.library, partition_style="dagon")

        seeds = {"place": [], "route": []}
        real_router = flow_mod.GlobalRouter
        real_place = flow_mod.place_netlist

        class SpyRouter(real_router):
            def __init__(self, *args, **kwargs):
                seeds["route"].append(kwargs.get("seed"))
                super().__init__(*args, **kwargs)

            def route(self, points):
                routing = super().route(points)
                routing.violations = 1   # a failed routing is not retried
                return routing

        def spy_place(*args, **kwargs):
            seeds["place"].append(kwargs.get("seed"))
            return real_place(*args, **kwargs)

        monkeypatch.setattr(flow_mod, "GlobalRouter", SpyRouter)
        monkeypatch.setattr(flow_mod, "place_netlist", spy_place)
        cfg = FlowConfig(library=config.library, seed=11,
                         max_route_iterations=2)
        point = flow_mod.evaluate_netlist(mapping.netlist, floorplan, cfg)
        assert seeds == {"place": [11], "route": [11]}
        assert point.violations == 1


class TestCrossKRouteReuse:
    """Cross-K warm-starting must be a pure speedup: bit-identical
    sweep rows and wirelength versus routing every point cold."""

    K_VALUES = [0.0, 0.001, 0.01]

    def test_three_point_sweep_matches_cold(self, flow_setup):
        from dataclasses import replace

        base, config, floorplan, positions = flow_setup
        warm_cfg = replace(config, route_reuse=True)
        cold_cfg = replace(config, route_reuse=False)
        warm = k_sweep(base, floorplan, warm_cfg, k_values=self.K_VALUES,
                       positions=positions)
        cold = k_sweep(base, floorplan, cold_cfg, k_values=self.K_VALUES,
                       positions=positions)
        assert [p.row() for p in warm] == [p.row() for p in cold]
        assert [p.routed_wirelength for p in warm] == \
            [p.routed_wirelength for p in cold]
        # The first K point seeds the cache; later points draw from it.
        reused = [p.stats["routes_reused"] for p in warm]
        assert reused[0] == 0
        assert sum(reused[1:]) > 0
        assert all(p.stats["routes_reused"] == 0 for p in cold)

    def test_router_phase_stats_reach_eval_point(self, flow_setup):
        base, config, floorplan, positions = flow_setup
        point = run_k_point(base, positions, floorplan, config, 0.0)
        for key in ("route.t_init", "route.t_negotiate",
                    "route.nets_rerouted", "route.segments_rerouted",
                    "route.routes_reused"):
            assert key in point.stats
        assert point.stats["route.t_init"] >= 0.0
        assert point.stats["route.t_negotiate"] >= 0.0


class TestRouteCacheGating:
    """Only *clean* routings may refresh the cross-K cache.

    Regression for the figure3 non-convergence: warm-starting the next
    K point's negotiation from a congested snapshot poisons it with
    overflow history the router cannot unwind.
    """

    def test_congested_result_does_not_refresh_cache(self, flow_setup,
                                                     monkeypatch):
        import repro.core.flow as flow_mod
        from repro.route import RouteCache

        base, config, floorplan, positions = flow_setup
        mapping = flow_mod.map_network(
            base, config.library, partition_style="dagon")
        real_router = flow_mod.GlobalRouter

        class CongestedRouter(real_router):
            def route(self, points, cache=None):
                routing = super().route(points, cache=cache)
                routing.violations = 7
                return routing

        monkeypatch.setattr(flow_mod, "GlobalRouter", CongestedRouter)
        cache = RouteCache()
        flow_mod.evaluate_netlist(mapping.netlist, floorplan, config,
                                  route_cache=cache)
        assert cache.routes == {}, \
            "a congested routing must not be stored for warm-starting"

    def test_clean_result_refreshes_cache(self, flow_setup):
        import repro.core.flow as flow_mod
        from repro.route import RouteCache

        base, config, floorplan, positions = flow_setup
        mapping = flow_mod.map_network(
            base, config.library, partition_style="dagon")
        cache = RouteCache()
        point = flow_mod.evaluate_netlist(mapping.netlist, floorplan,
                                          config, route_cache=cache)
        if point.violations == 0:
            assert len(cache.routes) > 0
        else:
            assert cache.routes == {}


class TestFlowTracing:
    """The flow drivers thread the run tracer through every stage."""

    def test_flow_span_tree(self, flow_setup):
        base, config, _, _ = flow_setup
        floorplan = Floorplan.from_rows(18, aspect=1.0)
        tracer = Tracer("run", command="flow")
        result = congestion_aware_flow(base, floorplan, config,
                                       k_schedule=[0.0, 0.01],
                                       tolerance=1000, tracer=tracer)
        root = tracer.close()
        flow_span = root.children[0]
        assert flow_span.name == "flow"
        assert len(flow_span.children) == len(result.history)
        assert all(c.name == "k_point" for c in flow_span.children)
        for point, child in zip(result.history, flow_span.children):
            assert point.trace is child

    def test_stats_duplicate_write_raises(self, flow_setup):
        """Re-recording an existing key on a point's spans is an error,
        not a silent overwrite (the old evaluate_netlist merge bug); the
        merged :attr:`EvalPoint.stats` is a view that writes do not
        reach."""
        base, config, floorplan, positions = flow_setup
        point = run_k_point(base, positions, floorplan, config, 0.0)
        place, route = point.trace.children[1].children
        with pytest.raises(StatsCollisionError):
            place.counters.time("place.t_mincut", 0.0)
        with pytest.raises(StatsCollisionError):
            route.counters.absorb(point.routing.stats)
        with pytest.raises(StatsCollisionError):
            point.stats.absorb(point.routing.stats)
        view = point.stats
        view.time("eval.t_probe", 0.0)
        assert "eval.t_probe" not in point.stats


class TestInjectedCaches:
    """Injected partition/matcher/route-cache are pure speedups.

    The serve engine hands the flow entry points session-scoped caches;
    every row must be bit-identical to the uninjected defaults.
    """

    K_VALUES = [0.0, 0.001, 0.01]

    def _injected(self, base, config, positions):
        from repro.core import Matcher
        from repro.core.partition import partition as make_partition
        from repro.route import RouteCache

        part = make_partition(base, config.partition_style,
                              positions=positions)
        matcher = Matcher(base, config.library)
        return part, matcher, RouteCache()

    def test_k_sweep_injection_identical(self, flow_setup):
        base, config, floorplan, positions = flow_setup
        part, matcher, cache = self._injected(base, config, positions)
        default = k_sweep(base, floorplan, config, k_values=self.K_VALUES,
                          positions=positions)
        injected = k_sweep(base, floorplan, config, k_values=self.K_VALUES,
                           positions=positions, partition=part,
                           matcher=matcher, route_cache=cache)
        assert [p.row() for p in injected] == [p.row() for p in default]
        assert [p.routed_wirelength for p in injected] == \
            [p.routed_wirelength for p in default]
        # Running again with the now-warm caches is still identical.
        warm = k_sweep(base, floorplan, config, k_values=self.K_VALUES,
                       positions=positions, partition=part,
                       matcher=matcher, route_cache=cache)
        assert [p.row() for p in warm] == [p.row() for p in default]
        assert warm[0].stats["routes_reused"] > 0

    def test_flow_injection_identical(self, flow_setup):
        base, config, floorplan, positions = flow_setup
        part, matcher, cache = self._injected(base, config, positions)
        default = congestion_aware_flow(base, floorplan, config,
                                        k_schedule=[0.0, 0.01],
                                        tolerance=1000,
                                        positions=positions)
        injected = congestion_aware_flow(base, floorplan, config,
                                         k_schedule=[0.0, 0.01],
                                         tolerance=1000,
                                         positions=positions,
                                         partition=part, matcher=matcher,
                                         route_cache=cache)
        assert [p.row() for p in injected.history] == \
            [p.row() for p in default.history]
        assert injected.verdict == default.verdict
        assert injected.chosen_k == default.chosen_k

    def test_k_search_injection_identical(self, flow_setup):
        from repro.core import k_search

        base, config, floorplan, positions = flow_setup
        part, matcher, cache = self._injected(base, config, positions)
        default = k_search(base, floorplan, config,
                           k_values=self.K_VALUES, positions=positions,
                           tolerance=1000)
        injected = k_search(base, floorplan, config,
                            k_values=self.K_VALUES, positions=positions,
                            tolerance=1000, partition=part,
                            matcher=matcher, route_cache=cache)
        assert injected.chosen_k == default.chosen_k
        assert [p.row() for p in injected.table_points()] == \
            [p.row() for p in default.table_points()]

    def test_route_reuse_off_ignores_injected_cache(self, flow_setup):
        from dataclasses import replace

        base, config, floorplan, positions = flow_setup
        part, matcher, cache = self._injected(base, config, positions)
        off = replace(config, route_reuse=False)
        points = k_sweep(base, floorplan, off, k_values=self.K_VALUES,
                         positions=positions, partition=part,
                         matcher=matcher, route_cache=cache)
        assert all(p.stats["routes_reused"] == 0 for p in points)
        assert cache.routes == {}, \
            "route_reuse=False must not touch the injected cache"
