"""The evaluation memo of the serial K loops.

``pdc@0.03`` on 11 rows maps the six K values below to two distinct
netlists (violations 16, then 10 five times) and never routes clean, so
the route cache never changes and four points reuse an earlier
evaluation.  ``spla@0.01`` on 9 rows also maps two distinct netlists but
routes clean at every K: with route reuse on, a clean store that
changes the cache's routes makes the next point route again, and one
that re-stores equal routes keeps the evaluation it made.  A memo that
outlives one loop also keeps each K's mapping, for loops that pass it
the same base, positions and partition objects.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.core.flow as flow_mod
from repro.circuits import benchmark
from repro.core import (
    EvalMemo,
    FlowConfig,
    congestion_aware_flow,
    evaluate_netlist,
    k_search,
    k_sweep,
    run_k_point,
)
from repro.core.partition import partition as make_partition
from repro.library import CORELIB018
from repro.network import decompose
from repro.place import Floorplan, place_base_network
from repro.route import GlobalRouter, RouteCache

K_VALUES = [0.0, 0.0001, 0.00025, 0.0005, 0.001, 0.0025]


def _die(name, scale, rows):
    base = decompose(benchmark(name, scale))
    config = FlowConfig(library=CORELIB018)
    floorplan = Floorplan.for_gates(base.num_gates(), rows)
    positions = place_base_network(base, floorplan, seed=config.seed)
    return base, config, floorplan, positions


@pytest.fixture(scope="module")
def congested():
    return _die("pdc", 0.03, 11)


@pytest.fixture(scope="module")
def clean():
    return _die("spla", 0.01, 9)


@pytest.fixture
def pnr_calls(monkeypatch):
    """Counts of ``place_netlist`` and ``GlobalRouter.route`` calls."""
    calls = {"place": 0, "route": 0}
    real_place = flow_mod.place_netlist
    real_route = GlobalRouter.route

    def place(*args, **kwargs):
        calls["place"] += 1
        return real_place(*args, **kwargs)

    def route(self, *args, **kwargs):
        calls["route"] += 1
        return real_route(self, *args, **kwargs)

    monkeypatch.setattr(flow_mod, "place_netlist", place)
    monkeypatch.setattr(GlobalRouter, "route", route)
    return calls


@pytest.fixture
def map_calls(monkeypatch):
    """The number of ``map_network`` calls so far."""
    calls = [0]
    real = flow_mod.map_network

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(flow_mod, "map_network", counted)
    return calls


def _distinct(points):
    return len({p.mapping.netlist.structure_key() for p in points})


class TestSweepReuse:
    def test_places_and_routes_each_distinct_netlist_once(self, congested,
                                                          pnr_calls):
        base, config, floorplan, positions = congested
        points = k_sweep(base, floorplan, config, k_values=K_VALUES,
                         positions=positions)
        assert [p.violations for p in points] == [16, 10, 10, 10, 10, 10]
        assert _distinct(points) == 2
        assert pnr_calls == {"place": 2, "route": 2}
        assert sum(p.stats.get("eval.reused", 0) for p in points) == 4

    def test_reused_points_equal_fresh_evaluations(self, congested):
        base, config, floorplan, positions = congested
        points = k_sweep(base, floorplan, config, k_values=K_VALUES,
                         positions=positions)
        assert [p.stats.get("eval.reused", 0) for p in points] == \
            [0, 0, 1, 1, 1, 1]
        for point in points:
            fresh = evaluate_netlist(point.mapping.netlist, floorplan,
                                     config, k=point.k)
            assert point.row() == fresh.row()
            assert point.hpwl == fresh.hpwl
            assert point.routed_wirelength == fresh.routed_wirelength
            assert point.overflowed_nets == fresh.overflowed_nets

    def test_reused_point_stats(self, congested):
        base, config, floorplan, positions = congested
        first, again = k_sweep(base, floorplan, config,
                               k_values=K_VALUES[1:3], positions=positions)
        assert "eval.reused" not in first.stats
        assert again.stats["eval.reused"] == 1
        assert again.placement is first.placement
        assert again.routing is first.routing
        assert again.k == K_VALUES[2] and again.mapping is not first.mapping
        # Results carried over, work not redone, same keys and kinds.
        kinds = first.stats.kinds()
        assert {k: v for k, v in again.stats.kinds().items()
                if k != "eval.reused"} == kinds
        assert again.stats.deterministic() == first.stats.deterministic()
        assert again.stats["route.wirelength"] == \
            first.stats["route.wirelength"]
        assert again.stats["route.segments_rerouted"] == 0
        assert again.stats["route.t_negotiate"] == 0.0
        assert again.stats["place.t_mincut"] == 0.0
        evaluate = again.trace.children[1]
        assert [span.duration for span in evaluate.children] == [0.0, 0.0]
        assert evaluate.name == "evaluate"
        assert evaluate.attrs == {"k": K_VALUES[2]}
        assert evaluate.counters["eval.reused"] == 1
        assert evaluate.skeleton()[3] == first.trace.children[1].skeleton()[3]


class TestLoopsShareTheRule:
    def test_flow_routes_only_distinct_netlists(self, congested, pnr_calls):
        base, config, floorplan, positions = congested
        result = congestion_aware_flow(base, floorplan, config,
                                       k_schedule=K_VALUES, tolerance=6,
                                       positions=positions)
        assert len(result.history) == len(K_VALUES)
        assert not result.converged
        assert pnr_calls == {"place": 2, "route": 2}

    def test_grid_search_routes_only_distinct_netlists(self, congested,
                                                       pnr_calls):
        base, config, floorplan, positions = congested
        result = k_search(base, floorplan, config, k_values=K_VALUES,
                          strategy="grid", tolerance=6, workers=1,
                          positions=positions)
        assert result.evaluations == len(K_VALUES)
        assert result.chosen is None
        assert pnr_calls == {"place": 2, "route": 2}


class TestInvalidation:
    def test_clean_store_clears_memo(self, clean, pnr_calls):
        base, config, floorplan, positions = clean
        warm = k_sweep(base, floorplan, config, k_values=K_VALUES,
                       positions=positions)
        assert all(p.violations == 0 for p in warm)
        assert _distinct(warm) == 2
        # Every clean point stored into the route cache.  A store that
        # changed the routes made the next point route again; one that
        # re-stored equal routes kept the cache, and the evaluation
        # made under it.  The placements, which never read the cache,
        # are reused.
        assert pnr_calls == {"place": 2, "route": 3}
        cold = k_sweep(base, floorplan, replace(config, route_reuse=False),
                       k_values=K_VALUES, positions=positions)
        # No cache: entries stay valid for the whole request.
        assert pnr_calls == {"place": 4, "route": 5}
        assert [p.row() for p in cold] == [p.row() for p in warm]

    def test_store_of_other_routes_clears_memo(self, clean, pnr_calls):
        base, config, floorplan, positions = clean
        points = k_sweep(base, floorplan, replace(config, route_reuse=False),
                         k_values=K_VALUES, positions=positions)
        first = points[0].mapping.netlist
        other = next(p.mapping.netlist for p in points
                     if p.mapping.netlist.structure_key()
                     != first.structure_key())
        pnr_calls.update(place=0, route=0)
        memo, cache = EvalMemo(), RouteCache()
        for _ in range(3):
            memo.evaluate(first, floorplan, config, 0.0, cache)
        # The first store changed the cache; the second re-stored equal
        # routes, so the third evaluation reused the second.
        assert pnr_calls == {"place": 1, "route": 2}
        kept = cache.routes
        evaluate_netlist(other, floorplan, config, route_cache=cache)
        assert cache.routes is not kept
        again = memo.evaluate(first, floorplan, config, 0.0, cache)
        assert pnr_calls == {"place": 2, "route": 4}
        assert "eval.reused" not in again.stats
        assert again.row() == evaluate_netlist(first, floorplan, config).row()


class TestEvaluationIsDeterministic:
    """What the memo rests on: two fresh evaluations of one netlist,
    with no cache, give the same placement, routes, row and results."""

    def test_two_fresh_evaluations_agree(self, congested):
        base, config, floorplan, positions = congested
        point = k_sweep(base, floorplan, config, k_values=[0.0],
                        positions=positions)[0]
        netlist = point.mapping.netlist
        a = evaluate_netlist(netlist, floorplan, config)
        b = evaluate_netlist(netlist, floorplan, config)
        assert a.placement.positions == b.placement.positions
        assert a.placement.pads == b.placement.pads
        assert sorted(a.routing.routes) == sorted(b.routing.routes)
        for name, route in a.routing.routes.items():
            other = b.routing.routes[name].seg_edge_ids
            assert len(route.seg_edge_ids) == len(other)
            for ids, ids_b in zip(route.seg_edge_ids, other):
                assert np.array_equal(ids, ids_b)
        assert a.row() == b.row()
        assert a.hpwl == b.hpwl
        assert a.routed_wirelength == b.routed_wirelength
        assert a.stats.deterministic() == b.stats.deterministic()


class TestMappingTier:
    @staticmethod
    def _sweep(congested, positions, part, memo):
        base, config, floorplan, _ = congested
        return k_sweep(base, floorplan, config, k_values=K_VALUES,
                       positions=positions, partition=part, memo=memo)

    @pytest.fixture(scope="class")
    def part(self, congested):
        base, config, _, positions = congested
        return make_partition(base, config.partition_style,
                              positions=positions)

    def test_repeated_loop_maps_nothing(self, congested, part, map_calls):
        positions, memo = congested[3], EvalMemo()
        first = self._sweep(congested, positions, part, memo)
        assert map_calls[0] == len(K_VALUES)
        again = self._sweep(congested, positions, part, memo)
        assert map_calls[0] == len(K_VALUES)
        assert [p.row() for p in again] == [p.row() for p in first]
        assert all(p.stats["map.reused"] == 1 for p in again)
        assert all(a.mapping is b.mapping for a, b in zip(again, first))

    def test_other_layout_objects_remap(self, congested, part, map_calls):
        """Equal positions and partition in other objects map again, and
        the tier then forgets the first objects' mappings."""
        base, config, _, positions = congested
        memo = EvalMemo()
        first = self._sweep(congested, positions, part, memo)
        other = place_base_network(base, congested[2], seed=config.seed)
        other_part = make_partition(base, config.partition_style,
                                    positions=other)
        for layout in ((other, part), (positions, other_part),
                       (positions, part)):
            calls = map_calls[0]
            points = self._sweep(congested, *layout, memo)
            assert map_calls[0] - calls == len(K_VALUES)
            assert [p.row() for p in points] == [p.row() for p in first]
            assert not any("map.reused" in p.stats for p in points)

    def test_no_partition_maps_every_time(self, congested, map_calls):
        base, config, floorplan, positions = congested
        memo = EvalMemo()
        rows = [run_k_point(base, positions, floorplan, config, 0.0,
                            memo=memo).row() for _ in range(2)]
        assert map_calls[0] == 2
        assert rows[0] == rows[1]
        assert not memo._mapped
