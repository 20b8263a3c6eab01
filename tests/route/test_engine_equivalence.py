"""Vectorized router vs its per-edge reference twin.

The vectorized router must be a pure speedup: on any net set it has to
report the same routes, violations, overflowed-net count and wirelength
as :func:`repro.route.reference.route_reference`, the per-edge
rendition of the identical algorithm — small and large, uncongested and
congested designs alike.
"""

import numpy as np
import pytest

from repro.place import Floorplan
from repro.route import (
    GlobalRouter,
    RouteCache,
    RoutingGrid,
    RoutingResources,
    victim_order,
)
from repro.route.reference import route_reference
from repro.route.steiner import gcell_signature

FLOORPLAN = Floorplan(width=104.0, row_height=5.2, num_rows=20)

#: Ample and starved metal stacks: the second forces heavy negotiation.
AMPLE = RoutingResources()
STARVED = RoutingResources(metal_layers=2, derate=0.25, m1_usable=0.0)


def random_nets(seed, count, max_pins=5):
    rng = np.random.default_rng(seed)
    nets = {}
    for k in range(count):
        pins = [(float(rng.uniform(0, 104.0)), float(rng.uniform(0, 104.0)))
                for _ in range(int(rng.integers(2, max_pins + 1)))]
        nets[f"n{k}"] = pins
    return nets


def reference_route(router, nets, cache=None):
    """``router``'s routing of ``nets`` through the per-edge twin."""
    grid = RoutingGrid(router.floorplan, router.resources,
                       router.gcell_rows)
    warm = cache.warm_routes(grid) if cache is not None else {}
    return route_reference(router, grid, nets, warm)


def route_both(nets, resources, seed=0, max_iterations=6):
    """(vectorized, reference) results of one router on ``nets``."""
    router = GlobalRouter(FLOORPLAN, resources,
                          max_iterations=max_iterations, seed=seed)
    return router.route(nets), reference_route(router, nets)


#: (seed, net count): the growing sets plus two below 64 nets.
NET_SETS = [pytest.param(seed, 60 + 20 * seed, id=str(seed))
            for seed in range(5)] + [
    pytest.param(5, 8, id="8nets"), pytest.param(6, 20, id="20nets")]


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed,count", NET_SETS)
    @pytest.mark.parametrize("resources", [AMPLE, STARVED],
                             ids=["ample", "starved"])
    def test_random_net_sets_agree(self, seed, count, resources):
        """Property: both renditions agree on every routing verdict."""
        nets = random_nets(seed, count=count)
        a, b = route_both(nets, resources, seed=seed)
        assert a.violations == b.violations
        assert a.overflowed_nets == b.overflowed_nets
        assert a.iterations == b.iterations
        assert a.total_wirelength == b.total_wirelength
        for name in nets:
            assert sorted(a.routes[name].edges) == \
                sorted(b.routes[name].edges), name

    def test_multi_pin_and_degenerate_nets(self):
        nets = {
            "same_gcell": [(5.0, 5.0), (5.5, 5.5)],
            "single_pin": [(50.0, 50.0)],
            "straight": [(5.0, 50.0), (100.0, 50.0)],
            "fanout": [(5.0, 5.0), (90.0, 10.0), (50.0, 95.0), (10.0, 60.0)],
        }
        a, b = route_both(nets, AMPLE)
        assert a.violations == b.violations == 0
        assert a.total_wirelength == b.total_wirelength
        assert a.routes["same_gcell"].edges == []
        assert a.routes["single_pin"].edges == []

    def test_demand_books_match_routes(self):
        """Both renditions keep demand == committed edges (incremental
        rip-up must never leak or double-count demand)."""
        nets = random_nets(3, count=120)
        for result in route_both(nets, STARVED, seed=3):
            total_edges = sum(len(r.edges) for r in result.routes.values())
            assert total_edges == int(result.grid.demand_flat.sum())


class TestRouterStats:
    def test_phase_stats_present(self):
        nets = random_nets(1, count=80)
        result = GlobalRouter(FLOORPLAN, STARVED,
                              max_iterations=6).route(nets)
        for key in ("route.t_init", "route.t_negotiate",
                    "route.nets_rerouted", "route.segments_rerouted",
                    "route.routes_reused"):
            assert key in result.stats
        assert result.stats["segments_rerouted"] >= \
            result.stats["nets_rerouted"] > 0
        assert result.stats["routes_reused"] == 0

    def test_incremental_ripup_touches_fewer_segments(self):
        """Only segments crossing overflow are rerouted: nets far away
        from the hot spot must never be ripped up."""
        rng = np.random.default_rng(2)
        nets = {}
        for k in range(60):  # hot cluster crammed into one corner
            nets[f"hot{k}"] = [
                (float(rng.uniform(0, 20.0)), float(rng.uniform(0, 20.0)))
                for _ in range(2)]
        for k in range(40):  # cold nets along the far edge of the die
            nets[f"cold{k}"] = [
                (float(rng.uniform(80.0, 104.0)),
                 float(rng.uniform(80.0, 104.0))) for _ in range(2)]
        result = GlobalRouter(FLOORPLAN, STARVED,
                              max_iterations=6).route(nets)
        total_segments = sum(len(r.segments) for r in result.routes.values())
        assert result.iterations > 0
        assert result.stats["nets_rerouted"] > 0
        assert result.stats["segments_rerouted"] < \
            total_segments * result.iterations


class TestVictimOrdering:
    def test_seed_reaches_victim_order(self):
        orders = [victim_order(20, np.random.default_rng(seed)).tolist()
                  for seed in (0, 1)]
        assert orders[0] != orders[1]

    def test_routing_deterministic_per_seed(self):
        nets = random_nets(4, count=90)
        first = GlobalRouter(FLOORPLAN, STARVED, seed=5).route(nets)
        second = GlobalRouter(FLOORPLAN, STARVED, seed=5).route(nets)
        assert first.violations == second.violations
        assert first.total_wirelength == second.total_wirelength

    def test_engines_share_seeded_order(self):
        nets = random_nets(5, count=90)
        for seed in (0, 9):
            a, b = route_both(nets, STARVED, seed=seed)
            assert a.violations == b.violations
            assert a.total_wirelength == b.total_wirelength


class TestRouteCache:
    def test_full_reuse_on_identical_nets(self):
        nets = random_nets(6, count=50)
        cache = RouteCache()
        router = GlobalRouter(FLOORPLAN, max_iterations=6)
        first = router.route(nets, cache=cache)
        cache.store(first)
        second = router.route(nets, cache=cache)
        assert second.stats["routes_reused"] == len(nets)
        assert second.violations == first.violations
        assert second.total_wirelength == first.total_wirelength

    def test_partial_reuse_keeps_books_consistent(self):
        nets = random_nets(7, count=40)
        cache = RouteCache()
        router = GlobalRouter(FLOORPLAN, max_iterations=6)
        cache.store(router.route(nets, cache=cache))
        moved = dict(nets)
        moved["n0"] = [(1.0, 1.0), (99.0, 99.0), (1.0, 99.0)]
        result = router.route(moved, cache=cache)
        assert 0 < result.stats["routes_reused"] < len(moved)
        total_edges = sum(len(r.edges) for r in result.routes.values())
        assert total_edges == int(result.grid.demand_flat.sum())

    def test_grid_mismatch_disables_reuse(self):
        nets = random_nets(8, count=30)
        cache = RouteCache()
        router = GlobalRouter(FLOORPLAN, max_iterations=4)
        cache.store(router.route(nets, cache=cache))
        other_fp = Floorplan(width=78.0, row_height=5.2, num_rows=15)
        other = GlobalRouter(other_fp, max_iterations=4)
        result = other.route(nets, cache=cache)
        assert result.stats["routes_reused"] == 0

    def test_reference_engine_reuses_too(self):
        nets = random_nets(9, count=30)
        cache = RouteCache()
        router = GlobalRouter(FLOORPLAN, AMPLE, max_iterations=6)
        cache.store(router.route(nets, cache=cache))
        result = reference_route(router, nets, cache=cache)
        assert result.stats["routes_reused"] == len(nets)
        assert result.violations == 0

    def test_cross_gcell_move_invalidates(self):
        """A pin moved into another GCell changes the net's signature,
        so its cached route must NOT warm-start the new net."""
        nets = random_nets(10, count=40)
        cache = RouteCache()
        router = GlobalRouter(FLOORPLAN, max_iterations=6)
        cache.store(router.route(nets, cache=cache))

        grid = RoutingGrid(FLOORPLAN, AMPLE, gcell_rows=2)
        moved = dict(nets)
        old_pin = moved["n3"][0]
        new_pin = (old_pin[0], (old_pin[1] + 52.0) % 104.0)
        assert grid.gcell_of(new_pin) != grid.gcell_of(old_pin)
        moved["n3"] = [new_pin] + list(moved["n3"][1:])

        result = router.route(moved, cache=cache)
        assert result.stats["routes_reused"] == len(moved) - 1
        # The moved net's fresh route matches a cold route of the same
        # net set (reuse may not leak the stale geometry in).
        cold = router.route(moved)
        assert sorted(result.routes["n3"].edges) == \
            sorted(cold.routes["n3"].edges)

    def test_intra_gcell_move_reuses(self):
        """A move within the same GCell keeps the signature — the
        cached route stays valid and is reused."""
        nets = random_nets(11, count=40)
        cache = RouteCache()
        router = GlobalRouter(FLOORPLAN, max_iterations=6)
        cache.store(router.route(nets, cache=cache))

        grid = RoutingGrid(FLOORPLAN, AMPLE, gcell_rows=2)
        moved = dict(nets)
        old_pin = moved["n3"][0]
        cell = grid.gcell_of(old_pin)
        new_pin = (cell[0] * grid.gw + 0.25 * grid.gw,
                   cell[1] * grid.gh + 0.25 * grid.gh)
        assert grid.gcell_of(new_pin) == cell
        moved["n3"] = [new_pin] + list(moved["n3"][1:])

        result = router.route(moved, cache=cache)
        assert result.stats["routes_reused"] == len(moved)

    def test_reuse_skipped_counter(self):
        """A warm cache that contributes nothing is observable: the
        grid-mismatch drop records ``route.reuse_skipped`` instead of
        silently routing cold (the ISSUE 7 satellite bugfix)."""
        nets = random_nets(13, count=30)
        cache = RouteCache()
        router = GlobalRouter(FLOORPLAN, max_iterations=4)
        first = router.route(nets, cache=cache)
        assert first.stats["route.reuse_skipped"] == 0  # cache was empty
        cache.store(first)
        other_fp = Floorplan(width=78.0, row_height=5.2, num_rows=15)
        other = GlobalRouter(other_fp, max_iterations=4)
        mismatched = other.route(nets, cache=cache)
        assert mismatched.stats["route.reuse_skipped"] == 1
        assert mismatched.stats["routes_reused"] == 0
        warm = router.route(nets, cache=cache)
        assert warm.stats["route.reuse_skipped"] == 0
        assert warm.stats["routes_reused"] > 0

    def test_clone_is_an_independent_shard(self):
        """clone() decouples the signature table: storing into a shard
        never mutates the parent snapshot (the property the parallel
        sweep rounds rely on)."""
        nets = random_nets(14, count=25)
        cache = RouteCache()
        router = GlobalRouter(FLOORPLAN, max_iterations=6)
        cache.store(router.route(nets, cache=cache))
        before = {sig: list(arrs) for sig, arrs in cache.routes.items()}

        shard = cache.clone()
        assert shard.grid_key == cache.grid_key
        assert set(shard.routes) == set(cache.routes)
        kept = {k: v for k, v in nets.items() if k != "n0"}
        shard.store(router.route(kept, cache=shard))
        # The parent snapshot is untouched, signature for signature.
        assert set(cache.routes) == set(before)
        for sig, arrs in cache.routes.items():
            assert all(a is b for a, b in zip(arrs, before[sig]))
        assert len(shard.routes) == len(kept)

    def test_store_replaces_stale_routes(self):
        """store() snapshots exactly the latest result: old signatures
        vanish, so a deleted net cannot resurrect a stale route."""
        nets = random_nets(12, count=20)
        cache = RouteCache()
        router = GlobalRouter(FLOORPLAN, max_iterations=6)
        cache.store(router.route(nets, cache=cache))
        assert len(cache.routes) == len(nets)

        kept = {k: v for k, v in nets.items() if k not in ("n0", "n1")}
        cache.store(router.route(kept, cache=cache))
        assert len(cache.routes) == len(kept)
        grid = RoutingGrid(FLOORPLAN, AMPLE, 2)
        signatures = {gcell_signature([grid.gcell_of(p) for p in pins])
                      for pins in kept.values()}
        assert set(cache.routes) == signatures

