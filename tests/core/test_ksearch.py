"""Tests for the adaptive minimum-K search (repro.core.ksearch)."""

import pytest

from repro.circuits import random_pla
from repro.core import FlowConfig, k_search, k_sweep
from repro.core.ksearch import (
    BISECT,
    FOUND,
    GRID,
    PORTFOLIO,
    UNROUTABLE,
    _pick_spread,
    _spread,
)
from repro.library import CORELIB018
from repro.network import decompose
from repro.obs import Tracer
from repro.place import Floorplan, place_base_network

#: A small grid whose routable window the strategies must all locate.
K_GRID = [0.0, 0.001, 0.01, 0.1, 1.0]


@pytest.fixture(scope="module")
def search_setup():
    pla = random_pla("ks", num_inputs=10, num_outputs=6, num_products=30,
                     literals=(3, 6), outputs_per_product=(1, 2),
                     groups=3, input_window=6, seed=77)
    base = decompose(pla.to_network())
    config = FlowConfig(library=CORELIB018, max_route_iterations=8)
    floorplan = Floorplan.from_rows(14, aspect=1.0)
    positions = place_base_network(base, floorplan)
    return base, config, floorplan, positions


@pytest.fixture(scope="module")
def sweep_oracle(search_setup):
    """The exhaustive sweep over K_GRID, plus a tolerance that makes at
    least one grid point routable and the row that tolerance selects."""
    base, config, floorplan, positions = search_setup
    points = k_sweep(base, floorplan, config, k_values=K_GRID,
                     positions=positions)
    tol = min(p.violations for p in points)
    minimum = next(p for p in points if p.violations <= tol)
    return points, tol, minimum


def _rows_by_k(points):
    return {p.k: (p.row(), p.routed_wirelength) for p in points}


class TestStrategiesAgree:
    """All strategies find the grid minimum; evaluated rows are
    bit-identical to the exhaustive sweep's (warm start ≡ cold start)."""

    @pytest.mark.parametrize("strategy", [GRID, BISECT, PORTFOLIO])
    def test_chosen_k_matches_oracle(self, search_setup, sweep_oracle,
                                     strategy):
        base, config, floorplan, positions = search_setup
        sweep, tol, minimum = sweep_oracle
        result = k_search(base, floorplan, config, k_values=K_GRID,
                          positions=positions, strategy=strategy,
                          tolerance=tol, workers=3)
        assert result.verdict == FOUND
        assert result.chosen_k == minimum.k
        assert result.chosen.violations <= tol
        assert result.evaluations <= len(K_GRID)
        oracle = _rows_by_k(sweep)
        for point in result.evaluated:
            row, wire = oracle[point.k]
            assert point.row() == row
            assert point.routed_wirelength == wire

    def test_portfolio_worker_invariant(self, search_setup, sweep_oracle):
        base, config, floorplan, positions = search_setup
        _, tol, minimum = sweep_oracle
        serial = k_search(base, floorplan, config, k_values=K_GRID,
                          positions=positions, strategy=PORTFOLIO,
                          tolerance=tol, workers=1)
        wide = k_search(base, floorplan, config, k_values=K_GRID,
                        positions=positions, strategy=PORTFOLIO,
                        tolerance=tol, workers=3)
        # The probe *set* scales with the round width; the chosen K and
        # the rows of commonly probed points never depend on it.
        assert serial.chosen_k == wide.chosen_k == minimum.k
        serial_rows = _rows_by_k(serial.evaluated)
        wide_rows = _rows_by_k(wide.evaluated)
        common = set(serial_rows) & set(wide_rows)
        assert common
        for k in common:
            assert serial_rows[k] == wide_rows[k]

    def test_grid_strategy_stops_at_first_routable(self, search_setup,
                                                   sweep_oracle):
        base, config, floorplan, positions = search_setup
        sweep, tol, minimum = sweep_oracle
        result = k_search(base, floorplan, config, k_values=K_GRID,
                          positions=positions, strategy=GRID, tolerance=tol)
        stop = next(i for i, p in enumerate(sweep) if p.violations <= tol)
        assert [p.k for p in result.evaluated] == \
            [p.k for p in sweep[:stop + 1]]


class TestUnroutableGrid:
    def test_exhausts_grid_and_reports(self, search_setup, monkeypatch):
        import repro.core.flow as flow_mod

        base, config, floorplan, positions = search_setup
        real_router = flow_mod.GlobalRouter

        class HopelessRouter(real_router):
            def route(self, points, cache=None):
                routing = super().route(points, cache=cache)
                routing.violations = 99
                return routing

        monkeypatch.setattr(flow_mod, "GlobalRouter", HopelessRouter)
        grid = [0.0, 0.01, 1.0]
        for strategy in (GRID, BISECT, PORTFOLIO):
            result = k_search(base, floorplan, config, k_values=grid,
                              positions=positions, strategy=strategy,
                              workers=2)
            assert result.verdict == UNROUTABLE
            assert result.chosen is None and result.chosen_k is None
            # Declaring the grid unroutable requires probing all of it.
            assert result.evaluations == len(grid)


class TestResultBookkeeping:
    def test_stats_and_trace(self, search_setup, sweep_oracle):
        base, config, floorplan, positions = search_setup
        _, tol, _ = sweep_oracle
        tracer = Tracer("run", command="ksearch")
        result = k_search(base, floorplan, config, k_values=K_GRID,
                          positions=positions, strategy=BISECT,
                          tolerance=tol, tracer=tracer)
        stats = result.stats
        assert stats["ksearch.grid_points"] == len(K_GRID)
        assert stats["ksearch.found"] == 1
        assert stats["ksearch.evaluations"] == result.evaluations
        assert stats["ksearch.certified_skips"] == \
            len(K_GRID) - result.evaluations
        root = tracer.close()
        span = root.children[0]
        assert span.name == "ksearch"
        assert span.attrs["strategy"] == BISECT
        k_points = [c for c in span.children if c.name == "k_point"]
        assert len(k_points) == result.evaluations

    def test_parallel_round_bookkeeping(self, search_setup, sweep_oracle):
        """A pool round is counted, and its exec.* entries reach both
        the result's stats and the ``ksearch`` span."""
        base, config, floorplan, positions = search_setup
        _, tol, _ = sweep_oracle
        tracer = Tracer("run", command="ksearch")
        result = k_search(base, floorplan, config, k_values=K_GRID,
                          positions=positions, strategy=PORTFOLIO,
                          tolerance=tol, workers=2, tracer=tracer)
        span = tracer.close().children[0]
        assert result.stats["ksearch.rounds"] >= 1
        assert span.counters["ksearch.rounds"] == \
            result.stats["ksearch.rounds"]
        for key in ("exec.workers", "exec.parallel"):
            assert key in result.stats, key
            assert key in span.counters, key

    def test_grid_normalized_sorted_deduped(self, search_setup, sweep_oracle):
        base, config, floorplan, positions = search_setup
        _, tol, _ = sweep_oracle
        result = k_search(base, floorplan, config,
                          k_values=[0.01, 0.0, 0.01, 1.0],
                          positions=positions, strategy=GRID, tolerance=tol)
        assert result.k_grid == (0.0, 0.01, 1.0)
        table_ks = [p.k for p in result.table_points()]
        assert table_ks == sorted(p.k for p in result.evaluated)

    def test_rejects_bad_inputs(self, search_setup):
        base, config, floorplan, positions = search_setup
        with pytest.raises(ValueError):
            k_search(base, floorplan, config, k_values=[],
                     positions=positions)
        with pytest.raises(ValueError):
            k_search(base, floorplan, config, k_values=[0.0],
                     positions=positions, strategy="annealing")


class TestProbeSpreads:
    """The index-picking helpers behind the portfolio rounds."""

    def test_spread_includes_anchor_and_end(self):
        assert _spread(14, 4) == [0, 4, 9, 13]
        assert _spread(14, 2) == [0, 13]
        assert _spread(3, 8) == [0, 1, 2]
        for n in (2, 5, 14, 29):
            for count in (2, 3, 7):
                picked = _spread(n, count)
                assert picked[0] == 0
                assert picked == sorted(set(picked))
                assert all(0 <= i < n for i in picked)

    def test_pick_spread_subsets_candidates(self):
        cand = [3, 4, 7, 9, 10, 12]
        assert _pick_spread(cand, 10) == cand
        picked = _pick_spread(cand, 3)
        assert len(picked) == 3
        assert set(picked) <= set(cand)
        assert picked[0] == cand[0] and picked[-1] == cand[-1]
