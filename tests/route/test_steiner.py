"""Tests for net decomposition (MST)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.measures import hpwl
from repro.route import manhattan, mst_segments


def _mst_reference(points):
    """The array Prim :func:`mst_segments` replaced, kept as its oracle."""
    unique = sorted(set(points))
    n = len(unique)
    if n < 2:
        return []
    xs = np.asarray([p[0] for p in unique], dtype=float)
    ys = np.asarray([p[1] for p in unique], dtype=float)
    in_tree = np.zeros(n, dtype=bool)
    best_dist = np.full(n, np.inf)
    best_parent = np.full(n, -1, dtype=int)
    in_tree[0] = True
    dist0 = np.abs(xs - xs[0]) + np.abs(ys - ys[0])
    best_dist = np.minimum(best_dist, dist0)
    best_parent[dist0 <= best_dist] = 0
    best_dist[0] = np.inf
    segments = []
    for _ in range(n - 1):
        masked = np.where(in_tree, np.inf, best_dist)
        nxt = int(np.argmin(masked))
        parent = int(best_parent[nxt])
        segments.append((unique[parent], unique[nxt]))
        in_tree[nxt] = True
        dist = np.abs(xs - xs[nxt]) + np.abs(ys - ys[nxt])
        improved = (~in_tree) & (dist < best_dist)
        best_dist[improved] = dist[improved]
        best_parent[improved] = nxt
    return segments


class TestManhattan:
    def test_basic(self):
        assert manhattan((0, 0), (3, 4)) == 7

    def test_zero(self):
        assert manhattan((2, 2), (2, 2)) == 0


class TestMst:
    def test_two_points(self):
        segs = mst_segments([(0, 0), (3, 0)])
        assert segs == [((0, 0), (3, 0))]

    def test_degenerate(self):
        assert mst_segments([]) == []
        assert mst_segments([(1, 1)]) == []
        assert mst_segments([(1, 1), (1, 1)]) == []

    def test_collinear_chain(self):
        points = [(0, 0), (10, 0), (5, 0)]
        segs = mst_segments(points)
        total = sum(manhattan(a, b) for a, b in segs)
        assert total == 10  # chain, not star

    def test_spanning(self):
        points = [(0, 0), (4, 0), (0, 4), (4, 4), (2, 2)]
        segs = mst_segments(points)
        assert len(segs) == len(set(points)) - 1
        # Connectivity: union-find over segments.
        parent = {p: p for p in points}

        def find(p):
            while parent[p] != p:
                parent[p] = parent[parent[p]]
                p = parent[p]
            return p

        for a, b in segs:
            parent[find(a)] = find(b)
        roots = {find(p) for p in points}
        assert len(roots) == 1

    def test_mst_optimal_on_triangle(self):
        segs = mst_segments([(0, 0), (1, 0), (10, 0)])
        total = sum(manhattan(a, b) for a, b in segs)
        assert total == 10

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                    min_size=2, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_property_tree_and_connected(self, points):
        unique = sorted(set(points))
        segs = mst_segments(points)
        assert len(segs) == max(0, len(unique) - 1)
        if len(unique) < 2:
            return
        parent = {p: p for p in unique}

        def find(p):
            while parent[p] != p:
                parent[p] = parent[parent[p]]
                p = parent[p]
            return p

        for a, b in segs:
            assert find(a) != find(b), "MST must not create cycles"
            parent[find(a)] = find(b)
        assert len({find(p) for p in unique}) == 1

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    max_size=24)
           | st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                      max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_property_matches_array_prim(self, points):
        """Same segments, in order, as the array Prim: tiny coordinate
        ranges make duplicate and equidistant pins the common case, so
        every tie-break rule is exercised."""
        assert mst_segments(points) == _mst_reference(points)

    def test_equidistant_ties_match_array_prim(self):
        diamond = [(2, 0), (0, 2), (4, 2), (2, 4), (2, 2), (2, 2)]
        assert mst_segments(diamond) == _mst_reference(diamond)

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                    min_size=2, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_property_mst_at_least_hpwl(self, points):
        unique = sorted(set(points))
        if len(unique) < 2:
            return
        segs = mst_segments(points)
        total = sum(manhattan(a, b) for a, b in segs)
        assert total >= hpwl(unique) / 2.0 - 1e-9


class TestHpwl:
    def test_bbox(self):
        assert hpwl([(0, 0), (3, 4), (1, 1)]) == 7

    def test_degenerate(self):
        assert hpwl([(5, 5)]) == 0
