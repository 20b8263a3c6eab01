"""Tests for the FM recursive-bisection placer."""

import numpy as np
import pytest

from repro.errors import PlacementError
from repro.place import Floorplan, QpNet
from repro.place.mincut import mincut_place


@pytest.fixture
def fp():
    return Floorplan(width=40.0, row_height=4.0, num_rows=10)


def cluster_nets(groups, size):
    """Nets forming `groups` dense clusters of `size` cells each."""
    nets = []
    for g in range(groups):
        base = g * size
        for i in range(size):
            for j in range(i + 1, size):
                nets.append(QpNet(movables=[base + i, base + j]))
    return nets


class TestBasics:
    def test_empty(self, fp):
        assert mincut_place(0, [], [], fp).shape == (0, 2)

    def test_all_inside_die(self, fp):
        n = 30
        nets = cluster_nets(3, 10)
        pos = mincut_place(n, nets, np.ones(n), fp)
        assert (pos[:, 0] >= 0).all() and (pos[:, 0] <= fp.width).all()
        assert (pos[:, 1] >= 0).all() and (pos[:, 1] <= fp.height).all()

    def test_width_mismatch_rejected(self, fp):
        with pytest.raises(PlacementError):
            mincut_place(3, [], np.ones(2), fp)

    def test_deterministic(self, fp):
        n = 20
        nets = cluster_nets(2, 10)
        a = mincut_place(n, nets, np.ones(n), fp)
        b = mincut_place(n, nets, np.ones(n), fp)
        assert np.array_equal(a, b)

    def test_seed_changes_result(self, fp):
        n = 20
        nets = cluster_nets(2, 10)
        a = mincut_place(n, nets, np.ones(n), fp, seed=0)
        b = mincut_place(n, nets, np.ones(n), fp, seed=1)
        assert not np.allclose(a, b)


class TestQuality:
    def test_clusters_stay_together(self, fp):
        """Cells of a dense cluster should end up near each other."""
        n = 30
        nets = cluster_nets(3, 10)
        pos = mincut_place(n, nets, np.ones(n), fp)
        for g in range(3):
            group = pos[g * 10:(g + 1) * 10]
            spread = group.std(axis=0).sum()
            assert spread < (fp.width + fp.height) / 3.5, \
                f"cluster {g} scattered: std {spread}"

    def test_pad_attraction(self, fp):
        """A cell tied to a corner pad lands on that side of the die."""
        n = 16
        nets = [QpNet(movables=[0], fixed=[(0.0, 0.0)]),
                QpNet(movables=[n - 1], fixed=[(fp.width, fp.height)])]
        # Weak mesh so the problem is connected.
        for i in range(n - 1):
            nets.append(QpNet(movables=[i, i + 1]))
        pos = mincut_place(n, nets, np.ones(n), fp)
        assert pos[0, 0] < pos[n - 1, 0]

    def test_beats_random_on_hpwl(self, fp):
        rng = np.random.default_rng(0)
        n = 40
        nets = cluster_nets(4, 10)
        pos = mincut_place(n, nets, np.ones(n), fp)
        random_pos = rng.uniform(0, [fp.width, fp.height], size=(n, 2))

        def hpwl(p):
            total = 0.0
            for net in nets:
                pts = p[net.movables]
                total += np.ptp(pts[:, 0]) + np.ptp(pts[:, 1])
            return total

        assert hpwl(pos) < hpwl(random_pos)
