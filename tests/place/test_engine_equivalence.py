"""Vectorized placement/covering/routing kernels vs their scalar twins.

The batched kernels of the flat-array placement stack — sparse
quadratic assembly, level-synchronous spreading, fast legalization,
cached-HPWL annealing — the array covering DP and the vectorized
router must all be pure speedups: on any input they produce
*bit-identical* results to the scalar ``_*_reference`` twins kept
beside them as oracles.  These tests pin that contract at every level:
kernel (calling each twin directly), placer and mapper, and the full
flow (serial and process fan-out) with every kernel swapped for its
twin.
"""

import random

import numpy as np
import pytest

import repro.core.covering as covering
import repro.place.annealing as annealing
import repro.place.legalize as legalize
import repro.place.quadratic as quadratic
import repro.place.spreading as spreading
from repro.circuits import spla_like
from repro.core import (
    EUCLIDEAN,
    MANHATTAN,
    BoundaryInfo,
    Matcher,
    PositionMap,
    area_congestion,
    cover_tree,
    dagon_partition,
    k_sweep,
    map_network,
    min_area,
    min_delay,
)
from repro.core.flow import FlowConfig
from repro.core.matching import POS
from repro.library import CORELIB018, CellLibrary, LibCell
from repro.library.patterns import leaf, pinv, pnand
from repro.network import decompose
from repro.network.dag import BaseNetwork
from repro.place import Floorplan
from repro.place.annealing import anneal
from repro.place.legalize import check_legal, legalize_rows
from repro.place.placer import place_base_network, place_netlist
from repro.place.quadratic import QpNet
from repro.place.spreading import spread
from repro.route.reference import route_reference
from repro.route.router import GlobalRouter

#: (owner, vectorized kernel, scalar twin with the same signature).
TWINS = [
    (quadratic, "_assemble_vector", quadratic._assemble_reference),
    (spreading, "_spread_vector", spreading._spread_reference),
    (legalize, "_legalize_vector", legalize._legalize_reference),
    (annealing, "_anneal_vector", annealing._anneal_reference),
    (covering, "_cover_vector", covering._cover_reference),
    (GlobalRouter, "_route", route_reference),
]


def use_reference_kernels(monkeypatch):
    """Swap every vectorized kernel for its scalar twin."""
    for owner, name, twin in TWINS:
        monkeypatch.setattr(owner, name, twin)

FLOORPLANS = [
    Floorplan(width=104.0, row_height=5.2, num_rows=20),
    Floorplan(width=62.4, row_height=5.2, num_rows=12),
]


def random_qp_nets(seed, count, num_movable, max_degree=10):
    """Random nets spanning cliques, stars and duplicate pins."""
    rng = np.random.default_rng(seed)
    nets = []
    for _ in range(count):
        degree = int(rng.integers(2, max_degree + 1))
        movables = [int(v) for v in rng.integers(0, num_movable, degree)]
        if rng.random() < 0.3:          # duplicate pins on purpose
            movables.append(movables[0])
        fixed = [(float(rng.uniform(0, 100.0)), float(rng.uniform(0, 100.0)))
                 for _ in range(int(rng.integers(0, 3)))]
        if len(movables) + len(fixed) < 2:
            continue
        nets.append(QpNet(movables=movables, fixed=fixed))
    return nets


def assert_same_system(num_movable, nets):
    """Both assemblies build the bit-identical system (so the solver,
    which only sees the system, returns bit-identical positions)."""
    ref = quadratic._assemble_reference(num_movable, nets)
    vec = quadratic._assemble_vector(num_movable, nets)
    for a, b in zip(ref[:3], vec[:3]):
        assert np.array_equal(a, b)
    ref_lap, vec_lap = ref[3], vec[3]
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(ref_lap, attr), getattr(vec_lap, attr))


def random_positions(seed, n, floorplan):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(0, floorplan.width, n),
                            rng.uniform(0, floorplan.height, n)])


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_quadratic_assembly(self, seed):
        """COO assembly order reproduction: solutions match bitwise."""
        num_movable = 40 + 30 * seed
        nets = random_qp_nets(seed, count=80 + 40 * seed,
                              num_movable=num_movable)
        assert_same_system(num_movable, nets)

    def test_quadratic_star_only_and_clique_only(self):
        """Degenerate mixes: all-star and all-clique net sets."""
        stars = [QpNet(movables=list(range(k, k + 9)), fixed=[])
                 for k in range(0, 27, 9)]
        cliques = [QpNet(movables=[k, k + 1], fixed=[(1.0 * k, 2.0 * k)])
                   for k in range(30)]
        for nets in (stars, cliques, stars + cliques):
            assert_same_system(36, nets)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("floorplan", FLOORPLANS,
                             ids=["20rows", "12rows"])
    def test_spreading(self, seed, floorplan):
        n = 5 + 120 * seed
        pos = random_positions(seed, n, floorplan)
        weights = np.random.default_rng(seed + 99).uniform(0.5, 4.0, n)
        for w in (None, weights):
            ref = pos.copy()
            spreading._spread_reference(
                ref, np.ones(n) if w is None else w, floorplan)
            assert np.array_equal(ref, spread(pos, floorplan, weights=w))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("floorplan", FLOORPLANS,
                             ids=["20rows", "12rows"])
    def test_legalize(self, seed, floorplan):
        rng = np.random.default_rng(seed)
        capacity = floorplan.width * floorplan.num_rows
        n = min(40 + 60 * seed, int(capacity / 5.5))
        pos = random_positions(seed, n, floorplan)
        widths = rng.choice([2.4, 3.6, 4.8], n)
        ref = np.zeros_like(pos)
        legalize._legalize_reference(
            pos, widths, floorplan, 6, np.zeros(floorplan.num_rows), ref,
            np.argsort(pos[:, 0], kind="stable"))
        vec = legalize_rows(pos, widths, floorplan)
        assert np.array_equal(ref, vec)
        check_legal(vec, widths, floorplan)

    @pytest.mark.parametrize("seed", range(3))
    def test_anneal(self, seed):
        """Same RNG stream, same accept/reject stream, same swaps."""
        floorplan = FLOORPLANS[0]
        rng = np.random.default_rng(seed)
        n = 30 + 40 * seed
        pos = random_positions(seed, n, floorplan)
        nets = [[int(v) for v in rng.integers(0, n, int(rng.integers(1, 7)))]
                for _ in range(2 * n)]
        fixed = [[(float(rng.uniform(0, 104.0)), float(rng.uniform(0, 104.0)))
                  for _ in range(int(rng.integers(0, 3)))]
                 for _ in range(2 * n)]
        ref = annealing._anneal_reference(pos, nets, fixed, moves=1500,
                                          seed=seed, start_temp=None)
        vec = anneal(pos, nets, fixed, floorplan, moves=1500, seed=seed)
        assert np.array_equal(ref, vec)


def random_tree_network(seed, size=16):
    """A random NAND2/INV base network (several subject trees)."""
    rng = random.Random(seed)
    net = BaseNetwork(f"rand{seed}")
    frontier = [net.add_input(f"i{k}") for k in range(5)]
    for _ in range(size):
        if rng.random() < 0.35:
            v = net.add_inv(rng.choice(frontier))
        else:
            v = net.add_nand2(rng.choice(frontier), rng.choice(frontier))
        frontier.append(v)
    for k, v in enumerate(frontier[-3:]):
        net.set_output(f"o{k}", v)
    return net


def solution_key(sol):
    """Every decision-relevant field of a covering Solution."""
    return (sol.cost, sol.area, sol.wire1, sol.wire, sol.wire_transitive,
            sol.arrival, sol.com,
            None if sol.match is None else
            (sol.match.cell.name, sol.match.root, sol.match.phase,
             tuple(sol.match.leaves)),
            sol.inv_source_phase)


def random_position_map(base, seed, metric=MANHATTAN):
    rng = np.random.default_rng(seed)
    return PositionMap(
        [(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
         for _ in range(base.num_vertices())], metric=metric)


def busy_boundary(base, positions, seed):
    """Committed arrivals, wires and complements on every vertex."""
    rng = random.Random(seed)
    n = base.num_vertices()
    return BoundaryInfo(
        positions,
        arrivals={v: rng.uniform(0.0, 2.0) for v in range(n)},
        wires={v: rng.uniform(0.0, 80.0) for v in range(n)},
        complemented={v for v in range(n) if rng.random() < 0.5})


def assert_covers_agree(base, library, objective, boundary):
    """Per-(vertex, phase) solutions of every tree agree bitwise."""
    part = dagon_partition(base)
    matcher = Matcher(base, library)
    for root in part.roots:
        args = (base, part.trees[root], matcher, library,
                objective, boundary, part.materialized)
        ref = covering._cover_reference(*args)
        vec = cover_tree(*args)
        assert set(ref.solutions) == set(vec.solutions)
        for key in ref.solutions:
            assert solution_key(ref.solutions[key]) == \
                solution_key(vec.solutions[key]), key


def _cell(name, pattern, area):
    return LibCell(name=name, patterns=(pattern,), area=area,
                   intrinsic_delay=0.03, drive_resistance=5.0,
                   pin_caps={p: 0.002 for p in pattern.leaves()})


def and_pattern(pins):
    """AND of the pins as a balanced tree of INV(NAND2) pairs."""
    nodes = [leaf(p) for p in pins]
    while len(nodes) > 1:
        nodes = [pinv(pnand(a, b)) for a, b in zip(nodes[::2], nodes[1::2])]
    return nodes[0]


#: AND8 consumes 14 subject vertices and has 8 leaves, beyond what
#: CORELIB018 reaches (7 and 4): wide enough for numpy to sum pairwise.
WIDE_LIBRARY = CellLibrary("wide", [
    _cell("INV", pinv(leaf("A")), 1.0),
    _cell("ND2", pnand(leaf("A"), leaf("B")), 2.0),
    _cell("AND2", and_pattern("AB"), 3.0),
    _cell("AND4", and_pattern("ABCD"), 5.5),
    _cell("AND8", and_pattern("ABCDEFGH"), 9.0),
])


def and_tree_network(inputs):
    """A balanced AND tree over ``inputs`` primary inputs (one tree)."""
    net = BaseNetwork(f"and{inputs}")
    nodes = [net.add_input(f"i{k}") for k in range(inputs)]
    while len(nodes) > 1:
        nodes = [net.add_inv(net.add_nand2(a, b))
                 for a, b in zip(nodes[::2], nodes[1::2])]
    net.set_output("y", nodes[0])
    return net


class TestCoveringEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [0.0, 0.001, 0.05])
    def test_random_trees_bitwise(self, seed, k):
        """Per-(vertex, phase) solutions agree bitwise on random trees."""
        base = random_tree_network(seed)
        positions = random_position_map(base, seed)
        objective = area_congestion(k) if k else min_area()
        assert_covers_agree(base, CORELIB018, objective,
                            BoundaryInfo(positions))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("metric", [MANHATTAN, EUCLIDEAN])
    @pytest.mark.parametrize("objective", [
        area_congestion(0.05), area_congestion(0.01, transitive_wire=True),
        min_delay(0.0), min_delay(0.01)],
        ids=["area", "transitive", "delay", "delay-wire"])
    def test_objectives_metrics_and_boundaries_bitwise(self, seed, metric,
                                                        objective):
        """Delay and transitive-wire objectives, both metrics, and
        shared leaves with committed arrivals, wires and complements."""
        base = random_tree_network(seed)
        positions = random_position_map(base, seed, metric)
        assert_covers_agree(base, CORELIB018, objective,
                            busy_boundary(base, positions, seed))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("metric", [MANHATTAN, EUCLIDEAN])
    @pytest.mark.parametrize("k", [0.0, 0.01])
    def test_wide_matches_bitwise(self, seed, metric, k):
        """Matches with 8+ consumed vertices and 8+ leaves."""
        base = and_tree_network(32)
        positions = random_position_map(base, seed, metric)
        widest = max(len(m.consumed)
                     for m in Matcher(base, WIDE_LIBRARY).matches_in_tree(
                         base.outputs["y"], frozenset(base.gates()))[POS])
        assert widest == 14
        assert_covers_agree(base, WIDE_LIBRARY, area_congestion(k),
                            BoundaryInfo(positions))

    @pytest.mark.parametrize("k", [0.0, 0.01])
    def test_mapper_end_to_end(self, k, monkeypatch):
        """map_network over the covering twin emits the identical netlist."""
        base = decompose(spla_like(0.02))
        floorplan = Floorplan.from_rows(16)
        positions = place_base_network(base, floorplan)

        def run():
            return map_network(base, CORELIB018, area_congestion(k),
                               partition_style="placement",
                               positions=positions)

        vec = run()
        monkeypatch.setattr(covering, "_cover_vector",
                            covering._cover_reference)
        ref = run()
        assert vec.netlist.num_cells() == ref.netlist.num_cells()
        assert sorted((i.cell_name, tuple(sorted(i.pins.items())), i.output)
                      for i in vec.netlist.instances.values()) == \
            sorted((i.cell_name, tuple(sorted(i.pins.items())), i.output)
                   for i in ref.netlist.instances.values())
        assert vec.estimated_wirelength == ref.estimated_wirelength
        assert vec.instance_positions == ref.instance_positions


class TestPlacementEquivalence:
    @pytest.fixture(scope="class")
    def netlist(self):
        base = decompose(spla_like(0.02))
        floorplan = Floorplan.from_rows(16)
        positions = place_base_network(base, floorplan)
        result = map_network(base, CORELIB018, area_congestion(0.001),
                             partition_style="placement",
                             positions=positions)
        return result.netlist

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("rows", [16, 18])
    def test_place_netlist_bitwise(self, netlist, seed, rows, monkeypatch):
        floorplan = Floorplan.from_rows(rows)
        vec = place_netlist(netlist, CORELIB018, floorplan, seed=seed)
        use_reference_kernels(monkeypatch)
        ref = place_netlist(netlist, CORELIB018, floorplan, seed=seed)
        assert ref.positions == vec.positions
        assert ref.pads == vec.pads

    def test_place_netlist_with_anneal(self, netlist, monkeypatch):
        floorplan = Floorplan.from_rows(16)
        vec = place_netlist(netlist, CORELIB018, floorplan, anneal_moves=800)
        use_reference_kernels(monkeypatch)
        ref = place_netlist(netlist, CORELIB018, floorplan, anneal_moves=800)
        assert ref.positions == vec.positions

    def test_place_base_network_bitwise(self, monkeypatch):
        base = decompose(spla_like(0.02))
        floorplan = Floorplan.from_rows(16)
        vec = place_base_network(base, floorplan)
        use_reference_kernels(monkeypatch)
        ref = place_base_network(base, floorplan)
        assert ref.as_points() == vec.as_points()

    def test_timings_recorded(self, netlist):
        floorplan = Floorplan.from_rows(16)
        timings = {}
        place_netlist(netlist, CORELIB018, floorplan, anneal_moves=100,
                      timings=timings)
        assert timings.keys() >= {"t_quadratic", "t_mincut", "t_legalize",
                                  "t_anneal"}
        assert all(t >= 0.0 for t in timings.values())


class TestFlowEquivalence:
    K_VALUES = [0.0, 0.001, 0.01]

    def _sweep(self, workers=1):
        base = decompose(spla_like(0.02))
        floorplan = Floorplan.from_rows(18)
        config = FlowConfig(library=CORELIB018, workers=workers)
        points = k_sweep(base, floorplan, config, k_values=self.K_VALUES)
        return [(p.row(), p.hpwl, p.routed_wirelength) for p in points]

    def test_flow_engines_agree_serial(self, monkeypatch):
        """Every kernel swapped for its twin: identical sweep rows."""
        vec = self._sweep()
        use_reference_kernels(monkeypatch)
        assert self._sweep() == vec

    def test_flow_engines_agree_parallel(self):
        """Serial vs ``--workers 4`` fan-out."""
        assert self._sweep() == self._sweep(workers=4)

    def test_flow_reference_parallel(self, monkeypatch):
        """The twins survive the (forked) process pool too."""
        vec = self._sweep()
        use_reference_kernels(monkeypatch)
        assert self._sweep(workers=4) == vec
