"""Placement & covering kernels — vectorized vs scalar reference twins.

The placement stack (quadratic seed, spreading, legalization,
annealing) and the tree-covering DP run flat numpy kernels, each kept
beside the scalar ``_*_reference`` twin it replaced.  This bench runs
the full map-and-place pipeline twice at growing scales — once as
shipped, once with every kernel swapped for its twin (the same swap
``tests/place/test_engine_equivalence.py`` makes) — asserts the
results are bit-identical, and records the per-phase timing breakdown
to ``BENCH_placement.json``.

The acceptance floor applies to the *combined* placement + covering
time at the largest scale — the quantity the Figure-3 K-loop actually
pays once per K point.  The matcher is pre-warmed before timing, the
way a K sweep sees it (every K after the first hits the match memo).
"""

import os
import time

import pytest

import repro.core.covering as covering
import repro.place.annealing as annealing
import repro.place.legalize as legalize
import repro.place.quadratic as quadratic
import repro.place.spreading as spreading
from bench_common import write_bench_json
from conftest import publish
from repro.circuits import spla_like
from repro.core import Matcher, area_congestion, map_network
from repro.io import format_table
from repro.library import CORELIB018
from repro.network import decompose
from repro.place import Floorplan, place_base_network
from repro.place.placer import place_netlist

SCALES = [0.03, 0.06, 0.125]

#: Anneal budget per place_netlist call — enough for the cached-HPWL
#: incremental evaluation to dominate the anneal cost.
ANNEAL_MOVES = 4000

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Full-run acceptance: combined placement + covering through the
#: vectorized kernels must at least halve the reference cost at the
#: largest scale (ISSUE 6 tentpole criterion).
PLACEMENT_SPEEDUP_FLOOR = 2.0

#: (owner, vectorized kernel, scalar twin with the same signature).
TWINS = [
    (quadratic, "_assemble_vector", quadratic._assemble_reference),
    (spreading, "_spread_vector", spreading._spread_reference),
    (legalize, "_legalize_vector", legalize._legalize_reference),
    (annealing, "_anneal_vector", annealing._anneal_reference),
    (covering, "_cover_vector", covering._cover_reference),
]

_cache = {}


def _run_pass(base, floorplan, matcher, reference):
    """One full mapping + placement pass; returns results and timings.

    ``reference=True`` swaps every kernel for its scalar twin.  Each
    pass starts from an empty cover memo so the DP really runs: the
    pre-warm already covered every tree at this K.
    """
    matcher._cover_memo = None
    with pytest.MonkeyPatch.context() as patch:
        if reference:
            for owner, name, twin in TWINS:
                patch.setattr(owner, name, twin)
        timings = {}
        t0 = time.perf_counter()
        positions = place_base_network(base, floorplan, timings=timings)
        t_place_ti = time.perf_counter() - t0

        t0 = time.perf_counter()
        mapping = map_network(base, CORELIB018, area_congestion(0.001),
                              partition_style="placement",
                              positions=positions, matcher=matcher)
        t_map = time.perf_counter() - t0

        t0 = time.perf_counter()
        placement = place_netlist(mapping.netlist, CORELIB018, floorplan,
                                  anneal_moves=ANNEAL_MOVES, timings=timings)
        t_place_cells = time.perf_counter() - t0

    t_dp = float(mapping.stats.get("cover.t_dp", 0.0))
    return {
        "positions": positions.as_points(),
        "cells": sorted((i.cell_name, tuple(sorted(i.pins.items())),
                         i.output)
                        for i in mapping.netlist.instances.values()),
        "placed": placement.positions,
        "total": t_place_ti + t_dp + t_place_cells,
        "t_place_ti": t_place_ti,
        "t_map": t_map,
        "t_dp": t_dp,
        "t_place_cells": t_place_cells,
        "phases": dict(timings),
    }


def run_placement_engines():
    if "rows" in _cache:
        return _cache["rows"]
    scales = SCALES[:1] if SMOKE else SCALES
    rows = []
    for scale in scales:
        base = decompose(spla_like(scale))
        floorplan = Floorplan.for_area(base.num_gates() * 12.0 / 0.35,
                                       aspect=1.0)
        # One shared matcher, pre-warmed: K-sweep reality is a hot
        # match memo, so the DP timing isolates covering, not matching.
        matcher = Matcher(base, CORELIB018)
        map_network(base, CORELIB018, area_congestion(0.001),
                    partition_style="placement",
                    positions=place_base_network(base, floorplan),
                    matcher=matcher)

        vec = _run_pass(base, floorplan, matcher, reference=False)
        ref = _run_pass(base, floorplan, matcher, reference=True)

        # Equivalence gate: kernels and twins agree bitwise end to end.
        assert vec["positions"] == ref["positions"]
        assert vec["cells"] == ref["cells"]
        assert vec["placed"] == ref["placed"]

        rows.append({
            "scale": scale,
            "gates": base.num_gates(),
            "cells": len(vec["cells"]),
            "t_vector": vec["total"],
            "t_reference": ref["total"],
            "speedup": ref["total"] / max(vec["total"], 1e-9),
            "vector_phases": {
                "t_place_ti": vec["t_place_ti"],
                "t_dp": vec["t_dp"],
                "t_place_cells": vec["t_place_cells"],
                **{f"place.{k}": v for k, v in vec["phases"].items()},
            },
            "reference_phases": {
                "t_place_ti": ref["t_place_ti"],
                "t_dp": ref["t_dp"],
                "t_place_cells": ref["t_place_cells"],
                **{f"place.{k}": v for k, v in ref["phases"].items()},
            },
        })
    _cache["rows"] = rows
    return rows


def test_placement_engines(benchmark):
    """Vectorized placement + covering speedup over the scalar oracles."""
    rows = benchmark.pedantic(run_placement_engines, rounds=1, iterations=1)
    table = format_table(
        ["scale", "gates", "cells", "vector (s)",
         "ti-place/DP/cell-place (s)", "reference (s)", "speedup"],
        [(f"{r['scale']:g}", r["gates"], r["cells"],
          f"{r['t_vector']:.3f}",
          f"{r['vector_phases']['t_place_ti']:.3f}/"
          f"{r['vector_phases']['t_dp']:.3f}/"
          f"{r['vector_phases']['t_place_cells']:.3f}",
          f"{r['t_reference']:.3f}", f"{r['speedup']:.1f}x")
         for r in rows],
        title="Placement & covering kernels - vectorized vs scalar "
              f"reference ({'smoke' if SMOKE else 'full'} mode; "
              "bit-identical results asserted per scale)")
    publish("placement_engines", table)

    payload = {
        "mode": "smoke" if SMOKE else "full",
        "speedup_floor": None if SMOKE else PLACEMENT_SPEEDUP_FLOOR,
        "anneal_moves": ANNEAL_MOVES,
        "rows": rows,
    }
    write_bench_json("placement", payload)

    assert all(r["t_vector"] > 0 and r["t_reference"] > 0 for r in rows)
    if not SMOKE:
        largest = rows[-1]
        assert largest["speedup"] >= PLACEMENT_SPEEDUP_FLOOR, \
            (f"vectorized kernels only {largest['speedup']:.1f}x over the "
             f"reference at scale {largest['scale']:g} "
             f"(floor {PLACEMENT_SPEEDUP_FLOOR:.0f}x)")
