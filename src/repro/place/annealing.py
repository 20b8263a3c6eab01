"""Simulated-annealing placement refinement.

A classic swap/relocate annealer over a legalized row placement,
minimising half-perimeter wirelength.  Too slow for the large
benchmark circuits (the quadratic flow handles those); used to polish
small blocks and as an independent reference placer in tests.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .floorplan import Floorplan

Point = Tuple[float, float]


def anneal(positions: np.ndarray, nets: Sequence[Sequence[int]],
           fixed: Sequence[Sequence[Point]], floorplan: Floorplan,
           moves: int = 20_000, seed: int = 0,
           start_temp: Optional[float] = None) -> np.ndarray:
    """Anneal by swapping cell positions; returns improved positions.

    Swapping positions of equal-footprint treatment keeps legality
    approximately intact for the uniform-size use case (base networks);
    for mapped netlists run :func:`repro.place.legalize.legalize_rows`
    afterwards.  Each move evaluates its touched nets with one batched
    gather over padded per-net index arrays and caches accepted net
    lengths; the RNG call sequence and every accept/reject decision
    match :func:`_anneal_reference` bit for bit.
    """
    if positions.shape[0] < 2 or moves <= 0:
        return positions.copy()
    return _anneal_vector(positions, nets, fixed, moves, seed, start_temp)


def _anneal_reference(positions: np.ndarray, nets: Sequence[Sequence[int]],
                      fixed: Sequence[Sequence[Point]], moves: int,
                      seed: int, start_temp: Optional[float]) -> np.ndarray:
    """Per-net loop annealer (the oracle :func:`_anneal_vector` must
    match)."""
    n = positions.shape[0]
    rng = random.Random(seed)
    pos = positions.astype(float).copy()

    # Incremental evaluation: nets touching each cell.
    nets_of: Dict[int, List[int]] = {}
    for net_id, movables in enumerate(nets):
        for cell in movables:
            nets_of.setdefault(cell, []).append(net_id)

    def net_len(net_id: int) -> float:
        movables = nets[net_id]
        pads = fixed[net_id]
        xs = [pos[i, 0] for i in movables] + [p[0] for p in pads]
        ys = [pos[i, 1] for i in movables] + [p[1] for p in pads]
        if len(xs) < 2:
            return 0.0
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    current = sum(net_len(i) for i in range(len(nets)))
    temp = start_temp if start_temp is not None else current / max(1, len(nets)) or 1.0
    cooling = 0.98 ** (1.0 / max(1, moves // 100))
    for _ in range(moves):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b:
            continue
        touched = sorted(set(nets_of.get(a, []) + nets_of.get(b, [])))
        before = sum(net_len(t) for t in touched)
        pos[[a, b]] = pos[[b, a]]
        after = sum(net_len(t) for t in touched)
        delta = after - before
        if delta <= 0 or rng.random() < math.exp(-delta / max(temp, 1e-12)):
            current += delta
        else:
            pos[[a, b]] = pos[[b, a]]
        temp *= cooling
    return pos


def _anneal_vector(positions: np.ndarray, nets: Sequence[Sequence[int]],
                   fixed: Sequence[Sequence[Point]], moves: int,
                   seed: int, start_temp: Optional[float]) -> np.ndarray:
    """Batched annealer.

    Net extents come from padded (net, pin) index arrays masked with
    ±inf; pad (fixed-terminal) extrema are folded in as precomputed
    per-net scalars.  Accepted lengths are cached, so each move costs
    one gather over the touched nets instead of fresh Python loops over
    every pin.  ``max``/``min`` are reduction-order independent and the
    touched-net sums run sequentially over Python floats, keeping every
    delta bitwise equal to the reference's.
    """
    n = positions.shape[0]
    rng = random.Random(seed)
    pos = positions.astype(float).copy()
    num_nets = len(nets)

    dmax = max((len(m) for m in nets), default=0) or 1
    mov = np.zeros((num_nets, dmax), dtype=np.intp)
    mask = np.zeros((num_nets, dmax), dtype=bool)
    pad_max = np.full((num_nets, 2), -np.inf)
    pad_min = np.full((num_nets, 2), np.inf)
    active = np.zeros(num_nets, dtype=bool)
    nets_of: Dict[int, List[int]] = {}
    for net_id, movables in enumerate(nets):
        for cell in movables:
            nets_of.setdefault(cell, []).append(net_id)
        k = len(movables)
        mov[net_id, :k] = movables
        mask[net_id, :k] = True
        pads = fixed[net_id]
        if pads:
            pad_max[net_id, 0] = max(p[0] for p in pads)
            pad_min[net_id, 0] = min(p[0] for p in pads)
            pad_max[net_id, 1] = max(p[1] for p in pads)
            pad_min[net_id, 1] = min(p[1] for p in pads)
        active[net_id] = (k + len(pads)) >= 2

    def batch_lens(ids: np.ndarray) -> np.ndarray:
        pins = mov[ids]
        m = mask[ids]
        xy = pos[pins]                                     # (t, d, 2)
        hi = np.where(m[:, :, None], xy, -np.inf).max(axis=1)
        lo = np.where(m[:, :, None], xy, np.inf).min(axis=1)
        hi = np.maximum(hi, pad_max[ids])
        lo = np.minimum(lo, pad_min[ids])
        span = (hi[:, 0] - lo[:, 0]) + (hi[:, 1] - lo[:, 1])
        return np.where(active[ids], span, 0.0)

    cached = batch_lens(np.arange(num_nets))
    current = sum(cached.tolist())
    temp = start_temp if start_temp is not None \
        else current / max(1, num_nets) or 1.0
    cooling = 0.98 ** (1.0 / max(1, moves // 100))
    for _ in range(moves):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b:
            continue
        touched = sorted(set(nets_of.get(a, []) + nets_of.get(b, [])))
        tids = np.asarray(touched, dtype=np.intp)
        before = sum(cached[tids].tolist())
        pos[[a, b]] = pos[[b, a]]
        new_lens = batch_lens(tids)
        after = sum(new_lens.tolist())
        delta = after - before
        if delta <= 0 or rng.random() < math.exp(-delta / max(temp, 1e-12)):
            cached[tids] = new_lens
        else:
            pos[[a, b]] = pos[[b, a]]
        temp *= cooling
    return pos
