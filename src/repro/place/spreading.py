"""Cell spreading: recursive bisection of the analytical solution.

A raw quadratic solution collapses cells toward the die center.  This
pass recursively splits the cell population at the median and assigns
each half to the matching half of the region, preserving relative order
(hence locality) while distributing cells across the whole core — a
simplified whitespace-allocation step in the spirit of modern
analytical placers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .floorplan import Floorplan

#: Stop recursing below this population and scale cells into the region.
LEAF_POPULATION = 4


def spread(positions: np.ndarray, floorplan: Floorplan,
           weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Spread ``positions`` (n, 2) uniformly over the core.

    ``weights`` (cell areas) bias the split so each sub-region receives
    population proportional to its capacity; uniform when omitted.
    Returns a new (n, 2) array.  Every region of a recursion level is
    batched into one stable lexsort and all leaf regions are scaled
    together; results are bit-identical to :func:`_spread_reference`.
    """
    n = positions.shape[0]
    if n == 0:
        return positions.copy()
    if weights is None:
        weights = np.ones(n)
    out = positions.astype(float).copy()
    _spread_vector(out, weights, floorplan)
    return out


def _spread_vector(out: np.ndarray, weights: np.ndarray,
                   floorplan: Floorplan) -> None:
    """Level-synchronous median bisection.

    Each level concatenates every active region's cells, sorts them all
    with ONE stable lexsort keyed (region, split coordinate) — which
    reproduces each region's own stable argsort, including the tie
    order inherited from the previous level — and then performs the
    cheap scalar split bookkeeping per region.  Leaf regions are
    collected and min-max scaled in one batch per population size.
    """
    n = out.shape[0]
    regions: List[Tuple[np.ndarray, float, float, float, float, bool]] = [
        (np.arange(n), 0.0, 0.0, floorplan.width, floorplan.height, True)]
    leaves: Dict[int, List[Tuple[np.ndarray, float, float, float, float]]] = {}
    while regions:
        live: List[Tuple[np.ndarray, float, float, float, float, bool]] = []
        for region in regions:
            index = region[0]
            if index.size == 0:
                continue
            if index.size <= LEAF_POPULATION:
                leaves.setdefault(index.size, []).append(region[:5])
            else:
                live.append(region)
        if not live:
            break
        # One stable sort for every region at this level.  The sort key
        # is (region ordinal, coordinate on that region's split axis);
        # stability makes ties fall back to the concatenation order,
        # i.e. each region's previous ordering — exactly what the
        # per-region stable argsort of the reference sees.
        axes: List[bool] = []
        for i, (index, x0, y0, x1, y1, vertical) in enumerate(live):
            if (x1 - x0) > 1.5 * (y1 - y0):
                vertical = True
            elif (y1 - y0) > 1.5 * (x1 - x0):
                vertical = False
            axes.append(vertical)
        cat = np.concatenate([r[0] for r in live])
        rid = np.repeat(np.arange(len(live)),
                        [r[0].size for r in live])
        axis_of = np.array([0 if v else 1 for v in axes])
        coord = out[cat, axis_of[rid]]
        order = np.lexsort((coord, rid))
        cat = cat[order]
        starts = np.concatenate(
            [[0], np.cumsum([r[0].size for r in live])])
        regions = []
        for i, (region, vertical) in enumerate(zip(live, axes)):
            _, x0, y0, x1, y1, _ = region
            ordered = cat[starts[i]:starts[i + 1]]
            w = weights[ordered]
            total = w.sum()
            half = np.searchsorted(np.cumsum(w), total / 2.0) + 1
            half = min(max(int(half), 1), ordered.size - 1)
            left, right = ordered[:half], ordered[half:]
            frac = weights[left].sum() / total if total > 0 else 0.5
            frac = min(max(frac, 0.05), 0.95)
            if vertical:
                xm = x0 + (x1 - x0) * frac
                regions.append((left, x0, y0, xm, y1, False))
                regions.append((right, xm, y0, x1, y1, False))
            else:
                ym = y0 + (y1 - y0) * frac
                regions.append((left, x0, y0, x1, ym, True))
                regions.append((right, x0, ym, x1, y1, True))
    for size, group in sorted(leaves.items()):
        _scale_leaves(out, group)


def _scale_leaves(out: np.ndarray,
                  group: List[Tuple[np.ndarray, float, float, float, float]]
                  ) -> None:
    """Batched min-max scaling of same-population leaf regions."""
    idx = np.stack([g[0] for g in group])                   # (g, s)
    bounds = np.array([g[1:] for g in group], dtype=float)  # (g, 4)
    for axis in (0, 1):
        lo = bounds[:, axis]
        hi = bounds[:, axis + 2]
        coords = out[idx, axis]                             # (g, s)
        cmin = coords.min(axis=1)
        span = coords.max(axis=1) - cmin
        pad = 0.25 * (hi - lo)
        degenerate = span < 1e-12
        safe_span = np.where(degenerate, 1.0, span)
        scaled = (lo + pad)[:, None] + (coords - cmin[:, None]) \
            / safe_span[:, None] * ((hi - pad) - (lo + pad))[:, None]
        centered = ((lo + hi) / 2.0)[:, None]
        out[idx, axis] = np.where(degenerate[:, None], centered, scaled)


def _spread_reference(out: np.ndarray, weights: np.ndarray,
                      floorplan: Floorplan) -> None:
    """Recursive median bisection (the oracle :func:`_spread_vector`
    must match)."""
    _spread_region(out, np.arange(out.shape[0]), weights,
                   0.0, 0.0, floorplan.width, floorplan.height, vertical=True)


def _spread_region(out: np.ndarray, index: np.ndarray, weights: np.ndarray,
                   x0: float, y0: float, x1: float, y1: float,
                   vertical: bool) -> None:
    """Recursively place the cells of ``index`` into [x0,x1]×[y0,y1]."""
    if index.size == 0:
        return
    if index.size <= LEAF_POPULATION:
        _scale_into(out, index, x0, y0, x1, y1)
        return
    # Split along the longer dimension for round regions; otherwise
    # alternate as requested.
    if (x1 - x0) > 1.5 * (y1 - y0):
        vertical = True
    elif (y1 - y0) > 1.5 * (x1 - x0):
        vertical = False
    axis = 0 if vertical else 1
    order = index[np.argsort(out[index, axis], kind="stable")]
    total = weights[order].sum()
    half = np.searchsorted(np.cumsum(weights[order]), total / 2.0) + 1
    half = min(max(int(half), 1), order.size - 1)
    left, right = order[:half], order[half:]
    frac = weights[left].sum() / total if total > 0 else 0.5
    frac = min(max(frac, 0.05), 0.95)
    if vertical:
        xm = x0 + (x1 - x0) * frac
        _spread_region(out, left, weights, x0, y0, xm, y1, not vertical)
        _spread_region(out, right, weights, xm, y0, x1, y1, not vertical)
    else:
        ym = y0 + (y1 - y0) * frac
        _spread_region(out, left, weights, x0, y0, x1, ym, not vertical)
        _spread_region(out, right, weights, x0, ym, x1, y1, not vertical)


def _scale_into(out: np.ndarray, index: np.ndarray,
                x0: float, y0: float, x1: float, y1: float) -> None:
    """Min-max scale the indexed points into the region interior."""
    for axis, (lo, hi) in enumerate(((x0, x1), (y0, y1))):
        coords = out[index, axis]
        span = coords.max() - coords.min()
        pad = 0.25 * (hi - lo)
        if span < 1e-12:
            out[index, axis] = (lo + hi) / 2.0
        else:
            out[index, axis] = (lo + pad) + (coords - coords.min()) / span \
                * ((hi - pad) - (lo + pad))
