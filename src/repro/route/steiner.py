"""Net topology generation: MST decomposition into two-pin segments.

Multi-pin nets are decomposed into two-pin connections along a
rectilinear minimum spanning tree (Prim).  An RMST is within 1.5× of
the optimal rectilinear Steiner tree and is the standard global-routing
decomposition; the congestion *trends* the benches assert are
insensitive to the Steiner gap.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

GCell = Tuple[int, int]


def manhattan(a: Sequence[float], b: Sequence[float]) -> float:
    """Manhattan distance."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def gcell_signature(points: Sequence[GCell]) -> Tuple[GCell, ...]:
    """Canonical pin signature of a net: sorted distinct GCells.

    :func:`mst_segments` depends only on this signature, which is what
    makes it a sound cross-K route-reuse key: two nets with equal
    signatures decompose into identical two-pin segments.
    """
    return tuple(sorted(set(points)))


def mst_segments(points: Sequence[GCell]) -> List[Tuple[GCell, GCell]]:
    """Prim MST over GCells; returns two-pin segments (deduplicated).

    Degenerate nets (zero or one distinct point) return no segments.
    Ties are broken canonically: every point starts with the first
    (smallest) point as its parent, the next point joined is the
    lowest-index one at minimum distance, and a parent changes only on
    a strictly shorter distance.  Nets have a handful of pins, so plain
    Python lists beat array code here.
    """
    unique = sorted(set(points))
    n = len(unique)
    if n < 2:
        return []
    x0, y0 = unique[0]
    best_dist = [abs(x - x0) + abs(y - y0) for x, y in unique]
    best_parent = [0] * n
    rest = list(range(1, n))           # points outside the tree, ascending
    segments: List[Tuple[GCell, GCell]] = []
    while rest:
        nxt = min(rest, key=best_dist.__getitem__)   # first minimum
        rest.remove(nxt)
        segments.append((unique[best_parent[nxt]], unique[nxt]))
        px, py = unique[nxt]
        for i in rest:
            x, y = unique[i]
            dist = abs(x - px) + abs(y - py)
            if dist < best_dist[i]:
                best_dist[i] = dist
                best_parent[i] = nxt
    return segments

