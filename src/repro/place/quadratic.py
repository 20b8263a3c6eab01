"""Quadratic (analytical) global placement.

Minimises the squared-wirelength objective over movable nodes with
fixed pad terminals: for each coordinate the optimum solves a sparse
linear system ``L x = b`` where ``L`` is the connectivity Laplacian and
``b`` collects the pad anchors.  Nets are modeled as cliques (small
nets) or stars with an auxiliary movable node (large nets) — the
standard hybrid that keeps the system sparse on high-fanout PLA-style
netlists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


Point = Tuple[float, float]

#: Nets with more pins than this use a star node instead of a clique.
CLIQUE_LIMIT = 6


@dataclass
class QpNet:
    """One net for the analytical solver.

    ``movables`` are indices of movable nodes; ``fixed`` are fixed
    terminal coordinates (pads, already-placed blocks).
    """

    movables: List[int]
    fixed: List[Point] = field(default_factory=list)

    def degree(self) -> int:
        """Total pin count."""
        return len(self.movables) + len(self.fixed)


def solve_quadratic(num_movable: int, nets: Sequence[QpNet],
                    default: Point = (0.0, 0.0)) -> np.ndarray:
    """Solve the quadratic placement; returns an (n, 2) position array.

    Nodes not touched by any net stay at ``default``.  Raises
    :class:`PlacementError` when the system is singular (no fixed
    terminal anywhere in a connected component is tolerated by falling
    back to a tiny regularisation).  The Laplacian comes from the
    batched assembly, bit-identical to the per-net reference loop.
    """
    if num_movable == 0:
        return np.zeros((0, 2))
    diag, bx, by, lap = _assemble_vector(num_movable, nets)
    x = _solve(lap, bx)
    y = _solve(lap, by)
    out = np.column_stack([x[:num_movable], y[:num_movable]])
    untouched = diag[:num_movable] <= 2e-9
    out[untouched] = default
    return out


def _assemble_reference(num_movable: int, nets: Sequence[QpNet]):
    """Per-net list-building assembly (the bit-identity oracle)."""
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    diag = np.zeros(num_movable)
    bx = np.zeros(num_movable)
    by = np.zeros(num_movable)

    star_points: List[QpNet] = []
    num_star = 0
    for net in nets:
        if net.degree() < 2:
            continue
        if net.degree() <= CLIQUE_LIMIT:
            _add_clique(net, rows, cols, vals, diag, bx, by)
        else:
            star_points.append(net)
            num_star += 1

    n = num_movable + num_star
    if num_star:
        diag = np.concatenate([diag, np.zeros(num_star)])
        bx = np.concatenate([bx, np.zeros(num_star)])
        by = np.concatenate([by, np.zeros(num_star)])
        for i, net in enumerate(star_points):
            star = num_movable + i
            weight = 1.0  # per spoke
            for m in net.movables:
                _add_edge(m, star, weight, rows, cols, vals, diag)
            for (fx, fy) in net.fixed:
                diag[star] += weight
                bx[star] += weight * fx
                by[star] += weight * fy

    # Tiny regularisation keeps components without anchors solvable.
    diag = diag + 1e-9
    lap = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    lap = lap + sp.diags(diag)
    return diag, bx, by, lap


def _assemble_vector(num_movable: int, nets: Sequence[QpNet]):
    """Batched COO assembly, bit-identical to the reference loop.

    Floating-point accumulation into the diagonal / right-hand sides and
    duplicate summing in the COO→CSR conversion are order-sensitive, so
    the batched path emits entries in exactly the reference order:
    net-major, and within a clique pin-major ``(i, j>i)`` pairs followed
    by that pin's fixed anchors.  Nets are grouped by (movable count,
    fixed count); each group's per-net emission template is scattered to
    the nets' global offsets, which reproduces the order without a
    per-pin Python loop.
    """
    cliques: List[QpNet] = []
    stars: List[QpNet] = []
    for net in nets:
        deg = net.degree()
        if deg < 2:
            continue
        (cliques if deg <= CLIQUE_LIMIT else stars).append(net)

    num_star = len(stars)
    n = num_movable + num_star
    diag = np.zeros(n)
    bx = np.zeros(n)
    by = np.zeros(n)

    blocks = []
    if cliques:
        blocks.append(_emit_cliques(cliques, diag, bx, by))
    if stars:
        blocks.append(_emit_stars(stars, num_movable, diag, bx, by))
    if blocks:
        rows = np.concatenate([b[0] for b in blocks])
        cols = np.concatenate([b[1] for b in blocks])
        vals = np.concatenate([b[2] for b in blocks])
    else:
        rows = np.zeros(0, dtype=np.int64)
        cols = np.zeros(0, dtype=np.int64)
        vals = np.zeros(0)
    diag = diag + 1e-9
    lap = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    lap = lap + sp.diags(diag)
    return diag, bx, by, lap


def _group_by_shape(nets: Sequence[QpNet]):
    """Group net ordinals by (movable count, fixed count)."""
    groups: dict = {}
    for ordinal, net in enumerate(nets):
        key = (len(net.movables), len(net.fixed))
        groups.setdefault(key, []).append(ordinal)
    return groups


def _emit_cliques(cliques: Sequence[QpNet], diag: np.ndarray,
                  bx: np.ndarray, by: np.ndarray):
    """Emit clique COO entries and diag/rhs accumulations in order."""
    m_arr = np.array([len(net.movables) for net in cliques], dtype=np.int64)
    f_arr = np.array([len(net.fixed) for net in cliques], dtype=np.int64)
    ent_sizes = m_arr * (m_arr - 1)                 # 2 entries per pair
    dia_sizes = m_arr * (m_arr - 1) + m_arr * f_arr
    rhs_sizes = m_arr * f_arr
    ent_off = np.concatenate([[0], np.cumsum(ent_sizes)[:-1]])
    dia_off = np.concatenate([[0], np.cumsum(dia_sizes)[:-1]])
    rhs_off = np.concatenate([[0], np.cumsum(rhs_sizes)[:-1]])

    rows = np.empty(int(ent_sizes.sum()), dtype=np.int64)
    cols = np.empty(int(ent_sizes.sum()), dtype=np.int64)
    vals = np.empty(int(ent_sizes.sum()))
    dia_idx = np.empty(int(dia_sizes.sum()), dtype=np.int64)
    dia_val = np.empty(int(dia_sizes.sum()))
    rhs_idx = np.empty(int(rhs_sizes.sum()), dtype=np.int64)
    rhs_w = np.empty(int(rhs_sizes.sum()))
    rhs_fx = np.empty(int(rhs_sizes.sum()))
    rhs_fy = np.empty(int(rhs_sizes.sum()))

    for (m, f), ordinals in sorted(_group_by_shape(cliques).items()):
        ords = np.array(ordinals, dtype=np.int64)
        g = len(ordinals)
        weight = 2.0 / (m + f)
        M = np.array([cliques[o].movables for o in ordinals],
                     dtype=np.int64).reshape(g, m)
        ent_slots: List[int] = []        # movable slot per COO entry
        dia_slots: List[int] = []        # movable slot per diag add
        for i in range(m):
            for j in range(i + 1, m):
                ent_slots.extend((i, j))
                dia_slots.extend((i, j))
            dia_slots.extend([i] * f)
        if ent_slots:
            block_rows = M[:, ent_slots[0::2]]
            block_cols = M[:, ent_slots[1::2]]
            p = block_rows.shape[1]
            inter_rows = np.empty((g, 2 * p), dtype=np.int64)
            inter_cols = np.empty((g, 2 * p), dtype=np.int64)
            inter_rows[:, 0::2] = block_rows    # (i, j) entry
            inter_rows[:, 1::2] = block_cols    # (j, i) entry
            inter_cols[:, 0::2] = block_cols
            inter_cols[:, 1::2] = block_rows
            pos = ent_off[ords][:, None] + np.arange(2 * p)
            rows[pos] = inter_rows
            cols[pos] = inter_cols
            vals[pos] = -weight
        if dia_slots:
            pos = dia_off[ords][:, None] + np.arange(len(dia_slots))
            dia_idx[pos] = M[:, dia_slots]
            dia_val[pos] = weight
        if m and f:
            F = np.array([cliques[o].fixed for o in ordinals],
                         dtype=float).reshape(g, f, 2)
            pos = rhs_off[ords][:, None] + np.arange(m * f)
            rhs_idx[pos] = np.repeat(M, f, axis=1)
            rhs_fx[pos] = np.tile(F[:, :, 0], (1, m))
            rhs_fy[pos] = np.tile(F[:, :, 1], (1, m))
            rhs_w[pos] = weight

    np.add.at(diag, dia_idx, dia_val)
    np.add.at(bx, rhs_idx, rhs_w * rhs_fx)
    np.add.at(by, rhs_idx, rhs_w * rhs_fy)
    return rows, cols, vals


def _emit_stars(stars: Sequence[QpNet], num_movable: int, diag: np.ndarray,
                bx: np.ndarray, by: np.ndarray):
    """Emit star-net COO entries and accumulations in reference order."""
    m_arr = np.array([len(net.movables) for net in stars], dtype=np.int64)
    f_arr = np.array([len(net.fixed) for net in stars], dtype=np.int64)
    ent_sizes = 2 * m_arr
    dia_sizes = 2 * m_arr + f_arr
    rhs_sizes = f_arr
    ent_off = np.concatenate([[0], np.cumsum(ent_sizes)[:-1]])
    dia_off = np.concatenate([[0], np.cumsum(dia_sizes)[:-1]])
    rhs_off = np.concatenate([[0], np.cumsum(rhs_sizes)[:-1]])

    rows = np.empty(int(ent_sizes.sum()), dtype=np.int64)
    cols = np.empty(int(ent_sizes.sum()), dtype=np.int64)
    vals = np.full(int(ent_sizes.sum()), -1.0)
    dia_idx = np.empty(int(dia_sizes.sum()), dtype=np.int64)
    rhs_idx = np.empty(int(rhs_sizes.sum()), dtype=np.int64)
    rhs_fx = np.empty(int(rhs_sizes.sum()))
    rhs_fy = np.empty(int(rhs_sizes.sum()))

    for (m, f), ordinals in sorted(_group_by_shape(stars).items()):
        ords = np.array(ordinals, dtype=np.int64)
        g = len(ordinals)
        star_ids = num_movable + ords
        M = np.array([stars[o].movables for o in ordinals],
                     dtype=np.int64).reshape(g, m)
        if m:
            inter_rows = np.empty((g, 2 * m), dtype=np.int64)
            inter_cols = np.empty((g, 2 * m), dtype=np.int64)
            inter_rows[:, 0::2] = M
            inter_rows[:, 1::2] = star_ids[:, None]
            inter_cols[:, 0::2] = star_ids[:, None]
            inter_cols[:, 1::2] = M
            pos = ent_off[ords][:, None] + np.arange(2 * m)
            rows[pos] = inter_rows
            cols[pos] = inter_cols
            dpos = dia_off[ords][:, None] + np.arange(2 * m)
            dia_blk = np.empty((g, 2 * m), dtype=np.int64)
            dia_blk[:, 0::2] = M
            dia_blk[:, 1::2] = star_ids[:, None]
            dia_idx[dpos] = dia_blk
        if f:
            F = np.array([stars[o].fixed for o in ordinals],
                         dtype=float).reshape(g, f, 2)
            dpos = dia_off[ords][:, None] + 2 * m + np.arange(f)
            dia_idx[dpos] = star_ids[:, None]
            pos = rhs_off[ords][:, None] + np.arange(f)
            rhs_idx[pos] = star_ids[:, None]
            rhs_fx[pos] = F[:, :, 0]
            rhs_fy[pos] = F[:, :, 1]

    np.add.at(diag, dia_idx, 1.0)
    np.add.at(bx, rhs_idx, rhs_fx)
    np.add.at(by, rhs_idx, rhs_fy)
    return rows, cols, vals


def _add_clique(net: QpNet, rows: List[int], cols: List[int],
                vals: List[float], diag: np.ndarray,
                bx: np.ndarray, by: np.ndarray) -> None:
    degree = net.degree()
    weight = 2.0 / degree
    movs = net.movables
    for i in range(len(movs)):
        for j in range(i + 1, len(movs)):
            _add_edge(movs[i], movs[j], weight, rows, cols, vals, diag)
        for (fx, fy) in net.fixed:
            diag[movs[i]] += weight
            bx[movs[i]] += weight * fx
            by[movs[i]] += weight * fy


def _add_edge(i: int, j: int, weight: float, rows: List[int],
              cols: List[int], vals: List[float], diag: np.ndarray) -> None:
    rows.extend((i, j))
    cols.extend((j, i))
    vals.extend((-weight, -weight))
    if i < len(diag):
        diag[i] += weight
    if j < len(diag):
        diag[j] += weight


def _solve(lap: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
    """Sparse SPD solve: direct for small systems, CG for large ones."""
    n = lap.shape[0]
    if n <= 4000:
        return spla.spsolve(lap.tocsc(), rhs)
    solution, info = spla.cg(lap, rhs, rtol=1e-7, maxiter=2000)
    if info != 0:
        solution = spla.spsolve(lap.tocsc(), rhs)
    return solution
