"""Validation oracles and projections.

These stay independent of the stratification path so they can serve as
ground truth in tests: an exact planar hull, a simplex-method LP vertex
oracle for any dimension, and a 2-D PCA projection for plotting
high-dimensional runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import WrongDimension
from .pointcloud import PointCloud


@dataclass(frozen=True)
class HullResult:
    vertex_indices: frozenset
    method: str


def hull_2d(cloud: PointCloud) -> HullResult:
    """Exact planar convex hull vertices via the monotone-chain scan.

    Collinear boundary points are not vertices (strict turns only).
    """
    if cloud.dim != 2:
        raise WrongDimension(f"hull_2d needs D = 2, got D = {cloud.dim}")
    if cloud.size < 3:
        raise WrongDimension("hull_2d needs at least 3 points")
    pts = cloud.points
    order = np.lexsort((pts[:, 1], pts[:, 0]))

    def cross(o, a, b):
        return ((pts[a, 0] - pts[o, 0]) * (pts[b, 1] - pts[o, 1])
                - (pts[a, 1] - pts[o, 1]) * (pts[b, 0] - pts[o, 0]))

    def half(seq):
        chain = []
        for idx in seq:
            while len(chain) > 1 and cross(chain[-2], chain[-1], idx) <= 0:
                chain.pop()
            chain.append(idx)
        return chain

    upper = half(order)
    lower = half(order[::-1])
    hull = set(int(i) for i in upper[:-1] + lower[:-1])
    return HullResult(vertex_indices=frozenset(hull), method="graham-2d")


def lp_vertex_oracle(cloud: PointCloud, i: int, tol: float = 1e-9) -> bool:
    """True iff x_i is not a convex combination of the other points.

    Phase one of the simplex method (dense tableau, Bland's rule, so no
    cycling) on the feasibility LP  sum_j w_j (x_j - x_i) = 0, sum(w) = 1,
    w >= 0  over j != i: x_i is a vertex iff it is infeasible.
    """
    others = np.delete(cloud.points, i, axis=0) - cloud.points[i]
    m, rows = others.shape[0], cloud.dim + 1
    eye = np.eye(rows)  # artificial columns; the right-hand side is eye[-1]
    tab = np.hstack([np.vstack([others.T, np.ones(m)]), eye, eye[:, -1:]])
    cost = np.concatenate([np.zeros(m), np.ones(rows)])
    basis = np.arange(m, m + rows)
    while True:
        reduced = cost - cost[basis] @ tab[:, :-1]
        entering = np.flatnonzero(reduced < -tol)
        if entering.size == 0:
            return float(cost[basis] @ tab[:, -1]) > tol
        col = tab[:, entering[0]]
        ratio = np.full(rows, np.inf)
        np.divide(tab[:, -1], col, out=ratio, where=col > tol)
        best = np.flatnonzero(ratio == ratio.min())
        r = best[np.argmin(basis[best])]
        tab[r] /= col[r]
        tab -= np.outer(col, tab[r]) * (np.arange(rows) != r)[:, None]
        basis[r] = entering[0]


def pca_2d(cloud: PointCloud) -> np.ndarray:
    """Project onto the top two principal directions.

    Sign convention: the largest-magnitude loading of each axis is made
    positive, so output is deterministic.  Rank-1 data gets a zero second
    axis.
    """
    if cloud.size < 3:
        raise ValueError("pca_2d needs at least 3 points")
    centered = cloud.points - cloud.points.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    axes = vt[:2]
    if axes.shape[0] < 2:
        axes = np.vstack([axes, np.zeros(cloud.dim)])
        s = np.concatenate([s, [0.0]])
    if s[1] <= s[0] * 1e-14:
        axes[1] = 0.0
    for row in range(2):
        j = int(np.argmax(np.abs(axes[row])))
        if axes[row, j] < 0:
            axes[row] = -axes[row]
    return centered @ axes.T

