"""Exact K-nearest neighbors under the Euclidean metric.

Brute-force O(D p^2) pairwise distances; ties broken toward the smaller
point index so output is fully deterministic.  `knn_all` returns the
neighbor table as (p, K) index and distance arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import KTooLarge
from .pointcloud import PointCloud


def knn_all(cloud: PointCloud, k: int) -> tuple:
    """Exact K nearest neighbors for every point, nearest first.

    Returns (indices, distances), two (p, K) arrays whose row i holds the
    neighbors of point i.  Distances are compared on squared values;
    returned distances are rooted.
    """
    p = cloud.size
    if not 1 <= k <= p - 1:
        raise KTooLarge(f"K={k} must satisfy 1 <= K <= p-1 = {p - 1}")
    pts = cloud.points
    sq = np.sum(pts * pts, axis=1)
    # full squared-distance matrix; p is desk scale so dense is fine
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    np.clip(d2, 0.0, None, out=d2)
    np.fill_diagonal(d2, np.inf)
    indices = np.empty((p, k), dtype=np.intp)
    idx_all = np.arange(p)
    for i in range(p):
        # lexsort: primary key squared distance, secondary key index
        indices[i] = np.lexsort((idx_all, d2[i]))[:k]
    return indices, np.sqrt(np.take_along_axis(d2, indices, axis=1))
