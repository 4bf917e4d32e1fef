"""Point cloud data model plus the scaling / pre-processing transforms.

A cloud is an immutable (p, D) array of float64 coordinates with optional
per-point string labels.  All transforms return new clouds.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NonFiniteCoordinate, NonPositiveCoordinate


@dataclass(frozen=True)
class PointCloud:
    """p points in R^D.  `points` has shape (p, D) and is read-only."""

    points: np.ndarray
    labels: Optional[tuple] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-D array of shape (p, D)")
        if pts.shape[0] < 2 or pts.shape[1] < 1:
            raise ValueError("need p >= 2 points of dimension D >= 1")
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            raise NonFiniteCoordinate(
                f"point {int(np.argmin(finite))} has a non-finite coordinate")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != pts.shape[0]:
                raise ValueError("labels length must equal point count")
            object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def with_points(self, pts: np.ndarray) -> "PointCloud":
        return PointCloud(pts, self.labels)

    def indices_with_label(self, label: str) -> list:
        if self.labels is None:
            return []
        return [i for i, lab in enumerate(self.labels) if lab == label]


def scale_unit(cloud: PointCloud) -> PointCloud:
    """Affinely map each dimension to [0, 1]; zero-range dimensions map to 0."""
    pts = cloud.points
    lo = pts.min(axis=0)
    rng = pts.max(axis=0) - lo
    factor = 1.0 / np.where(rng > 0, rng, 1.0)
    return cloud.with_points((pts - lo) * factor)


def log_transform(cloud: PointCloud) -> PointCloud:
    """Coordinate-wise natural logarithm; rejects non-positive coordinates."""
    if np.any(cloud.points <= 0):
        raise NonPositiveCoordinate("log transform requires strictly positive data")
    return cloud.with_points(np.log(cloud.points))


def is_unit_scaled(cloud: PointCloud, tol: float = 1e-9) -> bool:
    return bool(
        cloud.points.min() >= -tol and cloud.points.max() <= 1.0 + tol
    )


# ---------------------------------------------------------------------------
# ingestion / serialization
# ---------------------------------------------------------------------------

def _parse_rows(rows: Sequence[Sequence[str]]) -> PointCloud:
    points, labels = [], []
    any_label = False
    for row in rows:
        row = [cell.strip() for cell in row if cell.strip() != ""]
        if not row:
            continue
        try:
            float(row[-1])
            coords, label = row, None
        except ValueError:
            coords, label = row[:-1], row[-1]
            any_label = True
        points.append([float(v) for v in coords])
        labels.append(label)
    if not points:
        raise ValueError("no data rows found")
    return PointCloud(np.array(points), tuple(labels) if any_label else None)


def read_csv(path: str) -> PointCloud:
    """One point per row; optional header; optional final string label column."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if rows and _looks_like_header(rows[0]):
        rows = rows[1:]
    return _parse_rows(rows)


def _looks_like_header(row: Sequence[str]) -> bool:
    if not row:
        return False
    try:
        float(row[0])
        return False
    except ValueError:
        # header iff the first cell is non-numeric (a string in the last
        # cell alone is a point label, see _parse_rows)
        return True


def write_csv(cloud: PointCloud, path: str) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        for i, pt in enumerate(cloud.points):
            row = [repr(float(v)) for v in pt]
            if cloud.labels is not None and cloud.labels[i] is not None:
                row.append(cloud.labels[i])
            writer.writerow(row)
