import math

import numpy as np
import pytest

from chsa.errors import NonFiniteCoordinate, NonPositiveCoordinate
from chsa.pointcloud import (PointCloud, log_transform, read_csv, scale_unit,
                             write_csv)


def test_scale_unit_endpoints():
    cloud = PointCloud([[0, 10], [1, 20]])
    scaled = scale_unit(cloud)
    assert np.allclose(scaled.points, [[0, 0], [1, 1]])


def test_scale_unit_zero_range_dimension():
    cloud = PointCloud([[5, 5], [5, 7]])
    scaled = scale_unit(cloud)
    assert np.allclose(scaled.points, [[0, 0], [0, 1]])


def test_scale_unit_minmax_random():
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.normal(size=(40, 4)) * 7 + 2)
    scaled = scale_unit(cloud)
    # oracle: direct min/max scan per dimension
    assert np.allclose(scaled.points.min(axis=0), 0.0)
    assert np.allclose(scaled.points.max(axis=0), 1.0)
    assert scaled.points.min() >= 0 and scaled.points.max() <= 1


def test_log_transform_values():
    cloud = PointCloud([[1.0, 1.0], [math.e, math.e ** 2]])
    out = log_transform(cloud)
    assert np.allclose(out.points, [[0, 0], [1, 2]])


def test_log_transform_range_bound():
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.uniform(1e-8, 1.0, size=(30, 2)))
    out = log_transform(cloud)
    # ln(1e-8) = -18.4207...
    assert out.points.min() >= math.log(1e-8)
    assert out.points.max() <= 0.0


def test_log_transform_rejects_nonpositive():
    with pytest.raises(NonPositiveCoordinate):
        log_transform(PointCloud([[0.0, 1.0], [1.0, 1.0]]))


def test_uniform_scale_then_unit_matches_direct():
    rng = np.random.default_rng(7)
    cloud = PointCloud(rng.random((20, 3)) + 0.1)
    a = scale_unit(cloud.with_points(cloud.points * 4.2))
    b = scale_unit(cloud)
    assert np.allclose(a.points, b.points)


def test_cloud_is_immutable():
    cloud = PointCloud([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 5.0


def test_cloud_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteCoordinate, match="point 2"):
            PointCloud(np.array([[0.0, 1.0], [1.0, 0.0], [0.5, bad]]))


def test_csv_roundtrip_with_labels(tmp_path):
    cloud = PointCloud([[0.25, 1.5], [2.0, -3.125]], ("a", None))
    path = tmp_path / "cloud.csv"
    write_csv(cloud, str(path))
    back = read_csv(str(path))
    assert np.array_equal(back.points, cloud.points)
    assert back.labels == ("a", None)


def test_csv_header_skipped(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("x,y\n0,1\n2,3\n")
    cloud = read_csv(str(path))
    assert cloud.size == 2 and cloud.dim == 2
