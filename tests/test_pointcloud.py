import json
import math

import numpy as np
import pytest

from chsa.errors import (NonFiniteCoordinate, NonPositiveAlpha,
                         NonPositiveCoordinate)
from chsa.pointcloud import (PointCloud, log_transform, read_csv, read_json,
                             read_pixel_table, scale_unit, uniform_scale,
                             write_csv)


def test_scale_unit_endpoints():
    cloud = PointCloud([[0, 10], [1, 20]])
    scaled, _ = scale_unit(cloud)
    assert np.allclose(scaled.points, [[0, 0], [1, 1]])


def test_scale_unit_zero_range_dimension():
    cloud = PointCloud([[5, 5], [5, 7]])
    scaled, _ = scale_unit(cloud)
    assert np.allclose(scaled.points, [[0, 0], [0, 1]])


def test_scale_unit_minmax_random():
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.normal(size=(40, 4)) * 7 + 2)
    scaled, _ = scale_unit(cloud)
    # oracle: direct min/max scan per dimension
    assert np.allclose(scaled.points.min(axis=0), 0.0)
    assert np.allclose(scaled.points.max(axis=0), 1.0)
    assert scaled.points.min() >= 0 and scaled.points.max() <= 1


def test_scale_unit_roundtrip():
    rng = np.random.default_rng(4)
    orig = rng.normal(size=(25, 3)) * 100 - 40
    scaled, record = scale_unit(PointCloud(orig))
    back = record.invert(scaled)
    assert np.max(np.abs(back.points - orig) / np.maximum(1, np.abs(orig))) < 1e-12


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


def test_uniform_scale():
    cloud = PointCloud([[1.0, 0.0], [2.0, 3.0]])
    assert np.allclose(uniform_scale(cloud, 1.0).points, cloud.points)
    assert np.allclose(uniform_scale(cloud, 2.0).points[0], [2, 0])
    with pytest.raises(NonPositiveAlpha):
        uniform_scale(cloud, 0.0)


def test_uniform_scale_distances():
    rng = np.random.default_rng(6)
    cloud = PointCloud(rng.random((10, 3)))
    scaled = uniform_scale(cloud, 3.5)
    d0 = np.linalg.norm(cloud.points[0] - cloud.points[5])
    d1 = np.linalg.norm(scaled.points[0] - scaled.points[5])
    assert d1 == pytest.approx(3.5 * d0)


def test_uniform_scale_then_unit_matches_direct():
    rng = np.random.default_rng(7)
    cloud = PointCloud(rng.random((20, 3)) + 0.1)
    a, _ = scale_unit(uniform_scale(cloud, 4.2))
    b, _ = scale_unit(cloud)
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


def test_json_ingestion(tmp_path):
    path = tmp_path / "cloud.json"
    path.write_text(json.dumps({"points": [[0, 1], [2, 3]],
                                "labels": ["v", "w"]}))
    cloud = read_json(str(path))
    assert cloud.dim == 2 and cloud.labels == ("v", "w")


def test_pixel_table_drops_row_col(tmp_path):
    path = tmp_path / "pixels.csv"
    path.write_text("row,col,r,g,b\n0,0,0.1,0.2,0.3\n0,1,0.4,0.5,0.6\n")
    cloud = read_pixel_table(str(path))
    assert cloud.dim == 3
    assert np.allclose(cloud.points[1], [0.4, 0.5, 0.6])
