import numpy as np
import pytest

from chsa.errors import KTooLarge
from chsa.neighbors import knn_all
from chsa.pointcloud import PointCloud


def brute_force_neighbors(points, i, k):
    """Independent oracle: full pairwise sort with (distance, index) keys."""
    d = [(np.linalg.norm(points[j] - points[i]), j)
         for j in range(len(points)) if j != i]
    d.sort()
    return [j for _, j in d[:k]]


def test_line_neighbors():
    cloud = PointCloud([[0.0], [1.0], [2.0]])
    indices, _ = knn_all(cloud, 2)
    assert sorted(indices[1].tolist()) == [0, 2]


def test_tie_broken_by_index():
    cloud = PointCloud([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    indices, _ = knn_all(cloud, 1)
    # (0,1) and (1,0) both at distance 1 from the origin point
    assert indices[0].tolist() == [1]


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    cloud = PointCloud(rng.random((100, 5)))
    indices, distances = knn_all(cloud, 7)
    assert indices.shape == distances.shape == (100, 7)
    for i in range(cloud.size):
        assert indices[i].tolist() == brute_force_neighbors(cloud.points, i, 7)


def test_distances_sorted_and_rooted():
    rng = np.random.default_rng(12)
    cloud = PointCloud(rng.random((30, 3)))
    indices, distances = knn_all(cloud, 10)
    for i in range(cloud.size):
        assert np.all(np.diff(distances[i]) >= 0)
        j = indices[i, 0]
        assert distances[i, 0] == pytest.approx(
            np.linalg.norm(cloud.points[j] - cloud.points[i]))


def test_k_equals_p_minus_1_is_all_points():
    rng = np.random.default_rng(13)
    cloud = PointCloud(rng.random((15, 2)))
    indices, _ = knn_all(cloud, 14)
    for i in range(cloud.size):
        assert sorted(indices[i].tolist()) == [j for j in range(15) if j != i]


def test_duplicate_points_are_legal_neighbors():
    cloud = PointCloud([[0.5, 0.5], [0.5, 0.5], [1.0, 1.0]])
    indices, distances = knn_all(cloud, 1)
    assert indices[0].tolist() == [1]
    assert distances[0, 0] == 0.0


def test_k_too_large():
    cloud = PointCloud([[0.0], [1.0]])
    with pytest.raises(KTooLarge):
        knn_all(cloud, 2)
