import numpy as np
import pytest

from chsa.analysis import hull_2d, lp_vertex_oracle, pca_2d
from chsa.errors import WrongDimension
from chsa.pointcloud import PointCloud


def test_hull_square_corners():
    pts = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.2, 0.7]]
    res = hull_2d(PointCloud(pts))
    assert res.vertex_indices == {0, 1, 2, 3}
    assert res.method == "graham-2d"


def test_hull_collinear_middle_excluded():
    res = hull_2d(PointCloud([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.0, 1.0]]))
    assert 1 not in res.vertex_indices
    # collinear boundary point on a square edge is not a vertex either
    res2 = hull_2d(PointCloud([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.0]]))
    assert res2.vertex_indices == {0, 1, 2, 3}


def test_hull_wrong_dimension():
    with pytest.raises(WrongDimension):
        hull_2d(PointCloud([[0, 0, 0], [1, 1, 1], [1, 0, 0]]))


def test_hull_agrees_with_lp_oracle():
    rng = np.random.default_rng(51)
    cloud = PointCloud(rng.random((30, 2)))
    hull = hull_2d(cloud).vertex_indices
    lp = {i for i in range(30) if lp_vertex_oracle(cloud, i)}
    assert lp == set(hull)


def test_lp_oracle_cube_vertex_and_centroid():
    rng = np.random.default_rng(52)
    pts = np.vstack([rng.random((40, 3)) * 0.8 + 0.1, [[0.0, 0.0, 0.0]]])
    cloud = PointCloud(pts)
    assert lp_vertex_oracle(cloud, 40)  # the inserted corner

    tri = np.array([[0, 0], [1, 0], [0, 1], [1 / 3, 1 / 3]], dtype=float)
    assert not lp_vertex_oracle(PointCloud(tri), 3)  # centroid of a triangle


def test_pca_preserves_planar_embedding():
    """Data spanning a 2-plane in R^20 projects isometrically."""
    rng = np.random.default_rng(54)
    basis, _ = np.linalg.qr(rng.standard_normal((20, 2)))
    flat = rng.standard_normal((40, 2))
    cloud = PointCloud(flat @ basis.T + rng.standard_normal(20) * 0.0)
    proj = pca_2d(cloud)
    d_orig = np.linalg.norm(cloud.points[:, None] - cloud.points[None], axis=2)
    d_proj = np.linalg.norm(proj[:, None] - proj[None], axis=2)
    assert np.max(np.abs(d_orig - d_proj)) < 1e-8


def test_pca_rank1_second_axis_zero():
    t = np.linspace(0, 1, 12)
    cloud = PointCloud(np.stack([t, 2 * t, -t], axis=1))
    proj = pca_2d(cloud)
    assert np.max(np.abs(proj[:, 1])) < 1e-10


def test_pca_variance_matches_eigendecomposition():
    rng = np.random.default_rng(55)
    cloud = PointCloud(rng.standard_normal((60, 6)) * np.arange(1, 7))
    cov = np.cov(cloud.points.T, bias=True)
    eig = np.sort(np.linalg.eigvalsh(cov))[::-1]
    # the variance along each axis of the projection is the matching
    # eigenvalue of the covariance, largest first
    proj = pca_2d(cloud)
    assert np.allclose(proj.var(axis=0), eig[:2], rtol=1e-10)


def test_pca_deterministic_sign():
    rng = np.random.default_rng(56)
    cloud = PointCloud(rng.standard_normal((20, 5)))
    a = pca_2d(cloud)
    b = pca_2d(cloud)
    assert np.array_equal(a, b)
    for row in range(2):
        pass  # sign fixed by construction; determinism is the observable


def test_lp_oracle_matches_highs():
    """The simplex-method oracle agrees with HiGHS (scipy's linprog) on the
    same feasibility LP, including lattices full of duplicate, collinear
    and coplanar points."""
    from scipy.optimize import linprog

    rng = np.random.default_rng(55)
    for trial, dim in enumerate((2, 3, 5, 2, 3, 5)):
        pts = rng.random((int(rng.integers(dim + 3, 40)), dim))
        if trial >= 3:
            pts = np.round(pts * 3) / 3
        for i in range(pts.shape[0]):
            others = np.delete(pts, i, axis=0)
            res = linprog(np.zeros(len(others)),
                          A_eq=np.vstack([others.T, np.ones(len(others))]),
                          b_eq=np.append(pts[i], 1.0), bounds=(0, None),
                          method="highs")
            assert res.status in (0, 2)
            assert lp_vertex_oracle(PointCloud(pts), i) == (res.status == 2)
