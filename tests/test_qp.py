import numpy as np
import pytest

from helpers import direct_objective

from chsa.errors import DimensionMismatch
from chsa.ipm import SolverConfig, solve
from chsa.neighbors import knn_all
from chsa.pointcloud import PointCloud
from chsa.qp import ChsaParams, assemble, assemble_raw, recover_weights


def random_feasible_split(rng, K):
    """u = (w+, w-) >= 0 with 1^T w+ - 1^T w- = 1."""
    wp = rng.random(K) + 0.05
    wm = rng.random(K) * 0.5
    wp *= (1.0 + wm.sum()) / wp.sum()
    return np.concatenate([wp, wm])


def test_midpoint_objective_is_zero():
    G = np.array([[0.0, 1.0], [0.0, 0.0]])
    prob = assemble_raw(np.array([0.5, 0.0]), G, ChsaParams(gamma=0.0, lam=0.0))
    u = np.array([0.5, 0.5, 0.0, 0.0])
    assert prob.objective(u) == pytest.approx(0.0, abs=1e-15)


def test_shapes_match_split_formulation():
    rng = np.random.default_rng(21)
    K = 9
    prob = assemble_raw(rng.random(4), rng.random((4, K)),
                        ChsaParams(gamma=1e-5, lam=1e-3))
    assert prob.A.shape == (1, 2 * K)
    assert prob.Q.shape == (2 * K, 2 * K)
    assert np.array_equal(prob.A[0], np.concatenate([np.ones(K), -np.ones(K)]))
    assert prob.b == 1.0
    # the Newton system the solver factors is (4K+1) x (4K+1)
    assert 2 * prob.c.shape[0] + 1 == 4 * K + 1


def test_block_structure():
    rng = np.random.default_rng(22)
    K, D = 6, 3
    G = rng.random((D, K))
    gamma = 1e-4
    prob = assemble_raw(rng.random(D), G, ChsaParams(gamma=gamma, lam=1e-3))
    M = 2.0 * (G.T @ G + gamma * np.eye(K))
    assert np.allclose(prob.Q[:K, :K], M)
    assert np.allclose(prob.Q[:K, K:], -M)
    assert np.allclose(prob.Q, prob.Q.T)


def test_objective_equality_randomized():
    """Master test: quadratic form value == direct three-term objective."""
    rng = np.random.default_rng(23)
    for _ in range(20):
        K = int(rng.integers(1, 12))
        D = int(rng.integers(1, 8))
        G = rng.standard_normal((D, K))
        x = rng.standard_normal(D)
        params = ChsaParams(gamma=rng.random(), lam=rng.random())
        prob = assemble_raw(x, G, params)
        u = random_feasible_split(rng, K)
        w = recover_weights(u)
        # feasible split vectors carry |w_j| <= w+_j + w-_j; the l1 term
        # in the direct objective must use the split value, not |w|
        direct = (params.gamma * w @ w
                  + params.lam * np.sum(u)
                  + np.sum((x - G @ w) ** 2))
        val = prob.objective(u)
        assert val == pytest.approx(direct, rel=1e-10)


def test_objective_equality_at_complementary_splits():
    """At complementary splits the l1 term equals lambda * ||w||_1."""
    rng = np.random.default_rng(24)
    for _ in range(20):
        K = int(rng.integers(1, 10))
        D = int(rng.integers(1, 6))
        G = rng.standard_normal((D, K))
        x = rng.standard_normal(D)
        w = rng.standard_normal(K)
        while abs(w.sum()) < 0.1:
            w = rng.standard_normal(K)
        w = w / w.sum()
        u = np.concatenate([np.maximum(w, 0), np.maximum(-w, 0)])
        params = ChsaParams(gamma=rng.random(), lam=rng.random())
        prob = assemble_raw(x, G, params)
        assert prob.objective(u) == pytest.approx(
            direct_objective(w, x, G, params.gamma, params.lam), rel=1e-10)


def test_assemble_from_neighbor_set():
    rng = np.random.default_rng(25)
    cloud = PointCloud(rng.random((12, 3)))
    sets = knn_all(cloud, 5)
    prob = assemble(cloud.points[4], sets[4], cloud, ChsaParams(1e-6, 1e-3))
    G = cloud.points[sets[4].indices].T
    ref = assemble_raw(cloud.points[4], G, ChsaParams(1e-6, 1e-3))
    assert np.array_equal(prob.Q, ref.Q)
    assert np.array_equal(prob.c, ref.c)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        assemble_raw(np.zeros(3), np.zeros((2, 4)), ChsaParams(0.0, 0.0))


def test_recover_weights():
    assert np.array_equal(recover_weights(np.array([1.0, 0.0, 0.0, 0.0])),
                          [1.0, 0.0])
    u = np.array([0.7, 0.3, 0.7, 0.3]) + 1.0  # w+ == w- everywhere
    assert np.allclose(recover_weights(u), 0.0)


def test_recovered_weights_sum_to_constraint():
    rng = np.random.default_rng(26)
    u = random_feasible_split(rng, 8)
    assert np.sum(recover_weights(u)) == pytest.approx(1.0)


def test_scaling_invariance_of_objective():
    """Scaling data by alpha and (gamma, lambda) by alpha^2 scales the
    whole objective by alpha^2 at every split vector."""
    rng = np.random.default_rng(27)
    for alpha in (0.1, 10.0):
        K, D = 7, 3
        G = rng.random((D, K))
        x = rng.random(D)
        gamma, lam = 1e-4, 1e-2
        base = assemble_raw(x, G, ChsaParams(gamma, lam))
        scaled = assemble_raw(alpha * x, alpha * G,
                              ChsaParams(alpha ** 2 * gamma, alpha ** 2 * lam))
        for _ in range(5):
            u = random_feasible_split(rng, K)
            assert scaled.objective(u) == pytest.approx(
                alpha ** 2 * base.objective(u), rel=1e-9)


def test_scaled_problems_share_argmin():
    rng = np.random.default_rng(28)
    K, D = 10, 2
    G = rng.random((D, K))
    x = rng.random(D)
    base = assemble_raw(x, G, ChsaParams(1e-5, 1e-3))
    # small gamma leaves flat directions; a tight duality gap plus
    # active-set polish pins w down
    tight = SolverConfig(tol_gap=1e-13, tol_feas=1e-11, max_iters=300,
                         polish=True)
    w0 = recover_weights(solve(base, tight).u)
    for alpha in (0.1, 10.0):
        scaled = assemble_raw(alpha * x, alpha * G,
                              ChsaParams(alpha ** 2 * 1e-5, alpha ** 2 * 1e-3))
        w1 = recover_weights(solve(scaled, tight).u)
        assert np.max(np.abs(w0 - w1)) < 1e-6
