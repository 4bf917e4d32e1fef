import numpy as np
import pytest

from helpers import SplitQp, direct_objective, solve_one, weights

from chsa.ipm import SolverConfig
from chsa.qp import ChsaParams, dense_q, linear_term


def program_objective(x, G, params, u):
    """1/2 u^T Q u + c^T u + ||x||^2 with the program's Q and c."""
    return float(0.5 * u @ dense_q(G, params.gamma) @ u
                 + linear_term(x, G, params.lam) @ u + x @ x)


def random_feasible_split(rng, K):
    """u = (w+, w-) >= 0 with 1^T w+ - 1^T w- = 1."""
    wp = rng.random(K) + 0.05
    wm = rng.random(K) * 0.5
    wp *= (1.0 + wm.sum()) / wp.sum()
    return np.concatenate([wp, wm])


def test_midpoint_objective_is_zero():
    G = np.array([[0.0, 1.0], [0.0, 0.0]])
    u = np.array([0.5, 0.5, 0.0, 0.0])
    assert program_objective(np.array([0.5, 0.0]), G,
                             ChsaParams(gamma=0.0, lam=0.0),
                             u) == pytest.approx(0.0, abs=1e-15)


def test_shapes_match_split_formulation():
    rng = np.random.default_rng(21)
    K = 9
    x, G = rng.random(4), rng.random((4, K))
    Q, c = dense_q(G, 1e-5), linear_term(x, G, 1e-3)
    assert Q.shape == (2 * K, 2 * K)
    assert c.shape == (2 * K,)
    # the Newton system the solver factors is (4K+1) x (4K+1)
    assert 2 * c.shape[0] + 1 == 4 * K + 1
    # the program's Q and c are the definition's
    ref = SplitQp(x, G, 1e-5, 1e-3)
    assert np.allclose(Q, ref.Q)
    assert np.allclose(c, ref.c)


def test_block_structure():
    rng = np.random.default_rng(22)
    K, D = 6, 3
    G = rng.random((D, K))
    gamma = 1e-4
    Q = dense_q(G, gamma)
    M = 2.0 * (G.T @ G + gamma * np.eye(K))
    assert np.allclose(Q[:K, :K], M)
    assert np.allclose(Q[:K, K:], -M)
    assert np.allclose(Q, Q.T)


def test_objective_equality_randomized():
    """Master test: quadratic form value == direct three-term objective."""
    rng = np.random.default_rng(23)
    for _ in range(20):
        K = int(rng.integers(1, 12))
        D = int(rng.integers(1, 8))
        G = rng.standard_normal((D, K))
        x = rng.standard_normal(D)
        params = ChsaParams(gamma=rng.random(), lam=rng.random())
        u = random_feasible_split(rng, K)
        w = weights(u)
        # feasible split vectors carry |w_j| <= w+_j + w-_j; the l1 term
        # in the direct objective must use the split value, not |w|
        direct = (params.gamma * w @ w
                  + params.lam * np.sum(u)
                  + np.sum((x - G @ w) ** 2))
        val = program_objective(x, G, params, u)
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
        assert program_objective(x, G, params, u) == pytest.approx(
            direct_objective(w, x, G, params.gamma, params.lam), rel=1e-10)


def test_recover_weights():
    assert np.array_equal(weights(np.array([1.0, 0.0, 0.0, 0.0])), [1.0, 0.0])
    u = np.array([0.7, 0.3, 0.7, 0.3]) + 1.0  # w+ == w- everywhere
    assert np.allclose(weights(u), 0.0)


def test_recovered_weights_sum_to_constraint():
    rng = np.random.default_rng(26)
    u = random_feasible_split(rng, 8)
    assert np.sum(weights(u)) == pytest.approx(1.0)


def test_scaling_invariance_of_objective():
    """Scaling data by alpha and (gamma, lambda) by alpha^2 scales the
    whole objective by alpha^2 at every split vector."""
    rng = np.random.default_rng(27)
    for alpha in (0.1, 10.0):
        K, D = 7, 3
        G = rng.random((D, K))
        x = rng.random(D)
        base = ChsaParams(1e-4, 1e-2)
        scaled = ChsaParams(alpha ** 2 * base.gamma, alpha ** 2 * base.lam)
        for _ in range(5):
            u = random_feasible_split(rng, K)
            assert program_objective(
                alpha * x, alpha * G, scaled, u) == pytest.approx(
                alpha ** 2 * program_objective(x, G, base, u), rel=1e-9)


def test_scaled_problems_share_argmin():
    rng = np.random.default_rng(28)
    K, D = 10, 2
    G = rng.random((D, K))
    x = rng.random(D)
    base = SplitQp(x, G, 1e-5, 1e-3)
    # small gamma leaves flat directions; a tight duality gap plus
    # active-set polish pins w down
    tight = SolverConfig(tol_gap=1e-13, tol_feas=1e-11, max_iters=300,
                         polish=True)
    w0 = weights(solve_one(base, tight).u)
    for alpha in (0.1, 10.0):
        scaled = SplitQp(alpha * x, alpha * G, alpha ** 2 * 1e-5,
                         alpha ** 2 * 1e-3)
        w1 = weights(solve_one(scaled, tight).u)
        assert np.max(np.abs(w0 - w1)) < 1e-6
