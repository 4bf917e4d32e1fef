"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to get one line per
criterion.  The cube experiment (criteria 4 and 8) dominates the runtime
at a few minutes; everything else is seconds.
"""

import json
import math

import numpy as np
import pytest
from scipy.stats import spearmanr

from helpers import (SplitQp, active_set_optimum, random_chsa_instance,
                     solve_one, weights)

from chsa.analysis import hull_2d
from chsa.cli import main
from chsa.datagen import GenSpec, default_simplex_spec, gen, gen_simplex_mixture
from chsa.ipm import SolverConfig
from chsa.pointcloud import PointCloud
from chsa.qp import ChsaParams, dense_q, linear_term
from chsa.stratify import negativity_sweep, run_chsa

TIGHT = SolverConfig(tol_gap=1e-13, tol_feas=1e-11, max_iters=300)
TIGHT_POLISH = SolverConfig(tol_gap=1e-13, tol_feas=1e-11, max_iters=300,
                            polish=True)

CUBE_SEED = 0
CUBE_K = 200
CUBE_GAMMA = 1e-5
CUBE_LAMBDAS = (0.001, 0.005, 0.01, 0.025)


def _passed(name):
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def cube_sweep():
    cloud = gen(GenSpec(kind="cube-with-vertices", seed=CUBE_SEED))
    results = negativity_sweep(
        cloud, CUBE_K,
        [ChsaParams(gamma=CUBE_GAMMA, lam=lam) for lam in CUBE_LAMBDAS])
    return cloud, results


def test_criterion_1_objective_equivalence():
    """The program's quadratic form (qp.dense_q, qp.linear_term) ==
    direct objective, 1e-10 relative."""
    rng = np.random.default_rng(1001)
    for _ in range(200):
        K = int(rng.integers(1, 51))
        D = int(rng.integers(1, 21))
        G = rng.standard_normal((D, K))
        x = rng.standard_normal(D)
        params = ChsaParams(gamma=rng.random(), lam=rng.random())
        Q, c = dense_q(G, params.gamma), linear_term(x, G, params.lam)
        wp = rng.random(K) + 0.05
        wm = rng.random(K) * 0.5
        wp *= (1.0 + wm.sum()) / wp.sum()
        u = np.concatenate([wp, wm])
        w = wp - wm
        direct = (params.gamma * w @ w + params.lam * np.sum(u)
                  + np.sum((x - G @ w) ** 2))
        quadratic_form = 0.5 * u @ Q @ u + c @ u + x @ x
        assert quadratic_form == pytest.approx(direct, rel=1e-10)
    _passed("1 objective-equivalence")


def test_criterion_2_solver_vs_active_set_oracle():
    """50 random instances, K <= 6: objective within 1e-6 absolute,
    w within 1e-5 infinity-norm of exhaustive enumeration."""
    rng = np.random.default_rng(1002)
    for _ in range(50):
        _, _, _, prob = random_chsa_instance(rng, k_max=6)
        sol = solve_one(prob, TIGHT)
        assert sol.converged
        ref_val, ref_u = active_set_optimum(prob)
        assert prob.objective(sol.u) == pytest.approx(ref_val, abs=1e-6)
        assert np.max(np.abs(weights(sol.u) - weights(ref_u))) < 1e-5
    _passed("2 solver-vs-oracle")


def test_criterion_3_vertex_characterization():
    """K = p-1 negativity flags == exact planar hull vertex set on >= 95%
    of 100 seeded uniform clouds; mismatches only within 1e-6 of an edge."""
    params = ChsaParams(gamma=1e-6, lam=1e-3)
    trials = 0
    exact = 0
    for p in (15, 20, 30):
        for seed in range(100):
            rng = np.random.default_rng(10_000 + 131 * p + seed)
            cloud = PointCloud(rng.random((p, 2)))
            report = run_chsa(cloud, p - 1, params)
            flagged = set(report.flagged_indices)
            truth = set(hull_2d(cloud).vertex_indices)
            trials += 1
            if flagged == truth:
                exact += 1
            else:
                # any mismatch must at least be a boundary point: the
                # finite l1 penalty can miss a barely-protruding vertex,
                # but an interior point must never disagree
                for i in flagged ^ truth:
                    assert _distance_to_hull_edge(cloud, i) < 1e-6
    assert exact / trials >= 0.95
    _passed(f"3 vertex-characterization ({exact}/{trials} exact)")


def _distance_to_hull_edge(cloud, i):
    hull = sorted(hull_2d(cloud).vertex_indices)
    pts = cloud.points
    centroid = pts.mean(axis=0)
    order = sorted(hull, key=lambda j: math.atan2(*(pts[j] - centroid)[::-1]))
    best = np.inf
    for a, b in zip(order, order[1:] + order[:1]):
        pa, pb = pts[a], pts[b]
        t = np.clip((pts[i] - pa) @ (pb - pa) / ((pb - pa) @ (pb - pa)), 0, 1)
        best = min(best, float(np.linalg.norm(pts[i] - pa - t * (pb - pa))))
    return best


def test_criterion_4_cube_experiment(cube_sweep):
    cloud, results = cube_sweep
    counts = [len(r.flagged_indices) for r in results]
    # counts non-increasing in lambda
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    verts = set(cloud.indices_with_label("inserted-vertex"))
    # final lambda flags exactly the 8 inserted vertices
    assert set(results[-1].flagged_indices) == verts
    # intermediate counts within +-50% of the reference 40 / 18 / 12
    for count, ref in zip(counts[:3], (40, 18, 12)):
        assert ref * 0.5 <= count <= ref * 1.5, (count, ref)
    # norm readouts come from the weakly-penalized run, where the norm
    # profile is the stratification signal (the heavy penalty exists to
    # sharpen the negativity flags, not the norms)
    report = results[0]
    # the 8 vertices carry the largest norms
    assert set(report.ranking[:8]) == verts
    # norm correlates with (negative) boundary distance near the boundary
    bd = np.min(np.minimum(cloud.points, 1.0 - cloud.points), axis=1)
    norms = np.array([rec.l2_norm for rec in report.records])
    near = np.argsort(bd)[: cloud.size // 10]
    rho = spearmanr(norms[near], -bd[near]).statistic
    assert rho > 0.5
    _passed(f"4 cube-experiment (counts {counts}, spearman {rho:.3f})")


def test_criterion_5_simplex_mixture():
    spec = default_simplex_spec(GenSpec(kind="simplex-mixture", seed=5001))
    cloud, abundances = gen_simplex_mixture(spec)
    results = negativity_sweep(
        cloud, 50, [ChsaParams(gamma=1e-6, lam=lam) for lam in (1e-3, 1e-7)])
    strict_flagged = set(results[0].flagged_indices)
    loose_flagged = set(results[1].flagged_indices)
    assert strict_flagged == {0, 1, 2}           # exactly the 3 vertices
    assert loose_flagged > strict_flagged        # strict superset band
    assert len(loose_flagged) > len(strict_flagged)
    for i in loose_flagged:
        assert abundances[i].min() <= 0.1        # band hugs the boundary
    _passed(f"5 simplex-mixture ({len(loose_flagged)} in band)")


def test_criterion_6_uniformity_limit():
    for k in (4, 7, 12):
        angles = 2 * math.pi * np.arange(k) / k
        ring = 0.5 + 0.5 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        cloud = PointCloud(np.vstack([[[0.5, 0.5]], ring]))
        report = run_chsa(cloud, k, ChsaParams(gamma=1e-6, lam=1e-3))
        center = report.records[0]
        assert np.max(np.abs(center.weights - 1.0 / k)) < 1e-4
        assert abs(center.l2_norm - 1.0 / math.sqrt(k)) < 1e-4
    _passed("6 uniformity-limit")


def test_criterion_7_scaling_invariance():
    """(X, lambda, gamma) and (aX, a^2 lambda, a^2 gamma) share w.

    Tiny gamma leaves weakly-active coordinates the barrier alone cannot
    pin to 1e-6, so the accuracy-critical config adds active-set polish.
    """
    rng = np.random.default_rng(1007)
    for _ in range(20):
        K = int(rng.integers(5, 30))
        D = int(rng.integers(2, 6))
        G = rng.random((D, K))
        x = rng.random(D)
        gamma, lam = 1e-5, 1e-3
        w0 = weights(solve_one(SplitQp(x, G, gamma, lam), TIGHT_POLISH).u)
        for alpha in (0.1, 10.0):
            scaled = SplitQp(alpha * x, alpha * G, alpha ** 2 * gamma,
                             alpha ** 2 * lam)
            w1 = weights(solve_one(scaled, TIGHT_POLISH).u)
            assert np.max(np.abs(w0 - w1)) < 1e-6
    _passed("7 scaling-invariance")


def test_criterion_8_thread_count_determinism(tmp_path):
    spec = tmp_path / "cube.json"
    spec.write_text(json.dumps({"kind": "cube-with-vertices",
                                "seed": CUBE_SEED}))
    reports = []
    for threads in (1, 8):
        outdir = tmp_path / f"t{threads}"
        code = main(["stratify", "--generate", str(spec), "-o", str(outdir),
                     "--k", str(CUBE_K), "--gamma", str(CUBE_GAMMA),
                     "--lambda", "0.025", "--threads", str(threads),
                     "--scale", "none", "--no-plot"])
        assert code == 0
        reports.append((outdir / "report.json").read_bytes())
    assert reports[0] == reports[1]
    _passed("8 thread-determinism")
