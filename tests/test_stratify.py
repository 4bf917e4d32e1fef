import json
import math

import numpy as np
import pytest

from helpers import SplitQp, report_dict, solve_one

from chsa.analysis import hull_2d
from chsa.datagen import GenSpec, gen
from chsa.errors import NotUnitScaled
from chsa.ipm import SolverConfig
from chsa.pointcloud import PointCloud
from chsa import stratify
from chsa.qp import ChsaParams
from chsa.stratify import (negativity_sweep, rank_by_norm, report_to_json,
                           run_chsa, write_report_csv, write_report_json)

PARAMS = ChsaParams(gamma=1e-6, lam=1e-3)


def regular_polygon_instance(k):
    """Centroid of a regular k-gon of neighbors, plus the k-gon itself."""
    angles = 2 * math.pi * np.arange(k) / k
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    pts = np.vstack([[[0.0, 0.0]], ring]) * 0.5 + 0.5
    return PointCloud(pts)


def test_corners_flagged_at_k_p_minus_1():
    cloud = gen(GenSpec(kind="corners-plus-cluster", seed=5))
    report = run_chsa(cloud, cloud.size - 1, PARAMS)
    assert sorted(report.flagged_indices) == [0, 1, 2, 3]


def test_centroid_of_regular_polygon_uniform_weights():
    for k in (4, 7, 12):
        cloud = regular_polygon_instance(k)
        report = run_chsa(cloud, k, PARAMS)
        center = report.records[0]
        assert not center.has_negative
        assert np.max(np.abs(center.weights - 1.0 / k)) < 1e-4
        assert center.l2_norm == pytest.approx(1.0 / math.sqrt(k), abs=1e-4)


def test_record_invariants():
    rng = np.random.default_rng(41)
    cloud = PointCloud(rng.random((40, 3)))
    cfg = SolverConfig()
    report = run_chsa(cloud, 12, PARAMS, cfg)
    for rec in report.records:
        assert rec.converged
        assert rec.sum_dev <= cfg.tol_feas * 10
        assert rec.l2_norm >= 1.0 / math.sqrt(12) - 1e-9
        assert rec.has_negative == (np.min(rec.weights) < -report.eps_neg)


def test_objective_decomposition():
    """residual^2 + lambda*||w||_1 + gamma*||w||_2^2 from a record ==
    objective of the same point's QP solved alone."""
    rng = np.random.default_rng(42)
    cloud = PointCloud(rng.random((25, 2)))
    tight = SolverConfig(tol_gap=1e-13, tol_feas=1e-11, max_iters=300)
    report = run_chsa(cloud, 10, PARAMS, tight)
    for rec in report.records:
        w = rec.weights
        decomposed = (rec.residual ** 2 + PARAMS.lam * np.sum(np.abs(w))
                      + PARAMS.gamma * float(w @ w))
        prob = SplitQp(cloud.points[rec.index],
                       cloud.points[rec.neighbor_indices].T,
                       PARAMS.gamma, PARAMS.lam)
        objective = prob.objective(solve_one(prob, tight).u)
        assert decomposed == pytest.approx(objective, abs=1e-8)


def test_interior_point_nonnegative_weights():
    """A point strictly inside the hull of its neighbors reconstructs
    exactly with nonnegative weights."""
    cloud = regular_polygon_instance(8)
    report = run_chsa(cloud, 8, PARAMS)
    center = report.records[0]
    assert center.residual <= 1e-6
    assert np.min(center.weights) >= -1e-7


def test_ranking_descending_ties_by_index():
    rng = np.random.default_rng(43)
    cloud = PointCloud(rng.random((30, 2)))
    report = run_chsa(cloud, 10, PARAMS)
    norms = [report.records[i].l2_norm for i in report.ranking]
    assert norms == sorted(norms, reverse=True)
    assert sorted(report.ranking) == list(range(30))
    for rec in report.records:
        assert report.ranking[rec.rank] == rec.index


def test_strata_are_rank_quartiles():
    rng = np.random.default_rng(44)
    cloud = PointCloud(rng.random((40, 2)))
    report = run_chsa(cloud, 12, PARAMS)
    top = report.ranking[0]
    bottom = report.ranking[-1]
    assert report.strata[top] == "vertex-candidates"
    assert report.strata[bottom] == "interior"


def test_unscaled_data_raises_without_override():
    cloud = PointCloud([[0.0, 0.0], [5.0, 5.0], [5.0, 0.0], [0.0, 5.0]])
    with pytest.raises(NotUnitScaled):
        run_chsa(cloud, 3, PARAMS)
    with pytest.warns(UserWarning):
        run_chsa(cloud, 3, PARAMS, allow_unscaled=True)


def test_sweep_single_matches_run():
    rng = np.random.default_rng(45)
    cloud = PointCloud(rng.random((20, 2)))
    [swept] = negativity_sweep(cloud, 10, [PARAMS])
    direct = run_chsa(cloud, 10, PARAMS)
    assert report_to_json(swept) == report_to_json(direct)


def test_sweep_convexity_emphasis_flags_fewer():
    """Strong convexity emphasis flags a subset of what strong
    uniformity emphasis flags on the same cloud and neighbor sets."""
    cloud = gen(GenSpec(kind="square-with-boundary", seed=9))
    convexity = ChsaParams(gamma=1e-6, lam=1e-3)
    uniformity = ChsaParams(gamma=1e-3, lam=1e-5)
    results = negativity_sweep(cloud, 20, [convexity, uniformity])
    thin = set(results[0].flagged_indices)
    thick = set(results[1].flagged_indices)
    assert thin < thick


def test_parallel_matches_serial():
    rng = np.random.default_rng(46)
    cloud = PointCloud(rng.random((30, 2)))
    serial = run_chsa(cloud, 10, PARAMS, workers=1)
    parallel = run_chsa(cloud, 10, PARAMS, workers=3)
    assert report_to_json(serial) == report_to_json(parallel)
    params = [PARAMS, ChsaParams(gamma=1e-5, lam=0.025)]
    serial = negativity_sweep(cloud, 10, params, workers=1)
    parallel = negativity_sweep(cloud, 10, params, workers=2)
    for a, b in zip(serial, parallel, strict=True):
        assert report_to_json(a) == report_to_json(b)


def test_chunk_size_does_not_change_report(monkeypatch):
    rng = np.random.default_rng(49)
    cloud = PointCloud(rng.random((40, 3)))
    params = [PARAMS, ChsaParams(gamma=1e-5, lam=0.025)]
    default = negativity_sweep(cloud, 12, params)
    monkeypatch.setattr(stratify, "CHUNK", 7)
    small = negativity_sweep(cloud, 12, params)
    for a, b in zip(default, small):
        assert report_to_json(a) == report_to_json(b)


def test_json_schema():
    rng = np.random.default_rng(47)
    cloud = PointCloud(rng.random((10, 2)))
    report = run_chsa(cloud, 4, PARAMS, seed=47)
    obj = json.loads(report_to_json(report))
    assert obj["schema"] == 1
    assert obj["params"]["k"] == 4
    assert obj["params"]["seed"] == 47
    assert len(obj["records"]) == 10
    rec = obj["records"][0]
    assert set(rec["weights"]) <= {str(j) for j in range(10)}
    assert len(rec["weights"]) == 4


def test_json_writer_matches_json_dumps(tmp_path):
    """The streaming writer produces exactly json.dumps(obj, indent=1) of
    the report's dict, also for seed=None, non-converged records and
    non-finite floats (json writes NaN/Infinity where repr writes nan/inf)."""
    cube = gen(GenSpec(kind="cube-with-vertices", n_random=60, seed=50))
    simplex = gen(GenSpec(kind="simplex-mixture", n_random=40, seed=50))
    sweep = negativity_sweep(simplex, 12, [PARAMS, ChsaParams(1e-5, 0.025)],
                             seed=50)
    reports = [run_chsa(cube, 20, PARAMS, seed=50), sweep[0], sweep[1],
               run_chsa(cube, 8, PARAMS, SolverConfig(max_iters=2))]
    assert reports[3].seed is None
    assert not any(r.converged for r in reports[3].records)
    odd = run_chsa(cube, 4, PARAMS)
    odd.records[0].weights[1:] = [math.nan, math.inf, -math.inf]
    odd.records[1].l2_norm, odd.records[1].residual = math.nan, -math.inf
    reports.append(odd)
    for report in reports:
        text = json.dumps(report_dict(report), indent=1)
        assert report_to_json(report) == text
        write_report_json(report, str(tmp_path / "report.json"))
        assert (tmp_path / "report.json").read_text() == text
    assert "NaN" in text and "-Infinity" in text


def test_csv_export(tmp_path):
    rng = np.random.default_rng(48)
    cloud = PointCloud(rng.random((8, 2)))
    report = run_chsa(cloud, 3, PARAMS)
    path = tmp_path / "report.csv"
    write_report_csv(report, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,has_negative,l2_norm,residual,rank,converged"
    assert len(lines) == 9
