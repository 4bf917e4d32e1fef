"""Run the stratification pipeline over a whole cloud.

Per point: the split-variable QP over its K nearest neighbors, the
weight vector and its negativity / l2 norm / residual diagnostics.  The
(point, parameter) problems of a run are solved in chunks (see CHUNK) by
one batched interior-point call each, optionally on worker threads (the
chunk kernel is large-array numpy, which releases the GIL).  Results do
not depend on the chunking, so reports are byte-identical for any worker
count.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NotUnitScaled
from .ipm import SolverConfig, solve_batch
from .neighbors import knn_all
from .pointcloud import PointCloud, is_unit_scaled
from .qp import ChsaParams, gmul

EPS_NEG_DEFAULT = 1e-7  # interior-point weights are never exactly zero

CHUNK = 256      # problems per batched solve, fewer when K > CHUNK_K so a
CHUNK_K = 200    # chunk's arrays never hold more than CHUNK x CHUNK_K columns

STRATA_LABELS = ("vertex-candidates", "near-boundary", "mid", "interior")


@dataclass
class WeightRecord:
    index: int
    neighbor_indices: np.ndarray
    weights: np.ndarray
    has_negative: bool
    l2_norm: float
    residual: float
    sum_dev: float
    iterations: int
    converged: bool
    rank: Optional[int] = None


@dataclass
class StratificationReport:
    k: int
    params: ChsaParams
    solver: SolverConfig
    eps_neg: float
    records: list
    ranking: list = field(default_factory=list)
    strata: dict = field(default_factory=dict)
    seed: Optional[int] = None

    @property
    def flagged_indices(self) -> list:
        return [r.index for r in self.records if r.has_negative]


def _solve_chunk(points, owners, nbr, gamma, lam, solver_config,
                 eps_neg) -> list:
    """Solve one chunk of (point, gamma, lambda) problems; one record each."""
    x = points[owners]
    G = np.ascontiguousarray(points[nbr].transpose(0, 2, 1))  # (B, D, K)
    sol = solve_batch(x, G, gamma, lam, solver_config)
    K = nbr.shape[1]
    W = sol.u[:, :K] - sol.u[:, K:]
    residual = np.linalg.norm(x - gmul(G, W), axis=1)
    l2_norm = np.linalg.norm(W, axis=1)
    sum_dev = np.abs(np.sum(W, axis=1) - 1.0)
    negative = W.min(axis=1) < -eps_neg
    return [WeightRecord(
        index=int(owners[b]), neighbor_indices=nbr[b], weights=W[b],
        has_negative=bool(negative[b]),
        l2_norm=float(l2_norm[b]), residual=float(residual[b]),
        sum_dev=float(sum_dev[b]), iterations=int(sol.iterations[b]),
        converged=bool(sol.converged[b]))
        for b in range(len(owners))]


def run_chsa(cloud: PointCloud, k: int, params: ChsaParams,
             solver: SolverConfig = SolverConfig(),
             eps_neg: float = EPS_NEG_DEFAULT,
             workers: int = 1,
             allow_unscaled: bool = False,
             seed: Optional[int] = None) -> StratificationReport:
    """Solve one QP per point and assemble the stratification report.

    The cloud is expected to be scaled into [0, 1]; pass allow_unscaled=True
    to proceed (with a warning) on raw data.
    """
    return negativity_sweep(cloud, k, [params], solver, eps_neg, workers,
                            allow_unscaled, seed)[0]


def rank_by_norm(report: StratificationReport) -> list:
    """Sort indices by l2 norm descending (ties by ascending index)."""
    order = sorted(report.records, key=lambda r: (-r.l2_norm, r.index))
    report.ranking = [r.index for r in order]
    for pos, rec in enumerate(order):
        rec.rank = pos
    _label_strata(report)
    return report.ranking


def _label_strata(report: StratificationReport) -> None:
    """Quartiles of the norm ranking, largest norms first."""
    p = len(report.ranking)
    strata = {}
    for pos, idx in enumerate(report.ranking):
        strata[idx] = STRATA_LABELS[min(3, pos * 4 // p)]
    report.strata = strata


def negativity_sweep(cloud: PointCloud, k: int, param_list: list,
                     solver: SolverConfig = SolverConfig(),
                     eps_neg: float = EPS_NEG_DEFAULT, workers: int = 1,
                     allow_unscaled: bool = False,
                     seed: Optional[int] = None) -> list:
    """One CHSA run per (gamma, lambda) pair: neighbor sets are computed
    once and all (point, pair) problems are solved in one chunked pass.

    Returns one StratificationReport per pair, in the order of param_list.
    """
    if not param_list:
        raise ValueError("parameter list must be nonempty")
    if not is_unit_scaled(cloud):
        if not allow_unscaled:
            raise NotUnitScaled(
                "cloud coordinates fall outside [0, 1]; apply scale_unit "
                "first or pass allow_unscaled=True")
        warnings.warn("running on data outside [0, 1]; parameter advice in "
                      "the docs assumes unit-scaled data")

    nbr_table, _ = knn_all(cloud, k)
    p = cloud.size
    owners = np.tile(np.arange(p), len(param_list))
    gammas = np.repeat([float(pr.gamma) for pr in param_list], p)
    lams = np.repeat([float(pr.lam) for pr in param_list], p)

    size = max(1, min(CHUNK, CHUNK * CHUNK_K // k,
                      -(-owners.size // max(workers, 1))))

    def solve(s):
        return _solve_chunk(cloud.points, owners[s], nbr_table[owners[s]],
                            gammas[s], lams[s], solver, eps_neg)

    chunks = [slice(s, s + size) for s in range(0, owners.size, size)]
    if workers <= 1:
        parts = [solve(s) for s in chunks]
    else:
        # imported here so that a one-thread run does not pay for it
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(solve, chunks))
    records = [rec for part in parts for rec in part]

    out = []
    for j, params in enumerate(param_list):
        report = StratificationReport(k=k, params=params, solver=solver,
                                      eps_neg=eps_neg, seed=seed,
                                      records=records[j * p:(j + 1) * p])
        rank_by_norm(report)
        out.append(report)
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _json_value(v) -> str:
    """One scalar as json.dumps writes it (finite floats by float.__repr__,
    bools and ints directly; the rest through json.dumps)."""
    kind = type(v)
    if kind is float and math.isfinite(v):
        return float.__repr__(v)
    if kind is bool:
        return "true" if v else "false"
    if kind is int:
        return int.__repr__(v)
    return json.dumps(v)


def _report_chunks(report: StratificationReport):
    """report.json piece by piece: the text json.dumps(obj, indent=1) writes
    for the report's dict, one record at a time, never the whole dict."""
    solver = ("tol_gap", "tol_feas", "max_iters", "step_fraction",
              "centering_sigma")
    params = {"k": report.k, "gamma": report.params.gamma,
              "lambda": report.params.lam, "eps_neg": report.eps_neg,
              "seed": report.seed,
              "solver": {n: getattr(report.solver, n) for n in solver}}
    head = json.dumps({"schema": 1, "params": params}, indent=1)
    yield head[:-2] + ',\n "records": ['    # drop the closing "\n}"
    sep = "\n  "
    for r in report.records:
        fmt = float.__repr__ if np.all(np.isfinite(r.weights)) else _json_value
        weights = ",\n    ".join([
            f'"{j}": {fmt(w)}'
            for j, w in zip(r.neighbor_indices.tolist(), r.weights.tolist())])
        tail = {"has_negative": r.has_negative, "l2_norm": r.l2_norm,
                "residual": r.residual, "sum_dev": r.sum_dev,
                "iterations": r.iterations, "converged": r.converged,
                "rank": r.rank, "stratum": report.strata.get(r.index)}
        yield (f'{sep}{{\n   "index": {_json_value(r.index)},\n   "weights": '
               + ("{\n    " + weights + "\n   }" if weights else "{}")
               + "".join([f',\n   "{key}": {_json_value(v)}'
                          for key, v in tail.items()]) + "\n  }")
        sep = ",\n  "
    ranking = json.dumps({"ranking": report.ranking}, indent=1)
    yield ("\n ]," if report.records else "],") + ranking[1:]  # drop the "{"


def report_to_json(report: StratificationReport) -> str:
    return "".join(_report_chunks(report))


def write_report_json(report: StratificationReport, path: str) -> None:
    with open(path, "w") as f:
        f.writelines(_report_chunks(report))


def write_report_csv(report: StratificationReport, path: str) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["index", "has_negative", "l2_norm", "residual",
                         "rank", "converged"])
        for r in report.records:
            writer.writerow([r.index, int(r.has_negative), repr(r.l2_norm),
                             repr(r.residual), r.rank, int(r.converged)])
