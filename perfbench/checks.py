"""Output checks that share no code with the program they check.

Truth comes from scipy and from the benchmark's own arithmetic:

* neighbour sets are compared with `scipy.spatial.cKDTree`;
* hull vertices come from Qhull (`scipy.spatial.ConvexHull`);
* each weight vector is certified optimal by a Fenchel dual bound of the
  original objective  gamma ||w||^2 + lambda ||w||_1 + ||x - G w||^2,
  sum(w) = 1, computed here from the scaled input coordinates;
* every reported field is recomputed from the weights.

An operation is one point at one lambda (and, for `verify`, one oracle
verdict).  Each check marks the operations it rejects; `Tally` counts an
operation as failed when any check rejects it.  Faults that concern a
whole output rather than one operation are `errors`, and make a run
incorrect.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, cKDTree

STRATA = ("vertex-candidates", "near-boundary", "mid", "interior")
DIST2_TOL = 1e-12       # squared-distance slack for ties at the K-th distance
SUM_SLACK = 1e-12       # rounding between the solver's A u and sum(w)
GAP_FACTOR = 10.0       # dual gap allowed, in units of the solver's tol_gap * 2K
FIELD_RTOL = 1e-9


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    by_check: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)

    def add(self, rejected: dict, n_ops: int) -> None:
        """`rejected` maps a check name to a bool array over n_ops ops."""
        self.attempted += n_ops
        any_bad = np.zeros(n_ops, dtype=bool)
        for name, bad in rejected.items():
            bad = np.asarray(bad, dtype=bool)
            self.by_check[name] += int(bad.sum())
            any_bad |= bad
        self.failed += int(any_bad.sum())

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.by_check.update(other.by_check)
        self.errors.extend(other.errors)


def scale_unit(points: np.ndarray) -> np.ndarray:
    """Per-dimension min-max map into [0, 1]; constant dimensions map to 0."""
    lo, hi = points.min(axis=0), points.max(axis=0)
    rng = hi - lo
    safe = np.where(rng > 0, rng, 1.0)
    return np.where(rng > 0, (points - lo) / safe, 0.0)


def qhull_vertices(points: np.ndarray) -> set:
    return {int(i) for i in ConvexHull(points).vertices}


@dataclass
class Report:
    """report.json as arrays; rows in record order."""

    k: int
    gamma: float
    lam: float
    eps_neg: float
    tol_gap: float
    tol_feas: float
    index: np.ndarray
    nbr: np.ndarray        # (p, K) neighbour indices
    w: np.ndarray          # (p, K) weights
    has_negative: np.ndarray
    l2_norm: np.ndarray
    residual: np.ndarray
    sum_dev: np.ndarray
    converged: np.ndarray
    rank: np.ndarray
    stratum: list
    ranking: list


def load_report(path: str) -> Report:
    with open(path) as f:
        obj = json.load(f)
    params = obj["params"]
    recs = obj["records"]
    k = int(params["k"])
    nbr = np.array([[int(j) for j in r["weights"]] for r in recs],
                   dtype=np.intp).reshape(len(recs), k)
    w = np.array([list(r["weights"].values()) for r in recs],
                 dtype=float).reshape(len(recs), k)
    return Report(
        k=k, gamma=float(params["gamma"]), lam=float(params["lambda"]),
        eps_neg=float(params["eps_neg"]),
        tol_gap=float(params["solver"]["tol_gap"]),
        tol_feas=float(params["solver"]["tol_feas"]),
        index=np.array([r["index"] for r in recs], dtype=np.intp),
        nbr=nbr, w=w,
        has_negative=np.array([r["has_negative"] for r in recs], dtype=bool),
        l2_norm=np.array([r["l2_norm"] for r in recs], dtype=float),
        residual=np.array([r["residual"] for r in recs], dtype=float),
        sum_dev=np.array([r["sum_dev"] for r in recs], dtype=float),
        converged=np.array([r["converged"] for r in recs], dtype=bool),
        rank=np.array([-1 if r["rank"] is None else r["rank"] for r in recs],
                      dtype=np.intp),
        stratum=[r["stratum"] for r in recs],
        ranking=list(obj["ranking"]),
    )


# ---------------------------------------------------------------------------
# per-operation checks
# ---------------------------------------------------------------------------

def bad_neighbors(points: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """Rows whose neighbour set is not a K-nearest set of its point.

    A row passes when it holds K distinct other points, none farther than
    the true K-th distance, and includes every point strictly closer than
    it; ties at the K-th distance may go either way.
    """
    p, k = nbr.shape
    d_q, i_q = cKDTree(points).query(points, k=k + 1)
    own = np.arange(p)
    if np.array_equal(i_q[:, 0], own):
        d_o, i_o = d_q[:, 1:], i_q[:, 1:]
    else:  # duplicate points: drop self wherever it landed
        keep = i_q != own[:, None]
        d_o = np.array([d_q[r][keep[r]][:k] for r in range(p)])
        i_o = np.array([i_q[r][keep[r]][:k] for r in range(p)])
    dk2 = d_o[:, -1] ** 2
    srt = np.sort(nbr, axis=1)
    bad = np.any(srt[:, 1:] == srt[:, :-1], axis=1)          # repeats
    bad |= np.any(nbr == own[:, None], axis=1)                # self
    bad |= np.any((nbr < 0) | (nbr >= p), axis=1)
    nb = np.clip(nbr, 0, p - 1)
    d2 = np.sum((points[nb] - points[:, None, :]) ** 2, axis=2)
    bad |= np.any(d2 > dk2[:, None] + DIST2_TOL, axis=1)      # too far
    closer = d_o ** 2 < dk2[:, None] - DIST2_TOL
    present = np.any(i_o[:, :, None] == nbr[:, None, :], axis=2)
    bad |= np.any(closer & ~present, axis=1)                  # one missing
    return bad


def dual_gap(points: np.ndarray, index: np.ndarray, nbr: np.ndarray,
             w: np.ndarray, gamma: float, lam: float) -> tuple:
    """Gap f(w) - d between the objective and a Fenchel dual lower bound.

    With r = x - G w the dual of  min gamma|w|^2 + lam|w|_1 + |r|^2,
    1'w = 1,  r = x - G w  is

        d(theta, nu) = theta'x + nu - |theta|^2/4
                       - sum_j max(|a_j + nu| - lam, 0)^2 / (4 gamma),
        a = G' theta,

    a lower bound on the optimum for every (theta, nu).  We take
    theta = 2 r (optimal at the solution) and maximize the concave
    function over nu by bisection on its monotone derivative.  The gap
    is zero exactly at the optimum and needs gamma > 0.
    """
    x = points[index]
    G = points[nbr]                                  # (p, K, D)
    r = x - np.einsum("pkd,pk->pd", G, w)
    f = gamma * np.sum(w * w, axis=1) + lam * np.sum(np.abs(w), axis=1) \
        + np.sum(r * r, axis=1)
    theta = 2.0 * r
    a = np.einsum("pkd,pd->pk", G, theta)
    lo = -a.max(axis=1) - lam                        # derivative >= 1 here
    hi = -a.min(axis=1) + lam + 2.0 * gamma          # derivative <= 1 - K
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        s = a + mid[:, None]
        soft = np.sign(s) * np.maximum(np.abs(s) - lam, 0.0)
        up = 1.0 - soft.sum(axis=1) / (2.0 * gamma) > 0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    nu = 0.5 * (lo + hi)
    s = a + nu[:, None]
    d = (np.sum(theta * x, axis=1) + nu - np.sum(theta * theta, axis=1) / 4.0
         - np.sum(np.maximum(np.abs(s) - lam, 0.0) ** 2, axis=1)
         / (4.0 * gamma))
    return f - d


def _close(a, b, rtol=FIELD_RTOL, atol=1e-12):
    return np.abs(a - b) <= atol + rtol * np.abs(b)


def check_report(points: np.ndarray, rep: Report, must_flag=()) -> Tally:
    """All checks of one report.json against the scaled input `points`."""
    tally = Tally()
    p = points.shape[0]
    if not np.array_equal(rep.index, np.arange(p)):
        tally.errors.append("records are not one per point in index order")
        return tally
    if rep.gamma <= 0:
        tally.errors.append("the optimality certificate needs gamma > 0")
        return tally
    w = rep.w
    resid = np.linalg.norm(
        points - np.einsum("pkd,pk->pd", points[rep.nbr], w), axis=1)
    sums = w.sum(axis=1)
    gap = dual_gap(points, rep.index, rep.nbr, w, rep.gamma, rep.lam)
    gap_tol = GAP_FACTOR * rep.tol_gap * 2 * rep.k
    # the solver's declared primal bound: |sum(w) - 1| <= tol_feas (1 + |b|)
    sum_tol = 2.0 * rep.tol_feas + SUM_SLACK

    order = sorted(range(p), key=lambda i: (-rep.l2_norm[i], i))
    pos = np.empty(p, dtype=np.intp)
    pos[order] = np.arange(p)
    if sorted(rep.ranking) != list(range(p)):
        tally.errors.append("ranking is not a permutation of the points")
    elif rep.ranking != order:
        tally.errors.append("ranking disagrees with the l2 norms")
    strata = [STRATA[min(3, int(q) * 4 // p)] for q in pos]

    flagged_truth = np.zeros(p, dtype=bool)
    flagged_truth[list(must_flag)] = True
    tally.add({
        "neighbors": bad_neighbors(points, rep.nbr),
        "optimality": gap > gap_tol,
        "sum": np.abs(sums - 1.0) > sum_tol,
        "converged": ~rep.converged,
        "l2_norm": ~_close(rep.l2_norm, np.linalg.norm(w, axis=1), 1e-12),
        "residual": ~_close(rep.residual, resid),
        "sum_dev": ~_close(rep.sum_dev, np.abs(sums - 1.0), 0.0, 1e-12),
        "has_negative": rep.has_negative != (w.min(axis=1) < -rep.eps_neg),
        "rank": rep.rank != pos,
        "stratum": np.array([a != b for a, b in zip(rep.stratum, strata)]),
        "vertex_flagged": flagged_truth & ~rep.has_negative,
    }, p)
    return tally


def check_report_csv(path: str, rep: Report) -> list:
    """report.csv must repeat report.json's per-point fields."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if rows[0] != ["index", "has_negative", "l2_norm", "residual", "rank",
                   "converged"] or len(rows) != len(rep.index) + 1:
        return ["report.csv header or row count"]
    body = np.array(rows[1:], dtype=float)
    same = (np.array_equal(body[:, 0], rep.index)
            and np.array_equal(body[:, 1], rep.has_negative)
            and np.array_equal(body[:, 2], rep.l2_norm)
            and np.array_equal(body[:, 3], rep.residual)
            and np.array_equal(body[:, 4], rep.rank)
            and np.array_equal(body[:, 5], rep.converged))
    return [] if same else ["report.csv disagrees with report.json"]


def check_svg(path: str, rep: Report) -> list:
    """One marker per point, cyan exactly for the flagged ones."""
    with open(path) as f:
        text = f.read()
    circles = re.findall(r"<circle [^>]*/>", text)
    cyan = sum('fill="#00c8c8"' in c for c in circles)
    if len(circles) != len(rep.index) or cyan != int(rep.has_negative.sum()):
        return ["figure.svg markers disagree with the report"]
    return []


def check_sweep_counts(path: str, lambdas, reports) -> list:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    want = [(lam, int(r.has_negative.sum())) for lam, r in zip(lambdas, reports)]
    got = [(float(a), int(b)) for a, b in rows]
    return [] if got == want else ["sweep_counts.csv disagrees with reports"]


def check_verify(summary: dict, truth: set, p: int) -> Tally:
    """verify_summary.json: flags and oracle verdicts against Qhull."""
    tally = Tally()
    flagged, oracle = set(summary["flagged"]), set(summary["oracle_vertices"])
    ids = np.arange(p)
    t = np.isin(ids, sorted(truth))
    tally.add({"flag_vs_qhull": np.isin(ids, sorted(flagged)) != t}, p)
    tally.add({"oracle_vs_qhull": np.isin(ids, sorted(oracle)) != t}, p)
    tp = len(flagged & oracle)
    prec = tp / len(flagged) if flagged else float("nan")
    rec = tp / len(oracle) if oracle else float("nan")
    if not (np.allclose(prec, summary["precision"], equal_nan=True)
            and np.allclose(rec, summary["recall"], equal_nan=True)):
        tally.errors.append("precision/recall disagree with the sets")
    return tally
