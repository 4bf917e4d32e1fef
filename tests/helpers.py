"""Shared test oracles, independent of the interior-point solve path."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SplitQp:
    """One point's QP in split variables u = (w+, w-), as dense arrays
    built from the definition (no `chsa` code):

        minimize 1/2 u^T Q u + c^T u + ||x||^2   s.t.  A u = b,  u >= 0,

    Q = [[M, -M], [-M, M]], M = 2 (G^T G + gamma I),
    c = (lambda - 2 G^T x, lambda + 2 G^T x), A = (1, ..., 1, -1, ..., -1).
    """

    x: np.ndarray      # (D,)
    G: np.ndarray      # (D, K), one neighbor per column
    gamma: float
    lam: float
    b = 1.0

    @property
    def K(self):
        return self.G.shape[1]

    @property
    def Q(self):
        M = 2.0 * (self.G.T @ self.G + self.gamma * np.eye(self.K))
        return np.block([[M, -M], [-M, M]])

    @property
    def c(self):
        gx = 2.0 * (self.G.T @ self.x)
        return np.concatenate([self.lam - gx, self.lam + gx])

    @property
    def A(self):
        return np.concatenate([np.ones(self.K), -np.ones(self.K)])[None, :]

    def objective(self, u):
        return float(0.5 * u @ self.Q @ u + self.c @ u + self.x @ self.x)


def solve_one(problem, config=None):
    """`solve_batch` on one SplitQp; the solution's fields are row 0."""
    from chsa.ipm import SolverConfig, SolverSolution, solve_batch
    sol = solve_batch(problem.x[None], problem.G[None], problem.gamma,
                      problem.lam, config or SolverConfig())
    return SolverSolution(**{name: value[0] for name, value in vars(sol).items()})


def weights(u):
    """w = w+ - w- for split vectors u = (w+, w-) (last axis)."""
    K = u.shape[-1] // 2
    return u[..., :K] - u[..., K:]


def active_set_optimum(problem):
    """Global optimum by enumerating active nonnegativity subsets.

    For each subset of variables pinned to zero, solve the remaining
    equality-constrained QP through its KKT linear system directly and
    keep the best feasible candidate.  Exponential in 2K; only for small K.
    """
    Q, c, a = problem.Q, problem.c, problem.A[0]
    n = c.shape[0]
    best_val, best_u = np.inf, None
    for mask in range(1 << n):
        free = [j for j in range(n) if not (mask >> j) & 1]
        if not free:
            continue
        m = len(free)
        kkt = np.zeros((m + 1, m + 1))
        kkt[:m, :m] = Q[np.ix_(free, free)]
        kkt[:m, m] = a[free]
        kkt[m, :m] = a[free]
        rhs = np.concatenate([-c[free], [problem.b]])
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        if np.max(np.abs(kkt @ sol - rhs)) > 1e-8:
            continue  # inconsistent system for this active set
        uf = sol[:m]
        if np.min(uf) < -1e-10:
            continue
        u = np.zeros(n)
        u[free] = np.maximum(uf, 0.0)
        val = problem.objective(u)
        if val < best_val:
            best_val, best_u = val, u
    return best_val, best_u


def dense_kkt(Q, u, z):
    """The full (2n+1) KKT matrix of the split QP's Newton system

        [ Q   a  -I ] [du]   [r1]
        [ a^T 0   0 ] [dy] = [r2]      a = (1, ..., 1, -1, ..., -1),
        [ Z   0   U ] [dz]   [r3]

    the reference for the solver's rank-D step.
    """
    n = u.shape[0]
    a = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
    kkt = np.zeros((2 * n + 1, 2 * n + 1))
    kkt[:n, :n] = Q
    kkt[:n, n] = a
    kkt[:n, n + 1:] = -np.eye(n)
    kkt[n, :n] = a
    kkt[n + 1:, :n] = np.diag(z)
    kkt[n + 1:, n + 1:] = np.diag(u)
    return kkt


def dense_newton_step(Q, u, z, r1, r2, r3):
    """Newton step of the split QP from the dense KKT system (dense_kkt)."""
    n = u.shape[0]
    step = np.linalg.solve(dense_kkt(Q, u, z), np.concatenate([r1, [r2], r3]))
    return step[:n], float(step[n]), step[n + 1:]


def direct_objective(w, x, G, gamma, lam):
    """Direct evaluation of the un-reformulated objective."""
    resid = x - G @ w
    return (gamma * float(w @ w) + lam * float(np.sum(np.abs(w)))
            + float(resid @ resid))


def random_chsa_instance(rng, k_max=6, d_max=5):
    from chsa.qp import ChsaParams
    K = int(rng.integers(1, k_max + 1))
    D = int(rng.integers(1, d_max + 1))
    G = rng.random((D, K))
    x = rng.random(D)
    params = ChsaParams(gamma=10 ** rng.uniform(-6, -2),
                        lam=10 ** rng.uniform(-5, -1))
    return x, G, params, SplitQp(x, G, params.gamma, params.lam)


def report_dict(report):
    """The report as the dict whose json.dumps(..., indent=1) is report.json;
    the reference for the streaming writer in `stratify`."""
    return {
        "schema": 1,
        "params": {
            "k": report.k,
            "gamma": report.params.gamma,
            "lambda": report.params.lam,
            "eps_neg": report.eps_neg,
            "seed": report.seed,
            "solver": {
                "tol_gap": report.solver.tol_gap,
                "tol_feas": report.solver.tol_feas,
                "max_iters": report.solver.max_iters,
                "step_fraction": report.solver.step_fraction,
                "centering_sigma": report.solver.centering_sigma,
            },
        },
        "records": [
            {
                "index": r.index,
                "weights": {int(j): float(w)
                            for j, w in zip(r.neighbor_indices, r.weights)},
                "has_negative": r.has_negative,
                "l2_norm": r.l2_norm,
                "residual": r.residual,
                "sum_dev": r.sum_dev,
                "iterations": r.iterations,
                "converged": r.converged,
                "rank": r.rank,
                "stratum": report.strata.get(r.index),
            }
            for r in report.records
        ],
        "ranking": report.ranking,
    }
