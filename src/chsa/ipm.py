"""Batched primal-dual interior-point solver for the split-variable QP

    minimize 1/2 u^T Q u + c^T u   s.t.  a^T u = 1,  u >= 0,

with u = (w+, w-), Q = [[M, -M], [-M, M]], M = 2 (G^T G + gamma I) and
a = (1, -1) (see `qp`); Q is never formed.  Infeasible-start long-step
path following with a fixed centering parameter.

Newton step: with Sigma = diag(z/u), each pair (w+_j, w-_j) contributes a
2 x 2 block of Sigma + 2 gamma B B^T (B = [I; -I]); eliminating the blocks
in closed form leaves a K-vector system in dw = dw+ - dw-,

    S dw + 1 dy = rho,   1^T dw = r2,   S = diag(1/d) + 2 G^T G,
    1/d_j = s+_j s-_j / (s+_j + s-_j) + 2 gamma,   s = z/u,

and Woodbury turns S^{-1} into solves with the D x D SPD capacitance
I + 2 G diag(d) G^T, O(K D^2) per step and exact for every D and K.  The
capacitance is factored once per step (a batched left-looking Cholesky,
_cholesky) and the factor serves three column substitutions (_cho_solve):
S^{-1} rho and S^{-1} 1, then one step of iterative refinement against S
that restores the digits Woodbury cancels on weights with large d.

A batch of problems advances together in (B, 2K) arrays; each problem
stops on its own tests and leaves the working set.  All arithmetic is
per problem (elementwise, row sums, einsum and batched matmul; no LAPACK
call), so iterates do not depend on the batch, nor on the BLAS thread
count: OpenBLAS threads a gemm with m n k > 262144, which rounds
differently, so the D x D capacitance is summed in order over K-blocks of
max(1, 65536 // D^2) columns, one unthreaded gemm each for D <= 512.  The
one- and two-row products with G were checked to keep their bits for any
thread count.

With ``polish=True`` a converged run is refined by an active-set
crossover (see _polish) that lands on an exact KKT point; useful when
coordinates are weakly active or the curvature along some direction is
of the order of the duality gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KktSingular
from .qp import QpProblem, dense_q, linear_term

_REG = 1e-12  # static diagonal regularization floor


@dataclass(frozen=True)
class SolverConfig:
    tol_gap: float = 1e-9
    tol_feas: float = 1e-8
    max_iters: int = 100
    step_fraction: float = 0.99
    centering_sigma: float = 0.1
    start_scale: float = 1.0      # multiplier on the default interior start
    polish: bool = False          # active-set refinement after convergence

    def __post_init__(self):
        if self.start_scale <= 0:
            raise ValueError("start_scale must be positive")
        if not 0 < self.step_fraction < 1:
            raise ValueError("step_fraction must lie in (0, 1)")
        if not all(0 < v < np.inf for v in (self.tol_gap, self.tol_feas)):
            raise ValueError("tolerances must be finite and positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class SolverSolution:
    """One problem's result; from `solve_batch`, one row per problem."""

    u: np.ndarray
    y: float
    z: np.ndarray
    iterations: int
    converged: bool
    final_gap: float


def _max_step(v: np.ndarray, dv: np.ndarray, frac: float) -> np.ndarray:
    """Per row, max alpha <= 1 with v + alpha dv >= (1 - frac) v, for v > 0."""
    return frac / np.maximum(np.max(-dv / v, axis=1), frac)


def _gram(G, w):
    """G^T G w for (B, D, K) G and (B, K) w, as two batched matmuls."""
    return ((G @ w[:, :, None]).transpose(0, 2, 1) @ G)[:, 0]


def _residuals(G, gamma, c, u, y, z):
    """Dual residual Q u + c + a y - z, primal residual a^T u - 1, gap and
    the complementarity products u z."""
    K = G.shape[2]
    w = u[:, :K] - u[:, K:]
    mwy = 2.0 * (_gram(G, w) + gamma[:, None] * w) + y[:, None]
    r_dual = c - z + np.concatenate([mwy, -mwy], axis=1)
    uz = u * z
    return r_dual, np.sum(w, axis=1) - 1.0, np.sum(uz, axis=1), uz


def _cholesky(cap, it):
    """Lower Cholesky factors of the B SPD matrices cap (B, D, D), batch
    last: L[:, :, b] L[:, :, b]^T = cap[b].

    Left-looking, one einsum row update per column.  The batch axis is at
    least two wide (an identity pads a batch of one): numpy then sums
    every row update over k in order, whereas for a single problem it
    would take its SIMD dot-product kernel and round differently, so a
    problem's factor would depend on the batch it is in.
    """
    B, D, _ = cap.shape
    L = np.empty((D, D, max(B, 2)))
    L[:, :, :B] = cap.transpose(1, 2, 0)
    L[:, :, B:] = np.eye(D)[:, :, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(D):
            s = L[j:, j] - np.einsum("ikb,kb->ib", L[j:, :j], L[j, :j])
            L[j, j] = np.sqrt(s[0])
            L[j + 1:, j] = s[1:] / L[j, j]
    piv = L[np.arange(D), np.arange(D)]
    if not np.all(np.isfinite(piv) & (piv > 0.0)):
        raise KktSingular(f"capacitance not positive definite at iteration {it}")
    return L


def _cho_solve(L, rhs):
    """X with L L^T X_b = rhs_b for every problem b; L from _cholesky and
    rhs of shape (B, m, D) (m right-hand sides per problem)."""
    B, m, D = rhs.shape
    x = np.zeros((D, m, L.shape[2]))
    x[:, :, :B] = rhs.transpose(2, 1, 0)
    for j in range(D):
        x[j] = (x[j] - np.einsum("kb,kmb->mb", L[j, :j], x[:j])) / L[j, j]
    for j in range(D - 1, -1, -1):
        x[j] = (x[j] - np.einsum("kb,kmb->mb", L[j + 1:, j], x[j + 1:])) / L[j, j]
    return x[:, :, :B].transpose(2, 1, 0)


def _newton(G, gamma, u, z, r_dual, r_pri, r3, it):
    """Solve the Newton system for every row (see the module docstring)."""
    K = G.shape[2]
    sp, sm = z[:, :K] / u[:, :K] + _REG, z[:, K:] / u[:, K:] + _REG
    ssum = sp + sm
    dinv = sp * sm / ssum + 2.0 * gamma[:, None]
    d = 1.0 / dinv
    rbar = r3 / u - r_dual
    vp, vm = rbar[:, :K], rbar[:, K:]
    rho = (sm * vp - sp * vm) / ssum
    # capacitance I + G diag(2 d) G^T over K-blocks (see the module docstring)
    Gt, width = G.transpose(0, 2, 1), max(1, 65536 // G.shape[1] ** 2)
    d2, cap = 2.0 * d, np.eye(G.shape[1])
    for s in range(0, K, width):
        blk = slice(s, s + width)
        cap = cap + (G[:, :, blk] * d2[:, None, blk]) @ Gt[:, blk]
    L = _cholesky(cap, it)
    d, d2 = d[:, None, :], d2[:, None, :]

    def s_inv(v):
        """S^{-1} v for S = diag(dinv) + 2 G^T G and v of shape (B, m, K)."""
        dv = d * v
        return dv - d2 * (_cho_solve(L, dv @ Gt) @ G)

    x = s_inv(np.stack([rho, np.ones_like(rho)], axis=1))
    xr, x1 = x[:, 0], x[:, 1]
    den = np.sum(x1, axis=1)              # 1^T S^{-1} 1
    if not np.all(np.isfinite(den) & (den > 0)):
        raise KktSingular(f"degenerate Schur complement at iteration {it}")
    dy = (np.sum(xr, axis=1) + r_pri) / den
    dw = xr - x1 * dy[:, None]
    # one step of iterative refinement against S applied exactly: the
    # Woodbury solve alone cancels digits on weights whose d is large
    res = rho - dinv * dw - 2.0 * _gram(G, dw) - dy[:, None]
    cw = s_inv(res[:, None])[:, 0]
    cy = (np.sum(cw, axis=1) + r_pri + np.sum(dw, axis=1)) / den
    dw, dy = dw + cw - x1 * cy[:, None], dy + cy
    sig = vp + vm
    du = np.concatenate([(sig + sm * dw) / ssum, (sig - sp * dw) / ssum],
                        axis=1)
    dz = (r3 - z * du) / u
    # an inf or NaN anywhere makes the total non-finite
    if not np.isfinite(np.sum(du) + np.sum(dz)):
        raise KktSingular(f"non-finite KKT step at iteration {it}")
    return du, dy, dz


def _polish(G, gamma, c, u, y, z):
    """Active-set refinement after interior-point convergence.

    Starting from the active set the barrier suggests (z dominates u),
    solve the reduced equality KKT system exactly, then repair the set:
    drop the most negative free coordinate / free the most negative
    active multiplier, one swap at a time (the usual NNLS-style loop).
    Accept only a point passing the full KKT sign conditions; otherwise
    return the interior iterate unchanged.  This pins coordinates the
    barrier leaves slightly off their bounds, e.g. weakly active ones or
    directions of tiny curvature.
    """
    n = u.shape[0]
    a = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
    Q = dense_q(G, gamma)
    free = u > z
    tol = 1e-9 * (1.0 + float(np.max(np.abs(c))))
    for _ in range(4 * n):
        idx = np.flatnonzero(free)
        m = idx.shape[0]
        if m == 0:
            return u, y, z
        kkt = np.zeros((m + 1, m + 1))
        kkt[:m, :m] = Q[np.ix_(idx, idx)]
        kkt[:m, m] = a[idx]
        kkt[m, :m] = a[idx]
        rhs = np.concatenate([-c[idx], [1.0]])
        sol, _, _, _ = np.linalg.lstsq(kkt, rhs, rcond=None)
        u_new = np.zeros(n)
        u_new[idx] = sol[:m]
        y_new = float(sol[m])
        if float(u_new[idx].min()) < -tol:
            free[idx[int(np.argmin(u_new[idx]))]] = False
            continue
        z_new = Q @ u_new + c + a * y_new
        z_act = np.where(free, np.inf, z_new)
        if float(z_act.min()) < -tol:
            free[int(np.argmin(z_act))] = True
            continue
        if (float(np.max(np.abs(z_new[idx]))) > tol
                or abs(float(a @ u_new - 1.0)) > tol):
            break
        return np.maximum(u_new, 0.0), y_new, np.maximum(z_new, 0.0)
    return u, y, z


def solve_batch(x: np.ndarray, G: np.ndarray, gamma, lam,
                config: SolverConfig = SolverConfig()) -> SolverSolution:
    """Solve B split-variable QPs together; x is (B, D), G is (B, D, K).

    gamma and lam are scalars or length-B arrays.  Returns one row per
    problem; non-convergence is reported through `converged`, not raised.
    """
    x, G = np.asarray(x, dtype=float), np.asarray(G, dtype=float)
    nb, _, K = G.shape
    n = 2 * K
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), (nb,))
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (nb,))

    # Normalize small-magnitude objectives so the gap tolerance is relative;
    # only scaling up (norm < 1) keeps the absolute guarantees.  (Q, c)/norm
    # is the problem of (x, G, gamma, lambda) / (root, root, norm, norm); u
    # is unchanged, duals are scaled back below.  max |Q_ij| = max_j Q_jj.
    qmax = 2.0 * (np.max(np.sum(G * G, axis=1), axis=1) + gamma)
    norm = np.maximum(qmax, np.max(np.abs(linear_term(x, G, lam)), axis=1))
    norm = np.where((norm > 0.0) & (norm < 1.0), norm, 1.0)
    root = np.sqrt(norm)
    G, gamma = G / root[:, None, None], gamma / norm
    c = linear_term(x / root[:, None], G, lam / norm)
    cinf = np.max(np.abs(c), axis=1)
    start = np.repeat(np.maximum(1.0, cinf)[:, None] / n * config.start_scale,
                      n, axis=1)

    out = SolverSolution(u=np.empty((nb, n)), y=np.empty(nb),
                         z=np.empty((nb, n)), iterations=np.zeros(nb, int),
                         converged=np.zeros(nb, bool), final_gap=np.empty(nb))
    # the working set: unfinished problems only, one row each
    rows, u, y, z = np.arange(nb), start, np.zeros(nb), start.copy()
    dual_tol = config.tol_feas * (1.0 + cinf)
    for it in range(config.max_iters + 1):
        r_dual, r_pri, gap, uz = _residuals(G, gamma, c, u, y, z)
        ok = ((np.abs(r_pri) <= 2.0 * config.tol_feas)
              & (np.max(np.abs(r_dual), axis=1) <= dual_tol[rows])
              & (gap <= config.tol_gap * n))
        stop = ok | (it == config.max_iters)
        if np.any(stop):
            if config.polish:
                for i in np.flatnonzero(ok):
                    u[i], y[i], z[i] = _polish(G[i], gamma[i], c[i],
                                               u[i], y[i], z[i])
                r_dual, r_pri, gap, uz = _residuals(G, gamma, c, u, y, z)
            done, s = rows[stop], norm[rows[stop]]
            out.u[done], out.y[done] = u[stop], y[stop] * s
            out.z[done] = z[stop] * s[:, None]
            out.iterations[done], out.converged[done] = it, ok[stop]
            out.final_gap[done] = gap[stop] * s
            keep = ~stop
            rows, G, gamma, c, u, y, z, r_dual, r_pri, gap, uz = (
                v[keep] for v in (rows, G, gamma, c, u, y, z, r_dual, r_pri,
                                  gap, uz))
            if rows.size == 0:
                break

        r3 = config.centering_sigma * (gap / n)[:, None] - uz
        du, dy, dz = _newton(G, gamma, u, z, r_dual, r_pri, r3, it + 1)
        alpha_p = _max_step(u, du, config.step_fraction)
        alpha_d = _max_step(z, dz, config.step_fraction)
        u = u + alpha_p[:, None] * du
        y = y + alpha_d * dy
        z = z + alpha_d[:, None] * dz
    return out


def solve(problem: QpProblem,
          config: SolverConfig = SolverConfig()) -> SolverSolution:
    """Solve one QP as a batch of one; non-convergence is flagged, not raised."""
    sol = solve_batch(problem.x[None], problem.G[None], problem.gamma,
                      problem.lam, config)
    return SolverSolution(**{name: value[0] for name, value in vars(sol).items()})
