"""The per-point standard-form QP in split variables.

For a point x with neighbor matrix G (D x K) the objective

    gamma * ||w||_2^2 + lambda * ||w||_1 + ||x - G w||_2^2,   1^T w = 1,

is rewritten with w = w+ - w-, |w_j| = w+_j + w-_j, giving

    minimize 1/2 u^T Q u + c^T u   s.t.  A u = 1,  u >= 0

over u = (w+, w-) in R^{2K}, with

    Q = [[M, -M], [-M, M]],  M = 2 (G^T G + gamma I)
    c = [lambda*1 - 2 G^T x ; lambda*1 + 2 G^T x]
    A = [1 ... 1, -1 ... -1]

The problem is kept as (x, G, gamma, lambda): Q u needs two products with
G, and the dense Q is built only on demand (`dense_q`).  The other helpers
take one problem or a stack of them (leading batch axes), without BLAS.
The dropped constant ||x||^2 is added back in objective values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .neighbors import NeighborSet
from .pointcloud import PointCloud


@dataclass(frozen=True)
class ChsaParams:
    """Uniformity weight gamma and convexity weight lambda, both >= 0."""

    gamma: float
    lam: float

    def __post_init__(self):
        if not all(0 <= v < np.inf for v in (self.gamma, self.lam)):
            raise ValueError("gamma and lambda must be finite and >= 0")


def gmul(G: np.ndarray, w: np.ndarray) -> np.ndarray:
    """G w for (..., D, K) neighbor matrices and (..., K) vectors."""
    return np.einsum("...dk,...k->...d", G, w)


def gtmul(G: np.ndarray, v: np.ndarray) -> np.ndarray:
    """G^T v for (..., D, K) neighbor matrices and (..., D) vectors."""
    return np.einsum("...dk,...d->...k", G, v)


def dense_q(G: np.ndarray, gamma: float) -> np.ndarray:
    """The dense 2K x 2K quadratic term [[M, -M], [-M, M]] of one problem."""
    M = 2.0 * (G.T @ G + gamma * np.eye(G.shape[1]))
    return np.block([[M, -M], [-M, M]])


def linear_term(x: np.ndarray, G: np.ndarray, lam) -> np.ndarray:
    """c = (lambda - 2 G^T x, lambda + 2 G^T x), shape (..., 2K)."""
    gx = 2.0 * gtmul(G, x)
    lam = np.asarray(lam, dtype=float)[..., None]
    return np.concatenate([lam - gx, lam + gx], axis=-1)


def split_objective(x, G, gamma, lam, u) -> np.ndarray:
    """1/2 u^T Q u + c^T u + ||x||^2 without forming Q: with w = w+ - w-,
    u^T Q u = 2 (||G w||^2 + gamma ||w||^2)."""
    w = u[..., :G.shape[-1]] - u[..., G.shape[-1]:]
    quad = (np.sum(gmul(G, w) ** 2, axis=-1)
            + np.asarray(gamma) * np.sum(w * w, axis=-1))
    return (quad + np.sum(linear_term(x, G, lam) * u, axis=-1)
            + np.sum(x * x, axis=-1))


@dataclass(frozen=True)
class QpProblem:
    """One point's split-variable QP, stored as (x, G, gamma, lambda)."""

    x: np.ndarray      # (D,)
    G: np.ndarray      # (D, K), one neighbor per column
    gamma: float
    lam: float
    b = 1.0            # right-hand side of A u = b, a class constant

    @property
    def K(self) -> int:
        return self.G.shape[1]

    @property
    def A(self) -> np.ndarray:
        return np.concatenate([np.ones(self.K), -np.ones(self.K)])[None, :]

    @property
    def c(self) -> np.ndarray:
        return linear_term(self.x, self.G, self.lam)

    @property
    def Q(self) -> np.ndarray:
        """The dense quadratic term, built on every access."""
        return dense_q(self.G, self.gamma)

    def objective(self, u: np.ndarray) -> float:
        """1/2 u^T Q u + c^T u + ||x||^2."""
        u = np.asarray(u, dtype=float)
        return float(split_objective(self.x, self.G, self.gamma, self.lam, u))


def assemble(x: np.ndarray, neighbors: NeighborSet, cloud: PointCloud,
             params: ChsaParams) -> QpProblem:
    """Build the split-variable QP for one point and its neighbor set."""
    x = np.asarray(x, dtype=float)
    G = cloud.points[neighbors.indices].T  # D x K
    if G.shape[0] != x.shape[0]:
        raise DimensionMismatch(
            f"point has dim {x.shape[0]}, cloud has dim {G.shape[0]}")
    return assemble_raw(x, G, params)


def assemble_raw(x: np.ndarray, G: np.ndarray, params: ChsaParams) -> QpProblem:
    """Same as `assemble` but from an explicit D x K neighbor matrix."""
    x = np.asarray(x, dtype=float)
    G = np.asarray(G, dtype=float)
    if G.shape[0] != x.shape[0]:
        raise DimensionMismatch(
            f"point has dim {x.shape[0]}, neighbor matrix has dim {G.shape[0]}")
    return QpProblem(x=x, G=G, gamma=float(params.gamma),
                     lam=float(params.lam))


def recover_weights(u: np.ndarray) -> np.ndarray:
    """w_j = u_j - u_{K+j} for the split vector u = (w+, w-)."""
    u = np.asarray(u, dtype=float)
    K = u.shape[0] // 2
    return u[:K] - u[K:]
