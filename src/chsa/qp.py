"""The per-point standard-form QP in split variables.

For a point x with neighbor matrix G (D x K) the objective

    gamma * ||w||_2^2 + lambda * ||w||_1 + ||x - G w||_2^2,   1^T w = 1,

is rewritten with w = w+ - w-, |w_j| = w+_j + w-_j, giving

    minimize 1/2 u^T Q u + c^T u   s.t.  A u = 1,  u >= 0

over u = (w+, w-) in R^{2K}, with

    Q = [[M, -M], [-M, M]],  M = 2 (G^T G + gamma I)
    c = [lambda*1 - 2 G^T x ; lambda*1 + 2 G^T x]
    A = [1 ... 1, -1 ... -1]

The solver keeps each problem as (x, G, gamma, lambda): Q u needs two
products with G, and the dense Q is built only on demand (`dense_q`).
The helpers take one problem or a stack of them (leading batch axes),
without BLAS.  The constant ||x||^2 is dropped, and no objective value
is computed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def dense_q(G: np.ndarray, gamma: float) -> np.ndarray:
    """The dense 2K x 2K quadratic term [[M, -M], [-M, M]] of one problem."""
    M = 2.0 * (G.T @ G + gamma * np.eye(G.shape[1]))
    return np.block([[M, -M], [-M, M]])


def linear_term(x: np.ndarray, G: np.ndarray, lam) -> np.ndarray:
    """c = (lambda - 2 G^T x, lambda + 2 G^T x), shape (..., 2K)."""
    gx = 2.0 * np.einsum("...dk,...d->...k", G, x)
    lam = np.asarray(lam, dtype=float)[..., None]
    return np.concatenate([lam - gx, lam + gx], axis=-1)
