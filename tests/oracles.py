"""Dense reference solutions the solver tests compare against.

Both factor or invert full Laplacians, so they are for small instances only.
"""

import numpy as np
from scipy.linalg import eigh, solve

from frpcag.graph import SparseGraph
from frpcag.solver import _check_dims, _values


def sylvester_solve(X, L1: SparseGraph, L2: SparseGraph, gamma1: float,
                    gamma2: float) -> np.ndarray:
    """Exact minimizer of ||X-U||_F^2 + g1*tr(U L1 U^T) + g2*tr(U^T L2 U).

    Solves the stationarity equation U + g2*L2 U + g1*U L1 = X through dense
    eigendecompositions of both Laplacians; intended as a test oracle for
    small instances.
    """
    X = _values(X)
    _check_dims(X, L1, L2)
    lam, Q = eigh(L1.laplacian.toarray())
    om, P = eigh(L2.laplacian.toarray())
    M = P.T @ X @ Q
    M /= 1.0 + gamma2 * om[:, None] + gamma1 * lam[None, :]
    U = P @ M @ Q.T
    residual = U + gamma2 * (L2.laplacian @ U) + gamma1 * (L1.laplacian @ U.T).T - X
    scale = max(np.linalg.norm(X), 1e-300)
    if np.linalg.norm(residual) > 1e-10 * scale:
        raise RuntimeError("stationarity residual exceeded 1e-10, eigensolve is suspect")
    return U


def sequential_prox(X, L1: SparseGraph, L2: SparseGraph, gamma1: float,
                    gamma2: float) -> np.ndarray:
    """(I + g2*L2)^{-1} X (I + g1*L1)^{-1} via two positive-definite solves."""
    X = _values(X)
    _check_dims(X, L1, L2)
    p, n = X.shape
    A2 = np.eye(p) + gamma2 * L2.laplacian.toarray()
    Z = solve(A2, X, assume_a="pos")
    A1 = np.eye(n) + gamma1 * L1.laplacian.toarray()
    return solve(A1, Z.T, assume_a="pos").T
