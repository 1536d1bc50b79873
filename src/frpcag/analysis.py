"""Spectral diagnostics: economic SVD, covariance/Laplacian alignment, low-rank
synthesis on graph eigenbases, and the recovery-bound verifier."""

from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigh

from .graph import SparseGraph, partial_eigs
from .matrixio import DataMatrix
from .solver import LowRankResult, SolverConfig, _fidelity, _values


class DegenerateEigengapError(ValueError):
    """The eigenvalue just above the retained band is zero, so gamma/lambda is undefined."""


@dataclass(frozen=True)
class SvdTriplet:
    """Economic SVD factors: U = V diag(sigma) W^T with orthonormal V, W."""

    V: np.ndarray      # p x c
    sigma: np.ndarray  # c, descending, >= 0
    W: np.ndarray      # n x c


@dataclass(frozen=True)
class LowRankOnGraphs:
    """Matrix whose columns/rows live in the low bands of two graph eigenbases."""

    Xstar: DataMatrix
    k1: int
    k2: int
    C: np.ndarray    # k2 x k1 coefficients
    Qk1: np.ndarray  # n x k1
    Pk2: np.ndarray  # p x k2


@dataclass(frozen=True)
class BoundReport:
    lhs: float
    rhs: float
    holds: bool
    lam_ratio: float  # lambda_k1 / lambda_{k1+1}
    om_ratio: float   # omega_k2 / omega_{k2+1}


def economic_svd(U) -> SvdTriplet:
    """SVD through the eigendecomposition of the smaller Gram matrix.

    When p <= n, V and sigma come from eigendecomposing U U^T, then
    W = U^T V Sigma^{-1}; when p > n, W and sigma come from U^T U, then
    V = U W Sigma^{-1}. Keeps every triplet with a numerically positive
    singular value.
    """
    U = _values(U)
    p, n = U.shape
    M = U.T if p > n else U  # M M^T is the smaller Gram matrix
    evals, evecs = eigh(M @ M.T)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    sigma = np.sqrt(np.maximum(evals, 0.0))
    # numerical rank in the Gram eigenvalue domain, where the eigh noise
    # floor sits at eps * lambda_max
    cutoff = evals[0] * max(p, n) * np.finfo(np.float64).eps if sigma.size else 0.0
    rank = int(np.count_nonzero(evals > max(cutoff, 0.0)))
    left = evecs[:, order[:rank]]
    sigma = sigma[:rank]
    right = (M.T @ left) / sigma if rank else np.zeros((M.shape[1], 0))
    V, W = (right, left) if p > n else (left, right)
    return SvdTriplet(V=V, sigma=sigma, W=W)


def covariance(X) -> np.ndarray:
    """Experimental covariance with the scalar global mean removed: Xc Xc^T / n."""
    X = _values(X)
    centered = X - X.mean()
    return centered @ centered.T / X.shape[1]


def alignment_ratio(P: np.ndarray, C: np.ndarray):
    """Alignment of an orthonormal basis P with the covariance eigenbasis.

    Returns Gamma = P^T C P and the stationarity ratio
    s_r = ||diag(Gamma)||_2 / ||Gamma||_F, which is 1 exactly when P
    diagonalizes C.

    s_r depends on the basis P takes inside a repeated eigenvalue, which no
    eigensolver fixes: a graph with c connected components has c zero
    Laplacian eigenvalues, and any rotation of their eigenvectors is as
    good.
    """
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"P must be square, got shape {P.shape}")
    if np.abs(P.T @ P - np.eye(P.shape[0])).max() > 1e-8:
        raise ValueError("P must have orthonormal columns (within 1e-8)")
    Gamma = P.T @ C @ P
    total = np.linalg.norm(Gamma)
    if total == 0:
        return Gamma, 1.0
    return Gamma, float(np.linalg.norm(np.diag(Gamma)) / total)


def make_lowrank_on_graphs(L1: SparseGraph, L2: SparseGraph, k1: int, k2: int,
                           coeff_scale: float = 1.0, seed: int = 0) -> LowRankOnGraphs:
    """Draw Xstar = P_{k2} C Q_{k1}^T with uniform random coefficients.

    Q_{k1} and P_{k2} are the lowest eigenvectors of the sample and feature
    Laplacians; C has independent entries uniform in [-coeff_scale, coeff_scale].
    """
    n, p = L1.vertex_count, L2.vertex_count
    if not 1 <= k1 <= n or not 1 <= k2 <= p:
        raise ValueError(f"need 1 <= k1 <= n and 1 <= k2 <= p, got k1={k1}, k2={k2}")
    _, Qk1 = partial_eigs(L1, k1)
    _, Pk2 = partial_eigs(L2, k2)
    rng = np.random.default_rng(seed)
    C = rng.uniform(-coeff_scale, coeff_scale, size=(k2, k1))
    Xstar = DataMatrix(Pk2 @ C @ Qk1.T)
    return LowRankOnGraphs(Xstar=Xstar, k1=k1, k2=k2, C=C, Qk1=Qk1, Pk2=Pk2)


def _bound_gammas(lam: np.ndarray, om: np.ndarray, k1: int, k2: int, gamma: float):
    """recovery_gammas from the lowest eigenvalues of L1 and L2, ascending:
    at least k1 + 1 and k2 + 1 of them, or all when the graph has fewer."""
    if k1 >= lam.size or k2 >= om.size:
        raise ValueError("k1, k2 must leave at least one eigenvalue above the band")
    if lam[k1] <= 1e-12 or om[k2] <= 1e-12:
        raise DegenerateEigengapError(
            "eigenvalue above the retained band is zero; the bound's gammas are undefined")
    return gamma / lam[k1], gamma / om[k2]


def recovery_gammas(L1: SparseGraph, L2: SparseGraph, k1: int, k2: int, gamma: float):
    """gamma1 = gamma/lambda_{k1+1}, gamma2 = gamma/omega_{k2+1} for the bound.

    Eigenvalues are counted from 1 here, so lambda_{k1+1} is the smallest
    eigenvalue outside the retained band (index k1 of the ascending array).
    """
    lam, _ = partial_eigs(L1, min(k1 + 1, L1.vertex_count))
    om, _ = partial_eigs(L2, min(k2 + 1, L2.vertex_count))
    return _bound_gammas(lam, om, k1, k2, gamma)


def check_recovery_bound(Xstar: LowRankOnGraphs, E, gamma: float,
                        solver_out: LowRankResult, cfg: SolverConfig,
                        L1: SparseGraph, L2: SparseGraph) -> BoundReport:
    """Evaluate both sides of the recovery bound for a solved instance.

    The solver must have run on X = Xstar + E with gamma1 = gamma/lambda_{k1+1}
    and gamma2 = gamma/omega_{k2+1}; this is re-derived and verified here,
    from the same full eigendecompositions that give the bound's projections.
    """
    E = _values(E)
    Xs = Xstar.Xstar.values
    X = Xs + E
    k1, k2 = Xstar.k1, Xstar.k2
    (lam, Q), (om, P) = partial_eigs(L1, L1.vertex_count), partial_eigs(L2, L2.vertex_count)
    g1, g2 = _bound_gammas(lam, om, k1, k2, gamma)
    for got, want, name in ((cfg.gamma1, g1, "gamma1"), (cfg.gamma2, g2, "gamma2")):
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            raise ValueError(f"solver ran with {name}={got}, bound requires {want}")

    Ustar = solver_out.U.values
    Qbar = Q[:, k1:]
    Pbar = P[:, k2:]
    lhs = (_fidelity(Ustar - X, cfg.loss)
           + g1 * float(np.linalg.norm(Ustar @ Qbar) ** 2)
           + g2 * float(np.linalg.norm(Pbar.T @ Ustar) ** 2))
    lam_ratio = lam[k1 - 1] / lam[k1]
    om_ratio = om[k2 - 1] / om[k2]
    rhs = (_fidelity(E, cfg.loss)
           + gamma * float(np.linalg.norm(Xs) ** 2) * (lam_ratio + om_ratio))
    holds = lhs <= rhs + 1e-9 * max(1.0, rhs)
    return BoundReport(lhs=lhs, rhs=rhs, holds=holds,
                       lam_ratio=float(lam_ratio), om_ratio=float(om_ratio))


def rank_estimate(sigma: np.ndarray, threshold: float) -> int:
    """Number of singular values above threshold * sigma_max."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.size == 0:
        return 0
    return int(np.count_nonzero(sigma > threshold * sigma[0]))
