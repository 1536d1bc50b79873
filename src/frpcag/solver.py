"""FISTA solver for l1 (or squared-Frobenius) fidelity plus dual graph-Tikhonov terms."""

from dataclasses import dataclass
from typing import List

import numpy as np
from scipy.linalg import eigh, solve

from .config import AutoOrPositive
from .graph import SparseGraph, spectral_norm
from .matrixio import DataMatrix

LOSSES = ("l1", "frobenius_sq")


class DivergedError(RuntimeError):
    """Solver produced non-finite values (step size too large for the instance)."""


@dataclass(frozen=True)
class SolverConfig:
    loss: str = "l1"
    gamma1: float = 1.0
    gamma2: float = 1.0
    step: AutoOrPositive = "auto"  # "auto" -> 1 / (2*g1*||L1|| + 2*g2*||L2||)
    epsilon: float = 1e-6
    max_iters: int = 1000

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if not (0 <= self.gamma1 < np.inf and 0 <= self.gamma2 < np.inf):
            raise ValueError("gamma1 and gamma2 must be finite and >= 0")
        if self.step != "auto" and not 0 < float(self.step) < np.inf:
            raise ValueError("step must be positive and finite, or 'auto'")
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class LowRankResult:
    U: DataMatrix
    S: DataMatrix  # X - U, exactly
    objective_trace: List[float]
    iterations: int
    converged: bool


def _values(X) -> np.ndarray:
    return X.values if isinstance(X, DataMatrix) else np.asarray(X, dtype=np.float64)


def _check_dims(U, L1: SparseGraph, L2: SparseGraph):
    p, n = U.shape
    if L1.vertex_count != n:
        raise ValueError(f"sample graph has {L1.vertex_count} vertices, expected n={n}")
    if L2.vertex_count != p:
        raise ValueError(f"feature graph has {L2.vertex_count} vertices, expected p={p}")


def _fidelity(R: np.ndarray, loss: str) -> float:
    if loss == "l1":
        return float(np.abs(R).sum())
    return float((R * R).sum())


def objective(U, X, L1: SparseGraph, L2: SparseGraph, cfg: SolverConfig) -> float:
    """phi(U - X) + gamma1*tr(U L1 U^T) + gamma2*tr(U^T L2 U)."""
    U, X = _values(U), _values(X)
    _check_dims(U, L1, L2)
    t1 = float(np.sum(U * (L1.laplacian @ U.T).T))
    t2 = float(np.sum(U * (L2.laplacian @ U)))
    return _fidelity(U - X, cfg.loss) + cfg.gamma1 * t1 + cfg.gamma2 * t2


def gradient_smooth(U, L1: SparseGraph, L2: SparseGraph, gamma1: float,
                    gamma2: float) -> np.ndarray:
    """Gradient of the smooth part: 2*(gamma1*U L1 + gamma2*L2 U)."""
    U = _values(U)
    _check_dims(U, L1, L2)
    return 2.0 * (gamma1 * (L1.laplacian @ U.T).T + gamma2 * (L2.laplacian @ U))


def prox_fidelity(U, X, lam: float, loss: str = "l1") -> np.ndarray:
    """Proximal map of lam * phi(. - X).

    l1: soft-thresholding toward X. frobenius_sq: the weighted average
    (U + 2*lam*X) / (1 + 2*lam).
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    U, X = _values(U), _values(X)
    if loss == "l1":
        R = U - X
        return X + np.sign(R) * np.maximum(np.abs(R) - lam, 0.0)
    if loss == "frobenius_sq":
        return (U + 2.0 * lam * X) / (1.0 + 2.0 * lam)
    raise ValueError(f"unknown loss {loss!r}")


def auto_step(L1: SparseGraph, L2: SparseGraph, gamma1: float, gamma2: float) -> float:
    """1 / beta' for the Lipschitz bound beta' = 2*g1*||L1||_2 + 2*g2*||L2||_2."""
    beta = 2.0 * gamma1 * spectral_norm(L1) + 2.0 * gamma2 * spectral_norm(L2)
    return 1.0 / beta if beta > 0 else 1.0  # zero gammas: gradient vanishes


def fista_solve(X, L1: SparseGraph, L2: SparseGraph, cfg: SolverConfig) -> LowRankResult:
    """Accelerated proximal gradient loop on the dual-graph objective.

    Starts from Y = U = X with unit momentum weight, takes a gradient step on
    the Tikhonov terms followed by the fidelity prox, and stops once the
    relative squared change of the extrapolated iterate drops below epsilon
    (converged=True) or the iteration cap is reached (converged=False).
    """
    Xv = _values(X)
    _check_dims(Xv, L1, L2)
    image_dims = X.image_dims if isinstance(X, DataMatrix) else None
    lam = auto_step(L1, L2, cfg.gamma1, cfg.gamma2) if cfg.step == "auto" else float(cfg.step)

    Y = Xv.copy()
    U_prev = Xv.copy()
    t = 1.0
    trace: List[float] = []
    converged = False
    iterations = 0
    U = U_prev
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is checked explicitly
        for _ in range(cfg.max_iters):
            grad = gradient_smooth(Y, L1, L2, cfg.gamma1, cfg.gamma2)
            U = prox_fidelity(Y - lam * grad, Xv, lam, cfg.loss)
            if not np.all(np.isfinite(U)):
                raise DivergedError("non-finite iterate; reduce the step size")
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            Y_next = U + ((t - 1.0) / t_next) * (U - U_prev)
            iterations += 1
            value = objective(U, Xv, L1, L2, cfg)
            if not np.isfinite(value):
                raise DivergedError("objective overflowed; reduce the step size")
            trace.append(value)
            diff = float(((Y_next - Y) ** 2).sum())
            base = float((Y ** 2).sum())
            U_prev = U
            Y = Y_next
            t = t_next
            if diff < cfg.epsilon * base or diff == 0.0:
                converged = True
                break
    Uout = DataMatrix(U, image_dims=image_dims)
    Sout = DataMatrix(Xv - U, image_dims=image_dims)
    return LowRankResult(U=Uout, S=Sout, objective_trace=trace,
                         iterations=iterations, converged=converged)


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


def save_trace_csv(trace, path) -> None:
    """Objective trace as a two-column CSV (iteration, objective)."""
    with open(path, "w") as fh:
        fh.write("iteration,objective\n")
        for i, val in enumerate(trace, start=1):
            fh.write(f"{i},{val:.17g}\n")
