"""FISTA solver for l1 (or squared-Frobenius) fidelity plus dual graph-Tikhonov terms."""

from dataclasses import dataclass
from typing import List

import numpy as np

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


def _fidelity(R: np.ndarray, loss: str, out=None) -> float:
    """phi(R); out, if given, is scratch of R's shape (R itself may be passed)."""
    if loss == "l1":
        return float(np.abs(R, out=out).sum())
    return float(np.multiply(R, R, out=out).sum())


def _smooth(U: np.ndarray, L1: SparseGraph, L2: SparseGraph, gamma1: float,
            gamma2: float):
    """P(U) = gamma1*U L1 + gamma2*L2 U, and the smooth value tr(U^T P(U)).

    The gradient of the smooth part is 2*P(U). Each sparse product gets a
    C-ordered operand, the layout the CSR kernel reads fastest: a C-ordered
    U for L2 and a transposed C-ordered copy for L1. Dimensions are the
    caller's to check.
    """
    U = np.ascontiguousarray(U)
    Ut = np.ascontiguousarray(U.T)
    A1 = L1.laplacian @ Ut  # (U L1)^T, n x p
    t1 = float(np.vdot(Ut, A1))
    del Ut  # one n x p buffer fewer alive during the second product
    P = L2.laplacian @ U
    value = gamma1 * t1 + gamma2 * float(np.vdot(U, P))
    P *= gamma2
    A1 *= gamma1
    P += A1.T
    return P, value


def _shrink_residual(R: np.ndarray, lam: float, loss: str, scratch=None) -> None:
    """Overwrites R = V - X with prox(V) - X, for the prox of lam * phi(. - X)."""
    if loss == "l1":
        R -= np.clip(R, -lam, lam, out=scratch)
    else:
        R /= 1.0 + 2.0 * lam


def objective(U, X, L1: SparseGraph, L2: SparseGraph, cfg: SolverConfig) -> float:
    """phi(U - X) + gamma1*tr(U L1 U^T) + gamma2*tr(U^T L2 U)."""
    U, X = _values(U), _values(X)
    _check_dims(U, L1, L2)
    _, smooth = _smooth(U, L1, L2, cfg.gamma1, cfg.gamma2)
    return _fidelity(U - X, cfg.loss) + smooth


def gradient_smooth(U, L1: SparseGraph, L2: SparseGraph, gamma1: float,
                    gamma2: float) -> np.ndarray:
    """Gradient of the smooth part: 2*(gamma1*U L1 + gamma2*L2 U)."""
    U = _values(U)
    _check_dims(U, L1, L2)
    P, _ = _smooth(U, L1, L2, gamma1, gamma2)
    P *= 2.0
    return P


def prox_fidelity(U, X, lam: float, loss: str = "l1") -> np.ndarray:
    """Proximal map of lam * phi(. - X), in residual form X + shrink(U - X).

    l1: soft-thresholding toward X, R - clip(R, -lam, lam) on R = U - X.
    frobenius_sq: the weighted average (U + 2*lam*X) / (1 + 2*lam), written
    as X + R / (1 + 2*lam) so that U == X returns X exactly.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}")
    U, X = _values(U), _values(X)
    R = U - X
    _shrink_residual(R, lam, loss)
    return X + R


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

    Each iteration multiplies by the two Laplacians once, at the new U. That
    pair gives the objective's smooth terms and P(U) (see _smooth); as the
    gradient is linear, the gradient at the next extrapolated point
    Y = U + beta*(U - U_prev) is 2*(P(U) + beta*(P(U) - P(U_prev))), in the
    same form as Y, so a fixed point U == U_prev gives exactly 2*P(U). Both
    products come fresh from actual iterates, so rounding does not build up
    across iterations. The first iteration takes one more pair, at X.
    """
    Xv = np.ascontiguousarray(_values(X))
    _check_dims(Xv, L1, L2)
    image_dims = X.image_dims if isinstance(X, DataMatrix) else None
    lam = auto_step(L1, L2, cfg.gamma1, cfg.gamma2) if cfg.step == "auto" else float(cfg.step)

    # Four p x n buffers plus the product pair: U and U_prev swap each
    # iteration, and R holds the residual, then the scratch, then Y_next.
    U, Y = Xv.copy(), Xv.copy()
    U_prev, R = np.empty_like(Xv), np.empty_like(Xv)
    t, beta = 1.0, 0.0
    trace: List[float] = []
    converged = False
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is checked explicitly
        P, _ = _smooth(Xv, L1, L2, cfg.gamma1, cfg.gamma2)
        P_prev = P
        for _ in range(cfg.max_iters):
            # R = Y - lam*grad(Y) - X, shrunk in place by the fidelity prox
            np.subtract(P, P_prev, out=R)
            R *= beta
            R += P
            R *= -2.0 * lam
            R += Y
            R -= Xv
            U, U_prev = U_prev, U  # the older iterate is dead once the gradient is taken
            _shrink_residual(R, lam, cfg.loss, scratch=U)
            np.add(Xv, R, out=U)
            if not np.isfinite(U).all():
                raise DivergedError("non-finite iterate; reduce the step size")
            iterations += 1
            P_prev = P
            P, smooth = _smooth(U, L1, L2, cfg.gamma1, cfg.gamma2)
            value = _fidelity(np.subtract(U, Xv, out=R), cfg.loss, out=R) + smooth
            if not np.isfinite(value):
                raise DivergedError("objective overflowed; reduce the step size")
            trace.append(value)
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            beta = (t - 1.0) / t_next
            np.subtract(U, U_prev, out=R)  # R = Y_next = U + beta*(U - U_prev)
            R *= beta
            R += U
            base = float(np.vdot(Y, Y))
            diff = float(np.vdot(np.subtract(R, Y, out=Y), Y))
            Y, R = R, Y  # the old Y buffer is scratch again
            t = t_next
            if diff < cfg.epsilon * base or diff == 0.0:
                converged = True
                break
    Uout = DataMatrix(U, image_dims=image_dims)
    Sout = DataMatrix(Xv - U, image_dims=image_dims)
    return LowRankResult(U=Uout, S=Sout, objective_trace=trace,
                         iterations=iterations, converged=converged)


def save_trace_csv(trace, path) -> None:
    """Objective trace as a two-column CSV (iteration, objective)."""
    with open(path, "w") as fh:
        fh.write("iteration,objective\n")
        for i, val in enumerate(trace, start=1):
            fh.write(f"{i},{val:.17g}\n")
