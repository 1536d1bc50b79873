"""FISTA solver for l1 (or squared-Frobenius) fidelity plus dual graph-Tikhonov terms."""

from dataclasses import dataclass
from typing import List

import numpy as np

from .graph import SparseGraph
from .matrixio import _as_matrix, _check_same_shape

LOSSES = ("l1", "frobenius_sq")


class DivergedError(RuntimeError):
    """Solver produced non-finite values: input values too large for float64."""


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings; the step is always auto_step(gamma1, gamma2)."""

    loss: str = "l1"
    gamma1: float = 1.0
    gamma2: float = 1.0
    epsilon: float = 1e-6
    max_iters: int = 1000

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if not (0 <= self.gamma1 < np.inf and 0 <= self.gamma2 < np.inf):
            raise ValueError("gamma1 and gamma2 must be finite and >= 0")
        if not auto_step(self.gamma1, self.gamma2) > 0:
            raise ValueError("gamma1 + gamma2 overflows: the auto step would be 0")
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class LowRankResult:
    """fista_solve's answer: the p x n low-rank U, the objective after each
    iteration, the iteration count and whether the stopping rule was met."""

    U: np.ndarray
    objective_trace: List[float]
    iterations: int
    converged: bool


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


# float64 elements in one row block of a p x n iterate (128 KB): the loop's
# work on a block, and the block's share of U L1, stay in cache together
_BLOCK_ELEMENTS = 1 << 14


def _row_blocks(L2: SparseGraph, n: int):
    """Row slices of a p x n U, each with its CSR rows of L2; at least 32 rows
    keep the CSR kernel's inner loop long."""
    p = L2.vertex_count
    rows = max(32, _BLOCK_ELEMENTS // n)
    return [(blk, L2.laplacian[blk])
            for blk in (slice(lo, min(lo + rows, p)) for lo in range(0, p, rows))]


def _l1_rows(U_blk: np.ndarray, L1: SparseGraph, c1: float, out: np.ndarray) -> None:
    """out = c1 * U_blk L1, taken as the n x b product L1 @ U_blk^T (L1 is symmetric)."""
    np.multiply((L1.laplacian @ U_blk.T).T, c1, out=out)


def _add_l2(U: np.ndarray, c2: float, Q: np.ndarray, blocks) -> float:
    """Q += c2 * L2 U by row blocks; returns vdot(U, Q).

    A block's rows of L2 U are its CSR rows of L2 times all of U: the CSR
    kernel computes each row alone, so they are the rows of the full product.
    """
    value = 0.0
    for blk, L2_rows in blocks:
        part = L2_rows @ U
        part *= c2
        Q[blk] += part
        value += float(np.vdot(U[blk], Q[blk]))
    return value


def _smooth(U: np.ndarray, L1: SparseGraph, c1: float, c2: float, blocks):
    """Q = c1*U L1 + c2*L2 U and vdot(U, Q), one row block at a time.

    With c = gamma these are P(U) = gamma1*U L1 + gamma2*L2 U and the smooth
    value tr(U^T P(U)); the gradient of the smooth part is 2*P(U).
    blocks are the _row_blocks of L2, and fista_solve's loop runs the same
    block steps. Dimensions are the caller's to check.
    """
    U = np.ascontiguousarray(U)
    Q = np.empty_like(U)
    for blk, _ in blocks:
        _l1_rows(U[blk], L1, c1, Q[blk])
    return Q, _add_l2(U, c2, Q, blocks)


def _shrink_residual(R: np.ndarray, lam: float, loss: str, scratch=None) -> None:
    """Overwrites R = V - X with prox(V) - X, for the prox of lam * phi(. - X)."""
    if loss == "l1":
        R -= np.clip(R, -lam, lam, out=scratch)
    else:
        R /= 1.0 + 2.0 * lam


def objective(U, X, L1: SparseGraph, L2: SparseGraph, cfg: SolverConfig) -> float:
    """phi(U - X) + gamma1*tr(U L1 U^T) + gamma2*tr(U^T L2 U)."""
    U, X = _as_matrix(U), _as_matrix(X)
    _check_same_shape(U, X)
    _check_dims(U, L1, L2)
    _, smooth = _smooth(U, L1, cfg.gamma1, cfg.gamma2, _row_blocks(L2, U.shape[1]))
    return _fidelity(U - X, cfg.loss) + smooth


def gradient_smooth(U, L1: SparseGraph, L2: SparseGraph, gamma1: float,
                    gamma2: float) -> np.ndarray:
    """Gradient of the smooth part: 2*(gamma1*U L1 + gamma2*L2 U)."""
    U = _as_matrix(U)
    _check_dims(U, L1, L2)
    return _smooth(U, L1, 2.0 * gamma1, 2.0 * gamma2, _row_blocks(L2, U.shape[1]))[0]


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
    U, X = _as_matrix(U), _as_matrix(X)
    _check_same_shape(U, X)
    R = U - X
    _shrink_residual(R, lam, loss)
    return X + R


def auto_step(gamma1: float, gamma2: float) -> float:
    """1 / beta' for the Lipschitz bound beta' = 2*g1*||L1||_2 + 2*g2*||L2||_2
    at ||L||_2 <= 2, which every normalized Laplacian meets; 0 when
    4*(g1 + g2) overflows, which SolverConfig refuses."""
    beta = 4.0 * (gamma1 + gamma2)
    return 1.0 / beta if beta > 0 else 1.0  # zero gammas: gradient vanishes


def fista_solve(X, L1: SparseGraph, L2: SparseGraph, cfg: SolverConfig) -> LowRankResult:
    """Accelerated proximal gradient loop on the dual-graph objective.

    Starts from Y = U = X with unit momentum weight, takes a gradient step on
    the Tikhonov terms followed by the fidelity prox, and stops once the
    relative squared change of the extrapolated iterate drops below epsilon
    (converged=True) or the iteration cap is reached (converged=False).
    The step lam is always auto_step(gamma1, gamma2) = 1 / (4*(gamma1 + gamma2)),
    the inverse of the gradient's Lipschitz bound under ||L|| <= 2.

    Each iteration multiplies by the two Laplacians once, at the new U. That
    pair gives the objective's smooth terms and Q = -2*lam*P(U) (see _smooth);
    as the gradient is linear, the step at the next extrapolated point
    Y = U + beta*(U - U_prev) is Q + beta*(Q - Q_prev), in the same form as Y,
    so a fixed point U == U_prev gives exactly Q. Both products come fresh
    from actual iterates, so rounding does not build up across iterations.
    The first iteration takes one more pair, at X.

    The elementwise work and U L1 run in one pass over row blocks that stay
    in cache, so Y and the prox residual exist only per block; L2 U follows
    block by block, each block's CSR rows of L2 (sliced once per call) times
    U. So the loop holds no p x n array beyond X and four buffers. A
    C-ordered X is used as it is, without a copy. A non-finite objective,
    from X values whose squares overflow float64, raises DivergedError.
    """
    Xv = np.ascontiguousarray(_as_matrix(X))
    _check_dims(Xv, L1, L2)
    lam = auto_step(cfg.gamma1, cfg.gamma2)
    c1, c2 = -2.0 * lam * cfg.gamma1, -2.0 * lam * cfg.gamma2
    blocks = _row_blocks(L2, Xv.shape[1])

    # Four p x n buffers: U and U_prev swap each iteration, as do Q and Q_prev
    U, U_prev = Xv.copy(), Xv.copy()
    Y_buf, R_buf = np.empty((2, blocks[0][0].stop, Xv.shape[1]))
    t, beta = 1.0, 0.0
    trace: List[float] = []
    converged = False
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is checked explicitly
        Q, _ = _smooth(Xv, L1, c1, c2, blocks)
        Q_prev = Q.copy()
        for _ in range(cfg.max_iters):
            iterations += 1
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            beta_next = (t - 1.0) / t_next
            fidelity = base = diff = 0.0
            for blk, _ in blocks:
                Yb, Rb = Y_buf[:blk.stop - blk.start], R_buf[:blk.stop - blk.start]
                np.subtract(U[blk], U_prev[blk], out=Yb)  # Y = U + beta*(U - U_prev)
                Yb *= beta
                Yb += U[blk]
                base += float(np.vdot(Yb, Yb))
                # R = Y - lam*grad(Y) - X, shrunk in place by the fidelity prox;
                # the new U and its rows of U L1 replace the dead U_prev and Q_prev rows
                np.subtract(Q[blk], Q_prev[blk], out=Rb)
                Rb *= beta
                Rb += Q[blk]
                Rb += Yb
                Rb -= Xv[blk]
                U_new = U_prev[blk]
                _shrink_residual(Rb, lam, cfg.loss, scratch=U_new)
                np.add(Xv[blk], Rb, out=U_new)
                fidelity += _fidelity(Rb, cfg.loss, out=Rb)  # R = U - X up to rounding
                np.subtract(U_new, U[blk], out=Rb)  # R = Y_next = U + beta*(U - U_prev)
                Rb *= beta_next
                Rb += U_new
                diff += float(np.vdot(np.subtract(Rb, Yb, out=Yb), Yb))
                _l1_rows(U_new, L1, c1, Q_prev[blk])
            U, U_prev = U_prev, U
            Q, Q_prev = Q_prev, Q
            value = fidelity + _add_l2(U, c2, Q, blocks) / (-2.0 * lam)
            if not np.isfinite(value):
                raise DivergedError(f"non-finite values at iteration {iterations}: "
                                    "input values too large for float64")
            trace.append(value)
            t, beta = t_next, beta_next
            if diff < cfg.epsilon * base or diff == 0.0:
                converged = True
                break
    return LowRankResult(U=U, objective_trace=trace, iterations=iterations,
                         converged=converged)


def save_trace_csv(trace, path) -> None:
    """Objective trace as a two-column CSV (iteration, objective)."""
    with open(path, "w") as fh:
        fh.write("iteration,objective\n")
        for i, val in enumerate(trace, start=1):
            fh.write(f"{i},{val:.17g}\n")
