"""Reference implementations the tests compare against.

The dense solutions factor or invert full Laplacians, so they are for small
instances only. The text readers are line-by-line forms of `load_matrix`'s
csv branch, `load_graph_coo` and `load_labels`: Python parses and checks
each line in file order, with the csv module for CSV records. `kmeans` and
`clustering_error` are the package's forms on scipy.spatial.distance.cdist
and scipy.optimize.linear_sum_assignment.
"""

import csv
import math
import re

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh, solve
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from frpcag.graph import GraphFormatError, GraphSizeError, SparseGraph, _sparse_graph
from frpcag.matrixio import MatrixFormatError, _as_matrix
from frpcag.solver import _check_dims

_INTEGER = re.compile(r"[+-]?[0-9]+")


def plain_number_text(text: str) -> bool:
    """False for text with '_' or a non-ASCII character: Python's int and float
    read "1_0" as 10 and non-ASCII digits as digits, which every reader refuses."""
    return text.isascii() and "_" not in text


def sylvester_solve(X, L1: SparseGraph, L2: SparseGraph, gamma1: float,
                    gamma2: float) -> np.ndarray:
    """Exact minimizer of ||X-U||_F^2 + g1*tr(U L1 U^T) + g2*tr(U^T L2 U).

    Solves the stationarity equation U + g2*L2 U + g1*U L1 = X through dense
    eigendecompositions of both Laplacians; intended as a test oracle for
    small instances.
    """
    X = _as_matrix(X)
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
    X = _as_matrix(X)
    _check_dims(X, L1, L2)
    p, n = X.shape
    A2 = np.eye(p) + gamma2 * L2.laplacian.toarray()
    Z = solve(A2, X, assume_a="pos")
    A1 = np.eye(n) + gamma1 * L1.laplacian.toarray()
    return solve(A1, Z.T, assume_a="pos").T


def shape_interaction(W: np.ndarray) -> np.ndarray:
    """Projector W W^T onto the span of the principal components."""
    W = np.asarray(W, dtype=np.float64)
    return W @ W.T


def alignment_energy(svd, L1eigs, L2eigs, gamma1: float, gamma2: float) -> float:
    """Tikhonov energy expanded in the Laplacian bases.

    svd is U's (V, sigma, W), as economic_svd gives it; L1eigs and L2eigs are
    (values, vectors) pairs, as partial_eigs gives them.
    sum_{i,j} sigma_i^2 * (g1*lambda_j*(w_i.q_j)^2 + g2*omega_j*(v_i.p_j)^2),
    which equals g1*tr(U L1 U^T) + g2*tr(U^T L2 U) when full eigenbases are
    supplied.
    """
    V, sigma, W = svd
    n, p = W.shape[0], V.shape[0]
    (lam, Q), (om, P) = L1eigs, L2eigs
    if lam.size != n or Q.shape[0] != n:
        raise ValueError("L1eigs must be the full n x n eigenbasis")
    if om.size != p or P.shape[0] != p:
        raise ValueError("L2eigs must be the full p x p eigenbasis")
    s2 = sigma ** 2
    M1 = W.T @ Q  # c x n
    M2 = V.T @ P  # c x p
    e1 = s2 @ ((M1 ** 2) @ lam)
    e2 = s2 @ ((M2 ** 2) @ om)
    return float(gamma1 * e1 + gamma2 * e2)


def _kmeans_once(cols: np.ndarray, k: int, rng) -> tuple:
    """One k-means++ seeded Lloyd run; returns (labels, inertia, trace)."""
    n = cols.shape[0]
    centers = np.empty((k, cols.shape[1]))
    centers[0] = cols[rng.integers(n)]
    d2 = cdist(cols, centers[:1], "sqeuclidean").ravel()
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            centers[c] = cols[rng.choice(n, p=probs)]
        else:  # all remaining points coincide with chosen centers
            centers[c] = cols[rng.integers(n)]
        d2 = np.minimum(d2, cdist(cols, centers[c:c + 1], "sqeuclidean").ravel())

    labels = np.full(n, -1, dtype=np.int64)
    trace = []
    for _ in range(300):
        dist = cdist(cols, centers, "sqeuclidean")
        new_labels = dist.argmin(axis=1)
        assigned = dist[np.arange(n), new_labels]
        trace.append(float(assigned.sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = labels == c
            if members.any():
                centers[c] = cols[members].mean(axis=0)
            else:  # re-seed an empty cluster to the farthest point
                far = int(assigned.argmax())
                centers[c] = cols[far]
                assigned[far] = 0.0
    return labels, trace[-1], trace


def kmeans(points: np.ndarray, k: int, restarts: int = 10, seed: int = 0) -> tuple:
    """kmeans with every distance from cdist; returns the (labels, inertia,
    trace) of the minimum-inertia restart."""
    cols = np.asarray(points, dtype=np.float64).T
    best = None
    for r in range(restarts):
        run = _kmeans_once(cols, k, np.random.default_rng([seed, r]))
        if best is None or run[1] < best[1]:
            best = run
    return best


def clustering_error(pred, truth) -> float:
    """clustering_error with the Hungarian algorithm on the contingency table."""
    _, pi = np.unique(np.asarray(pred), return_inverse=True)
    _, ti = np.unique(np.asarray(truth), return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    rows, cols = linear_sum_assignment(-table)
    return 1.0 - table[rows, cols].sum() / pi.size


def _number_lines(fh, path):
    """The lines of fh; MatrixFormatError names one that holds an underscore or
    a non-ASCII character, which float() would read as part of a number."""
    for lineno, line in enumerate(fh, start=1):
        if not plain_number_text(line):
            raise MatrixFormatError(f"{path}: non-numeric cell on line {lineno}")
        yield line


def load_matrix_csv(path) -> np.ndarray:
    """load_matrix(path, "csv") as one csv.reader record at a time."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for lineno, record in enumerate(csv.reader(_number_lines(fh, path)), start=1):
                if not record:
                    continue
                try:
                    rows.append([float(cell) for cell in record])
                except ValueError as exc:
                    raise MatrixFormatError(
                        f"{path}: non-numeric cell on line {lineno}") from exc
                if not all(map(math.isfinite, rows[-1])):
                    raise MatrixFormatError(f"{path}: non-finite cell on line {lineno}")
                if len(rows[-1]) != len(rows[0]):
                    raise MatrixFormatError(
                        f"{path}: ragged row on line {lineno} "
                        f"({len(rows[-1])} cells, expected {len(rows[0])})"
                    )
    except (UnicodeDecodeError, csv.Error) as exc:  # csv.Error: a field past the size limit
        raise MatrixFormatError(f"{path}: {exc}") from exc
    if not rows:
        raise MatrixFormatError(f"{path}: empty file")
    return np.array(rows, dtype=np.float64)


def load_labels(path) -> np.ndarray:
    """load_labels, one line at a time."""
    labels = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                # 19 digits at most, so int() stays far below its digit limit
                if not (_INTEGER.fullmatch(line) and len(line.lstrip("+-0")) <= 19
                        and -2**63 <= int(line) < 2**63):
                    raise MatrixFormatError(f"{path}: expected one integer on line {lineno}")
                labels.append(int(line))
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from exc
    if not labels:
        raise MatrixFormatError(f"{path}: no labels")
    return np.array(labels, dtype=np.int64)


def load_graph_coo(path, vertex_count: int) -> SparseGraph:
    """load_graph_coo, one line at a time into a dict of edges."""
    edges = {}  # (i, j) -> weight, in file order
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 3 or not plain_number_text(line):
                    raise GraphFormatError(f"{path}: expected 'i j weight' on line {lineno}")
                try:
                    i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
                except ValueError as exc:
                    raise GraphFormatError(f"{path}: bad triplet on line {lineno}") from exc
                if i < 0 or j < 0:
                    raise GraphFormatError(f"{path}: negative vertex index on line {lineno}")
                if max(i, j) >= vertex_count:
                    raise GraphSizeError(
                        f"{path}: vertex index {max(i, j)} on line {lineno} needs "
                        f"{max(i, j) + 1} vertices, expected {vertex_count}")
                if not (math.isfinite(w) and w >= 0):
                    raise GraphFormatError(
                        f"{path}: weight must be finite and non-negative on line {lineno}")
                if i == j:
                    raise GraphFormatError(f"{path}: self-loop on line {lineno}")
                if (i, j) in edges:
                    raise GraphFormatError(f"{path}: repeated edge {i} {j} on line {lineno}")
                edges[i, j] = w
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
    if not edges:
        raise GraphFormatError(f"{path}: no edges")
    index = np.array(list(edges), dtype=np.int64)
    largest = int(index.max())
    if largest + 1 < vertex_count:
        raise GraphSizeError(f"{path}: largest vertex index {largest} gives {largest + 1} "
                             f"vertices, expected {vertex_count}")
    weights = np.fromiter(edges.values(), dtype=np.float64, count=len(edges))
    A = sp.coo_matrix((weights, (index[:, 0], index[:, 1])),
                      shape=(vertex_count, vertex_count)).tocsr()
    A.eliminate_zeros()
    for (i, j), w in edges.items():  # an edge listed one way only faces a weight of 0
        back = edges.get((j, i), 0.0)
        if abs(w - back) > 1e-12 * max(w, back):
            raise GraphFormatError(f"{path}: adjacency must be symmetric")
    try:
        return _sparse_graph(A)
    except ValueError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
