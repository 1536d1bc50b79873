"""Reference implementations the tests compare against.

The dense solutions factor or invert full Laplacians, so they are for small
instances only. The text readers are line-by-line forms of `load_matrix`'s
csv branch, `load_graph_coo` and `load_labels`: Python parses and checks
each line in file order, with the csv module for CSV records.
"""

import csv
import math
import re

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh, solve

from frpcag.graph import GraphFormatError, GraphSizeError, SparseGraph, _sparse_graph
from frpcag.matrixio import DataMatrix, MatrixFormatError
from frpcag.solver import _check_dims, _values

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


def _number_lines(fh, path):
    """The lines of fh; MatrixFormatError names one that holds an underscore or
    a non-ASCII character, which float() would read as part of a number."""
    for lineno, line in enumerate(fh, start=1):
        if not plain_number_text(line):
            raise MatrixFormatError(f"{path}: non-numeric cell on line {lineno}")
        yield line


def load_matrix_csv(path) -> DataMatrix:
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
    return DataMatrix(np.array(rows, dtype=np.float64))


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
    if (abs(A - A.T) > 1e-12).nnz > 0:
        raise GraphFormatError(f"{path}: adjacency must be symmetric")
    try:
        return _sparse_graph(A)
    except ValueError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
