"""K-NN graph construction, normalized Laplacians and partial eigendecompositions."""

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh
from scipy.spatial.distance import cdist


class EigenSolverError(RuntimeError):
    """Eigensolver failed to converge within its iteration cap."""


class GraphFormatError(ValueError):
    """Raised when a COO graph file is malformed."""


@dataclass(frozen=True)
class NeighborList:
    """K nearest neighbors per vertex: indices and distances are (n, K) arrays."""

    indices: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        n, k = self.indices.shape
        if k < 1:
            raise ValueError("K must be >= 1")
        if self.distances.shape != (n, k):
            raise ValueError("indices and distances must have the same shape")
        if np.any(self.indices == np.arange(n)[:, None]):
            raise ValueError("neighbor lists must not contain self-loops")
        if np.any(self.distances < 0):
            raise ValueError("distances must be non-negative")

    @property
    def vertex_count(self) -> int:
        return self.indices.shape[0]

    @property
    def k(self) -> int:
        return self.indices.shape[1]


@dataclass(frozen=True)
class SparseGraph:
    """Symmetric weighted adjacency with its normalized Laplacian.

    L = I - D^{-1/2} A D^{-1/2}; rows of isolated vertices reduce to the
    identity row, so the spectrum always stays inside [0, 2].
    """

    adjacency: sp.csr_matrix
    degrees: np.ndarray
    laplacian: sp.csr_matrix

    @property
    def vertex_count(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True)
class GraphEigs:
    """The k algebraically smallest eigenpairs of a Laplacian, ascending."""

    values: np.ndarray  # (k,)
    vectors: np.ndarray  # (n, k), orthonormal columns

    @property
    def count(self) -> int:
        return self.values.shape[0]


def knn_exact(points: np.ndarray, K: int) -> NeighborList:
    """Exact K nearest neighbors under the Euclidean metric.

    points holds one vector per column. Ties are broken by the lower vertex
    index; the diagonal (self) is never listed.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[1]
    if not 1 <= K < n:
        raise ValueError(f"K must satisfy 1 <= K < n, got K={K}, n={n}")
    cols = points.T  # cdist wants row vectors
    indices = np.empty((n, K), dtype=np.int64)
    distances = np.empty((n, K), dtype=np.float64)
    block = max(1, int(2e7 / max(n, 1)))
    for start in range(0, n, block):
        stop = min(start + block, n)
        d = cdist(cols[start:stop], cols)
        d[np.arange(start, stop) - start, np.arange(start, stop)] = np.inf
        # stable sort keeps equal distances in index order
        order = np.argsort(d, axis=1, kind="stable")[:, :K]
        indices[start:stop] = order
        distances[start:stop] = np.take_along_axis(d, order, axis=1)
    return NeighborList(indices, distances)


def _normalized_laplacian(A: sp.csr_matrix):
    degrees = np.asarray(A.sum(axis=1)).ravel()
    inv_sqrt = np.divide(1.0, np.sqrt(degrees), out=np.zeros_like(degrees),
                         where=degrees > 0)
    D = sp.diags(inv_sqrt)
    L = sp.eye(A.shape[0], format="csr") - D @ A @ D
    return degrees, L.tocsr()


def graph_from_adjacency(A: sp.spmatrix) -> SparseGraph:
    """Wrap a symmetric adjacency matrix into a SparseGraph with its Laplacian."""
    A = sp.csr_matrix(A)
    A.setdiag(0.0)
    A.eliminate_zeros()
    if (abs(A - A.T) > 1e-12).nnz > 0:
        raise ValueError("adjacency must be symmetric")
    degrees, L = _normalized_laplacian(A)
    return SparseGraph(adjacency=A, degrees=degrees, laplacian=L)


def resolve_sigma2(nbrs: NeighborList, sigma2: Union[float, str]) -> float:
    """Numeric kernel width: "auto" squares the mean neighbor distance."""
    if sigma2 == "auto":
        mean_dist = float(nbrs.distances.mean())
        return mean_dist ** 2 if mean_dist > 0 else 1.0
    sigma2 = float(sigma2)
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    return sigma2


def build_graph(nbrs: NeighborList, sigma2: Union[float, str] = 1.0) -> SparseGraph:
    """Gaussian-weighted graph from a neighbor list, symmetrized by the union rule.

    Edge (i, j) exists iff either vertex lists the other; its weight is
    exp(-d_ij^2 / sigma^2), which is direction-independent. sigma2="auto"
    squares the mean neighbor distance.
    """
    n, k = nbrs.vertex_count, nbrs.k
    sigma2 = resolve_sigma2(nbrs, sigma2)
    weights = np.exp(-(nbrs.distances ** 2) / sigma2)
    rows = np.repeat(np.arange(n), k)
    W = sp.coo_matrix((weights.ravel(), (rows, nbrs.indices.ravel())), shape=(n, n)).tocsr()
    A = W.maximum(W.T)
    return graph_from_adjacency(A)


def spectral_norm(graph: SparseGraph, method: str = "bound", max_iters: int = 50000,
                  tol: float = 1e-10) -> float:
    """Upper bound or power-iteration estimate of the largest Laplacian eigenvalue.

    method "bound" returns 2, valid for every normalized Laplacian; "power"
    iterates until the Rayleigh quotient moves less than tol. The defaults
    land within 1e-4 relative of the true value: runs either converge under
    the cap or stall inside a top cluster narrower than the tolerance.
    """
    if method == "bound":
        return 2.0
    if method != "power":
        raise ValueError(f"unknown method {method!r}")
    L = graph.laplacian
    rng = np.random.default_rng(0)
    v = rng.standard_normal(L.shape[0])
    v /= np.linalg.norm(v)
    rayleigh = float(v @ (L @ v))
    for _ in range(max_iters):
        w = L @ v
        norm = np.linalg.norm(w)
        if norm == 0:  # v in the null space; restart from a fresh direction
            v = rng.standard_normal(L.shape[0])
            v /= np.linalg.norm(v)
            continue
        v = w / norm
        new = float(v @ (L @ v))
        if abs(new - rayleigh) <= tol * max(abs(new), 1.0):
            return new
        rayleigh = new
    return rayleigh


def partial_eigs(graph: SparseGraph, k: int) -> GraphEigs:
    """k algebraically smallest Laplacian eigenpairs, sorted ascending.

    Uses a dense solver for small graphs or k close to n, and shift-invert
    Lanczos otherwise. Raises EigenSolverError instead of returning
    unconverged output.
    """
    L = graph.laplacian
    n = L.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    if n <= 400 or k >= n - 1:
        values, vectors = eigh(L.toarray())
        return GraphEigs(values[:k].copy(), vectors[:, :k].copy())
    try:
        # shift below 0 keeps L - sigma*I positive definite for the factorization
        values, vectors = spla.eigsh(L.tocsc(), k=k, sigma=-0.05, which="LM")
    except spla.ArpackNoConvergence as exc:
        raise EigenSolverError(f"Lanczos failed to converge for k={k}, n={n}") from exc
    order = np.argsort(values)
    return GraphEigs(values[order], vectors[:, order])


def save_graph_coo(graph: SparseGraph, path) -> None:
    """Write the adjacency as 'i j weight' text triplets, 17 significant digits."""
    coo = graph.adjacency.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        for i, j, w in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{i} {j} {w:.17g}\n")


def load_graph_coo(path, vertex_count: Optional[int] = None) -> SparseGraph:
    """Read a COO triplet file back into a SparseGraph.

    Without vertex_count the size is inferred as max index + 1. Raises
    GraphFormatError unless the file is UTF-8 text of 'i j weight' lines with
    non-negative indices, finite non-negative weights and a symmetric
    adjacency whose vertex degrees stay finite.
    """
    triplets = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise GraphFormatError(f"{path}: expected 'i j weight' on line {lineno}")
                try:
                    i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
                except ValueError as exc:
                    raise GraphFormatError(f"{path}: bad triplet on line {lineno}") from exc
                if i < 0 or j < 0:
                    raise GraphFormatError(f"{path}: negative vertex index on line {lineno}")
                if not (math.isfinite(w) and w >= 0):
                    raise GraphFormatError(
                        f"{path}: weight must be finite and non-negative on line {lineno}")
                triplets.append((i, j, w))
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
    if not triplets:
        raise GraphFormatError(f"{path}: no edges")
    rows, cols, data = zip(*triplets)
    top = max(max(rows), max(cols))
    n = vertex_count if vertex_count is not None else top + 1
    if top >= n:
        raise GraphFormatError(f"{path}: vertex index exceeds declared count {n}")
    try:  # indices past int64 overflow; an asymmetric adjacency is a ValueError
        A = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
        with np.errstate(over="ignore"):  # an overflowing degree is rejected below
            graph = graph_from_adjacency(A)
    except (OverflowError, ValueError) as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
    if not np.all(np.isfinite(graph.degrees)):
        raise GraphFormatError(f"{path}: edge weights overflow a vertex degree")
    return graph
