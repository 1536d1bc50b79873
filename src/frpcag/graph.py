"""K-NN graph construction, normalized Laplacians and partial eigendecompositions."""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh
from scipy.spatial.distance import cdist


class EigenSolverError(RuntimeError):
    """Eigensolver failed to converge within its iteration cap."""


class GraphFormatError(ValueError):
    """Raised when a COO graph file is malformed."""


class GraphSizeError(GraphFormatError):
    """Raised when a COO graph file's vertex count is not the one its caller expects."""


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


# float64 elements in one block of candidate scores (~16 MB)
_BLOCK_ELEMENTS = 1 << 21


def knn_exact(points: np.ndarray, K: int) -> NeighborList:
    """Exact K nearest neighbors under the Euclidean metric.

    points holds one vector per column. Distances are cdist's values; ties
    are broken by the lower vertex index; the diagonal (self) is never listed.

    Rows are processed in blocks of at most _BLOCK_ELEMENTS scores
    s = |a|^2 + |b|^2 - 2 a.b, computed by one matrix product. With p the
    dimension and eps the machine epsilon, s differs from the square of
    cdist's distance by at most E = 2 (p + 4) (eps (|a|^2 + max_b |b|^2) +
    the smallest normal float64): to first order, the rounding of the
    product, the norms and cdist's own sum and square root is at most
    (2p + 6) eps (|a|^2 + max_b |b|^2), and underflow adds less than 3p
    times the smallest subnormal. Every column scoring above the K-th
    smallest score plus 2E is then farther than K others, so only the
    columns inside that window are measured again with cdist and sorted by
    (distance, index). A row whose window is not finite (norms that
    overflow) is measured against every other column.
    """
    points = np.asarray(points, dtype=np.float64)
    p, n = points.shape
    if not 1 <= K < n:
        raise ValueError(f"K must satisfy 1 <= K < n, got K={K}, n={n}")
    cols = np.ascontiguousarray(points.T)  # cdist wants row vectors
    indices = np.empty((n, K), dtype=np.int64)
    distances = np.empty((n, K), dtype=np.float64)
    f64 = np.finfo(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # rows that overflow take every column
        sq = np.einsum("ij,ij->i", cols, cols)
        slack = 4 * (p + 4) * (f64.eps * (sq + sq.max()) + f64.tiny)
        block = max(1, _BLOCK_ELEMENTS // n)
        for start in range(0, n, block):
            rows = np.arange(start, min(start + block, n))
            scores = cols[rows] @ (-2 * cols.T)  # scaling by -2 is exact
            scores += sq[rows, None]
            scores += sq
            scores[rows - start, rows] = np.inf
            window = np.partition(scores, K - 1, axis=1)[:, K - 1] + slack[rows]
            inside = scores <= window[:, None]
            for r, i in enumerate(rows):
                cand = (np.flatnonzero(inside[r]) if np.isfinite(window[r])
                        else np.delete(np.arange(n), i))
                d = cdist(cols[i:i + 1], cols[cand])[0]
                # candidates are in index order, so a stable sort breaks ties by index
                order = np.argsort(d, kind="stable")[:K]
                indices[i] = cand[order]
                distances[i] = d[order]
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


def load_graph_coo(path, vertex_count: int) -> SparseGraph:
    """Read a COO triplet file into a SparseGraph of vertex_count vertices.

    Raises GraphFormatError, naming the line, unless the file is UTF-8 text
    of at least one 'i j weight' line with non-negative indices, a finite
    non-negative weight, no self-loop and no repeated (i, j) pair; and for an
    asymmetric adjacency or a vertex degree that overflows. Raises its
    subclass GraphSizeError, before any matrix is allocated, for an index
    >= vertex_count or a largest index + 1 below vertex_count.
    """
    edges = {}  # (i, j) -> weight, in file order
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
    try:  # an asymmetric adjacency is a ValueError
        with np.errstate(over="ignore"):  # an overflowing degree is rejected below
            graph = graph_from_adjacency(A)
    except ValueError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
    if not np.all(np.isfinite(graph.degrees)):
        raise GraphFormatError(f"{path}: edge weights overflow a vertex degree")
    return graph
