"""K-NN graph construction, normalized Laplacians and partial eigendecompositions."""

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Union

import numpy as np

from .matrixio import _as_matrix, _read_table


class GraphFormatError(ValueError):
    """Raised when a COO graph file is malformed."""


class GraphSizeError(GraphFormatError):
    """Raised when a COO graph file's vertex count is not the one its caller expects."""


@dataclass(frozen=True)
class SparseGraph:
    """Symmetric weighted adjacency as the numpy arrays of canonical CSR:
    row i's neighbours are indices[indptr[i]:indptr[i + 1]], with their
    weights in data.

    Construction raises ValueError unless indptr ascends from 0 to the length
    of indices and data, each row's columns ascend strictly inside [0, n) and
    off the diagonal, every weight is finite and positive, every vertex has an
    edge and no degree (row sum) overflows; so L = I - D^{-1/2} A D^{-1/2}
    has its spectrum inside [0, 2]. Symmetry is the caller's: build_graph
    makes it, load_graph_coo checks it, and a direct construction must.

    laplacian is L's (indptr, indices, data) triple in canonical CSR, built in
    numpy on first use, and _csr_matvecs multiplies by it; so no command
    imports scipy.sparse. adjacency is a scipy.sparse CSR matrix, built (and
    scipy.sparse imported) on first use.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        indptr, indices, n = self.indptr, self.indices, self.vertex_count
        counts = np.diff(indptr)
        if not (indptr.ndim == indices.ndim == self.data.ndim == 1 and indptr.size
                and indptr[0] == 0 and indptr[-1] == indices.size == self.data.size
                and np.all(counts >= 0)):
            raise ValueError("indptr must ascend from 0 to the length of indices and of data")
        rows = np.repeat(np.arange(n), counts)
        if not (np.all(np.diff(rows * n + indices) > 0) and np.all(indices >= 0)
                and np.all(indices < n) and np.all(indices != rows)):
            raise ValueError(f"a row's columns must ascend strictly in [0, {n}) off the diagonal")
        if not np.all((self.data > 0) & (self.data < np.inf)):  # NaN fails this too
            raise ValueError("edge weights must be finite and positive")
        isolated = int(np.count_nonzero(counts == 0))
        if isolated:
            raise ValueError(f"{isolated} of {n} vertices keep no edge")
        if not np.isfinite(self._degrees).all():
            raise ValueError("edge weights overflow a vertex degree")

    @property
    def vertex_count(self) -> int:
        return self.indptr.size - 1

    @cached_property
    def _degrees(self) -> np.ndarray:  # scipy's CSR row sums, bit for bit
        with np.errstate(over="ignore"):  # an overflowing degree is refused on construction
            return np.add.reduceat(self.data, self.indptr[:-1])

    @cached_property
    def adjacency(self):
        import scipy.sparse as sp

        n = self.vertex_count
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(n, n))

    @cached_property
    def laplacian(self):
        """(indptr, indices, data) of L in canonical CSR, with _csr's index
        type: scipy.sparse's I - D A D, bit for bit. Entry (i, j) off the
        diagonal is -((s_i a_ij) s_j) with s = 1 / sqrt(degree), as the two
        products by the diagonal round it, and is dropped when that underflows
        to 0."""
        n = self.vertex_count
        rows = np.repeat(np.arange(n), np.diff(self.indptr))
        s = 1.0 / np.sqrt(self._degrees)
        off = -((s[rows] * self.data) * s[self.indices])
        kept = off != 0
        keys = np.concatenate([rows[kept] * n + self.indices[kept], np.arange(n) * (n + 1)])
        order = np.argsort(keys)
        return (*_csr(keys[order], n), np.concatenate([off[kept], np.ones(n)])[order])


def _csr(keys: np.ndarray, n: int):
    """(indptr, indices) of the CSR matrix of n rows whose entries have the
    ascending keys row * n + column, in the index type scipy.sparse gives it,
    so that SparseGraph.adjacency uses them without a copy."""
    index = np.int32 if max(n, keys.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, (keys % n).astype(index)


# scipy's compiled sparse kernels, relative to scipy's directory, less the
# extension suffix
_SPARSETOOLS = os.path.join("sparse", "_sparsetools")


@cache
def _sparsetools():
    """scipy's compiled sparse kernels, scipy.sparse._sparsetools.

    The extension is loaded from its file in scipy's directory, which
    find_spec gives without running any scipy __init__, so no scipy module
    is imported; where no such file is found, it is imported from
    scipy.sparse: the same kernels, with scipy.sparse's launch cost.
    """
    root = os.path.dirname(importlib.util.find_spec("scipy").origin)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(root, _SPARSETOOLS + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader("scipy.sparse._sparsetools", path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(loader.name, loader))
            loader.exec_module(module)
            return module
    from scipy.sparse import _sparsetools

    return _sparsetools


def _csr_matvecs(csr, X: np.ndarray) -> np.ndarray:
    """A @ X for the (indptr, indices, data) triple of a CSR A with X.shape[0]
    columns and a C-ordered 2-D X: scipy.sparse's A @ X, bit for bit, as
    both run csr_matvecs on the same arrays."""
    indptr, indices, data = csr
    Y = np.zeros((indptr.size - 1, X.shape[1]))
    _sparsetools().csr_matvecs(Y.shape[0], X.shape[0], X.shape[1], indptr, indices, data,
                               X.ravel(), Y.ravel())
    return Y


# float64 elements in one block of candidate scores (4 MB); a block of rows
# then also has fewer than this many candidate pairs (or one row's n - 1)
_BLOCK_ELEMENTS = 1 << 19
# float64 elements in each of the two gathered chunks of candidate pairs
# (512 KB), or 64 pairs when the dimension is larger, so that rows stay long
_CHUNK_ELEMENTS = 1 << 16


def _rounding_window(p: int, sq: np.ndarray, top) -> np.ndarray:
    """Window 2E of a score s = |b|^2 - 2 a.b of p-dimensional items, for
    items a of squared norms sq and columns b with max_b |b|^2 = top.

    With eps the machine epsilon, s differs from the computed square of the
    distance, less |a|^2, by at most E = 2 (p + 4) (eps (|a|^2 + top) + the
    smallest normal float64): to first order, the rounding of the product,
    the norm and the distance's own sum and square root is at most
    (2p + 6) eps (|a|^2 + top), and underflow adds less than 3p times the
    smallest subnormal. Scores more than 2E apart so order their distances.
    """
    f64 = np.finfo(np.float64)
    return 4 * (p + 4) * (f64.eps * (sq + top) + f64.tiny)


def knn_exact(points: np.ndarray, K: int):
    """Exact K nearest neighbors under the Euclidean metric: the pair
    (indices, distances) of C-ordered (n, K) int64 and float64 arrays, row i
    for vertex i, nearest first.

    points is a p x n matrix with one vector per column, checked by
    matrixio._as_matrix; ValueError is raised unless 1 <= K < n, too.
    Distances are the square roots of _sq_distances, the one exact-distance
    kernel, which k-means shares: scipy.spatial.distance.cdist's values, bit
    for bit. Ties are broken by the lower vertex index; the diagonal (self) is
    never listed.

    Rows are processed in blocks of at most _BLOCK_ELEMENTS scores
    s = |b|^2 - 2 a.b for row a and column b, computed by one matrix
    product. s is the square of the distance less |a|^2, which is the same
    for every column of the row, so it orders the row's columns as the
    distance does. Every column scoring above the K-th smallest score plus
    _rounding_window's 2E is then farther than K others, so only the columns
    inside that window are measured again and sorted by (distance, index).
    A row whose window is not finite (norms that overflow) is measured
    against every other column. A block's candidate pairs are at most its
    scores, so the same budget bounds both.
    """
    points = _as_matrix(points)
    p, n = points.shape
    if not 1 <= K < n:
        raise ValueError(f"K must satisfy 1 <= K < n, got K={K}, n={n}")
    points = np.ascontiguousarray(points)  # the distance kernel gathers its columns
    indices = np.empty((n, K), dtype=np.int64)
    distances = np.empty((n, K), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # rows that overflow take every column
        sq = np.einsum("ij,ij->j", points, points)
        slack = _rounding_window(p, sq, sq.max())
        block = max(1, min(n, _BLOCK_ELEMENTS // n))
        # one set of block buffers for the whole search, so the memory held
        # does not depend on how the allocator reuses freed blocks
        score_buf = np.empty((block, n))
        part_buf = np.empty((block, n))
        inside_buf = np.empty((block, n), dtype=bool)
        pair_buf = np.empty((2, p * max(64, _CHUNK_ELEMENTS // p)))
        for start in range(0, n, block):
            stop = min(start + block, n)
            rows = np.arange(start, stop)
            scores, part, inside = (buf[:stop - start] for buf in (score_buf, part_buf, inside_buf))
            # scaling by -2 is exact: scaling the block's columns, not all
            # of points, gives the same bits
            np.matmul(-2 * points[:, start:stop].T, points, out=scores)
            scores += sq
            scores[rows - start, rows] = np.inf
            np.copyto(part, scores)
            part.partition(K - 1, axis=1)
            window = part[:, K - 1] + slack[rows]
            np.less_equal(scores, window[:, None], out=inside)
            inside[~np.isfinite(window)] = True  # such a row measures every column
            inside[rows - start, rows] = False
            indices[start:stop], distances[start:stop] = _nearest_candidates(
                points, start, inside, K, pair_buf)
    return indices, distances


def _sq_distances(a: np.ndarray, b: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the columns of a and b, pair by
    pair: cdist's "sqeuclidean", bit for bit, the squares summed in index order.

    a and b are p x m, or p x 1 against every column of the other; diff is
    C-ordered p x m scratch and may be a or b. np.add.reduce over axis 0 adds
    the rows of a C-ordered diff one after another, but sums a single,
    contiguous column pairwise, so that goes through cumsum. As in cdist, a
    sum that overflows is inf, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(a, b, out=diff)
        np.square(diff, out=diff)
        if diff.shape[1] == 1:
            return np.cumsum(diff, axis=0)[-1]
        return np.add.reduce(diff, axis=0)


def _nearest_candidates(points: np.ndarray, first: int, inside: np.ndarray, K: int,
                        pair_buf: np.ndarray):
    """The K nearest of each row's candidate columns, sorted by (distance, index).

    Row r of the boolean mask inside is vertex first + r, column first + r
    of the C-ordered p x n points. Its distances are the square roots of
    _sq_distances, on the columns of chunks of pairs that np.take gathers
    into the two rows of pair_buf, each p times a chunk long.
    """
    # candidate pairs, by row and then column: a flat search is ~10x faster than np.nonzero
    r, c = np.divmod(np.flatnonzero(inside), inside.shape[1])
    d = np.empty(r.size)
    p = points.shape[0]
    chunk = pair_buf.shape[1] // p
    for lo in range(0, r.size, chunk):
        m = min(chunk, r.size - lo)
        a, b = (row[:p * m].reshape(p, m) for row in pair_buf)  # C-ordered
        # the indices are in range; mode "clip" lets np.take write into a and b directly
        np.take(points, c[lo:lo + m], axis=1, out=a, mode="clip")
        np.take(points, first + r[lo:lo + m], axis=1, out=b, mode="clip")
        d[lo:lo + m] = _sq_distances(a, b, a)
    np.sqrt(d, out=d)
    # by row, then distance; the sort is stable and c ascends within a row,
    # so ties keep the lower index
    order = np.lexsort((d, r))
    counts = np.bincount(r, minlength=inside.shape[0])  # each row has K or more
    take = order[(np.cumsum(counts) - counts)[:, None] + np.arange(K)]
    return c[take], d[take]


def resolve_sigma2(neighbors, sigma2: Union[float, str]) -> float:
    """Numeric kernel width for the (indices, distances) pair of knn_exact:
    "auto" squares the mean neighbor distance.

    "auto" gives 1.0 when that square is 0. ValueError is raised when the
    width is not finite, and for a number that is not positive.
    """
    if sigma2 == "auto":
        _, distances = neighbors
        with np.errstate(over="ignore"):  # an overflowing width is rejected below
            width = float(np.square(distances.mean()))
        if not math.isfinite(width):
            raise ValueError(f"sigma2 auto gives the width {width}; give a number")
        return width if width > 0 else 1.0
    sigma2 = float(sigma2)
    if not 0 < sigma2 < math.inf:  # NaN fails this too
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    return sigma2


def build_graph(neighbors, sigma2: Union[float, str] = 1.0) -> SparseGraph:
    """Gaussian-weighted graph from the (indices, distances) pair of (n, K)
    arrays that knn_exact returns, symmetrized by the union rule.

    Edge (i, j) exists iff either vertex lists the other; its weight is
    exp(-d_ij^2 / sigma^2), which is direction-independent. sigma2="auto"
    squares the mean neighbor distance. Raises ValueError unless K >= 1, both
    arrays have the same shape, every index lies in [0, n), no row lists its
    own vertex or a vertex twice (their weights would be summed) and every
    distance is non-negative; and when a vertex keeps no edge because its
    weights underflow to 0.
    """
    indices, distances = neighbors
    n, k = indices.shape
    if k < 1:
        raise ValueError("K must be >= 1")
    if distances.shape != (n, k):
        raise ValueError("indices and distances must have the same shape")
    if n and not (0 <= indices.min() and indices.max() < n):
        raise ValueError(f"neighbor indices must lie in [0, {n})")
    # sorted with its own vertex, a row holds no value twice; one expression,
    # so no n x (K + 1) array stays alive while the graph is built
    if not np.diff(np.sort(np.column_stack([np.arange(n), indices]), axis=1), axis=1).all():
        raise ValueError("a neighbor list must not contain a self-loop or repeat a vertex")
    if not np.all(distances >= 0):  # NaN fails this too
        raise ValueError("distances must be non-negative")
    sigma2 = resolve_sigma2(neighbors, sigma2)
    with np.errstate(over="ignore"):  # a weight whose exponent overflows is exp(-inf) = 0
        weights = np.exp(-(distances ** 2) / sigma2)
    # each listed edge in both directions, sorted by its key row * n + column
    # (n^2 fits int64 below 3e9 vertices); an edge that both of its vertices
    # list comes twice and keeps the larger weight
    rows, cols = np.repeat(np.arange(n), k), indices.ravel()
    keys = np.concatenate([rows * n + cols, cols * n + rows])
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    weights = np.maximum.reduceat(np.tile(weights.ravel(), 2)[order], starts)
    kept = weights != 0  # weights that underflowed to 0 are no edges
    try:
        return SparseGraph(*_csr(keys[starts[kept]], n), weights[kept])
    except ValueError as exc:
        raise ValueError(f"{exc} at sigma2={sigma2:.17g} (their weights underflow to 0); "
                         "pass a larger sigma2") from None


def partial_eigs(graph: SparseGraph, k: int):
    """The k algebraically smallest Laplacian eigenpairs as numpy.linalg.eigh
    gives them: (values, vectors), ascending, with one orthonormal
    eigenvector per column of the C-ordered n x k vectors.

    Every eigenpair comes from numpy's dense eigh (LAPACK syevd) on the
    n x n Laplacian, in O(n^2) memory and O(n^3) time whatever k is; the
    vectors are copied only when k < n. Raises ValueError unless 1 <= k <= n.
    """
    n = graph.vertex_count
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    indptr, indices, data = graph.laplacian
    dense = np.zeros((n, n))
    dense[np.repeat(np.arange(n), np.diff(indptr)), indices] = data
    values, vectors = np.linalg.eigh(dense)
    return values[:k], np.ascontiguousarray(vectors[:, :k])


def save_graph_coo(graph: SparseGraph, path) -> None:
    """Write the adjacency as 'i j weight' text triplets, 17 significant digits,
    by row and then column."""
    rows = np.repeat(np.arange(graph.vertex_count), np.diff(graph.indptr))
    with open(path, "w") as fh:
        fh.writelines(map("{} {} {:.17g}\n".format, rows.tolist(), graph.indices.tolist(),
                          graph.data.tolist()))


def load_graph_coo(path, vertex_count: int) -> SparseGraph:
    """Read a COO triplet file into a SparseGraph of vertex_count vertices.

    Raises GraphFormatError, naming the line, unless the file is UTF-8 text
    of at least one 'i j weight' line, in ASCII without '_', with
    non-negative indices, a finite non-negative weight, no self-loop and no
    repeated (i, j) pair; and for an adjacency whose two directions of an
    edge differ by more than 1e-12 times the larger weight, a vertex without
    edges or a vertex degree that overflows. Raises its subclass GraphSizeError
    for an index >= vertex_count, naming its line, or a largest index + 1 below
    vertex_count; no matrix is allocated before.
    """
    def valid(rows):  # the checks of edge, on arrays
        i, j, w = rows["i"], rows["j"], rows["w"]
        return (np.minimum(i, j).min(initial=0) >= 0
                and np.maximum(i, j).max(initial=0) < vertex_count
                and np.all(np.isfinite(w) & (w >= 0) & (i != j))
                and np.all(np.diff(np.sort(i * vertex_count + j)) > 0))  # no pair twice

    seen = set()

    def edge(number, line, above):
        parts = line.split()
        if not parts:
            return None
        if len(parts) != 3:
            raise ValueError(line)
        try:  # Python's int reads an index past int64, which np.loadtxt refuses
            i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise GraphFormatError(f"{path}: bad triplet on line {number}") from None
        if min(i, j) < 0:
            raise GraphFormatError(f"{path}: negative vertex index on line {number}")
        if max(i, j) >= vertex_count:
            raise GraphSizeError(f"{path}: vertex index {max(i, j)} on line {number} needs "
                                 f"{max(i, j) + 1} vertices, expected {vertex_count}")
        problem = ("weight must be finite and non-negative" if not (math.isfinite(w) and w >= 0)
                   else "self-loop" if i == j else f"repeated edge {i} {j}" if (i, j) in seen
                   else None)
        if problem:
            raise GraphFormatError(f"{path}: {problem} on line {number}")
        seen.add((i, j))
        return i, j, w

    rows = _read_table(path, GraphFormatError, "expected 'i j weight' on line {}", valid, edge,
                       dtype=[("i", np.int64), ("j", np.int64), ("w", np.float64)], ndmin=1)
    if rows.size == 0:
        raise GraphFormatError(f"{path}: no edges")
    largest = int(max(rows["i"].max(), rows["j"].max()))
    if largest + 1 < vertex_count:
        raise GraphSizeError(f"{path}: largest vertex index {largest} gives {largest + 1} "
                             f"vertices, expected {vertex_count}")
    kept = rows[rows["w"] != 0]
    i, j, w = kept["i"], kept["j"], kept["w"]
    # the adjacency and its transpose, each by row and then column
    order, back = np.argsort(i * vertex_count + j), np.argsort(j * vertex_count + i)
    if not (np.array_equal(i[order], j[back]) and np.array_equal(j[order], i[back])
            and np.all(abs(w[order] - w[back]) <= 1e-12 * np.maximum(w[order], w[back]))):
        raise GraphFormatError(f"{path}: adjacency must be symmetric")
    try:
        return SparseGraph(*_csr(i[order] * vertex_count + j[order], vertex_count), w[order])
    except ValueError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
