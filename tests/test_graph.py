import os
import re
import tempfile
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.spatial.distance import cdist

from frpcag import graph
from frpcag.graph import (GraphFormatError, GraphSizeError, SparseGraph, build_graph, knn_exact,
                          load_graph_coo, partial_eigs, resolve_sigma2, save_graph_coo)
from frpcag.solver import _row_blocks
import oracles
from memtrace import traced_peak


def brute_force_knn(points, K):
    """Oracle: all pairwise distances, ties by lower index."""
    n = points.shape[1]
    out = np.empty((n, K), dtype=np.int64)
    for i in range(n):
        d = [(np.linalg.norm(points[:, i] - points[:, j]), j)
             for j in range(n) if j != i]
        d.sort()
        out[i] = [j for _, j in d[:K]]
    return out


def cdist_argsort_knn(points, K):
    """Oracle: every full cdist row, stably argsorted (ties by lower index),
    with the point itself taken out."""
    cols = np.asarray(points, dtype=np.float64).T
    n = cols.shape[0]
    d = cdist(cols, cols)
    order = np.argsort(d, axis=1, kind="stable")
    order = order[order != np.arange(n)[:, None]].reshape(n, n - 1)[:, :K]
    return order, np.take_along_axis(d, order, axis=1)


@st.composite
def knn_problems(draw):
    """Points (p, n), K and a block budget of 1, 2 or 3 rows, or all n rows.

    Values are 8-bit levels (many tied distances) or floats in [-3, 3],
    scaled by 0.1 (near-ties that the matrix product and cdist round apart)
    or up to 1e160 (squared norms overflow); some columns are copies of
    others.
    """
    p, n = draw(st.integers(1, 20)), draw(st.integers(2, 30))
    if draw(st.booleans()):
        values = st.integers(0, draw(st.sampled_from([2, 255]))).map(lambda v: v / 255.0)
    else:
        values = st.floats(-3, 3, allow_subnormal=False)
    points = draw(arrays(np.float64, (p, n), elements=values, fill=st.nothing()))
    points *= draw(st.sampled_from([1.0, 0.1, 1e150, 1e154, 1e160]))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=n // 2)):
        points[:, dst] = points[:, src]
    K = draw(st.one_of(st.just(n - 1), st.integers(1, n - 1)))
    rows_per_block = draw(st.sampled_from([1, 2, 3, n]))
    return points, K, rows_per_block * n


@settings(max_examples=300, deadline=None)
@given(knn_problems())
@example((np.array([[0.0, 4e157]]), 1, 2))  # every distance overflows to inf
def test_knn_matches_cdist_argsort_oracle(problem):
    points, K, budget = problem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK_ELEMENTS", budget)
        got_indices, got_distances = knn_exact(points, K)
    indices, distances = cdist_argsort_knn(points, K)
    assert np.array_equal(got_indices, indices)
    assert got_distances.tobytes() == distances.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300), st.integers(1, 3), st.integers(-150, 150), st.integers(0, 2 ** 32 - 1))
@example(p=200, m=1, exponent=0, seed=0)  # one pair: a contiguous p x 1 difference
@example(p=8, m=2, exponent=154, seed=1)  # squares near overflow
def test_distance_kernel_matches_cdist(p, m, exponent, seed):
    # cdist sums the squared differences in index order; np.add.reduce sums a
    # contiguous run pairwise, which can differ from p = 8 on
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, p, m)) * 10.0 ** exponent
    pairs = cdist(a.T, b.T, "sqeuclidean").diagonal()
    assert graph._sq_distances(a, b, np.empty((p, m))).tobytes() == pairs.tobytes()
    # one column against every column, on either side
    against = cdist(a.T, b[:, :1].T, "sqeuclidean")[:, 0]
    assert graph._sq_distances(a, b[:, :1], np.empty((p, m))).tobytes() == against.tobytes()
    against = cdist(a[:, :1].T, b.T, "sqeuclidean")[0]
    assert graph._sq_distances(a[:, :1], b, np.empty((p, m))).tobytes() == against.tobytes()
    assert graph._sq_distances(a, b, a).tobytes() == pairs.tobytes()  # in place


@pytest.mark.parametrize("make_points", [
    # the pixel graph of 104 frames of 64x64: one dense n x n float64 is 134 MB
    lambda rng: rng.integers(0, 256, (104, 4096)) / 255.0,
    # the sample graph of a 100 x 2000 matrix, as the benchmark's solve builds
    lambda rng: rng.standard_normal((100, 2000)),
], ids=["pixels-104x4096", "gaussian-100x2000"])
def test_knn_memory_below_dense_matrix(make_points):
    points = make_points(np.random.default_rng(0))
    _, peak = traced_peak(lambda: knn_exact(points, 10))
    assert peak < 24 * 2**20


def test_knn_memory_bounded_when_every_pair_ties():
    # 2048 copies of one point: every other point is a candidate of every row
    points = np.zeros((4, 2048))
    (indices, distances), peak = traced_peak(lambda: knn_exact(points, 10))
    assert peak < 40 * 2**20
    assert indices[0].tolist() == list(range(1, 11))
    assert indices[5].tolist() == [0, 1, 2, 3, 4, 6, 7, 8, 9, 10]
    assert not distances.any()


def random_graph(n, k, seed, d=5, sigma2="auto"):
    rng = np.random.default_rng(seed)
    return build_graph(knn_exact(rng.standard_normal((d, n)), k), sigma2)


def test_knn_two_points():
    pts = np.array([[0.0, 1.0]])
    indices, distances = knn_exact(pts, 1)
    assert indices.tolist() == [[1], [0]]
    assert np.allclose(distances, 1.0)


def test_knn_returns_plain_c_ordered_arrays():
    indices, distances = knn_exact(np.random.default_rng(2).standard_normal((3, 7)), 4)
    for array, dtype in ((indices, np.int64), (distances, np.float64)):
        assert type(array) is np.ndarray
        assert array.dtype == dtype and array.shape == (7, 4)
        assert array.flags.c_contiguous


def test_knn_line_example():
    pts = np.array([[0.0, 1.0, 3.0, 7.0]])
    indices, _ = knn_exact(pts, 2)
    assert brute_force_knn(pts, 2).tolist() == indices.tolist()
    assert indices[2].tolist() == [1, 0]  # neighbors of the point at 3


def test_knn_matches_brute_force():
    rng = np.random.default_rng(21)
    pts = rng.standard_normal((4, 30))
    indices, _ = knn_exact(pts, 5)
    assert np.array_equal(indices, brute_force_knn(pts, 5))


def test_knn_duplicates_no_self_loop():
    pts = np.array([[1.0, 1.0, 1.0, 4.0]])
    indices, distances = knn_exact(pts, 2)
    assert not np.any(indices == np.arange(4)[:, None])
    assert distances[0, 0] == 0.0
    assert indices[0].tolist() == [1, 2]  # ties resolve to lower index
    assert indices[1].tolist() == [0, 2]


def test_knn_k_out_of_range():
    pts = np.zeros((2, 4))
    with pytest.raises(ValueError):
        knn_exact(pts, 4)


@pytest.mark.parametrize("points, message", [
    # the shared matrix check's messages
    pytest.param(np.zeros((0, 5)), "expected a p x n matrix with p, n >= 1, got shape (0, 5)",
                 id="no-coordinate"),
    pytest.param(np.zeros(5), "expected a p x n matrix with p, n >= 1, got shape (5,)",
                 id="1-D"),
    pytest.param(np.zeros((2, 3, 4)),
                 "expected a p x n matrix with p, n >= 1, got shape (2, 3, 4)", id="3-D"),
    (np.array([[0.0, np.nan, 1.0]]), "finite"),
    (np.array([[0.0, 1.0, -np.inf]]), "finite"),
])
def test_knn_rejects_what_it_cannot_search(points, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        knn_exact(points, 1)


def test_neighbor_list_rejects_nan_distance():
    with pytest.raises(ValueError, match="non-negative"):
        build_graph((np.array([[1], [0]]), np.array([[np.nan], [1.0]])))


@pytest.mark.parametrize("indices, message", [
    # build_graph would sum the two weights of a repeated neighbour
    ([[1, 1], [0, 2], [0, 1]], "self-loop or repeat a vertex"),
    ([[2, 1], [0, 2], [1, 1]], "self-loop or repeat a vertex"),
    ([[1], [1]], "self-loop or repeat a vertex"),
    ([[5], [0]], r"must lie in \[0, 2\)"),
    ([[-1], [0]], r"must lie in \[0, 2\)"),
    ([[], []], "K must be >= 1"),
])
def test_neighbor_list_rejects_bad_indices(indices, message):
    indices = np.array(indices, dtype=np.int64)
    with pytest.raises(ValueError, match=message):
        build_graph((indices, np.ones(indices.shape)))


@pytest.mark.parametrize("shape", [(3, 1), (2, 2), (2,)])
def test_neighbor_list_rejects_distances_of_another_shape(shape):
    with pytest.raises(ValueError, match="indices and distances must have the same shape"):
        build_graph((np.array([[1], [0]]), np.ones(shape)))


def test_resolve_sigma2_rejects_non_finite_width():
    # the distance from (1, 0) to (2e160, 1) overflows to inf
    nb = knn_exact(np.array([[0.0, 1.0, 2e160, 3.0], [1.0, 0.0, 1.0, 2.0]]), 1)
    with pytest.raises(ValueError, match="give a number"):
        resolve_sigma2(nb, "auto")
    assert resolve_sigma2(knn_exact(np.zeros((2, 3)), 1), "auto") == 1.0
    for sigma2 in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            resolve_sigma2(nb, sigma2)


def test_build_graph_weight_overflow_gives_zero():
    # d^2 / sigma2 overflows; exp(-inf) = 0 is the weight, with no warning,
    # and it leaves vertex 2 without an edge
    nb = knn_exact(np.array([[0.0, 0.0, 1e154]]), 1)
    with pytest.raises(ValueError, match=r"^1 of 3 vertices keep no edge at sigma2=0.001 "
                       r"\(their weights underflow to 0\); pass a larger sigma2$"):
        build_graph(nb, 1e-3)


def test_build_graph_refuses_a_vertex_without_edges():
    # 29 black 8x8 frames and one white one: at K=1 the white frame's one
    # weight, exp(-64 / (8/30)^2), underflows to 0
    frames = np.zeros((64, 30))
    frames[:, 29] = 1.0
    with pytest.raises(ValueError, match=r"^1 of 30 vertices keep no edge at sigma2=0\.0711"):
        build_graph(knn_exact(frames, 1), "auto")
    # a middle vertex, too far from the others for exp(-d^2) to stay above 0
    with pytest.raises(ValueError, match="^1 of 5 vertices keep no edge at sigma2=1 "):
        build_graph(knn_exact(np.array([[0.0, 0.1, 50.0, 0.2, 0.3]]), 1), 1.0)


@st.composite
def neighbor_lists(draw):
    """(indices, distances) of n vertices that each list K others.

    A pair's distance is the same both ways, as knn_exact gives it, or in
    some examples drawn for each direction; an edge is listed by one of its
    vertices or by both. At sigma2 = 1 the distances give weights from 1 down
    to subnormals (27 to 27.28, the last the smallest one) and to 0 (27.3
    and up), so an edge or a whole vertex can lose its weight, and products
    in D A D can round to 0.
    """
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, n - 1))
    indices = np.array([draw(st.permutations([j for j in range(n) if j != i]))[:k]
                        for i in range(n)])
    scale = st.sampled_from([0.0, 0.5, 1.0, 2.0, 26.0, 27.0, 27.28, 27.3, 30.0, 1e200])
    pair = draw(arrays(np.float64, (n, n), elements=scale))
    if draw(st.booleans()):  # the same distance both ways
        pair = np.triu(pair) + np.triu(pair, 1).T
    return indices, np.take_along_axis(pair, indices, axis=1)


def graph_arrays(make):
    """oracles.csr_bytes of make()'s graph, or the message of the ValueError
    it raises."""
    try:
        g = make()
    except ValueError as exc:
        return str(exc)
    return oracles.csr_bytes(g)


def _complete_graph_with_a_faint_vertex():
    """Six vertices that each list the other five: 0-4 at distance 0 and
    vertex 5 at 27.28, whose weight at sigma2 = 1 is the smallest subnormal.
    In D A D that weight rounds to 0 from row 0 (degree 4, so 0.5 times it)
    but not from row 5."""
    indices = np.array([[j for j in range(6) if j != i] for i in range(6)])
    return indices, np.where((indices == 5) | (np.arange(6)[:, None] == 5), 27.28, 0.0)


@settings(max_examples=300, deadline=None)
@given(neighbor_lists(), st.sampled_from([0.25, 1.0, 4.0]))
@example(_complete_graph_with_a_faint_vertex(), 1.0)
def test_build_graph_matches_its_scipy_oracle(neighbors, sigma2):
    assert (graph_arrays(lambda: build_graph(neighbors, sigma2))
            == graph_arrays(lambda: oracles.build_graph(neighbors, sigma2)))


@pytest.mark.parametrize("indptr, indices, data, message", [
    ([0, 1, 1, 2], [2, 0], [1.0, 1.0], "^1 of 3 vertices keep no edge$"),
    *(([0, 1, 2], [1, 0], [w, 1.0], "finite and positive")
      for w in (np.nan, np.inf, -1.0, 0.0)),
    ([0, 2, 3, 4], [1, 1, 0, 0], [1.0] * 4, "ascend strictly"),
    ([0, 2, 3, 4], [2, 1, 0, 0], [1.0] * 4, "ascend strictly"),
    ([0, 2, 3], [0, 1, 0], [1.0] * 3, "off the diagonal"),
    ([0, 1, 2], [2, 0], [1.0] * 2, r"in \[0, 2\)"),
    ([0, 1, 2], [-1, 0], [1.0] * 2, r"in \[0, 2\)"),
    ([0, 2, 3, 4], [1, 2, 0, 0], [1e308] * 4, "^edge weights overflow a vertex degree$"),
    ([1, 2, 3], [1, 0], [1.0] * 2, "^indptr must ascend"),
    ([0, 2, 1, 2], [1, 0], [1.0] * 2, "^indptr must ascend"),
    ([0, 1, 2], [1, 0, 0], [1.0] * 3, "^indptr must ascend"),
    ([0, 1, 2], [1, 0], [1.0] * 3, "^indptr must ascend"),
    ([], [], [], "^indptr must ascend"),
], ids=["isolated-middle-vertex", "nan-weight", "inf-weight", "negative-weight", "zero-weight",
        "repeated-column", "descending-columns", "diagonal-column", "column-n", "column-minus-1",
        "degree-overflow", "indptr-not-from-0", "indptr-descends", "indptr-short-of-indices",
        "indptr-short-of-data", "no-indptr"])
def test_direct_construction_refuses_what_no_laplacian_comes_from(indptr, indices, data,
                                                                  message):
    with pytest.raises(ValueError, match=message):
        SparseGraph(np.array(indptr, dtype=np.int32), np.array(indices, dtype=np.int32),
                    np.array(data))


@settings(max_examples=200, deadline=None)
@given(neighbor_lists(), st.sampled_from([0.25, 1.0, 4.0]))
@example(_complete_graph_with_a_faint_vertex(), 1.0)
def test_direct_construction_accepts_every_built_and_loaded_graph(neighbors, sigma2):
    try:
        built = build_graph(neighbors, sigma2)
    except ValueError:  # a vertex kept no edge
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.coo")
        save_graph_coo(built, path)
        loaded = load_graph_coo(path, built.vertex_count)
    for g in (built, loaded):
        parts = g.indptr, g.indices, g.data
        again = SparseGraph(*parts)
        assert all(a is b for a, b in zip((again.indptr, again.indices, again.data), parts))
        assert oracles.csr_bytes(again) == oracles.csr_bytes(g)


@st.composite
def two_clusters(draw):
    """(points, K, sigma2): two tight clusters of 3-D points, 1 to 15
    neighbors and a scale from 1e-3 to 1e2. sigma2 is "auto", or puts the
    longest listed distance at a weight of about the smallest subnormal, so
    that (s_i a_ij) s_j underflows to 0 for the edges between well connected
    vertices."""
    K = draw(st.integers(1, 15))
    sizes = draw(st.tuples(st.integers(1, 40), st.integers(0, 40)).filter(
        lambda s: sum(s) > K))
    scale = 10.0 ** draw(st.floats(-3, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = np.concatenate([0.05 * rng.standard_normal((3, m)) + 3.0 * c
                             for c, m in enumerate(sizes)], axis=1) * scale
    ratio = draw(st.sampled_from([None, 744.4, 744.0, 740.0]))
    if ratio is None:
        return points, K, "auto"
    return points, K, float(knn_exact(points, K)[1].max() ** 2 / ratio)


@settings(max_examples=200, deadline=None)
@given(two_clusters(), st.integers(1, 9), st.floats(-5, 5))
def test_laplacian_and_its_products_match_scipy(case, width, exponent):
    # the triple against oracles._scipy_graph's I - D A D, and csr_matvecs on it,
    # whole and by the solver's row blocks, against scipy.sparse's products
    points, K, sigma2 = case
    neighbors = knn_exact(points, K)
    sigma2 = resolve_sigma2(neighbors, sigma2)
    try:
        g = build_graph(neighbors, sigma2)
    except ValueError as exc:  # a vertex kept no edge: the oracle says the same
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            oracles.build_graph(neighbors, sigma2)
        return
    oracle = oracles.build_graph(neighbors, sigma2)
    assert oracles.csr_bytes(g) == oracles.csr_bytes(oracle)
    indptr, indices, data = oracle.laplacian
    L = sp.csr_matrix((data, indices, indptr), shape=(g.vertex_count, g.vertex_count))
    U = np.random.default_rng(width).standard_normal((g.vertex_count, width)) * 10.0 ** exponent
    assert graph._csr_matvecs(g.laplacian, U).tobytes() == (L @ U).tobytes()
    column = U[:, :1].copy()  # scipy's csr_matvec path
    assert graph._csr_matvecs(g.laplacian, column).tobytes() == (L @ column).tobytes()
    with mock.patch("frpcag.solver._BLOCK_ELEMENTS", 1):  # blocks of 32 rows
        blocks = _row_blocks(g, width)
    for blk, rows in blocks:
        assert [a.tobytes() for a in rows] == [a.tobytes() for a in
                                              (L[blk].indptr, L[blk].indices, L[blk].data)]
        assert graph._csr_matvecs(rows, U).tobytes() == (L[blk] @ U).tobytes()


def test_laplacian_drops_products_that_underflow():
    # the faint vertex's weight, halved from row 0, rounds to 0: that entry is
    # gone from row 0 but kept in row 5, as in scipy.sparse's I - D A D
    g = build_graph(_complete_graph_with_a_faint_vertex(), 1.0)
    indptr, indices, data = g.laplacian
    assert 5 not in indices[indptr[0]:indptr[1]] and 0 in indices[indptr[5]:indptr[6]]
    assert oracles.csr_bytes(g) == oracles.csr_bytes(
        oracles.build_graph(_complete_graph_with_a_faint_vertex(), 1.0))


def test_build_graph_weights():
    # single edge of length 1, sigma^2 = 1: weight exp(-1)
    nb = knn_exact(np.array([[0.0, 1.0]]), 1)
    g = build_graph(nb, 1.0)
    assert abs(g.adjacency[0, 1] - np.exp(-1.0)) < 1e-12
    # zero distance: weight 1
    nb0 = knn_exact(np.array([[0.0, 0.0]]), 1)
    g0 = build_graph(nb0, 1.0)
    assert g0.adjacency[0, 1] == 1.0


def test_two_node_laplacian():
    nb = knn_exact(np.array([[0.0, 0.0]]), 1)  # weight-1 edge
    g = build_graph(nb, 1.0)
    assert np.allclose(oracles.dense_laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])
    vals = eigh(oracles.dense_laplacian(g), eigvals_only=True)
    assert np.allclose(vals, [0.0, 2.0], atol=1e-12)


def test_adjacency_structure():
    g = random_graph(40, 6, seed=4)
    A = g.adjacency.toarray()
    assert np.array_equal(A, A.T)
    assert np.all(np.diag(A) == 0)
    assert A.min() >= 0 and A.max() <= 1.0


def test_union_symmetrization():
    # asymmetric neighbor list: 0 lists 1, but 1 lists 2
    nb = (np.array([[1], [2], [1]]), np.array([[1.0], [0.5], [0.5]]))
    A = build_graph(nb, 1.0).adjacency.toarray()
    assert A[0, 1] > 0 and A[1, 0] > 0  # union rule keeps the one-way edge


def test_permutation_invariance():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((3, 25))
    perm = rng.permutation(25)
    A = build_graph(knn_exact(pts, 4), "auto").adjacency.toarray()
    B = build_graph(knn_exact(pts[:, perm], 4), "auto").adjacency.toarray()
    assert np.allclose(A[np.ix_(perm, perm)], B)


def test_partial_eigs_null_vector():
    g = random_graph(25, 6, seed=7)
    values, vectors = partial_eigs(g, 1)
    assert values[0] < 1e-10
    null = np.sqrt(np.asarray(g.adjacency.sum(axis=1)).ravel())
    null /= np.linalg.norm(null)
    assert abs(abs(vectors[:, 0] @ null) - 1.0) < 1e-8


def test_partial_eigs_counts_components():
    # three well-separated triangles
    rng = np.random.default_rng(8)
    pts = np.concatenate([rng.standard_normal((2, 3)) * 0.01 + 100 * c
                          for c in range(3)], axis=1)
    g = build_graph(knn_exact(pts, 2), "auto")
    values, _ = partial_eigs(g, 9)
    assert np.count_nonzero(values < 1e-10) == 3


def test_partial_eigs_matches_dense_oracle():
    g = random_graph(6, 2, seed=9)
    values, _ = partial_eigs(g, 6)
    dense_vals = eigh(oracles.dense_laplacian(g), eigvals_only=True)
    assert np.abs(values - dense_vals).max() < 1e-8


def test_partial_eigs_invariants():
    g = random_graph(35, 5, seed=10)
    values, vectors = partial_eigs(g, 8)
    assert values.shape == (8,) and vectors.shape == (35, 8) and vectors.flags.c_contiguous
    L = oracles.dense_laplacian(g)
    for i in range(values.size):
        residual = np.linalg.norm(L @ vectors[:, i] - values[i] * vectors[:, i])
        assert residual <= 1e-8 * 2.0  # ||L|| <= 2
    gram = vectors.T @ vectors
    assert np.abs(gram - np.eye(8)).max() < 1e-10
    assert np.all(np.diff(values) >= 0)


@pytest.mark.parametrize("k", [0, 7])
def test_partial_eigs_k_out_of_range(k):
    with pytest.raises(ValueError, match=f"1 <= k <= n, got k={k}, n=6"):
        partial_eigs(random_graph(6, 2, seed=9), k)


def test_partial_eigs_sparse_path():
    g = random_graph(500, 8, seed=11)
    values, _ = partial_eigs(g, 5)
    dense = eigh(oracles.dense_laplacian(g), eigvals_only=True)[:5]
    assert np.abs(values - dense).max() < 1e-8


def test_laplacian_psd_quadratic_form():
    g = random_graph(30, 4, seed=12)
    rng = np.random.default_rng(13)
    L = oracles.dense_laplacian(g)
    for _ in range(100):
        x = rng.standard_normal(30)
        assert x @ L @ x >= -1e-10


def test_spectrum_within_bounds():
    for seed in range(5):
        g = random_graph(20 + 3 * seed, 3 + seed, seed=seed)
        vals = eigh(oracles.dense_laplacian(g), eigvals_only=True)
        assert vals.min() >= -1e-10 and vals.max() <= 2.0 + 1e-10


def test_coo_roundtrip(tmp_path):
    g = random_graph(15, 3, seed=14)
    path = tmp_path / "g.coo"
    save_graph_coo(g, path)
    h = load_graph_coo(path, 15)
    assert h.vertex_count == 15
    assert np.abs((g.adjacency - h.adjacency)).max() < 1e-15
    # byte-identical on re-save
    path2 = tmp_path / "g2.coo"
    save_graph_coo(h, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("p, n, K", [(100, 2000, 10), (2000, 100, 10), (8, 300, 5)])
def test_built_and_loaded_adjacency_is_canonical_csr(tmp_path, p, n, K):
    # save_graph_coo writes the CSR order, which is then by row and column
    g = build_graph(knn_exact(np.random.default_rng(p).standard_normal((p, n)), K), "auto")
    path = tmp_path / "g.coo"
    save_graph_coo(g, path)
    h = load_graph_coo(path, n)
    for graph_ in (g, h):
        assert graph_.adjacency.has_canonical_format
    rows, cols = np.loadtxt(path, usecols=(0, 1), dtype=np.int64, unpack=True)
    assert np.array_equal(np.lexsort((cols, rows)), np.arange(rows.size))


def test_coo_reader_memory_below_four_files(tmp_path):
    # a sample graph of the solve workload's size; the line-by-line oracle holds 8x
    g = build_graph(knn_exact(np.random.default_rng(0).standard_normal((100, 2000)), 10))
    path = tmp_path / "g.coo"
    save_graph_coo(g, path)
    h, peak = traced_peak(lambda: load_graph_coo(path, 2000))
    assert (h.adjacency != g.adjacency).nnz == 0
    assert peak < 4 * path.stat().st_size


def test_coo_bad_file(tmp_path):
    bad = tmp_path / "bad.coo"
    bad.write_text("0 1\n")
    with pytest.raises(GraphFormatError):
        load_graph_coo(bad, 2)
    empty = tmp_path / "empty.coo"
    empty.write_text("")
    with pytest.raises(GraphFormatError):
        load_graph_coo(empty, 1)


@pytest.mark.parametrize("text, message", [
    ("0 1 1\n1 0 1\n-1 0 1\n0 -1 1\n", "negative vertex index on line 3"),
    ("0 1 nan\n1 0 nan\n", "finite and non-negative on line 1"),
    ("0 1 1\n1 0 inf\n", "finite and non-negative on line 2"),
    ("0 1 -0.5\n1 0 -0.5\n", "finite and non-negative on line 1"),
    ("0 1 1\n", "symmetric"),
    # an edge listed one way is refused at any weight; rounding at 1e6 is not
    ("0 1 1\n1 0 1\n1 2 1\n2 1 1\n0 2 1e-13\n", "symmetric"),
    ("0 1 1000000\n1 0 1000000.0000000001\n", None),
    ("0 1 1e308\n1 0 1e308\n0 2 1e308\n2 0 1e308\n", "overflow a vertex degree"),
    # Python's int and float read digit-group underscores and non-ASCII digits
    ("0 1 1\n1 0 1\n0 1_0 1\n1_0 0 1\n", "expected 'i j weight' on line 3"),
    ("0 1 1_0\n1 0 1_0\n", "expected 'i j weight' on line 1"),
    ("\u0660 \u0661 1\n\u0661 \u0660 1\n", "expected 'i j weight' on line 1"),
])
def test_coo_rejects_bad_indices_and_weights(tmp_path, text, message):
    path = tmp_path / "bad.coo"
    path.write_text(text)
    vertex_count = 1 + max(int(index) for line in text.splitlines()
                           for index in line.split()[:2])
    with pytest.raises(GraphFormatError, match=message) if message else nullcontext():
        load_graph_coo(path, vertex_count)


@pytest.mark.parametrize("text, message", [
    ("0 0 5\n0 1 1\n1 0 1\n", "self-loop on line 1"),
    ("0 1 1\n1 0 2\n0 1 1\n", "repeated edge 0 1 on line 3"),
])
def test_coo_rejects_what_it_would_repair(tmp_path, text, message):
    # neither is repaired: a self-loop is not dropped, a repeated pair not summed
    path = tmp_path / "bad.coo"
    path.write_text(text)
    with pytest.raises(GraphFormatError, match=message):
        load_graph_coo(path, 2)


@pytest.mark.parametrize("text, vertex_count, message", [
    ("0 1 1\n1 0 1\n0 1000000000 1\n", 10,
     "vertex index 1000000000 on line 3 needs 1000000001 vertices, expected 10"),
    ("0 1 1\n1 0 1\n", 3, "largest vertex index 1 gives 2 vertices, expected 3"),
    ("0 1 1\n1 0 1\n", 1, "vertex index 1 on line 1 needs 2 vertices, expected 1"),
])
def test_coo_rejects_other_vertex_count(tmp_path, text, vertex_count, message):
    path = tmp_path / "g.coo"
    path.write_text(text)
    with pytest.raises(GraphSizeError, match=message):
        load_graph_coo(path, vertex_count)


def test_coo_rejects_non_utf8(tmp_path):
    path = tmp_path / "bad.coo"
    path.write_bytes(b"0 1 1\n1 0 1\xff\n")
    with pytest.raises(GraphFormatError, match="can't decode"):
        load_graph_coo(path, 2)


def test_coo_rejects_a_vertex_without_edges(tmp_path):
    # vertex 2 is listed by no line, but vertex 3 gives the file 4 vertices
    path = tmp_path / "g.coo"
    path.write_text("0 1 1\n1 0 1\n1 3 1\n3 1 1\n")
    with pytest.raises(GraphFormatError, match="g.coo: 1 of 4 vertices keep no edge$"):
        load_graph_coo(path, 4)
