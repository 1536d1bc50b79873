import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import eigh
from scipy.spatial.distance import cdist

from frpcag import graph
from frpcag.graph import (GraphFormatError, GraphSizeError, NeighborList, build_graph,
                          graph_from_adjacency, knn_exact, load_graph_coo,
                          partial_eigs, save_graph_coo, spectral_norm)


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
        nb = knn_exact(points, K)
    indices, distances = cdist_argsort_knn(points, K)
    assert np.array_equal(nb.indices, indices)
    assert nb.distances.tobytes() == distances.tobytes()


def test_knn_memory_below_dense_matrix():
    # the pixel graph of 104 frames of 64x64: one dense n x n float64 is 134 MB
    rng = np.random.default_rng(0)
    points = rng.integers(0, 256, (104, 4096)) / 255.0
    tracemalloc.start()
    try:
        knn_exact(points, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def random_graph(n, k, seed, d=5, sigma2="auto"):
    rng = np.random.default_rng(seed)
    return build_graph(knn_exact(rng.standard_normal((d, n)), k), sigma2)


def test_knn_two_points():
    pts = np.array([[0.0, 1.0]])
    nb = knn_exact(pts, 1)
    assert nb.indices.tolist() == [[1], [0]]
    assert np.allclose(nb.distances, 1.0)


def test_knn_line_example():
    pts = np.array([[0.0, 1.0, 3.0, 7.0]])
    nb = knn_exact(pts, 2)
    assert brute_force_knn(pts, 2).tolist() == nb.indices.tolist()
    assert nb.indices[2].tolist() == [1, 0]  # neighbors of the point at 3


def test_knn_matches_brute_force():
    rng = np.random.default_rng(21)
    pts = rng.standard_normal((4, 30))
    nb = knn_exact(pts, 5)
    assert np.array_equal(nb.indices, brute_force_knn(pts, 5))


def test_knn_duplicates_no_self_loop():
    pts = np.array([[1.0, 1.0, 1.0, 4.0]])
    nb = knn_exact(pts, 2)
    assert not np.any(nb.indices == np.arange(4)[:, None])
    assert nb.distances[0, 0] == 0.0
    assert nb.indices[0].tolist() == [1, 2]  # ties resolve to lower index
    assert nb.indices[1].tolist() == [0, 2]


def test_knn_k_out_of_range():
    pts = np.zeros((2, 4))
    with pytest.raises(ValueError):
        knn_exact(pts, 4)


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
    assert np.allclose(g.laplacian.toarray(), [[1.0, -1.0], [-1.0, 1.0]])
    vals = eigh(g.laplacian.toarray(), eigvals_only=True)
    assert np.allclose(vals, [0.0, 2.0], atol=1e-12)


def test_adjacency_structure():
    g = random_graph(40, 6, seed=4)
    A = g.adjacency.toarray()
    assert np.array_equal(A, A.T)
    assert np.all(np.diag(A) == 0)
    assert A.min() >= 0 and A.max() <= 1.0


def test_union_symmetrization():
    # asymmetric neighbor list: 0 lists 1, but 1 lists 2
    nb = NeighborList(indices=np.array([[1], [2], [1]]),
                      distances=np.array([[1.0], [0.5], [0.5]]))
    A = build_graph(nb, 1.0).adjacency.toarray()
    assert A[0, 1] > 0 and A[1, 0] > 0  # union rule keeps the one-way edge


def test_permutation_invariance():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((3, 25))
    perm = rng.permutation(25)
    A = build_graph(knn_exact(pts, 4), "auto").adjacency.toarray()
    B = build_graph(knn_exact(pts[:, perm], 4), "auto").adjacency.toarray()
    assert np.allclose(A[np.ix_(perm, perm)], B)


def test_spectral_norm_modes():
    g = random_graph(30, 5, seed=6)
    assert spectral_norm(g) == 2.0
    # two-node single edge: top eigenvalue exactly 2
    nb = knn_exact(np.array([[0.0, 0.0]]), 1)
    g2 = build_graph(nb, 1.0)
    assert abs(spectral_norm(g2, method="power") - 2.0) <= 1e-4 * 2.0
    # edgeless graph: L = I
    empty = graph_from_adjacency(np.zeros((5, 5)))
    assert abs(spectral_norm(empty, method="power") - 1.0) <= 1e-4


def test_spectral_norm_power_accuracy_on_random_graphs():
    for seed in range(15):
        g = random_graph(10 + 4 * seed, 3 + seed % 4, seed=seed)
        true = eigh(g.laplacian.toarray(), eigvals_only=True).max()
        assert abs(spectral_norm(g, method="power") - true) <= 1e-4 * true


def test_partial_eigs_null_vector():
    g = random_graph(25, 6, seed=7)
    eigs = partial_eigs(g, 1)
    assert eigs.values[0] < 1e-10
    null = np.sqrt(g.degrees)
    null /= np.linalg.norm(null)
    assert abs(abs(eigs.vectors[:, 0] @ null) - 1.0) < 1e-8


def test_partial_eigs_counts_components():
    # three well-separated triangles
    rng = np.random.default_rng(8)
    pts = np.concatenate([rng.standard_normal((2, 3)) * 0.01 + 100 * c
                          for c in range(3)], axis=1)
    g = build_graph(knn_exact(pts, 2), "auto")
    eigs = partial_eigs(g, 9)
    assert np.count_nonzero(eigs.values < 1e-10) == 3


def test_partial_eigs_matches_dense_oracle():
    g = random_graph(6, 2, seed=9)
    eigs = partial_eigs(g, 6)
    dense_vals = eigh(g.laplacian.toarray(), eigvals_only=True)
    assert np.abs(eigs.values - dense_vals).max() < 1e-8


def test_partial_eigs_invariants():
    g = random_graph(35, 5, seed=10)
    eigs = partial_eigs(g, 8)
    L = g.laplacian
    norm_L = spectral_norm(g)
    for i in range(eigs.count):
        residual = np.linalg.norm(L @ eigs.vectors[:, i] - eigs.values[i] * eigs.vectors[:, i])
        assert residual <= 1e-8 * norm_L
    gram = eigs.vectors.T @ eigs.vectors
    assert np.abs(gram - np.eye(8)).max() < 1e-10
    assert np.all(np.diff(eigs.values) >= 0)


def test_partial_eigs_sparse_path():
    g = random_graph(500, 8, seed=11)
    eigs = partial_eigs(g, 5)
    dense = eigh(g.laplacian.toarray(), eigvals_only=True)[:5]
    assert np.abs(eigs.values - dense).max() < 1e-8


def test_laplacian_psd_quadratic_form():
    g = random_graph(30, 4, seed=12)
    rng = np.random.default_rng(13)
    L = g.laplacian.toarray()
    for _ in range(100):
        x = rng.standard_normal(30)
        assert x @ L @ x >= -1e-10


def test_spectrum_within_bounds():
    for seed in range(5):
        g = random_graph(20 + 3 * seed, 3 + seed, seed=seed)
        vals = eigh(g.laplacian.toarray(), eigvals_only=True)
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
    ("0 1 1e308\n1 0 1e308\n0 2 1e308\n2 0 1e308\n", "overflow a vertex degree"),
])
def test_coo_rejects_bad_indices_and_weights(tmp_path, text, message):
    path = tmp_path / "bad.coo"
    path.write_text(text)
    vertex_count = 1 + max(int(index) for line in text.splitlines()
                           for index in line.split()[:2])
    with pytest.raises(GraphFormatError, match=message):
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
