import json
from dataclasses import asdict

import numpy as np
import pytest
from scipy.linalg import eigh

from frpcag import analysis
from frpcag.analysis import (DegenerateEigengapError, alignment_ratio,
                             check_recovery_bound, covariance, economic_svd,
                             make_lowrank_on_graphs, rank_estimate, recovery_gammas)
from frpcag.graph import build_graph, knn_exact, partial_eigs
from frpcag.solver import LowRankResult, SolverConfig, fista_solve
from oracles import alignment_energy, sequential_prox, shape_interaction, sylvester_solve


def clustered_graph(n_vertices, n_clusters, spread=0.3, seed=0, k=5, dim=6):
    """K-NN graph over points drawn around well-separated cluster centers."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-10, 10, size=(dim, n_clusters))
    pts = centers[:, np.arange(n_vertices) % n_clusters] \
        + spread * rng.standard_normal((dim, n_vertices))
    return build_graph(knn_exact(pts, min(k, n_vertices - 1)), "auto")


def components_graph(n_per, n_components, seed=0):
    """Graph with exactly n_components connected components."""
    rng = np.random.default_rng(seed)
    pts = np.concatenate(
        [1000 * c + 0.1 * rng.standard_normal((2, n_per)) for c in range(n_components)],
        axis=1)
    return build_graph(knn_exact(pts, n_per - 1), "auto")


def test_economic_svd_diagonal():
    U = np.zeros((2, 5))
    U[0, 0], U[1, 1] = 3.0, 1.0
    _, sigma, _ = economic_svd(U)
    assert np.allclose(sigma, [3.0, 1.0])


def test_economic_svd_matches_dense_oracle():
    rng = np.random.default_rng(1)
    U = rng.standard_normal((5, 8))
    _, sigma, _ = economic_svd(U)
    ref = np.linalg.svd(U, compute_uv=False)
    assert np.abs(sigma - ref).max() <= 1e-8 * ref[0]


def test_economic_svd_random_batch_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = rng.integers(2, 50)
        n = rng.integers(2, 50)
        U = rng.standard_normal((p, n))
        _, sigma, _ = economic_svd(U)
        ref = np.linalg.svd(U, compute_uv=False)[:sigma.size]
        assert np.abs(sigma - ref).max() <= 1e-8 * max(ref[0], 1.0)


def test_economic_svd_zero_matrix():
    _, sigma, W = economic_svd(np.zeros((4, 6)))
    assert sigma.size == 0 and W.shape == (6, 0)


def test_economic_svd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(3)
    U = rng.standard_normal((6, 10))
    V, sigma, W = economic_svd(U)
    assert np.linalg.norm(V @ np.diag(sigma) @ W.T - U) \
        <= 1e-8 * np.linalg.norm(U)
    c = sigma.size
    assert np.abs(V.T @ V - np.eye(c)).max() < 1e-10
    assert np.abs(W.T @ W - np.eye(c)).max() < 1e-10


def test_economic_svd_tall_oracle():
    rng = np.random.default_rng(6)
    for p, n, rank in ((300, 20, 20), (120, 9, 4), (50, 1, 1)):
        U = rng.standard_normal((p, rank)) @ rng.standard_normal((rank, n))
        V, sigma, W = economic_svd(U)
        ref = np.linalg.svd(U, compute_uv=False)
        assert sigma.size == rank
        assert np.abs(sigma - ref[:rank]).max() <= 1e-10 * ref[0]
        assert V.shape == (p, rank) and W.shape == (n, rank)
        assert np.abs(V.T @ V - np.eye(rank)).max() < 1e-10
        assert np.abs(W.T @ W - np.eye(rank)).max() < 1e-10
        assert np.linalg.norm(V @ np.diag(sigma) @ W.T - U) \
            <= 1e-10 * np.linalg.norm(U)
    V, _, W = economic_svd(np.zeros((6, 4)))
    assert V.shape == (6, 0) and W.shape == (4, 0)


def test_economic_svd_decomposes_the_smaller_gram(monkeypatch):
    shapes = []

    def recorded(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)
    monkeypatch.setattr(analysis, "eigh", recorded)
    rng = np.random.default_rng(7)
    economic_svd(rng.standard_normal((300, 20)))
    economic_svd(rng.standard_normal((20, 300)))
    assert shapes == [(20, 20), (20, 20)]


def test_covariance_constant_matrix():
    assert np.abs(covariance(np.full((3, 5), 2.7))).max() < 1e-12


@pytest.mark.parametrize("call", [covariance, economic_svd])
def test_non_finite_array_is_refused_on_entry(call):
    X = np.ones((3, 4))
    X[1, 2] = np.nan
    with pytest.raises(ValueError, match="matrix entries must all be finite"):
        call(X)


def test_covariance_hand_instance():
    X = np.array([[1.0, -1.0], [1.0, -1.0]])
    C = covariance(X)  # global mean 0, C = X X^T / 2
    assert np.allclose(C, [[1.0, 1.0], [1.0, 1.0]])


def test_covariance_symmetric_psd():
    rng = np.random.default_rng(4)
    C = covariance(rng.standard_normal((7, 12)))
    assert np.allclose(C, C.T)
    assert eigh(C, eigvals_only=True).min() >= -1e-10


def test_alignment_ratio_simultaneous_diagonalization():
    rng = np.random.default_rng(5)
    P, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    C = P @ np.diag(rng.uniform(0.5, 3, 6)) @ P.T
    _, s_r = alignment_ratio(P, C)
    assert abs(s_r - 1.0) < 1e-10


def test_alignment_ratio_sign_flip_invariance():
    rng = np.random.default_rng(6)
    P, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    C = covariance(rng.standard_normal((8, 30)))
    flips1 = np.diag(rng.choice([-1.0, 1.0], 8))
    flips2 = np.diag(rng.choice([-1.0, 1.0], 8))
    _, a = alignment_ratio(P @ flips1, C)
    _, b = alignment_ratio(P @ flips2, C)
    assert abs(a - b) < 1e-12


def test_alignment_ratio_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        alignment_ratio(np.ones((4, 4)), np.eye(4))


@pytest.mark.parametrize("P", [np.eye(4)[:, :3], np.ones(4), np.eye(3)[None]])
def test_alignment_ratio_rejects_non_square(P):
    with pytest.raises(ValueError, match="P must be square"):
        alignment_ratio(P, np.eye(4))


def test_alignment_ratio_of_zero_covariance_is_one():
    Gamma, s_r = alignment_ratio(np.eye(3)[::-1], covariance(np.full((3, 5), 2.0)))
    assert s_r == 1.0 and np.array_equal(Gamma, np.zeros((3, 3)))


@pytest.mark.parametrize("k1, k2", [(0, 1), (21, 1), (1, 0), (1, 13)])
def test_make_lowrank_k_out_of_range(k1, k2):
    G1 = clustered_graph(20, 2, seed=7)
    G2 = clustered_graph(12, 2, seed=8)
    with pytest.raises(ValueError, match="need 1 <= k1 <= n and 1 <= k2 <= p"):
        make_lowrank_on_graphs(G1, G2, k1, k2)


def test_make_lowrank_rank_one():
    G1 = clustered_graph(20, 2, seed=7)
    G2 = clustered_graph(12, 2, seed=8)
    low = make_lowrank_on_graphs(G1, G2, 1, 1, coeff_scale=2.0, seed=9)
    assert np.linalg.matrix_rank(low.Xstar) == 1


def test_make_lowrank_span_membership():
    G1 = clustered_graph(24, 3, seed=10)
    G2 = clustered_graph(15, 2, seed=11)
    low = make_lowrank_on_graphs(G1, G2, 3, 2, seed=12)
    lam, Q = eigh(G1.laplacian.toarray())
    om, P = eigh(G2.laplacian.toarray())
    assert np.abs(low.Xstar @ Q[:, 3:]).max() < 1e-10
    assert np.abs(P[:, 2:].T @ low.Xstar).max() < 1e-10


def test_make_lowrank_singular_values_match_coefficients():
    G1 = clustered_graph(18, 2, seed=13)
    G2 = clustered_graph(14, 2, seed=14)
    low = make_lowrank_on_graphs(G1, G2, 2, 2, seed=15)
    sv_x = np.linalg.svd(low.Xstar, compute_uv=False)[:2]
    sv_c = np.linalg.svd(low.C, compute_uv=False)
    assert np.abs(sv_x - sv_c).max() < 1e-10


def test_make_lowrank_deterministic():
    G1 = clustered_graph(16, 2, seed=16)
    G2 = clustered_graph(10, 2, seed=17)
    a = make_lowrank_on_graphs(G1, G2, 2, 2, seed=5)
    b = make_lowrank_on_graphs(G1, G2, 2, 2, seed=5)
    assert np.array_equal(a.Xstar, b.Xstar)


def solve_bound_instance(G1, G2, low, E, gamma, loss="l1"):
    g1, g2 = recovery_gammas(G1, G2, low.k1, low.k2, gamma)
    X = low.Xstar + E
    if loss == "frobenius_sq":
        cfg = SolverConfig(loss=loss, gamma1=g1, gamma2=g2)
        U = sylvester_solve(X, G1, G2, g1, g2)
        out = LowRankResult(U=U, objective_trace=[0.0], iterations=1, converged=True)
    else:
        cfg = SolverConfig(loss=loss, gamma1=g1, gamma2=g2,
                           epsilon=1e-14, max_iters=4000)
        out = fista_solve(X, G1, G2, cfg)
    return check_recovery_bound(low, E, gamma, out, cfg, G1, G2)


def test_bound_zero_noise_zero_eigengap_numerator():
    # graphs with exactly k1 (resp. k2) components: lambda_k1 = omega_k2 = 0
    G1 = components_graph(8, 3, seed=18)   # n = 24, k1 = 3
    G2 = components_graph(7, 2, seed=19)   # p = 14, k2 = 2
    low = make_lowrank_on_graphs(G1, G2, 3, 2, seed=20)
    E = np.zeros((14, 24))
    report = solve_bound_instance(G1, G2, low, E, gamma=1.0)
    assert report.rhs <= 1e-12
    assert report.lhs <= 1e-8
    assert report.holds


def test_bound_holds_on_random_trials():
    rng = np.random.default_rng(21)
    for trial in range(6):
        loss = "l1" if trial % 2 == 0 else "frobenius_sq"
        G1 = clustered_graph(20 + trial, 3, spread=0.5, seed=30 + trial)
        G2 = clustered_graph(15 + trial, 2, spread=0.5, seed=60 + trial)
        low = make_lowrank_on_graphs(G1, G2, 3, 2, coeff_scale=1.0, seed=trial)
        E = np.zeros((15 + trial, 20 + trial))
        support = rng.random(E.shape) < 0.05
        E[support] = rng.uniform(-1, 1, support.sum())
        report = solve_bound_instance(G1, G2, low, E, gamma=float(rng.uniform(0.2, 5)),
                                      loss=loss)
        assert report.holds, f"trial {trial}: lhs={report.lhs} rhs={report.rhs}"


def test_bound_report_holds_plain_python_numbers():
    G1 = components_graph(8, 3, seed=18)
    G2 = components_graph(7, 2, seed=19)
    low = make_lowrank_on_graphs(G1, G2, 3, 2, seed=20)
    report = asdict(solve_bound_instance(G1, G2, low, np.zeros((14, 24)), gamma=1.0))
    assert [type(v) for v in report.values()] == [float, float, bool, float, float]
    assert json.loads(json.dumps(report)) == report


def test_bound_degenerate_eigengap_raises():
    G = components_graph(6, 3, seed=22)  # 3 zero eigenvalues
    with pytest.raises(DegenerateEigengapError):
        recovery_gammas(G, G, 2, 2, 1.0)  # lambda_{k1+1} is the 3rd zero


@pytest.mark.parametrize("k1, k2", [(16, 1), (17, 1), (1, 12)])
def test_bound_needs_an_eigenvalue_above_the_band(k1, k2):
    G1 = clustered_graph(16, 2, seed=23)
    G2 = clustered_graph(12, 2, seed=24)
    with pytest.raises(ValueError, match="must leave at least one eigenvalue above the band"):
        recovery_gammas(G1, G2, k1, k2, 1.0)


def test_bound_rejects_mismatched_gammas():
    G1 = clustered_graph(16, 2, seed=23)
    G2 = clustered_graph(12, 2, seed=24)
    low = make_lowrank_on_graphs(G1, G2, 2, 2, seed=25)
    E = np.zeros((12, 16))
    cfg = SolverConfig(loss="l1", gamma1=1.0, gamma2=1.0)
    out = fista_solve(low.Xstar + E, G1, G2, cfg)
    with pytest.raises(ValueError):
        check_recovery_bound(low, E, 1.0, out, cfg, G1, G2)


def test_rank_estimate_examples():
    assert rank_estimate(np.array([10.0, 5.0, 1e-9]), 1e-6) == 2
    assert rank_estimate(np.zeros(4), 1e-6) == 0
    assert rank_estimate(np.array([]), 0.5) == 0
    with pytest.raises(ValueError):
        rank_estimate(np.array([1.0]), -0.1)


def test_rank_estimate_matches_attenuation_prediction():
    G1 = clustered_graph(18, 2, seed=26)
    G2 = clustered_graph(12, 2, seed=27)
    lam, Q = eigh(G1.laplacian.toarray())
    om, P = eigh(G2.laplacian.toarray())
    s = np.array([10.0, 8.0, 6.0, 4.0, 2.0])
    X = P[:, :5] @ np.diag(s) @ Q[:, :5].T
    out = sequential_prox(X, G1, G2, 3.0, 3.0)
    attenuated = np.sort(s / ((1 + 3.0 * lam[:5]) * (1 + 3.0 * om[:5])))[::-1]
    threshold = 0.2
    predicted = int(np.count_nonzero(attenuated > threshold * attenuated[0]))
    got = rank_estimate(np.linalg.svd(out, compute_uv=False), threshold)
    assert got == predicted


def test_shape_interaction_projector():
    rng = np.random.default_rng(28)
    W, _ = np.linalg.qr(rng.standard_normal((9, 4)))
    S = shape_interaction(W)
    assert np.abs(S @ S - S).max() < 1e-10
    assert abs(np.trace(S) - 4) < 1e-10


def test_shape_interaction_block_structure_on_clusters():
    # two tight clusters; strong regularization concentrates within-cluster mass
    from frpcag.evalcluster import two_gaussians
    from frpcag.matrixio import standardize
    from frpcag.analysis import economic_svd
    X, labels = two_gaussians(n=60, p=20, separation=12.0, seed=29)
    Xs = standardize(X)
    G1 = build_graph(knn_exact(Xs, 8), "auto")
    G2 = build_graph(knn_exact(Xs.T, 8), "auto")
    cfg = SolverConfig(loss="l1", gamma1=20.0, gamma2=20.0, epsilon=1e-10,
                       max_iters=1000)
    res = fista_solve(Xs, G1, G2, cfg)
    _, _, W = economic_svd(res.U)
    S = np.abs(shape_interaction(W))
    within = (S[np.ix_(labels == 0, labels == 0)].mean()
              + S[np.ix_(labels == 1, labels == 1)].mean()) / 2
    between = S[np.ix_(labels == 0, labels == 1)].mean()
    assert within > between


def test_alignment_energy_trivial():
    G1 = clustered_graph(10, 2, seed=30)
    G2 = clustered_graph(8, 2, seed=31)
    L1e = partial_eigs(G1, 10)
    L2e = partial_eigs(G2, 8)
    zero = economic_svd(np.zeros((8, 10)))
    assert alignment_energy(zero, L1e, L2e, 1.0, 1.0) == 0.0
    rng = np.random.default_rng(32)
    trip = economic_svd(rng.standard_normal((8, 10)))
    assert alignment_energy(trip, L1e, L2e, 0.0, 0.0) == 0.0


def test_alignment_energy_trace_identity():
    G1 = clustered_graph(6, 2, seed=33)
    G2 = clustered_graph(5, 2, seed=34)
    L1e = partial_eigs(G1, 6)
    L2e = partial_eigs(G2, 5)
    rng = np.random.default_rng(35)
    U = rng.standard_normal((5, 6))
    trip = economic_svd(U)
    expected = (1.3 * np.trace(U @ G1.laplacian.toarray() @ U.T)
                + 0.6 * np.trace(U.T @ G2.laplacian.toarray() @ U))
    got = alignment_energy(trip, L1e, L2e, 1.3, 0.6)
    assert abs(got - expected) <= 1e-8 * abs(expected)


def test_alignment_energy_requires_full_bases():
    G1 = clustered_graph(6, 2, seed=36)
    G2 = clustered_graph(5, 2, seed=37)
    trip = economic_svd(np.random.default_rng(38).standard_normal((5, 6)))
    with pytest.raises(ValueError):
        alignment_energy(trip, partial_eigs(G1, 3), partial_eigs(G2, 5), 1.0, 1.0)
