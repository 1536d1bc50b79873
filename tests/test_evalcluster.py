import inspect
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from frpcag.evalcluster import (ExperimentConfig, clustering_error, kmeans,
                                prepare_experiment, run_gamma, two_gaussians)
from frpcag.matrixio import standardize
from frpcag.solver import SolverConfig


def brute_force_min_inertia(cols, k):
    """Oracle: enumerate every assignment into k clusters."""
    n = cols.shape[0]
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        assign = np.array(assign)
        if np.unique(assign).size < k:
            continue
        inertia = 0.0
        for c in range(k):
            members = cols[assign == c]
            inertia += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, inertia)
    return best


def test_kmeans_k_equals_n():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((3, 6))
    res = kmeans(pts, 6, restarts=3, seed=1)
    assert res.inertia == 0.0
    assert np.unique(res.labels).size == 6


def test_kmeans_two_pairs_matches_enumeration():
    pts = np.array([[0.0, 0.2, 7.0, 7.3], [0.0, 0.1, 1.0, 0.9]])
    res = kmeans(pts, 2, restarts=5, seed=2)
    oracle = brute_force_min_inertia(pts.T, 2)
    assert abs(res.inertia - oracle) < 1e-12
    assert res.labels[0] == res.labels[1] and res.labels[2] == res.labels[3]
    assert res.labels[0] != res.labels[2]


def test_kmeans_default_restarts_is_ten():
    assert inspect.signature(kmeans).parameters["restarts"].default == 10


def test_kmeans_deterministic():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((4, 30))
    a = kmeans(pts, 3, restarts=4, seed=7)
    b = kmeans(pts, 3, restarts=4, seed=7)
    assert np.array_equal(a.labels, b.labels) and a.inertia == b.inertia


def test_kmeans_inertia_trace_non_increasing():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((5, 80))
    res = kmeans(pts, 4, restarts=3, seed=5)
    trace = np.asarray(res.inertia_trace)
    assert np.all(np.diff(trace) <= 1e-9)


def kmeans_points(p, n, kind, seed):
    """Items with ties ("integers": few distinct coordinates), duplicate points
    ("duplicates": n draws of n // 3 + 1 points) or in general position, at
    magnitudes from 1e-150 to 1e150 ("scaled")."""
    rng = np.random.default_rng(seed)
    if kind == "integers":
        return rng.integers(-2, 3, (p, n)).astype(float)
    if kind == "duplicates":
        distinct = rng.standard_normal((p, n // 3 + 1))
        return distinct[:, rng.integers(0, distinct.shape[1], n)]
    scale = 10.0 ** rng.integers(-150, 151) if kind == "scaled" else 1.0
    return rng.standard_normal((p, n)) * scale


@settings(max_examples=300, deadline=None)
@given(p=st.integers(1, 12), n=st.integers(1, 24), below_n=st.integers(0, 23),
       kind=st.sampled_from(["normal", "integers", "duplicates", "scaled"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(p=9, n=1, below_n=0, kind="normal", seed=0)  # n = 1
@example(p=8, n=12, below_n=0, kind="duplicates", seed=1)  # k = n with duplicate points
@example(p=10, n=16, below_n=0, kind="integers", seed=2)  # k = n with ties
def test_kmeans_matches_its_cdist_oracle(p, n, below_n, kind, seed):
    # every distance through cdist, as kmeans measured before its screen
    points = kmeans_points(p, n, kind, seed)
    k = max(1, n - below_n)
    got = kmeans(points, k, restarts=3, seed=seed)
    labels, inertia, trace = oracles.kmeans(points, k, restarts=3, seed=seed)
    assert np.array_equal(got.labels, labels)
    assert got.inertia == inertia
    assert got.inertia_trace == trace


def test_kmeans_matches_its_cdist_oracle_with_one_member_clusters():
    # 12 items around 3 centres and 3 outliers: k = 6 leaves clusters of one item
    rng = np.random.default_rng(15)
    points = np.concatenate([rng.standard_normal((9, 4)) * 0.1 + shift
                             for shift in (0.0, 5.0, -5.0)]
                            + [rng.standard_normal((9, 3)) * 40], axis=1)
    got = kmeans(points, 6, restarts=5, seed=16)
    labels, inertia, trace = oracles.kmeans(points, 6, restarts=5, seed=16)
    assert np.bincount(labels).min() == 1
    assert np.array_equal(got.labels, labels) and got.inertia == inertia
    assert got.inertia_trace == trace


def test_kmeans_k_too_large():
    with pytest.raises(ValueError):
        kmeans(np.zeros((2, 3)), 4)


def test_kmeans_refuses_zero_restarts():
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        kmeans(np.zeros((2, 3)), 2, restarts=0)


@pytest.mark.parametrize("points", [np.zeros((0, 3)), np.zeros(3)], ids=["p=0", "1-d"])
def test_kmeans_refuses_points_without_a_coordinate_axis(points):
    with pytest.raises(ValueError, match=r"expected a p x n matrix with p, n >= 1"):
        kmeans(points, 1)


def test_clustering_error_identical_and_relabeled():
    truth = np.array([0, 0, 1, 1, 2, 2])
    assert clustering_error(truth, truth) == 0.0
    relabeled = np.array([5, 5, 9, 9, 1, 1])
    assert clustering_error(relabeled, truth) == 0.0


def test_clustering_error_hand_instance():
    # contingency enumeration: best match is 3 of 4
    assert clustering_error([0, 1, 1, 1], [0, 0, 1, 1]) == 0.25


def test_clustering_error_symmetric_relabeling():
    rng = np.random.default_rng(6)
    truth = rng.integers(0, 3, 40)
    pred = rng.integers(0, 4, 40)
    base = clustering_error(pred, truth)
    remap_p = np.array([7, 2, 9, 11])[pred]
    remap_t = np.array([3, 8, 0])[truth]
    assert clustering_error(remap_p, remap_t) == base


def test_clustering_error_zero_iff_relabeling():
    rng = np.random.default_rng(7)
    truth = rng.integers(0, 3, 30)
    pred = np.array([4, 5, 6])[truth]  # pure relabeling
    assert clustering_error(pred, truth) == 0.0
    pred2 = pred.copy()
    pred2[0] = pred2[0] + 1  # break one point
    assert clustering_error(pred2, truth) > 0.0


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 400), st.integers(0, 2 ** 32 - 1))
@example(1, 5, 7, 0)  # one predicted label against five true ones
@example(5, 1, 7, 0)  # and one true label against five predicted ones
@example(6, 2, 30, 1)
@example(40, 2, 400, 2)  # strongly rectangular, either way round
@example(2, 40, 400, 3)
@example(40, 40, 400, 4)
def test_clustering_error_matches_its_hungarian_oracle(pred_labels, true_labels, n, seed):
    # the contingency table is rectangular unless both sides use as many labels
    rng = np.random.default_rng(seed)
    pred = rng.integers(0, pred_labels, n) * 3 - 1
    truth = rng.integers(0, true_labels, n)
    assert clustering_error(pred, truth) == oracles.clustering_error(pred, truth)


@pytest.mark.parametrize("pred_labels, true_labels, per_cell",
                         [(1, 1, 3), (1, 7, 2), (9, 1, 1), (6, 6, 2), (40, 40, 1), (3, 40, 2),
                          (40, 5, 3)])
def test_clustering_error_on_tables_of_equal_counts(pred_labels, true_labels, per_cell):
    # every cell of the contingency table holds per_cell items, so every full
    # matching is optimal and the error is 1 - 1 / max(pred_labels, true_labels)
    pred, truth = (np.repeat(grid.ravel(), per_cell) for grid in
                   np.meshgrid(np.arange(pred_labels), np.arange(true_labels)))
    want = 1.0 - 1.0 / max(pred_labels, true_labels)
    assert clustering_error(pred, truth) == pytest.approx(want, abs=1e-15)
    assert clustering_error(pred, truth) == oracles.clustering_error(pred, truth)


def test_clustering_error_matches_its_hungarian_oracle_on_500_labels():
    # 500 labels a side, each true label spread over three predicted ones
    rng = np.random.default_rng(20)
    pred = rng.integers(0, 500, 20000)
    truth = (pred + rng.integers(0, 3, pred.size)) % 500
    assert np.unique(pred).size == np.unique(truth).size == 500
    assert clustering_error(pred, truth) == oracles.clustering_error(pred, truth)


def test_clustering_error_length_mismatch():
    with pytest.raises(ValueError):
        clustering_error([0, 1], [0, 1, 2])


def run_one_gamma(X, truth, cfg, solver_cfg):
    """One gamma: the prepare stage, then the per-gamma stage."""
    return run_gamma(prepare_experiment(X, truth, cfg), solver_cfg)


def test_run_experiment_clean_separable():
    X, labels = two_gaussians(n=80, p=16, separation=10.0, seed=8)
    rec = run_one_gamma(X, labels, ExperimentConfig(knn_k=8, sigma2="auto", seed=0, restarts=4),
                        SolverConfig(gamma1=2.0, gamma2=2.0))
    assert rec["error"] == 0.0


def test_record_echoes_the_whole_solver_config():
    X, labels = two_gaussians(n=30, p=8, separation=10.0, seed=8)
    solver_cfg = SolverConfig(gamma1=2.0, gamma2=0.5, epsilon=1e-7, max_iters=40)
    rec = run_one_gamma(X, labels, ExperimentConfig(knn_k=4, sigma2="auto", restarts=2),
                        solver_cfg)
    assert rec["solver"] == {"loss": "l1", "gamma1": 2.0, "gamma2": 0.5, "epsilon": 1e-7,
                             "max_iters": 40}


def test_run_experiment_corrupted_not_worse_than_raw():
    X, labels = two_gaussians(n=80, p=16, separation=10.0, seed=9)
    cfg = ExperimentConfig(corruption="missing", fraction=0.25, corruption_seed=1,
                           knn_k=8, sigma2="auto", seed=0, restarts=4)
    rec = run_one_gamma(X, labels, cfg, SolverConfig(gamma1=2.0, gamma2=2.0))
    assert rec["error"] <= rec["error_raw"]


def test_run_experiment_deterministic_modulo_timings():
    X, labels = two_gaussians(n=50, p=12, separation=10.0, seed=10)
    kwargs = dict(cfg=ExperimentConfig(corruption="missing", fraction=0.2, corruption_seed=2,
                                       knn_k=6, sigma2="auto", seed=3, restarts=3),
                  solver_cfg=SolverConfig(gamma1=1.0, gamma2=1.0))
    a = run_one_gamma(X, labels, **kwargs)
    b = run_one_gamma(X, labels, **kwargs)
    a.pop("timings_ms")
    b.pop("timings_ms")
    assert a == b


def test_run_experiment_cluster_on_principal_components():
    X, labels = two_gaussians(n=80, p=16, separation=10.0, seed=12)
    rec = run_one_gamma(X, labels, ExperimentConfig(knn_k=8, sigma2="auto", seed=0,
                                                    restarts=4, cluster_on="w"),
                        SolverConfig(gamma1=5.0, gamma2=5.0))
    assert rec["cluster_on"] == "w"
    assert rec["error"] == 0.0
    with pytest.raises(ValueError):
        ExperimentConfig(cluster_on="v")


def test_run_experiment_corrupt_after_standardize():
    X, labels = two_gaussians(n=50, p=12, separation=10.0, seed=13)
    cfg = ExperimentConfig(corruption="missing", fraction=0.2, corruption_seed=5,
                           knn_k=6, sigma2="auto", seed=1, restarts=2)
    solver_cfg = SolverConfig(gamma1=1.0, gamma2=1.0)
    before = run_one_gamma(X, labels, cfg, solver_cfg)
    after = run_one_gamma(X, labels, replace(cfg, corrupt_after_standardize=True), solver_cfg)
    assert before["corruption"]["entries"] == after["corruption"]["entries"]


def test_run_experiment_zero_gammas_reduces_to_raw_kmeans():
    X, labels = two_gaussians(n=60, p=10, separation=6.0, seed=11)
    rec = run_one_gamma(X, labels, ExperimentConfig(knn_k=6, sigma2="auto", seed=4, restarts=3),
                        SolverConfig(gamma1=0.0, gamma2=0.0))
    Xs = standardize(X)
    raw = kmeans(Xs, 2, restarts=3, seed=4)
    assert rec["error"] == clustering_error(raw.labels, labels)
    assert rec["error"] == rec["error_raw"]


def test_sweep_matches_separate_single_gamma_runs():
    X, labels = two_gaussians(n=50, p=12, separation=8.0, seed=14)
    args = (X, labels, ExperimentConfig(corruption="missing", fraction=0.2, corruption_seed=6,
                                        knn_k=6, sigma2="auto", seed=2, restarts=3,
                                        cluster_on="w"))
    solver_cfgs = [SolverConfig(gamma1=g, gamma2=g, epsilon=1e-8) for g in (0.5, 3.0, 20.0)]
    prepared = prepare_experiment(*args)
    swept = [run_gamma(prepared, cfg) for cfg in solver_cfgs]
    separate = [run_gamma(prepare_experiment(*args), cfg) for cfg in solver_cfgs]
    assert set(prepared.timings_ms) == {"import_ms", "corrupt_ms", "standardize_ms",
                                        "graphs_ms", "cluster_raw_ms", "s_r_ms"}
    for a, b in zip(swept, separate):
        assert set(a.pop("timings_ms")) == {"solve_ms", "svd_ms", "cluster_ms"}
        b.pop("timings_ms")
        assert a == b
