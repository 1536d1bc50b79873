"""Clustering evaluation: k-means with restarts, permutation-matched error,
and the corrupt -> solve -> cluster experiment pipeline."""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from . import analysis
from .graph import SparseGraph, build_graph, knn_approx, knn_exact, partial_eigs
from .matrixio import CorruptionSpec, DataMatrix, corrupt, standardize
from .solver import SolverConfig, fista_solve


@dataclass(frozen=True)
class ClusterResult:
    labels: np.ndarray
    inertia: float
    restarts_used: int
    inertia_trace: List[float] = field(default_factory=list)


@dataclass(frozen=True)
class GraphConfig:
    """Graph construction knobs shared by both the sample and feature graphs."""

    k: int = 10
    sigma2: Union[float, str] = 1.0
    method: str = "exact"  # or "approx"
    recall_target: float = 0.9
    seed: int = 0

    def neighbors(self, points: np.ndarray):
        if self.method == "exact":
            return knn_exact(points, self.k)
        if self.method == "approx":
            return knn_approx(points, self.k, self.recall_target, seed=self.seed)
        raise ValueError(f"unknown graph method {self.method!r}")


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


def kmeans(points: np.ndarray, k: int, restarts: int = 10, seed: int = 0) -> ClusterResult:
    """Lloyd's algorithm with k-means++ seeding; keeps the minimum-inertia restart.

    points holds one item per column. Deterministic under seed; empty
    clusters are re-seeded to the point farthest from its assigned centroid.
    """
    cols = np.asarray(points, dtype=np.float64).T
    n = cols.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    best = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        labels, inertia, trace = _kmeans_once(cols, k, rng)
        if best is None or inertia < best[1]:
            best = (labels, inertia, trace)
    return ClusterResult(labels=best[0], inertia=best[1], restarts_used=restarts,
                         inertia_trace=best[2])


def clustering_error(pred, truth) -> float:
    """1 - best-assignment accuracy between two labelings.

    The predicted-to-true label matching is optimized with the Hungarian
    algorithm on the contingency table, so the metric is invariant to
    relabeling either side.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError("pred and truth must be 1-d and the same length")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    rows, cols = linear_sum_assignment(-table)
    matched = table[rows, cols].sum()
    return 1.0 - matched / pred.size


def two_gaussians(n: int = 200, p: int = 40, separation: float = 10.0,
                  seed: int = 0) -> tuple:
    """Two isotropic unit-variance Gaussian clusters with the given Euclidean
    separation between their means. Returns (DataMatrix, labels)."""
    rng = np.random.default_rng(seed)
    half = n // 2
    labels = np.repeat([0, 1], [half, n - half])
    offset = separation / np.sqrt(p) / 2.0
    values = rng.standard_normal((p, n))
    values[:, :half] -= offset
    values[:, half:] += offset
    return DataMatrix(values), labels


@dataclass(frozen=True)
class PreparedExperiment:
    """The gamma-independent part of an experiment, shared by every gamma."""

    Xs: DataMatrix  # corrupted and standardized
    truth: np.ndarray
    classes: int
    G1: SparseGraph  # samples
    G2: SparseGraph  # features
    record_head: dict  # n, p, classes, corruption and graph: the first keys of a record
    seed: int
    restarts: int
    rank_threshold: float
    cluster_on: str
    error_raw: float
    s_r: float
    timings_ms: dict


@contextmanager
def _stage(timings: dict, name: str):
    t0 = time.perf_counter()
    yield
    timings[name] = (time.perf_counter() - t0) * 1e3


def prepare_experiment(X: DataMatrix, truth, corruption: Optional[CorruptionSpec],
                       graph_cfg: GraphConfig, seed: int = 0, restarts: int = 10,
                       rank_threshold: float = 0.01, cluster_on: str = "u",
                       corrupt_after_standardize: bool = False) -> PreparedExperiment:
    """The gamma-independent stages, run once per sweep: corrupt (after
    standardizing if corrupt_after_standardize) -> standardize -> dual graphs
    -> k-means on raw X (error_raw) -> stationarity ratio s_r of the feature
    graph. timings_ms holds one entry per stage."""
    if cluster_on not in ("u", "w"):
        raise ValueError(f"cluster_on must be 'u' or 'w', got {cluster_on!r}")
    truth = np.asarray(truth)
    k = int(np.unique(truth).size)
    timings = {}

    with _stage(timings, "corrupt_ms"):
        if corruption is not None and not corrupt_after_standardize:
            X, mask = corrupt(X, corruption)
    with _stage(timings, "standardize_ms"):
        Xs = standardize(X)
        if corruption is not None and corrupt_after_standardize:
            Xs, mask = corrupt(Xs, corruption)
    with _stage(timings, "graphs_ms"):
        G1 = build_graph(graph_cfg.neighbors(Xs.values), graph_cfg.sigma2)
        G2 = build_graph(graph_cfg.neighbors(Xs.values.T), graph_cfg.sigma2)
    with _stage(timings, "cluster_raw_ms"):
        raw = kmeans(Xs.values, k, restarts=restarts, seed=seed)
        error_raw = clustering_error(raw.labels, truth)
    with _stage(timings, "s_r_ms"):
        P_full = partial_eigs(G2, G2.vertex_count).vectors
        _, s_r = analysis.alignment_ratio(P_full, analysis.covariance(Xs))

    head = {"n": Xs.sample_count, "p": Xs.feature_count, "classes": k,
            "corruption": None if corruption is None else {
                "kind": corruption.kind, "fraction": corruption.fraction,
                "seed": corruption.seed, "entries": int(mask.sum())},
            "graph": {"k": graph_cfg.k, "sigma2": graph_cfg.sigma2,
                      "method": graph_cfg.method}}
    return PreparedExperiment(
        Xs=Xs, truth=truth, classes=k, G1=G1, G2=G2, record_head=head, seed=seed,
        restarts=restarts, rank_threshold=rank_threshold, cluster_on=cluster_on,
        error_raw=error_raw, s_r=s_r, timings_ms=timings)


def run_gamma(prep: PreparedExperiment, solver_cfg: SolverConfig) -> dict:
    """The per-gamma stages: solve -> economic SVD and rank estimate of U ->
    k-means on U, or on the sigma-scaled principal components the rank keeps
    when prep.cluster_on is "w". Returns the JSON-friendly record: the
    configuration echo, clustering errors, s_r, rank and this call's stage
    timings."""
    timings = {}
    with _stage(timings, "solve_ms"):
        result = fista_solve(prep.Xs, prep.G1, prep.G2, solver_cfg)
    with _stage(timings, "svd_ms"):
        triplet = analysis.economic_svd(result.U)
        rank = analysis.rank_estimate(triplet.sigma, prep.rank_threshold)
    with _stage(timings, "cluster_ms"):
        if prep.cluster_on == "u" or triplet.W.shape[1] == 0:
            items = result.U.values
        else:
            # sigma-scaled components keep each direction's energy, matching the
            # k-means geometry of U at full rank
            keep = max(rank, min(prep.classes, triplet.W.shape[1]))
            items = (triplet.W[:, :keep] * triplet.sigma[:keep]).T
        clustered = kmeans(items, prep.classes, restarts=prep.restarts, seed=prep.seed)
        error = clustering_error(clustered.labels, prep.truth)

    return {
        **prep.record_head,
        "solver": {"loss": solver_cfg.loss, "gamma1": solver_cfg.gamma1,
                   "gamma2": solver_cfg.gamma2, "epsilon": solver_cfg.epsilon,
                   "max_iters": solver_cfg.max_iters},
        "seed": prep.seed,
        "cluster_on": prep.cluster_on,
        "error": error,
        "error_raw": prep.error_raw,
        "s_r": prep.s_r,
        "rank": rank,
        "iterations": result.iterations,
        "converged": result.converged,
        "timings_ms": timings,
    }
