"""Clustering evaluation: k-means with restarts, permutation-matched error,
and the corrupt -> solve -> cluster experiment pipeline."""

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from typing import List, Optional

import numpy as np

from . import analysis
from .config import FORMATS, AutoOrPositive, Floats
from .graph import (SparseGraph, _rounding_window, _sq_distances, build_graph, knn_exact,
                    partial_eigs)
from .matrixio import CorruptionSpec, _as_matrix, corrupt, standardize
from .solver import SolverConfig, fista_solve


@dataclass(frozen=True)
class ClusterResult:
    labels: np.ndarray
    inertia: float
    inertia_trace: List[float] = field(default_factory=list)


def _nearest_centers(points: np.ndarray, sq: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest column of centers (p x k) to each column of points
    (p x n, squared norms sq), the lower on a tie, as cdist's argmin gives it.

    Scores |c|^2 - 2 a.c from one matrix product keep an item's lowest-scoring
    center when its two lowest scores lie more than graph._rounding_window's
    2E apart, the window knn_exact screens with, taken with top the largest
    squared norm of a center; every other item, a window that is not finite
    included, is measured against all k centers.
    """
    (p, n), k = points.shape, centers.shape[1]
    if k == 1:
        return np.zeros(n, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are measured
        csq = np.einsum("ij,ij->j", centers, centers)
        scores = points.T @ (-2 * centers)  # scaling by -2 is exact
        scores += csq
        slack = _rounding_window(p, sq, csq.max())
        two = np.partition(scores, 1, axis=1)
        doubt = np.flatnonzero(~(two[:, 1] - two[:, 0] > slack))
    labels = scores.argmin(axis=1)
    if doubt.size:
        items = np.take(points, doubt, axis=1)
        diff = np.empty_like(items)
        labels[doubt] = np.argmin([_sq_distances(items, centers[:, c:c + 1], diff)
                                   for c in range(k)], axis=0)
    return labels


def _kmeans_once(points: np.ndarray, k: int, rng, scratch: np.ndarray) -> tuple:
    """One k-means++ seeded Lloyd run on the columns of points (p x n, C
    order); returns (labels, inertia, trace). Every distance it samples from
    or reports is graph._sq_distances's, cdist's value bit for bit, measured
    in scratch, an array of points' shape."""
    n = points.shape[1]
    cols = points.T  # one row per item
    centers = np.empty((k, points.shape[0]))
    centers[0] = cols[rng.integers(n)]
    d2 = _sq_distances(points, centers[0][:, None], scratch)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            centers[c] = cols[rng.choice(n, p=probs)]
        else:  # all remaining points coincide with chosen centers
            centers[c] = cols[rng.integers(n)]
        d2 = np.minimum(d2, _sq_distances(points, centers[c][:, None], scratch))

    sq = np.einsum("ij,ij->j", points, points)
    labels = np.full(n, -1, dtype=np.int64)
    trace = []
    for _ in range(300):
        columns = np.ascontiguousarray(centers.T)
        new_labels = _nearest_centers(points, sq, columns)
        # the labels are in range; mode "clip" lets np.take write into scratch directly
        np.take(columns, new_labels, axis=1, out=scratch, mode="clip")
        assigned = _sq_distances(points, scratch, scratch)
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

    points, a p x n matrix of finite entries, holds one item per column.
    Deterministic under seed; empty clusters are re-seeded to the point
    farthest from its assigned centroid.
    """
    points = np.ascontiguousarray(_as_matrix(points))
    n = points.shape[1]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    best = None
    scratch = np.empty_like(points)
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        labels, inertia, trace = _kmeans_once(points, k, rng, scratch)
        if best is None or inertia < best[1]:
            best = (labels, inertia, trace)
    return ClusterResult(labels=best[0], inertia=best[1], inertia_trace=best[2])


def _max_matched(table: np.ndarray) -> int:
    """Largest sum of table entries over matchings of its rows to its
    columns, each used at most once, for a non-negative integer table.

    Kuhn-Munkres with potentials on the costs -table, the side with fewer
    labels as rows: each row joins the matching along a shortest augmenting
    path, each step of which is one pass over all columns. Among the columns
    the path can reach next at least cost, a free one ends it at once, which
    keeps tables of many equal counts to a few steps a row. The costs and
    potentials are integers, so every reduced cost is exact.
    """
    if table.shape[0] > table.shape[1]:
        table = table.T
    rows, cols = table.shape
    cost = np.zeros((rows, cols + 1), dtype=np.int64)  # column 0 is the search root
    cost[:, 1:] = -table
    u = np.zeros(rows, dtype=np.int64)
    v = np.zeros(cols + 1, dtype=np.int64)
    owner = np.full(cols + 1, -1, dtype=np.int64)  # the row matched to each column
    big = np.iinfo(np.int64).max
    for i in range(rows):
        owner[0], j = i, 0
        minv = np.full(cols + 1, big)  # least reduced cost from the tree to each column
        way = np.zeros(cols + 1, dtype=np.int64)  # the tree column each one is reached from
        used = np.zeros(cols + 1, dtype=bool)
        while owner[j] >= 0:  # grow the tree until it reaches a free column
            used[j] = True
            row = owner[j]
            reduced = cost[row] - u[row] - v
            closer = ~used & (reduced < minv)
            minv[closer] = reduced[closer]
            way[closer] = j
            free = np.where(used, big, minv)
            delta = free.min()
            j = int(np.argmax((free == delta) * (1 + (owner < 0))))  # a free column first
            u[owner[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
        while j:  # flip the path back to the root
            owner[j] = owner[way[j]]
            j = way[j]
    matched = np.flatnonzero(owner[1:] >= 0)
    return int(table[owner[1:][matched], matched].sum())


def clustering_error(pred, truth) -> float:
    """1 - best-assignment accuracy between two labelings.

    The predicted-to-true label matching maximizes the matched count of the
    contingency table, so the metric is invariant to relabeling either side.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError("pred and truth must be 1-d and the same length")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return 1.0 - _max_matched(table) / pred.size


def two_gaussians(n: int = 200, p: int = 40, separation: float = 10.0,
                  seed: int = 0) -> tuple:
    """Two isotropic unit-variance Gaussian clusters with the given Euclidean
    separation between their means. Returns (p x n matrix, labels)."""
    rng = np.random.default_rng(seed)
    half = n // 2
    labels = np.repeat([0, 1], [half, n - half])
    offset = separation / np.sqrt(p) / 2.0
    values = rng.standard_normal((p, n))
    values[:, :half] -= offset
    values[:, half:] += offset
    return values, labels


@dataclass(frozen=True)
class ExperimentConfig:
    """The keys of an experiment config file, with their types and defaults.
    Construction checks every key, so a bad one fails before any data loads."""

    dataset: str = "two-gaussians"  # or a matrix file, which needs labels
    format: str = "csv"  # or "binary-f64": how a matrix file dataset is read
    labels: Optional[str] = None
    n: int = 200
    p: int = 40
    separation: float = 10.0
    data_seed: int = 0
    corruption: str = "none"  # or "block" / "missing"
    fraction: float = 0.25
    corruption_seed: int = 0
    corrupt_after_standardize: bool = False
    image_height: Optional[int] = None  # both or neither; for corruption = block only
    image_width: Optional[int] = None
    knn_k: int = 10
    sigma2: AutoOrPositive = 1.0
    loss: Optional[str] = None
    gamma: Optional[Floats] = None  # sets gamma1 = gamma2 = each value in turn
    gamma1: Optional[float] = None
    gamma2: Optional[float] = None
    epsilon: Optional[float] = None
    max_iters: Optional[int] = None
    seed: int = 0
    restarts: int = 10
    rank_threshold: float = 0.01
    cluster_on: str = "u"
    output: Optional[str] = None

    def __post_init__(self):
        if self.gamma is not None and (self.gamma1 is not None or self.gamma2 is not None):
            raise ValueError("use either 'gamma' or 'gamma1'/'gamma2'")
        if (self.image_height is None) != (self.image_width is None):
            raise ValueError("set both 'image_height' and 'image_width', or neither")
        if (self.image_height is None) == (self.corruption == "block"):
            raise ValueError("'image_height' and 'image_width' give the image_dims that "
                             "corruption = block needs and no other corruption takes")
        for key, low in (("n", 1), ("p", 1), ("knn_k", 1), ("restarts", 1), ("seed", 0),
                         ("data_seed", 0), ("corruption_seed", 0), ("rank_threshold", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {self.format!r}")
        if self.cluster_on not in ("u", "w"):
            raise ValueError(f"cluster_on must be 'u' or 'w', got {self.cluster_on!r}")
        self.corruption_spec()
        self.solver_configs()

    def corruption_spec(self) -> Optional[CorruptionSpec]:
        """The corruption recipe, or None when corruption is "none"."""
        return None if self.corruption == "none" else CorruptionSpec(
            self.corruption, self.fraction, self.corruption_seed,
            None if self.image_height is None else (self.image_height, self.image_width))

    def solver_configs(self) -> List[SolverConfig]:
        """One SolverConfig per gamma of the sweep; unset keys keep its defaults."""
        keys = {f.name: getattr(self, f.name) for f in fields(SolverConfig)}
        keys = {k: v for k, v in keys.items() if v is not None}
        sweep = [{}] if self.gamma is None else [{"gamma1": g, "gamma2": g} for g in self.gamma]
        return [SolverConfig(**keys, **pair) for pair in sweep]


@dataclass(frozen=True)
class PreparedExperiment:
    """The gamma-independent part of an experiment, shared by every gamma."""

    cfg: ExperimentConfig
    Xs: np.ndarray  # p x n, corrupted and standardized
    truth: np.ndarray
    classes: int
    G1: SparseGraph  # samples
    G2: SparseGraph  # features
    corrupted_entries: Optional[int]  # None without corruption
    error_raw: float
    s_r: float
    timings_ms: dict


@contextmanager
def _stage(timings: dict, name: str):
    t0 = time.perf_counter()
    yield
    timings[name] = (time.perf_counter() - t0) * 1e3


def prepare_experiment(X: np.ndarray, truth, cfg: ExperimentConfig) -> PreparedExperiment:
    """The gamma-independent stages, run once per sweep: corrupt (after
    standardizing if cfg.corrupt_after_standardize) -> standardize -> dual
    graphs -> k-means on raw X (error_raw) -> stationarity ratio s_r of the
    feature graph. timings_ms holds one entry per stage, the first of them
    import_ms: it loads the modules that later stages would otherwise load on
    first use, so their import time does not land in those stages."""
    truth = np.asarray(truth)
    k = int(np.unique(truth).size)
    corruption = cfg.corruption_spec()
    timings = {}

    with _stage(timings, "import_ms"):
        import numpy.random  # noqa: F401
        import scipy.sparse  # noqa: F401
    with _stage(timings, "corrupt_ms"):
        if corruption is not None and not cfg.corrupt_after_standardize:
            X, mask = corrupt(X, corruption)
    with _stage(timings, "standardize_ms"):
        Xs = standardize(X)
        if corruption is not None and cfg.corrupt_after_standardize:
            Xs, mask = corrupt(Xs, corruption)
    with _stage(timings, "graphs_ms"):
        G1 = build_graph(knn_exact(Xs, cfg.knn_k), cfg.sigma2)
        G2 = build_graph(knn_exact(Xs.T, cfg.knn_k), cfg.sigma2)
    with _stage(timings, "cluster_raw_ms"):
        raw = kmeans(Xs, k, restarts=cfg.restarts, seed=cfg.seed)
        error_raw = clustering_error(raw.labels, truth)
    with _stage(timings, "s_r_ms"):
        _, P_full = partial_eigs(G2, G2.vertex_count)
        _, s_r = analysis.alignment_ratio(P_full, analysis.covariance(Xs))

    return PreparedExperiment(
        cfg=cfg, Xs=Xs, truth=truth, classes=k, G1=G1, G2=G2,
        corrupted_entries=None if corruption is None else int(mask.sum()),
        error_raw=error_raw, s_r=s_r, timings_ms=timings)


def run_gamma(prep: PreparedExperiment, solver_cfg: SolverConfig) -> dict:
    """The per-gamma stages: solve -> economic SVD and rank estimate of U ->
    k-means on U, or on the sigma-scaled principal components the rank keeps
    when cfg.cluster_on is "w". Returns the JSON-friendly record: the
    configuration echo, clustering errors, s_r, rank and this call's stage
    timings."""
    cfg = prep.cfg
    timings = {}
    with _stage(timings, "solve_ms"):
        result = fista_solve(prep.Xs, prep.G1, prep.G2, solver_cfg)
    with _stage(timings, "svd_ms"):
        _, sigma, W = analysis.economic_svd(result.U)
        rank = analysis.rank_estimate(sigma, cfg.rank_threshold)
    with _stage(timings, "cluster_ms"):
        if cfg.cluster_on == "u" or W.shape[1] == 0:
            items = result.U
        else:
            # sigma-scaled components keep each direction's energy, matching the
            # k-means geometry of U at full rank
            keep = max(rank, min(prep.classes, W.shape[1]))
            items = (W[:, :keep] * sigma[:keep]).T
        clustered = kmeans(items, prep.classes, restarts=cfg.restarts, seed=cfg.seed)
        error = clustering_error(clustered.labels, prep.truth)

    return {
        "n": prep.Xs.shape[1], "p": prep.Xs.shape[0], "classes": prep.classes,
        "corruption": None if prep.corrupted_entries is None else {
            "kind": cfg.corruption, "fraction": cfg.fraction,
            "seed": cfg.corruption_seed, "entries": prep.corrupted_entries},
        "graph": {"k": cfg.knn_k, "sigma2": cfg.sigma2},
        "solver": asdict(solver_cfg),
        "seed": cfg.seed,
        "cluster_on": cfg.cluster_on,
        "error": error,
        "error_raw": prep.error_raw,
        "s_r": prep.s_r,
        "rank": rank,
        "iterations": result.iterations,
        "converged": result.converged,
        "timings_ms": timings,
    }
