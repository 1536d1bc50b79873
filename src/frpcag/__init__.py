"""Robust low-rank recovery with dual graph regularization.

Names are resolved on first use (PEP 562), so `import frpcag` loads neither
numpy nor scipy; each module is imported when one of its names is asked for.
"""

import importlib

_EXPORTS = {
    "analysis": ("BoundReport", "LowRankOnGraphs", "alignment_ratio", "check_recovery_bound",
                 "covariance", "economic_svd", "make_lowrank_on_graphs", "rank_estimate",
                 "recovery_gammas"),
    "evalcluster": ("ClusterResult", "ExperimentConfig", "clustering_error",
                    "experiment_records", "kmeans", "two_gaussians"),
    "frames": ("separate_background", "synthetic_sequence"),
    "graph": ("SparseGraph", "build_graph", "knn_exact", "load_graph_coo", "partial_eigs",
              "save_graph_coo"),
    "matrixio": ("CorruptionSpec", "corrupt", "load_matrix", "save_matrix", "standardize"),
    "solver": ("LowRankResult", "SolverConfig", "fista_solve", "gradient_smooth", "objective",
               "prox_fidelity"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("config", *_EXPORTS)

__version__ = "0.1.0"

__all__ = sorted([*_SUBMODULES, *_HOME])


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
