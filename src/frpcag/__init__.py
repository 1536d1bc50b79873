"""Robust low-rank recovery with dual graph regularization."""

from .analysis import (BoundReport, LowRankOnGraphs, SvdTriplet, alignment_energy,
                       alignment_ratio, check_recovery_bound, covariance,
                       economic_svd, make_lowrank_on_graphs, rank_estimate,
                       shape_interaction, recovery_gammas)
from .evalcluster import (ClusterResult, GraphConfig, PreparedExperiment,
                          clustering_error, kmeans, prepare_experiment, run_gamma,
                          two_gaussians)
from .frames import FrameSequence, separate_background, synthetic_sequence
from .graph import (GraphEigs, GraphFile, NeighborList, SparseGraph, build_graph,
                    knn_exact, load_graph_coo, partial_eigs, read_graph_coo,
                    save_graph_coo, spectral_norm)
from .matrixio import (CorruptionSpec, DataMatrix, corrupt, load_matrix,
                       save_matrix, standardize)
from .solver import (DivergedError, LowRankResult, SolverConfig, fista_solve,
                     gradient_smooth, objective, prox_fidelity, sequential_prox,
                     sylvester_solve)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
