"""Command-line front end: frpcag graph | solve | background | experiment.

Exit codes: 0 success, 1 io/parse, 2 usage or config, 3 solver divergence,
4 inconsistent data.
"""

import argparse
import dataclasses
import json
import os
import sys
from typing import List, Optional

import numpy as np

from . import graph as g
from .config import AutoOrPositive, ConfigError, Floats, auto_or_positive, parse_keyvalue
from .evalcluster import GraphConfig, prepare_experiment, run_gamma, two_gaussians
from .frames import (FrameDimensionError, FrameFormatError, load_frames, save_frames,
                     separate_background)
from .matrixio import CorruptionSpec, DataMatrix, MatrixFormatError, load_matrix, save_matrix
from .solver import DivergedError, SolverConfig, fista_solve, save_trace_csv

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_DATA = 4


def cmd_graph(args) -> int:
    X = load_matrix(args.input, args.format)
    points = X.values if args.axis == "samples" else X.values.T
    n = points.shape[1]
    if args.k >= n:
        print(f"error: K={args.k} must be smaller than the number of "
              f"{args.axis} ({n})", file=sys.stderr)
        return EXIT_USAGE
    nbrs = g.knn_exact(points, args.k)
    sigma2 = g.resolve_sigma2(nbrs, args.sigma2)
    built = g.build_graph(nbrs, sigma2)
    g.save_graph_coo(built, args.output)
    print(f"vertices={built.vertex_count} edges={built.adjacency.nnz // 2} "
          f"sigma2={sigma2:.17g}")
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = parse_keyvalue(args.config, SolverConfig) if args.config else SolverConfig()
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(SolverConfig)}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})

    X = load_matrix(args.input, args.format)
    F1 = g.read_graph_coo(args.graph1)
    F2 = g.read_graph_coo(args.graph2)
    # sizes are checked before a Laplacian is allocated for them
    if F1.vertex_count != X.sample_count or F2.vertex_count != X.feature_count:
        print(f"error: graphs are {F1.vertex_count}/{F2.vertex_count} vertices but the "
              f"matrix is {X.feature_count} x {X.sample_count}", file=sys.stderr)
        return EXIT_USAGE
    result = fista_solve(X, F1.to_graph(), F2.to_graph(), cfg)
    save_matrix(args.output_u, DataMatrix(result.U.values), fmt="binary-f64")
    if args.output_trace:
        save_trace_csv(result.objective_trace, args.output_trace)
    print(f"iterations={result.iterations} objective={result.objective_trace[-1]:.17g} "
          f"converged={str(result.converged).lower()}")
    return EXIT_OK


def cmd_background(args) -> int:
    seq, names = load_frames(args.frames_dir)
    background, foreground, result = separate_background(
        seq, K=args.k, gamma1=args.gamma1, gamma2=args.gamma2,
        sigma2=args.sigma2, epsilon=args.epsilon, max_iters=args.max_iters)
    os.makedirs(args.out_dir, exist_ok=True)
    save_frames(args.out_dir, background, [f"bg_{n}" for n in names])
    save_frames(args.out_dir, foreground, [f"fg_{n}" for n in names])
    h, w = seq.shape
    print(f"frames={seq.count} size={w}x{h} iterations={result.iterations} "
          f"converged={str(result.converged).lower()}")
    return EXIT_OK


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """The keys of an experiment config file, with their types and defaults."""

    dataset: str = "two-gaussians"  # or a matrix file, which needs labels
    format: str = "csv"
    labels: Optional[str] = None
    n: int = 200
    p: int = 40
    separation: float = 10.0
    data_seed: int = 0
    corruption: str = "none"
    fraction: float = 0.25
    corruption_seed: int = 0
    corrupt_after_standardize: bool = False
    image_height: Optional[int] = None
    image_width: Optional[int] = None
    knn_k: int = 10
    sigma2: AutoOrPositive = 1.0
    loss: str = "l1"
    gamma: Optional[Floats] = None  # sets gamma1 = gamma2 = each value in turn
    gamma1: Optional[float] = None  # 1.0 when unset
    gamma2: Optional[float] = None  # 1.0 when unset
    epsilon: float = 1e-6
    max_iters: int = 1000
    step: AutoOrPositive = "auto"
    seed: int = 0
    restarts: int = 10
    rank_threshold: float = 0.01
    cluster_on: str = "u"
    output: Optional[str] = None

    def __post_init__(self):
        if self.gamma is not None and (self.gamma1 is not None or self.gamma2 is not None):
            raise ValueError("use either 'gamma' or 'gamma1'/'gamma2'")
        self.solver_configs()  # checks the solver settings before any work

    def solver_configs(self) -> List[SolverConfig]:
        """One solver config per gamma of the sweep."""
        if self.gamma is not None:
            pairs = [(gamma, gamma) for gamma in self.gamma]
        else:
            pairs = [(1.0 if self.gamma1 is None else self.gamma1,
                      1.0 if self.gamma2 is None else self.gamma2)]
        return [SolverConfig(loss=self.loss, gamma1=g1, gamma2=g2, step=self.step,
                             epsilon=self.epsilon, max_iters=self.max_iters)
                for g1, g2 in pairs]


def _experiment_data(cfg: ExperimentConfig, source):
    if cfg.dataset == "two-gaussians":
        return two_gaussians(n=cfg.n, p=cfg.p, separation=cfg.separation,
                             seed=cfg.data_seed)
    if cfg.labels is None:
        raise ConfigError(f"{source}: file datasets need a 'labels' path")
    X = load_matrix(cfg.dataset, cfg.format)
    if cfg.image_height is not None and cfg.image_width is not None:
        X = DataMatrix(X.values, image_dims=(cfg.image_height, cfg.image_width))
    labels = np.loadtxt(cfg.labels, dtype=np.int64, ndmin=1)
    if labels.size != X.sample_count:
        raise ConfigError(f"{source}: {labels.size} labels for {X.sample_count} samples")
    return X, labels


def cmd_experiment(args) -> int:
    cfg = parse_keyvalue(args.config, ExperimentConfig)
    X, labels = _experiment_data(cfg, args.config)
    corruption = None if cfg.corruption == "none" else CorruptionSpec(
        kind=cfg.corruption, fraction=cfg.fraction, seed=cfg.corruption_seed)
    graph_cfg = GraphConfig(k=cfg.knn_k, sigma2=cfg.sigma2)
    prepared = prepare_experiment(
        X, labels, corruption, graph_cfg, seed=cfg.seed, restarts=cfg.restarts,
        rank_threshold=cfg.rank_threshold, cluster_on=cfg.cluster_on,
        corrupt_after_standardize=cfg.corrupt_after_standardize)

    records = []
    with open(cfg.output if cfg.output is not None else os.devnull, "w") as out:
        for solver_cfg in cfg.solver_configs():
            record = run_gamma(prepared, solver_cfg)
            if not records:  # the prepare stages ran once, for the whole sweep
                record["timings_ms"] = {**prepared.timings_ms, **record["timings_ms"]}
            line = json.dumps(record)
            print(line)
            out.write(line + "\n")
            records.append(record)

    print(f"{'gamma1':>8} {'gamma2':>8} {'error':>7} {'raw':>7} {'rank':>5} "
          f"{'s_r':>6} {'iters':>6}")
    for r in records:
        print(f"{r['solver']['gamma1']:>8g} {r['solver']['gamma2']:>8g} "
              f"{r['error']:>7.3f} {r['error_raw']:>7.3f} {r['rank']:>5d} "
              f"{r['s_r']:>6.3f} {r['iterations']:>6d}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frpcag",
        description="Robust low-rank recovery with dual graph regularization.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="build a K-NN graph and write COO triplets")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["csv", "binary-f64"], default="csv")
    p.add_argument("--axis", choices=["samples", "features"], default="samples")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--sigma2", type=auto_or_positive, default=1.0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("solve", help="run the dual-graph solver on a matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["csv", "binary-f64"], default="csv")
    p.add_argument("--graph1", required=True, help="sample graph (n x n) COO file")
    p.add_argument("--graph2", required=True, help="feature graph (p x p) COO file")
    p.add_argument("--config", help="key = value solver config; flags override it")
    p.add_argument("--gamma1", type=float)
    p.add_argument("--gamma2", type=float)
    p.add_argument("--loss", choices=["l1", "frobenius_sq"])
    p.add_argument("--step", type=auto_or_positive, metavar="STEP")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--output-u", required=True, help="recovered U (binary-f64)")
    p.add_argument("--output-trace", help="objective trace CSV")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("background", help="separate static background from PGM frames")
    p.add_argument("--frames-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--gamma1", type=float, default=1.0)
    p.add_argument("--gamma2", type=float, default=1.0)
    p.add_argument("--sigma2", type=auto_or_positive, default="auto")
    p.add_argument("--epsilon", type=float, default=1e-8)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=1000)
    p.set_defaults(func=cmd_background)

    p = sub.add_parser("experiment", help="run the clustering experiment pipeline")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MatrixFormatError, g.GraphFormatError, FrameFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DivergedError as exc:
        print(f"error: solver diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except FrameDimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
