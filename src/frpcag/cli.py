"""Command-line front end: frpcag graph | solve | background | experiment.

Exit codes: 0 success, 1 io/parse, 2 usage, config or a size too large for
memory, 4 inconsistent data; 3, once solver divergence, is retired.

Each command imports the modules it runs when it runs, so `--help` and the
argument checks load neither numpy nor scipy, and no command imports scipy:
`graph` loads numpy alone; solve, background and experiment load numpy and
scipy's compiled CSR kernel, from its file (graph._sparsetools).
"""

import argparse
import dataclasses
import json
import os
import sys

from .config import FORMATS, LOSSES, ConfigError, auto_or_positive, number_type, parse_keyvalue

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_DATA = 4


def _add_solver_flags(p) -> None:
    """The solver flags that solve and background share; each defaults to unset."""
    p.add_argument("--gamma1", type=number_type(float))
    p.add_argument("--gamma2", type=number_type(float))
    p.add_argument("--epsilon", type=number_type(float))
    p.add_argument("--max-iters", dest="max_iters", type=number_type(int))


def _solver_config(args, base):
    """base, a SolverConfig, with each solver flag that was given laid over it."""
    given = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(base)}
    return dataclasses.replace(base, **{k: v for k, v in given.items() if v is not None})


def cmd_graph(args) -> int:
    from .graph import build_graph, knn_exact, resolve_sigma2, save_graph_coo
    from .matrixio import load_matrix

    X = load_matrix(args.input, args.format)
    points = X if args.axis == "samples" else X.T
    nbrs = knn_exact(points, args.k)
    sigma2 = resolve_sigma2(nbrs, args.sigma2)
    built = build_graph(nbrs, sigma2)
    save_graph_coo(built, args.output)
    print(f"vertices={built.vertex_count} edges={built.data.size // 2} "
          f"sigma2={sigma2:.17g}")
    return EXIT_OK


def cmd_solve(args) -> int:
    from .graph import load_graph_coo
    from .matrixio import load_matrix, save_matrix
    from .solver import SolverConfig, fista_solve, save_trace_csv

    cfg = _solver_config(args, SolverConfig())

    X = load_matrix(args.input, args.format)
    G1 = load_graph_coo(args.graph1, X.shape[1])
    G2 = load_graph_coo(args.graph2, X.shape[0])
    result = fista_solve(X, G1, G2, cfg)
    save_matrix(args.output_u, result.U, fmt="binary-f64")
    if args.output_trace:
        save_trace_csv(result.objective_trace, args.output_trace)
    print(f"iterations={result.iterations} objective={result.objective_trace[-1]:.17g} "
          f"converged={str(result.converged).lower()}")
    return EXIT_OK


def cmd_background(args) -> int:
    from .frames import load_frames, save_frames, separate_background
    from .solver import SolverConfig

    cfg = _solver_config(args, SolverConfig(epsilon=1e-8))
    frames, names = load_frames(args.frames_dir)
    background, foreground, result = separate_background(frames, cfg, K=args.k,
                                                         sigma2=args.sigma2)
    os.makedirs(args.out_dir, exist_ok=True)
    save_frames(args.out_dir, background, [f"bg_{n}" for n in names])
    save_frames(args.out_dir, foreground, [f"fg_{n}" for n in names])
    T, h, w = frames.shape
    print(f"frames={T} size={w}x{h} iterations={result.iterations} "
          f"converged={str(result.converged).lower()}")
    return EXIT_OK


def _experiment_data(cfg, source):
    from .evalcluster import two_gaussians
    from .matrixio import load_labels, load_matrix

    if cfg.dataset == "two-gaussians":
        if cfg.labels is not None:
            raise ConfigError(f"{source}: labels = {cfg.labels}: only file datasets take "
                              "a 'labels' path")
        return two_gaussians(n=cfg.n, p=cfg.p, separation=cfg.separation, seed=cfg.data_seed)
    if cfg.labels is None:
        raise ConfigError(f"{source}: file datasets need a 'labels' path")
    return load_matrix(cfg.dataset, cfg.format), load_labels(cfg.labels)


def cmd_experiment(args) -> int:
    from .evalcluster import ExperimentConfig, experiment_records

    cfg = parse_keyvalue(args.config, ExperimentConfig)
    X, labels = _experiment_data(cfg, args.config)
    # the gamma-independent stages run here, so their failure leaves no output file
    sweep = experiment_records(X, labels, cfg)

    records = []
    with open(cfg.output if cfg.output is not None else os.devnull, "w") as out:
        for record in sweep:
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
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.add_argument("--axis", choices=["samples", "features"], default="samples")
    p.add_argument("--k", type=number_type(int), default=10)
    p.add_argument("--sigma2", type=auto_or_positive, default=1.0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("solve", help="run the dual-graph solver on a matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.add_argument("--graph1", required=True, help="sample graph (n x n) COO file")
    p.add_argument("--graph2", required=True, help="feature graph (p x p) COO file")
    _add_solver_flags(p)
    p.add_argument("--loss", choices=LOSSES)
    p.add_argument("--output-u", required=True, help="recovered U (binary-f64)")
    p.add_argument("--output-trace", help="objective trace CSV")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("background", help="separate static background from PGM frames")
    p.add_argument("--frames-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--k", type=number_type(int), default=10)
    p.add_argument("--sigma2", type=auto_or_positive, default="auto")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_background)

    p = sub.add_parser("experiment", help="run the clustering experiment pipeline")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the errors any command may raise; their modules need only numpy, which
    # every command loads anyway
    from .frames import FrameDimensionError, FrameFormatError
    from .graph import GraphFormatError, GraphSizeError
    from .matrixio import MatrixFormatError

    try:
        return args.func(args)
    except GraphSizeError as exc:  # a size mismatch is a usage error, not a bad file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MatrixFormatError, GraphFormatError, FrameFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # a requested size no machine can hold
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FrameDimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
