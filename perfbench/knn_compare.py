"""Time knn_exact against knn_approx on the `solve` workload's sample points.

    python3 perfbench/knn_compare.py [--seed 1] [--repeats 3]

Run it from the root of a source checkout. Both searches run in this
process with one BLAS thread on the p=100, n=4000 sample points that the
`solve` workload generates for the seed; the script prints the median time
of each and the recall of the approximate lists against the exact ones.
"""

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from workloads import KNN_K, _solve_matrix  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
from frpcag.graph import knn_approx, knn_exact  # noqa: E402


def timed(fn, repeats):
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), times, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    _, X = _solve_matrix(np.random.default_rng([args.seed, 2]))

    exact_s, exact_runs, exact = timed(lambda: knn_exact(X, KNN_K), args.repeats)
    approx_s, approx_runs, approx = timed(lambda: knn_approx(X, KNN_K, 0.9, seed=0),
                                          args.repeats)
    hits = sum(np.intersect1d(a, e).size for a, e in zip(approx.indices, exact.indices))
    recall = hits / exact.indices.size
    print(f"points: p={X.shape[0]} n={X.shape[1]} K={KNN_K} seed={args.seed}")
    print(f"knn_exact  median {exact_s:.3f} s  runs " + " ".join(f"{t:.3f}" for t in exact_runs))
    print(f"knn_approx median {approx_s:.3f} s  runs " + " ".join(f"{t:.3f}" for t in approx_runs)
          + f"  recall {recall:.4f} (target 0.9)")
    print(f"approx / exact time: {approx_s / exact_s:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
