"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.
"""

import dataclasses
import os
import time

import numpy as np
import pytest
from scipy.linalg import eigh

import frpcag as fp
from frpcag.analysis import check_recovery_bound, recovery_gammas
from frpcag.solver import LowRankResult, SolverConfig
from oracles import alignment_energy, dense_laplacian, sequential_prox, sylvester_solve


def report(num, desc, passed, detail=""):
    print(f"\n[criterion {num:>2}] {'PASS' if passed else 'FAIL'} - {desc}{detail}")
    assert passed, f"criterion {num}: {desc}{detail}"


def clustered_graph(nv, nc, spread, seed, k=5, dim=6):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-10, 10, size=(dim, nc))
    pts = centers[:, np.arange(nv) % nc] + spread * rng.standard_normal((dim, nv))
    return fp.build_graph(fp.knn_exact(pts, min(k, nv - 1)), "auto")


def random_instance(rng, p, n, k=5):
    pts = rng.standard_normal((p, n))
    G1 = fp.build_graph(fp.knn_exact(pts, min(k, n - 1)), "auto")
    G2 = fp.build_graph(fp.knn_exact(pts.T, min(k, p - 1)), "auto")
    return rng.standard_normal((p, n)), G1, G2


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        p, n = int(rng.integers(20, 81)), int(rng.integers(20, 81))
        g1 = float(rng.choice([1.0, 10.0, 100.0]))
        g2 = float(rng.choice([1.0, 10.0, 100.0]))
        X, G1, G2 = random_instance(rng, p, n)
        Ustar = sylvester_solve(X, G1, G2, g1, g2)
        cfg = SolverConfig(loss="frobenius_sq", gamma1=g1, gamma2=g2,
                           epsilon=1e-24, max_iters=30000)
        res = fp.fista_solve(X, G1, G2, cfg)
        worst = max(worst, np.linalg.norm(res.U - Ustar) / np.linalg.norm(Ustar))
    elapsed = time.perf_counter() - t0
    report(1, "fista (frobenius) vs sylvester oracle, 20 instances",
           worst <= 1e-6 and elapsed <= 30.0,
           f" (worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_gradient_finite_differences():
    h = 1e-6
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        p, n = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        X, G1, G2 = random_instance(rng, p, n, k=2)
        g1, g2 = rng.uniform(0.1, 5.0, size=2)
        U = rng.standard_normal((p, n))
        grad = fp.gradient_smooth(U, G1, G2, g1, g2)
        L1 = dense_laplacian(G1)
        L2 = dense_laplacian(G2)

        def g(M):
            return g1 * np.trace(M @ L1 @ M.T) + g2 * np.trace(M.T @ L2 @ M)

        for i in range(p):
            for j in range(n):
                E = np.zeros((p, n))
                E[i, j] = h
                fd = (g(U + E) - g(U - E)) / (2 * h)
                worst = max(worst, abs(fd - grad[i, j]) / max(1.0, abs(grad[i, j])))
    report(2, "gradient vs central finite differences, 20 draws",
           worst < 1e-5, f" (worst rel err {worst:.2e})")


def test_criterion_03_prox_identities():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((5, 7))
    fixed = max(np.abs(fp.prox_fidelity(X, X, 0.7, loss) - X).max()
                for loss in ("l1", "frobenius_sq"))
    soft = fp.prox_fidelity(np.array([[2.0, -0.5]]), np.zeros((1, 2)), 1.0, "l1")
    offset = fp.prox_fidelity(np.array([[3.0]]), np.array([[1.0]]), 1.0, "l1")
    ok = (fixed <= 1e-12
          and abs(soft[0, 0] - 1.0) <= 1e-12 and abs(soft[0, 1]) <= 1e-12
          and abs(offset[0, 0] - 2.0) <= 1e-12)
    report(3, "soft-threshold prox closed-form identities", ok,
           f" (fixed-point dev {fixed:.1e})")


def test_criterion_04_recovery_bound_trials():
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    held = 0
    tightness = []
    for trial in range(50):
        n, p = int(rng.integers(20, 61)), int(rng.integers(20, 61))
        k1, k2 = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        spread = float(rng.uniform(0.2, 1.2))
        G1 = clustered_graph(n, k1, spread, seed=1000 + trial)
        G2 = clustered_graph(p, k2, spread, seed=2000 + trial)
        low = fp.make_lowrank_on_graphs(G1, G2, k1, k2, coeff_scale=1.0, seed=trial)
        E = np.zeros((p, n))
        support = rng.random((p, n)) < 0.05
        E[support] = rng.uniform(-1, 1, support.sum())
        gamma = float(rng.uniform(0.2, 5.0))
        g1, g2 = recovery_gammas(G1, G2, k1, k2, gamma)
        X = low.Xstar + E
        if trial % 2 == 0:
            cfg = SolverConfig(loss="l1", gamma1=g1, gamma2=g2,
                               epsilon=1e-14, max_iters=4000)
            out = fp.fista_solve(X, G1, G2, cfg)
        else:  # frobenius loss admits the exact closed-form solution
            cfg = SolverConfig(loss="frobenius_sq", gamma1=g1, gamma2=g2)
            U = sylvester_solve(X, G1, G2, g1, g2)
            out = LowRankResult(U=U, objective_trace=[0.0], iterations=1,
                                converged=True)
        rep = check_recovery_bound(low, E, gamma, out, cfg, G1, G2)
        held += rep.holds
        if rep.rhs > 0:
            tightness.append(rep.lhs / rep.rhs)

    # zero-eigengap numerator: component graphs, no noise
    Gc1 = clustered_graph(24, 3, 0.001, seed=7, k=2)
    Gc2 = clustered_graph(14, 2, 0.001, seed=8, k=2)
    lam = eigh(dense_laplacian(Gc1), eigvals_only=True)
    om = eigh(dense_laplacian(Gc2), eigvals_only=True)
    assert lam[2] < 1e-10 and om[1] < 1e-10  # 3 and 2 components
    low0 = fp.make_lowrank_on_graphs(Gc1, Gc2, 3, 2, seed=9)
    g1, g2 = recovery_gammas(Gc1, Gc2, 3, 2, 1.0)
    cfg0 = SolverConfig(loss="l1", gamma1=g1, gamma2=g2, epsilon=1e-14,
                        max_iters=2000)
    out0 = fp.fista_solve(low0.Xstar, Gc1, Gc2, cfg0)
    rep0 = check_recovery_bound(low0, np.zeros((14, 24)), 1.0, out0, cfg0, Gc1, Gc2)
    elapsed = time.perf_counter() - t0
    report(4, "recovery bound holds on 50 synthetic trials + zero-gap case",
           held == 50 and rep0.lhs <= 1e-8 and elapsed <= 60.0,
           f" ({held}/50, zero-gap lhs {rep0.lhs:.1e}, max lhs/rhs "
           f"{max(tightness):.3f}, {elapsed:.1f}s)")


def test_criterion_05_singular_value_attenuation():
    rng = np.random.default_rng(5)
    X, G1, G2 = random_instance(rng, 12, 16)
    lam, Q = eigh(dense_laplacian(G1))
    om, P = eigh(dense_laplacian(G2))
    s = np.array([10.0, 7.0, 5.0, 3.0, 2.0, 1.0])
    Xa = P[:, :6] @ np.diag(s) @ Q[:, :6].T
    g1, g2 = 2.0, 4.0
    out = sequential_prox(Xa, G1, G2, g1, g2)
    expected = np.sort(s / ((1 + g1 * lam[:6]) * (1 + g2 * om[:6])))[::-1]
    got = np.linalg.svd(out, compute_uv=False)[:6]
    dev = np.abs(got - expected).max()
    report(5, "sequential prox attenuates aligned singular values",
           dev <= 1e-8, f" (max dev {dev:.2e})")


def test_criterion_06_alignment_energy_identity():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        p, n = int(rng.integers(4, 12)), int(rng.integers(4, 12))
        _, G1, G2 = random_instance(rng, p, n, k=3)
        g1, g2 = rng.uniform(0.1, 4.0, size=2)
        U = rng.standard_normal((p, n))
        energy = alignment_energy(fp.economic_svd(U), fp.partial_eigs(G1, n),
                                  fp.partial_eigs(G2, p), g1, g2)
        trace_form = (g1 * np.trace(U @ dense_laplacian(G1) @ U.T)
                      + g2 * np.trace(U.T @ dense_laplacian(G2) @ U))
        worst = max(worst, abs(energy - trace_form) / max(abs(trace_form), 1e-300))
    report(6, "Laplacian-basis energy equals the trace form, 20 draws",
           worst <= 1e-8, f" (worst rel dev {worst:.2e})")


def test_criterion_07_laplacian_spectrum():
    lo, hi = np.inf, -np.inf
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(8, 51))
        k = int(rng.integers(1, min(7, n)))
        pts = rng.standard_normal((int(rng.integers(2, 8)), n))
        sigma2 = "auto" if seed % 2 else 1.0
        g = fp.build_graph(fp.knn_exact(pts, k), sigma2)
        vals = eigh(dense_laplacian(g), eigvals_only=True)
        lo, hi = min(lo, vals.min()), max(hi, vals.max())
    report(7, "normalized Laplacian spectra stay inside [0, 2], 20 graphs",
           lo >= -1e-10 and hi <= 2.0 + 1e-10,
           f" (range [{lo:.2e}, {hi:.10f}])")


def test_criterion_08_rank_monotone_in_gamma():
    X, _ = fp.two_gaussians(n=120, p=30, separation=10.0, seed=0)
    Xs = fp.standardize(X)
    G1 = fp.build_graph(fp.knn_exact(Xs, 10), "auto")
    G2 = fp.build_graph(fp.knn_exact(Xs.T, 10), "auto")
    ranks = []
    for g in (1.0, 10.0, 30.0):
        cfg = SolverConfig(loss="l1", gamma1=g, gamma2=g, epsilon=1e-8,
                           max_iters=800)
        res = fp.fista_solve(Xs, G1, G2, cfg)
        ranks.append(fp.rank_estimate(fp.economic_svd(res.U)[1], 0.01))
    report(8, "rank estimate non-increasing over gamma sweep {1, 10, 30}",
           ranks[0] >= ranks[1] >= ranks[2], f" (ranks {ranks})")


def test_criterion_09_clustering_robustness():
    ok = True
    details = []
    for seed in range(5):
        X, labels = fp.two_gaussians(n=200, p=40, separation=10.0, seed=seed)
        clean_cfg = fp.ExperimentConfig(knn_k=10, sigma2="auto", seed=seed, loss="l1",
                                        gamma1=3.0, gamma2=3.0, epsilon=1e-8, max_iters=500)
        corrupt_cfg = dataclasses.replace(clean_cfg, corruption="missing", fraction=0.25,
                                          corruption_seed=seed)
        (corrupted,) = fp.experiment_records(X, labels, corrupt_cfg)
        (clean,) = fp.experiment_records(X, labels, clean_cfg)
        ok &= corrupted["error"] <= corrupted["error_raw"] and clean["error"] == 0.0
        details.append(f"{corrupted['error']:.2f}<={corrupted['error_raw']:.2f}")
    report(9, "25% missing: solver error <= raw k-means, clean error 0, 5 seeds",
           ok, " (" + " ".join(details) + ")")


def test_criterion_10_background_separation():
    t0 = time.perf_counter()
    frames, background, mask = fp.synthetic_sequence(count=100, h=32, w=32,
                                                     square=6, seed=0)
    bg, fg, result = fp.separate_background(frames, SolverConfig(epsilon=1e-8), K=10)
    never = ~mask.any(axis=0)
    mae = np.abs(bg[:, never] - background[never][None]).mean()
    S = frames - result.U.T.reshape(100, 32, 32)
    frac = (S[mask] ** 2).sum() / (S ** 2).sum()
    elapsed = time.perf_counter() - t0
    report(10, "synthetic video: background MAE and sparse-energy focus",
           mae <= 0.02 and frac >= 0.9 and elapsed <= 60.0,
           f" (MAE {mae:.4f}, energy frac {frac:.3f}, {elapsed:.1f}s)")

    # at gamma1 = 100 the square leaves the background: the occluded pixels,
    # at error 0.496 in the input, come close to the true background
    bg, _, _ = fp.separate_background(frames, SolverConfig(gamma1=100.0, epsilon=1e-8), K=10)
    truth = np.broadcast_to(background, bg.shape)
    occluded = np.abs(bg[mask] - truth[mask]).mean()
    clear = np.abs(bg[:, never] - background[never][None]).mean()
    report(10, "synthetic video at gamma1=100: occluded and never-occluded error",
           occluded <= 0.1 and clear <= 0.02,
           f" (occluded {occluded:.4f}, never occluded {clear:.4f})")


def test_criterion_11_per_iteration_scaling():
    # median of 5 timed solves per size, the sizes alternating, so that one
    # slow moment on a shared machine does not decide the ratio
    cfg = SolverConfig(loss="l1", gamma1=2.0, gamma2=2.0, epsilon=1e-300, max_iters=30)
    problems = {}
    for n in (2000, 4000):
        X = np.random.default_rng(0).standard_normal((100, n))
        problems[n] = (X, fp.build_graph(fp.knn_exact(X, 10), "auto"),
                       fp.build_graph(fp.knn_exact(X.T, 10), "auto"))
    per_iter = {n: [] for n in problems}
    for _ in range(5):
        for n, (X, G1, G2) in problems.items():
            t0 = time.perf_counter()
            res = fp.fista_solve(X, G1, G2, cfg)
            per_iter[n].append((time.perf_counter() - t0) / 30)
            assert res.iterations == 30

    ratio = np.median(per_iter[4000]) / np.median(per_iter[2000])
    report(11, "per-iteration time: doubling n costs at most 3x",
           ratio <= 3.0, f" (ratio {ratio:.2f})")


def _load_usps(path):
    """CSV with one sample per row: label, then 256 pixel values."""
    raw = np.loadtxt(path, delimiter=",")
    return raw[:, 1:].T, raw[:, 0].astype(int)


@pytest.mark.skipif("FRPCAG_USPS" not in os.environ,
                    reason="set FRPCAG_USPS to the USPS csv to enable")
def test_criterion_12_usps_stationarity_ratios():
    X, labels = _load_usps(os.environ["FRPCAG_USPS"])

    def feature_ratio(values):
        G2 = fp.build_graph(fp.knn_exact(values.T, 10), "auto")
        _, P = fp.partial_eigs(G2, G2.vertex_count)
        _, s_r = fp.alignment_ratio(P, fp.covariance(values))
        return s_r

    s3 = feature_ratio(X[:, labels == 3])
    s_full = feature_ratio(X)
    report(12, "USPS stationarity ratios (digit 3 and full set)",
           abs(s3 - 0.97) <= 0.05 and abs(s_full - 0.82) <= 0.05,
           f" (s_r(digit 3) {s3:.3f}, s_r(full) {s_full:.3f})")
