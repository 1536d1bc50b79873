import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frpcag.config import ConfigError, parse_keyvalue_text
from frpcag.graph import build_graph, knn_exact
from frpcag.matrixio import DataMatrix
from frpcag.solver import (LOSSES, DivergedError, SolverConfig, auto_step, fista_solve,
                           gradient_smooth, objective, prox_fidelity,
                           sequential_prox, sylvester_solve)


def make_instance(p, n, k=4, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((p, n))
    G1 = build_graph(knn_exact(pts, min(k, n - 1)), "auto")
    G2 = build_graph(knn_exact(pts.T, min(k, p - 1)), "auto")
    X = rng.standard_normal((p, n))
    return X, G1, G2


def chain_instance():
    """3-vertex path graph on both sides."""
    pts = np.array([[0.0, 1.0, 2.0]])
    G = build_graph(knn_exact(pts, 1), 1.0)
    return G


def smooth_part(U, G1, G2, g1, g2):
    """Dense oracle for the Tikhonov terms."""
    L1 = G1.laplacian.toarray()
    L2 = G2.laplacian.toarray()
    return g1 * np.trace(U @ L1 @ U.T) + g2 * np.trace(U.T @ L2 @ U)


def test_objective_at_x():
    X, G1, G2 = make_instance(6, 9, seed=1)
    cfg = SolverConfig(loss="l1", gamma1=2.0, gamma2=3.0)
    val = objective(X, X, G1, G2, cfg)
    assert abs(val - smooth_part(X, G1, G2, 2.0, 3.0)) < 1e-10


def test_objective_at_zero():
    X, G1, G2 = make_instance(5, 7, seed=2)
    cfg = SolverConfig(loss="l1", gamma1=1.0, gamma2=1.0)
    assert abs(objective(np.zeros_like(X), X, G1, G2, cfg) - np.abs(X).sum()) < 1e-10
    cfg_f = SolverConfig(loss="frobenius_sq", gamma1=1.0, gamma2=1.0)
    assert abs(objective(np.zeros_like(X), X, G1, G2, cfg_f) - (X ** 2).sum()) < 1e-10


def test_objective_dense_oracle():
    X, G1, G2 = make_instance(4, 5, seed=3)
    rng = np.random.default_rng(4)
    U = rng.standard_normal((4, 5))
    cfg = SolverConfig(loss="l1", gamma1=1.7, gamma2=0.3)
    expected = np.abs(U - X).sum() + smooth_part(U, G1, G2, 1.7, 0.3)
    assert abs(objective(U, X, G1, G2, cfg) - expected) < 1e-10


def test_objective_dimension_mismatch():
    X, G1, G2 = make_instance(5, 7, seed=5)
    cfg = SolverConfig()
    with pytest.raises(ValueError):
        objective(X.T, X.T, G1, G2, cfg)


def test_gradient_trivial_cases():
    X, G1, G2 = make_instance(5, 6, seed=6)
    assert np.all(gradient_smooth(np.zeros_like(X), G1, G2, 2.0, 5.0) == 0)
    assert np.all(gradient_smooth(X, G1, G2, 0.0, 0.0) == 0)


def test_gradient_finite_difference_oracle():
    h = 1e-6
    for seed in range(20):
        rng = np.random.default_rng(seed)
        p, n = rng.integers(3, 8, size=2)
        X, G1, G2 = make_instance(p, n, k=2, seed=seed)
        g1, g2 = rng.uniform(0.1, 3.0, size=2)
        U = rng.standard_normal((p, n))
        grad = gradient_smooth(U, G1, G2, g1, g2)
        for _ in range(5):
            i, j = rng.integers(0, p), rng.integers(0, n)
            E = np.zeros((p, n))
            E[i, j] = h
            fd = (smooth_part(U + E, G1, G2, g1, g2)
                  - smooth_part(U - E, G1, G2, g1, g2)) / (2 * h)
            assert abs(fd - grad[i, j]) / max(1.0, abs(grad[i, j])) < 1e-5


def test_prox_fixed_point():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((4, 6))
    for loss in ("l1", "frobenius_sq"):
        assert np.abs(prox_fidelity(X, X, 0.7, loss) - X).max() < 1e-12


def test_prox_soft_threshold_values():
    X = np.zeros((1, 2))
    U = np.array([[2.0, -0.5]])
    out = prox_fidelity(U, X, 1.0, "l1")
    assert out[0, 0] == 1.0 and out[0, 1] == 0.0
    out2 = prox_fidelity(np.array([[3.0]]), np.array([[1.0]]), 1.0, "l1")
    assert out2[0, 0] == 2.0


def test_prox_frobenius_formula():
    rng = np.random.default_rng(8)
    U, X = rng.standard_normal((2, 5, 4))
    lam = 0.9
    out = prox_fidelity(U, X, lam, "frobenius_sq")
    # stationarity of 0.5||V-U||^2 + lam*||V-X||^2
    assert np.abs((out - U) + 2 * lam * (out - X)).max() < 1e-12


def test_prox_nonexpansive():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((6, 8))
    for loss in ("l1", "frobenius_sq"):
        for _ in range(10):
            U1, U2 = rng.standard_normal((2, 6, 8))
            d_out = np.linalg.norm(prox_fidelity(U1, X, 0.4, loss)
                                   - prox_fidelity(U2, X, 0.4, loss))
            assert d_out <= np.linalg.norm(U1 - U2) + 1e-12


def test_fista_zero_gammas_is_identity():
    X, G1, G2 = make_instance(6, 8, seed=10)
    cfg = SolverConfig(loss="l1", gamma1=0.0, gamma2=0.0)
    res = fista_solve(X, G1, G2, cfg)
    assert res.iterations == 1 and res.converged
    assert np.array_equal(res.U.values, X)


def test_fista_matches_sylvester():
    X, G1, G2 = make_instance(10, 15, seed=11)
    cfg = SolverConfig(loss="frobenius_sq", gamma1=2.0, gamma2=1.0,
                       epsilon=1e-24, max_iters=20000)
    res = fista_solve(X, G1, G2, cfg)
    Ustar = sylvester_solve(X, G1, G2, 2.0, 1.0)
    rel = np.linalg.norm(res.U.values - Ustar) / np.linalg.norm(Ustar)
    assert rel <= 1e-6


def test_fista_objective_never_worse_than_start():
    for seed in (12, 13):
        X, G1, G2 = make_instance(8, 11, seed=seed)
        for loss in ("l1", "frobenius_sq"):
            cfg = SolverConfig(loss=loss, gamma1=3.0, gamma2=2.0,
                               epsilon=1e-10, max_iters=2000)
            res = fista_solve(X, G1, G2, cfg)
            assert res.objective_trace[-1] < objective(X, X, G1, G2, cfg)


def test_fista_trace_minimum_near_end():
    # the last 10% of iterations must attain the smallest objective, up to
    # the momentum ripple at the numerical floor (1e-7 relative)
    for seed in (14, 24, 25):
        X, G1, G2 = make_instance(9, 12, seed=seed)
        cfg = SolverConfig(loss="l1", gamma1=3.0, gamma2=2.0, epsilon=1e-10,
                           max_iters=3000)
        res = fista_solve(X, G1, G2, cfg)
        assert res.converged
        trace = np.asarray(res.objective_trace)
        split = int(0.9 * (len(trace) - 1))
        assert trace[split:].min() <= trace[:split].min() * (1 + 1e-7)


def test_fista_u_plus_s_is_x():
    X, G1, G2 = make_instance(7, 9, seed=15)
    cfg = SolverConfig(loss="l1", gamma1=2.0, gamma2=2.0)
    res = fista_solve(X, G1, G2, cfg)
    assert np.array_equal(res.U.values + res.S.values, X)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(3, 8), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(LOSSES), st.sampled_from([0.5, 3.0]), st.sampled_from([1.0, 10.0]))
def test_fista_properties_on_random_instances(p, n, seed, loss, gamma1, gamma2):
    # U + S == X is not asserted: X - U + U can round away from X by an ulp.
    # Zero gammas are left out: X is then optimal, and the frobenius_sq prox
    # (X + 2X) / 3 rounds U an ulp off it, above the objective at X.
    X, G1, G2 = make_instance(p, n, k=2, seed=seed)
    cfg = SolverConfig(loss=loss, gamma1=gamma1, gamma2=gamma2, epsilon=1e-10,
                       max_iters=300)
    first, second = fista_solve(X, G1, G2, cfg), fista_solve(X, G1, G2, cfg)
    assert np.array_equal(first.S.values, X - first.U.values)
    assert first.U.values.tobytes() == second.U.values.tobytes()
    assert (np.array(first.objective_trace).tobytes()
            == np.array(second.objective_trace).tobytes())
    assert first.objective_trace[-1] <= objective(X, X, G1, G2, cfg)


def test_fista_divergence_detection():
    X, G1, G2 = make_instance(10, 14, seed=16)
    cfg = SolverConfig(loss="l1", gamma1=5.0, gamma2=5.0, step=1e8,
                       epsilon=1e-12, max_iters=500)
    with pytest.raises(DivergedError):
        fista_solve(X, G1, G2, cfg)


def test_fista_hits_iteration_cap():
    X, G1, G2 = make_instance(8, 10, seed=17)
    cfg = SolverConfig(loss="l1", gamma1=5.0, gamma2=5.0, epsilon=1e-300,
                       max_iters=5)
    res = fista_solve(X, G1, G2, cfg)
    assert res.iterations == 5 and not res.converged


def test_auto_step_uses_spectral_bound():
    X, G1, G2 = make_instance(5, 6, seed=18)
    assert auto_step(G1, G2, 2.0, 3.0) == 1.0 / (2 * 2.0 * 2 + 2 * 3.0 * 2)


def test_sylvester_trivial_cases():
    X, G1, G2 = make_instance(5, 7, seed=19)
    assert np.abs(sylvester_solve(X, G1, G2, 0.0, 0.0) - X).max() < 1e-12
    assert np.abs(sylvester_solve(np.zeros_like(X), G1, G2, 2.0, 2.0)).max() < 1e-12


def test_sylvester_chain_graph_stationarity():
    G = chain_instance()
    rng = np.random.default_rng(20)
    X = rng.standard_normal((3, 3))
    U = sylvester_solve(X, G, G, 1.5, 0.5)
    L = G.laplacian.toarray()
    residual = U + 0.5 * L @ U + 1.5 * U @ L - X
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(X)


def test_sequential_prox_identity_and_formula():
    X, G1, G2 = make_instance(6, 8, seed=21)
    assert np.abs(sequential_prox(X, G1, G2, 0.0, 0.0) - X).max() < 1e-12
    from scipy.linalg import eigh
    lam, Q = eigh(G1.laplacian.toarray())
    om, P = eigh(G2.laplacian.toarray())
    ref = (P @ np.diag(1 / (1 + 3.0 * om)) @ P.T) @ X @ (Q @ np.diag(1 / (1 + 2.0 * lam)) @ Q.T)
    out = sequential_prox(X, G1, G2, 2.0, 3.0)
    assert np.abs(out - ref).max() < 1e-10


def test_sequential_prox_attenuates_aligned_spectrum():
    X, G1, G2 = make_instance(7, 9, seed=22)
    from scipy.linalg import eigh
    lam, Q = eigh(G1.laplacian.toarray())
    om, P = eigh(G2.laplacian.toarray())
    s = np.array([8.0, 5.0, 3.0, 2.0, 1.0])
    Xa = P[:, :5] @ np.diag(s) @ Q[:, :5].T
    out = sequential_prox(Xa, G1, G2, 2.0, 4.0)
    expected = np.sort(s / ((1 + 2.0 * lam[:5]) * (1 + 4.0 * om[:5])))[::-1]
    got = np.linalg.svd(out, compute_uv=False)[:5]
    assert np.abs(got - expected).max() < 1e-8


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(loss="l2")
    with pytest.raises(ValueError):
        SolverConfig(gamma1=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(step=0.0)


@pytest.mark.parametrize("field", ["gamma1", "gamma2", "step", "epsilon"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_solver_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


def test_solver_config_from_keyvalue_file():
    text = """
    # solver settings
    loss = frobenius_sq
    gamma1 = 2.5
    gamma2 = 4
    epsilon = 1e-9
    max_iters = 250
    """
    cfg = parse_keyvalue_text(text, SolverConfig)
    assert cfg.loss == "frobenius_sq" and cfg.gamma2 == 4 and cfg.max_iters == 250
    with pytest.raises(ConfigError):
        parse_keyvalue_text("gamma3 = 1", SolverConfig)


def test_fista_accepts_datamatrix():
    X, G1, G2 = make_instance(4, 5, seed=23)
    dm = DataMatrix(X)
    res = fista_solve(dm, G1, G2, SolverConfig(gamma1=1.0, gamma2=1.0))
    assert isinstance(res.U, DataMatrix)
    assert res.U.values.shape == (4, 5)
