from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frpcag.analysis import (check_recovery_bound, covariance, economic_svd,
                             make_lowrank_on_graphs)
from frpcag.config import ConfigError, parse_keyvalue_text
from frpcag.evalcluster import kmeans
from frpcag.graph import build_graph, knn_exact
from frpcag.frames import separate_background
from frpcag.matrixio import CorruptionSpec, corrupt, save_matrix, standardize
from frpcag.solver import (LOSSES, DivergedError, LowRankResult, SolverConfig, auto_step,
                           fista_solve, gradient_smooth, objective, prox_fidelity)
from memtrace import traced_peak
from oracles import sequential_prox, sylvester_solve


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
    with pytest.raises(ValueError, match="sample graph has 7 vertices, expected n=5"):
        objective(X.T, X.T, G1, G2, cfg)
    with pytest.raises(ValueError, match="feature graph has 5 vertices, expected p=4"):
        objective(X[:4], X[:4], G1, G2, cfg)


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


@pytest.mark.parametrize("lam, loss, message", [
    (0.0, "l1", "lam must be positive"), (-1.0, "l1", "lam must be positive"),
    (float("nan"), "l1", "lam must be positive"), (1.0, "l2", "unknown loss 'l2'"),
])
def test_prox_refuses_bad_lam_and_loss(lam, loss, message):
    with pytest.raises(ValueError, match=message):
        prox_fidelity(np.zeros((2, 2)), np.ones((2, 2)), lam, loss)


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
    assert np.array_equal(res.U, X)


def test_fista_matches_sylvester():
    X, G1, G2 = make_instance(10, 15, seed=11)
    cfg = SolverConfig(loss="frobenius_sq", gamma1=2.0, gamma2=1.0,
                       epsilon=1e-24, max_iters=20000)
    res = fista_solve(X, G1, G2, cfg)
    Ustar = sylvester_solve(X, G1, G2, 2.0, 1.0)
    rel = np.linalg.norm(res.U - Ustar) / np.linalg.norm(Ustar)
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
    assert np.array_equal(res.U + (X - res.U), X)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(3, 8), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(LOSSES), st.sampled_from([0.0, 0.5, 3.0]),
       st.sampled_from([0.0, 1.0, 10.0]))
def test_fista_properties_on_random_instances(p, n, seed, loss, gamma1, gamma2):
    # U + (X - U) == X is not asserted: X - U + U can round away from X by an ulp.
    X, G1, G2 = make_instance(p, n, k=2, seed=seed)
    cfg = SolverConfig(loss=loss, gamma1=gamma1, gamma2=gamma2, epsilon=1e-10,
                       max_iters=300)
    first, second = fista_solve(X, G1, G2, cfg), fista_solve(X, G1, G2, cfg)
    assert first.U.tobytes() == second.U.tobytes()
    assert (np.array(first.objective_trace).tobytes()
            == np.array(second.objective_trace).tobytes())
    assert first.objective_trace[-1] <= objective(X, X, G1, G2, cfg)


@pytest.mark.parametrize("loss", LOSSES)
def test_fista_zero_gammas_returns_x_exactly(loss):
    X, G1, G2 = make_instance(2, 3, k=2, seed=1)
    res = fista_solve(X, G1, G2, SolverConfig(loss=loss, gamma1=0.0, gamma2=0.0))
    assert np.array_equal(res.U, X)
    assert res.objective_trace == [0.0]


def reference_fista(X, G1, G2, cfg):
    """Oracle: the loop that multiplies by both Laplacians twice per iteration,
    once for the gradient at Y and once for the objective at U, on fresh
    arrays; its prox steps are the residual forms of prox_fidelity's
    docstring. Returns (U, objective trace, iterations)."""
    L1, L2 = G1.laplacian, G2.laplacian
    lam = auto_step(cfg.gamma1, cfg.gamma2)
    Y, U_prev = X.copy(), X.copy()
    t, trace = 1.0, []
    for it in range(1, cfg.max_iters + 1):
        grad = 2.0 * (cfg.gamma1 * (L1 @ Y.T).T + cfg.gamma2 * (L2 @ Y))
        R = Y - lam * grad - X
        if cfg.loss == "l1":
            U = X + np.sign(R) * np.maximum(np.abs(R) - lam, 0.0)
        else:
            U = X + R / (1.0 + 2.0 * lam)
        R = U - X
        fidelity = np.abs(R).sum() if cfg.loss == "l1" else (R * R).sum()
        trace.append(float(fidelity + cfg.gamma1 * np.sum(U * (L1 @ U.T).T)
                           + cfg.gamma2 * np.sum(U * (L2 @ U))))
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        Y_next = U + ((t - 1.0) / t_next) * (U - U_prev)
        diff, base = float(((Y_next - Y) ** 2).sum()), float((Y ** 2).sum())
        U_prev, Y, t = U, Y_next, t_next
        if diff < cfg.epsilon * base or diff == 0.0:
            return U, trace, it
    return U, trace, cfg.max_iters


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 24), st.integers(2, 24), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(LOSSES), st.sampled_from([0.0, 0.5, 3.0]),
       st.sampled_from([0.0, 1.0, 10.0]), st.integers(1, 80))
def test_fista_matches_two_pair_reference(p, n, seed, loss, gamma1, gamma2, max_iters):
    # epsilon=1e-300 leaves a run only an exact fixed point (diff == 0) to stop
    # on before max_iters, and rounding can hold one loop an ulp off a point the
    # other reaches (p=2, n=11, seed=0, l1, gammas 0 and 10: the reference
    # stops after 4 iterations). So traces are compared over the iterations
    # both made; tolerance-based stops are not compared at all, as diff / base
    # can round across epsilon.
    X, G1, G2 = make_instance(p, n, k=3, seed=seed)
    cfg = SolverConfig(loss=loss, gamma1=gamma1, gamma2=gamma2, epsilon=1e-300,
                       max_iters=max_iters)
    res = fista_solve(X, G1, G2, cfg)
    U, trace, iterations = reference_fista(X, G1, G2, cfg)
    assert len(res.objective_trace) == res.iterations and len(trace) == iterations
    both = min(res.iterations, iterations)
    got, want = np.array(res.objective_trace[:both]), np.array(trace[:both])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    assert np.abs(res.U - U).max() <= 1e-12 * np.abs(X).max()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 80), st.integers(2, 24), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(LOSSES), st.sampled_from([0.0, 0.5, 3.0]),
       st.sampled_from([0.0, 1.0, 10.0]), st.integers(1, 40))
def test_fista_matches_two_pair_reference_over_row_blocks(p, n, seed, loss, gamma1, gamma2,
                                                          max_iters):
    # a row block is max(32, _BLOCK_ELEMENTS // n) rows, so with the constant
    # at 1 every block is 32 rows: p > 32 walks several (the last one short
    # unless 32 divides p), p < 32 one block below the row minimum
    with mock.patch("frpcag.solver._BLOCK_ELEMENTS", 1):
        test_fista_matches_two_pair_reference.hypothesis.inner_test(
            p, n, seed, loss, gamma1, gamma2, max_iters)


# shapes the block constant itself splits: 32-row blocks, the last one short
MULTI_BLOCK_SHAPES = [(70, 600), (100, 2000), (33, 1000)]


@pytest.mark.parametrize("p, n", MULTI_BLOCK_SHAPES)
@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("gamma1, gamma2", [(1.7, 0.3), (0.0, 10.0), (0.0, 0.0)])
def test_fista_matches_two_pair_reference_on_wide_shapes(p, n, loss, gamma1, gamma2):
    test_fista_matches_two_pair_reference.hypothesis.inner_test(
        p, n, 3, loss, gamma1, gamma2, 12)


@pytest.mark.parametrize("p, n", MULTI_BLOCK_SHAPES)
@pytest.mark.parametrize("loss", LOSSES)
def test_objective_matches_last_trace_value_over_row_blocks(p, n, loss):
    X, G1, G2 = make_instance(p, n, k=5, seed=4)
    cfg = SolverConfig(loss=loss, gamma1=1.7, gamma2=0.3, max_iters=15)
    res = fista_solve(X, G1, G2, cfg)
    want = objective(res.U, X, G1, G2, cfg)
    assert abs(res.objective_trace[-1] - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("p, n", MULTI_BLOCK_SHAPES)
def test_gradient_matches_dense_over_row_blocks(p, n):
    X, G1, G2 = make_instance(p, n, k=5, seed=5)
    U = np.random.default_rng(6).standard_normal((p, n))
    dense = 2.0 * (1.7 * U @ G1.laplacian.toarray() + 0.3 * G2.laplacian.toarray() @ U)
    got = gradient_smooth(U, G1, G2, 1.7, 0.3)
    assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()


def fista_peak_memory(p, n):
    """tracemalloc peak of a 10-iteration solve, in units of X.nbytes.

    The graphs are inputs, as X is: their Laplacians, built on first use,
    are built before the solve is traced."""
    X, G1, G2 = make_instance(p, n, k=10, seed=0)
    G1.laplacian, G2.laplacian
    cfg = SolverConfig(loss="l1", gamma1=1.0, gamma2=1.0, max_iters=10)
    _, peak = traced_peak(lambda: fista_solve(X, G1, G2, cfg))
    return peak / X.nbytes


def test_fista_memory_bounded():
    # shaped like the background workload: 4096 pixels by 104 frames
    assert fista_peak_memory(4096, 104) <= 8


def test_fista_memory_holds_four_buffers_beside_a_c_ordered_x():
    # U, U_prev, Q and Q_prev: neither X nor L2 U is held as another p x n
    # array (4096 x 104, C-ordered, as the background command's frames are)
    assert fista_peak_memory(4096, 104) <= 4.6


def test_fista_memory_bounded_wide():
    # shaped like the solve workload: 100 features by 2000 samples
    assert fista_peak_memory(100, 2000) <= 8


def test_fista_divergence_detection():
    # at the bound step the only non-finite values left are squares of input
    # values too large for float64: on this instance at gamma = 5, X * 1e152
    # solves, and at X * 1e160 the reference's first objective value
    # overflows, so the solver stops at iteration 1, naming that cause
    X, G1, G2 = make_instance(10, 14, seed=16)
    for loss in LOSSES:
        cfg = SolverConfig(loss=loss, gamma1=5.0, gamma2=5.0)
        assert np.isfinite(fista_solve(X * 1e152, G1, G2, cfg).U).all()
        with np.errstate(over="ignore", invalid="ignore"):
            _, trace, _ = reference_fista(X * 1e160, G1, G2, replace(cfg, max_iters=1))
        assert not np.isfinite(trace[0])
        with pytest.raises(DivergedError) as raised:
            fista_solve(X * 1e160, G1, G2, cfg)
        assert str(raised.value) == ("non-finite values at iteration 1: "
                                     "input values too large for float64")


def test_fista_hits_iteration_cap():
    X, G1, G2 = make_instance(8, 10, seed=17)
    cfg = SolverConfig(loss="l1", gamma1=5.0, gamma2=5.0, epsilon=1e-300,
                       max_iters=5)
    res = fista_solve(X, G1, G2, cfg)
    assert res.iterations == 5 and not res.converged


MAX = float(np.finfo(np.float64).max)
# subnormals included; the second range straddles where 4*(g1 + g2) overflows
GAMMAS = st.one_of(st.floats(0.0, MAX), st.floats(MAX / 16, MAX / 4))


@settings(max_examples=1000, deadline=None)
@given(GAMMAS, GAMMAS)
@example(0.0, 0.0)
@example(5e-324, 0.0)
@example(MAX / 8, MAX / 8)  # 4*(g1 + g2) is the largest float
@example(float(np.nextafter(MAX / 8, np.inf)), MAX / 8)  # the sum rounds up to 2^1022
def test_auto_step_is_the_bound_rule(gamma1, gamma2):
    # 1 / beta' for beta' = 2*g1*||L1|| + 2*g2*||L2|| at ||L|| = 2, bit for bit
    beta = 2.0 * gamma1 * 2.0 + 2.0 * gamma2 * 2.0
    want = 1.0 / beta if beta > 0 else 1.0
    assert auto_step(gamma1, gamma2).hex() == want.hex()
    if beta == np.inf:
        with pytest.raises(ValueError, match="auto step would be 0"):
            SolverConfig(gamma1=gamma1, gamma2=gamma2)
    else:
        SolverConfig(gamma1=gamma1, gamma2=gamma2)


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
    with pytest.raises(TypeError):  # the step is auto_step(gamma1, gamma2), not a setting
        SolverConfig(step=0.1)


@pytest.mark.parametrize("field", ["gamma1", "gamma2", "epsilon"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_solver_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


def test_solver_config_rejects_step_scaling_that_overflows():
    with pytest.raises(ValueError, match="the auto step would be 0"):
        SolverConfig(gamma1=1e308)
    with pytest.raises(ValueError, match="the auto step would be 0"):
        SolverConfig(gamma1=1e308, gamma2=1e308)


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


def recovery_bound(E, U, G1, G2):
    return check_recovery_bound(make_lowrank_on_graphs(G1, G2, 1, 1), E, 1.0,
                                LowRankResult(U, [0.0], 1, True), SolverConfig(), G1, G2)


SHAPE = r"expected a p x n matrix with p, n >= 1, got shape"


@pytest.mark.parametrize("call, one_d", [
    (lambda X, G1, G2, tmp: fista_solve(X, G1, G2, SolverConfig()), SHAPE),
    (lambda X, G1, G2, tmp: objective(X, np.zeros_like(X), G1, G2, SolverConfig()), SHAPE),
    (lambda X, G1, G2, tmp: objective(np.zeros_like(X), X, G1, G2, SolverConfig()), SHAPE),
    (lambda X, G1, G2, tmp: gradient_smooth(X, G1, G2, 1.0, 1.0), SHAPE),
    (lambda X, G1, G2, tmp: prox_fidelity(np.zeros_like(X), X, 1.0), SHAPE),
    (lambda X, G1, G2, tmp: economic_svd(X), SHAPE),
    (lambda X, G1, G2, tmp: covariance(X), SHAPE),
    (lambda X, G1, G2, tmp: recovery_bound(X, np.zeros((6, 8)), G1, G2), SHAPE),
    (lambda X, G1, G2, tmp: recovery_bound(np.zeros((6, 8)), X, G1, G2), SHAPE),
    (lambda X, G1, G2, tmp: standardize(X), SHAPE),
    (lambda X, G1, G2, tmp: corrupt(X, CorruptionSpec("missing", 0.5)), SHAPE),
    (lambda X, G1, G2, tmp: save_matrix(tmp / "m.csv", X), SHAPE),
    (lambda X, G1, G2, tmp: kmeans(X, 2), SHAPE),
    # the p x n matrix of a (n, p, 1) frame sequence is X; a 1-D X gives 2-D frames
    (lambda X, G1, G2, tmp: separate_background(np.moveaxis(X, -1, 0)[..., None],
                                                SolverConfig()),
     r"frames must be a \(T, h, w\) array"),
], ids=["fista_solve", "objective_U", "objective_X", "gradient_smooth", "prox_fidelity",
        "economic_svd", "covariance", "check_recovery_bound_E", "check_recovery_bound_U",
        "standardize", "corrupt", "save_matrix", "kmeans", "separate_background"])
def test_non_finite_array_is_refused_on_entry(call, one_d, tmp_path):
    # every entry that takes a matrix runs the one check, matrixio._as_matrix,
    # so a NaN is not reported as divergence or returned in a result
    X, G1, G2 = make_instance(6, 8, seed=24)
    nan, inf, minus_inf = X.copy(), X.copy(), X.copy()
    nan[2, 3], inf[2, 3], minus_inf[2, 3] = np.nan, np.inf, -np.inf
    finite = "matrix entries must all be finite"
    for bad, message in ((nan, finite), (inf, finite), (minus_inf, finite),
                         (X[:, 0], one_d), (X[:, :0], SHAPE)):
        with pytest.raises(ValueError, match=message):
            call(bad, G1, G2, tmp_path)
    assert not any(tmp_path.iterdir())  # refused before a file is opened


@pytest.mark.parametrize("call", [
    lambda M, X, G1, G2: objective(M, X, G1, G2, SolverConfig()),
    lambda M, X, G1, G2: objective(X, M, G1, G2, SolverConfig()),
    lambda M, X, G1, G2: prox_fidelity(M, X, 0.5),
    lambda M, X, G1, G2: prox_fidelity(X, M, 0.5),
    lambda M, X, G1, G2: recovery_bound(M, X, G1, G2),
    lambda M, X, G1, G2: recovery_bound(X, M, G1, G2),
], ids=["objective_U", "objective_X", "prox_fidelity_U", "prox_fidelity_X",
        "check_recovery_bound_E", "check_recovery_bound_U"])
def test_matrices_of_different_shapes_are_refused_on_entry(call):
    # a p x 1 or 1 x n partner would broadcast against the p x n matrix, and
    # the transpose has a shape of its own; the message names both shapes
    X, G1, G2 = make_instance(6, 8, seed=24)
    for other in (X[:, :1], X[:1], X.T):
        with pytest.raises(ValueError, match="has shape") as raised:
            call(other, X, G1, G2)
        assert str(other.shape) in str(raised.value) and str(X.shape) in str(raised.value)


def test_fista_returns_u_as_an_array():
    X, G1, G2 = make_instance(4, 5, seed=23)
    res = fista_solve(X, G1, G2, SolverConfig(gamma1=1.0, gamma2=1.0))
    assert isinstance(res.U, np.ndarray)
    assert res.U.shape == (4, 5)
