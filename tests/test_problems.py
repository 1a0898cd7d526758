"""Tests for the worked problem builders and the LQ end-to-end pipeline."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fcopt.evolution import (EvolutionSystem, adjoint_evolution,
                             adjoint_midpoints, endpoint_map,
                             maximum_principle_residual,
                             simulate_variation_evolution)
from fcopt.penalty import (MultiplierPair, extract_multiplier,
                           fritz_john_residual, kkt_check)
from fcopt.problems import (equality_qp, l2_example, lq_endpoint_problem,
                            null_space, scalar_problem, _kkt_solve, _LQ_A,
                            _LQ_B)
from fcopt.spaces import Element


@pytest.mark.parametrize("shape, rank", [((3, 7), 3), ((4, 9), 2),
                                         ((6, 6), 6), ((5, 5), 3),
                                         ((2, 3), 0)])
def test_null_space_matches_scipy(shape, rank):
    from scipy.linalg import null_space as scipy_null_space

    rng = np.random.default_rng(sum(shape) + rank)
    A = (rng.standard_normal((shape[0], rank))
         @ rng.standard_normal((rank, shape[1])))
    ns, ref = null_space(A), scipy_null_space(A)
    assert ns.shape == ref.shape == (shape[1], shape[1] - rank)
    # same subspace (bases may differ by an orthogonal change of basis)
    assert_allclose(ns @ ns.T, ref @ ref.T, atol=1e-12)
    assert_allclose(ns.T @ ns, np.eye(ns.shape[1]), atol=1e-12)
    assert_allclose(A @ ns, 0.0, atol=1e-12)


def test_scalar_problem_shape():
    p = scalar_problem()
    assert p.jacobian_fd_error(p.u_bar) <= 1e-12
    p.check_reference(p.u_bar)
    assert p.objective(p.u_bar) == 0.0
    assert p.E.contains(Element(np.zeros(1), p.X))
    assert_allclose(p.extras["minimizer"](0.04), -0.02)


def test_l2_feasible_line_and_reference():
    p = l2_example()
    for s in np.linspace(-2.0, 2.0, 9):
        u = np.zeros(6)
        u[0] = 1.0
        u[2] = s
        assert_allclose(p.constraint(u), np.zeros(6), atol=1e-14)
        assert p.objective(u) == 1.0
    assert p.jacobian_fd_error(p.u_bar) <= 1e-5
    p.check_reference(p.u_bar)


def test_l2_linearized_variation_form():
    # f'(u_bar) v = (v2, -v2, 0, v4, v5, v6)
    p = l2_example()
    rng = np.random.default_rng(0)
    jac = p.jacobian(p.u_bar)
    for _ in range(20):
        v = rng.standard_normal(6)
        expect = np.array([v[1], -v[1], 0.0, v[3], v[4], v[5]])
        assert_allclose(jac @ v, expect, atol=1e-14)


def test_l2_offset_equation():
    p = l2_example()
    t_of = p.extras["offset_t"]
    for eps in (0.1, 1e-2, 1e-3, 1e-5):
        t = t_of(eps)
        assert abs(t + 6.0 * t ** 5 - eps) <= 1e-15 * max(1.0, eps)
        assert abs(t - (eps - 6.0 * eps ** 5)) <= 200.0 * eps ** 9


def test_l2_dim_validation():
    with pytest.raises(ValueError):
        l2_example(dim=3)


def test_qp_builder_kkt_consistency():
    p = equality_qp(dim=9, n_constraints=2, seed=4)
    Q, A, b, c = (p.extras[k] for k in ("Q", "A", "b", "c"))
    lam = p.extras["kkt_multiplier"]
    ub = p.u_bar.coords
    assert_allclose(Q @ ub + c + A.T @ lam, np.zeros(9), atol=1e-10)
    assert_allclose(A @ ub, b, atol=1e-10)
    pts = p.feasible_sampler(ub, 30, 0)
    assert_allclose(pts @ A.T, np.tile(b, (30, 1)), atol=1e-8)
    with pytest.raises(ValueError):
        equality_qp(dim=3, n_constraints=3)


def _lq_cost_by_simulation(p, u):
    """Independent running-cost oracle: forward CN sweep + midpoint sums."""
    N, dt = p.extras["system"].N, p.extras["system"].dt
    n = 4
    R = np.eye(n) - 0.5 * dt * _LQ_A
    P = np.eye(n) + 0.5 * dt * _LQ_A
    y = p.extras["y0"].copy()
    w = u.reshape(N, 2)
    J = 0.0
    for k in range(N):
        ynext = np.linalg.solve(R, P @ y + dt * (_LQ_B @ w[k]))
        mid = 0.5 * (y + ynext)
        J += dt * (0.5 * float(mid @ mid) + 0.5 * float(w[k] @ w[k]))
        y = ynext
    return J, y


@pytest.mark.parametrize("N", [50, 400])
def test_lq_objective_matches_simulation_oracle(N):
    p = lq_endpoint_problem(N)
    rng = np.random.default_rng(8)
    for _ in range(5):
        u = rng.standard_normal(p.V.dim) * 0.5
        J, yN = _lq_cost_by_simulation(p, u)
        assert_allclose(p.objective(u), J, rtol=1e-10)
        # the constraint map reproduces the simulated endpoint
        assert_allclose(p.constraint(u) + p.extras["y_target"], yN,
                        atol=1e-10)


@pytest.mark.parametrize("N", [50, 400])
def test_lq_builder_kkt_consistency(N):
    p = lq_endpoint_problem(N)
    H, c, G = p.extras["H"], p.extras["c"], p.extras["endpoint_matrix"]
    lam = p.extras["kkt_multiplier"]
    ub = p.u_bar.coords
    assert_allclose(H @ ub + c + G.T @ lam, np.zeros(p.V.dim), atol=1e-10)
    assert_allclose(p.constraint(ub), np.zeros(4), atol=1e-12)
    assert p.jacobian_fd_error(p.u_bar) <= 1e-5
    # reference is optimal among sampled feasible neighbors
    f0_bar = p.objective(ub)
    for q in p.feasible_sampler(ub, 50, 1):
        assert p.objective(q) >= f0_bar - 1e-10


def _lq_identity_batch_reference(N, T=1.0):
    """H, c, u_bar, lambda, ybar_ref and G of the LQ builder with W formed
    from the identity batch of nu control paths, stepped all at once."""
    n, m = 4, 2
    nu, dt = N * m, T / N
    R = np.eye(n) - 0.5 * dt * _LQ_A
    P = np.eye(n) + 0.5 * dt * _LQ_A

    def steps(x0, forcing):
        x = np.empty((N + 1,) + np.shape(x0))
        x[0] = x0
        for k in range(N):
            x[k + 1] = np.linalg.solve(R, P @ x[k] + dt * forcing[k])
        return 0.5 * (x[:-1] + x[1:]), x[N]

    mid_free, y_free = steps(np.array([1.0, 0.0, -0.5, 0.0]),
                             np.zeros((N, n)))
    ybar0 = mid_free.ravel()
    forcing = np.einsum("kij,kj...->ki...",
                        np.broadcast_to(_LQ_B, (N, n, m)),
                        np.eye(nu).reshape(N, m, nu))
    W = steps(np.zeros((n, nu)), forcing)[0].reshape(N * n, nu)
    H = dt * (W.T @ W) + dt * np.eye(nu)
    c = dt * (W.T @ ybar0)
    G = endpoint_map(EvolutionSystem(T, N, _LQ_A, _LQ_B)).matrix
    y_target = y_free + 0.5 * (G @ (0.3 * np.sin(np.linspace(0.0, 3.0, nu))))
    ubar, lam = _kkt_solve(H, G, -c, y_target - y_free)
    return H, c, ubar, lam, (ybar0 + W @ ubar).reshape(N, n), G


@pytest.mark.parametrize("N", [2, 17, 50])
def test_lq_builder_matches_identity_batch_bitwise(N):
    # W written one step at a time, H formed in place and the null space
    # formed per sampler call change no bit of the builder's output
    p = lq_endpoint_problem(N)
    H, c, ubar, lam, ybar_ref, G = _lq_identity_batch_reference(N)
    for got, want in ((p.extras["H"], H), (p.extras["c"], c),
                      (p.u_bar.coords, ubar), (p.extras["kkt_multiplier"], lam),
                      (p.extras["ybar_ref"], ybar_ref),
                      (p.extras["endpoint_matrix"], G)):
        assert got.tobytes() == want.tobytes()
    w = np.random.default_rng(5).standard_normal((30, 2 * N - 4))
    pts = ubar + 0.1 * (w @ null_space(G).T)
    assert p.feasible_sampler(ubar, 30, 5).tobytes() == pts.tobytes()


def test_lq_builder_traced_peak_at_mesh_400():
    # W (1600 x 800, 10.2 MB), H (5.1 MB) and the KKT matrix (5.2 MB) are
    # the whole peak; forming the identity batch with its stacked forcing
    # and trajectory takes it to 41.5 MB
    tracemalloc.start()
    try:
        p = lq_endpoint_problem(400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.V.dim == 800
    assert peak <= 24e6


def test_lq_reference_trajectory_consistency():
    # the stored gy equals the midpoint states of the reference simulation
    p = lq_endpoint_problem()
    sysm = p.extras["system"]
    N, n = sysm.N, sysm.n
    dt = sysm.dt
    R = np.eye(n) - 0.5 * dt * _LQ_A
    P = np.eye(n) + 0.5 * dt * _LQ_A
    y = p.extras["y0"].copy()
    w = p.extras["u_ref"]
    for k in range(N):
        ynext = np.linalg.solve(R, P @ y + dt * (_LQ_B @ w[k]))
        assert_allclose(sysm.gy[k], 0.5 * (y + ynext), atol=1e-11)
        y = ynext
    assert_allclose(y, p.extras["y_target"], atol=1e-10)


def test_lq_oracle_pair_stationarity_machine_exact():
    # with the KKT multiplier as terminal data, the discrete adjoint
    # reproduces the control gradient to machine precision
    p = lq_endpoint_problem()
    sysm = p.extras["system"]
    lam = p.extras["kkt_multiplier"]
    pair = MultiplierPair(1.0, Element(lam, p.X))
    psi = adjoint_evolution(sysm, pair.z0, pair.z)
    rep = maximum_principle_residual(sysm, pair, psi)
    assert rep["valid"]
    assert rep["stationarity"] <= 1e-12


def test_lq_pipeline_matches_kkt_oracle():
    p = lq_endpoint_problem()
    lam = p.extras["kkt_multiplier"]
    pair, trace = extract_multiplier(p, p.u_bar, p.extras["schedule"])

    ref = np.concatenate([[1.0], lam])
    ref = ref / np.linalg.norm(ref)
    got = np.concatenate([[pair.z0], pair.z.coords])
    assert_allclose(got, ref, atol=1e-4)
    assert pair.z0 >= 0.1
    assert pair.cauchy_gap <= 1e-6

    rep = kkt_check(p, p.u_bar, pair)
    assert rep["normal"]
    assert_allclose(rep["z_tilde"].coords, lam, atol=1e-4)

    res = fritz_john_residual(p, p.u_bar, pair,
                              p.variations(p.u_bar, 1000, seed=3))
    assert res >= -1e-8

    sysm = p.extras["system"]
    psi = adjoint_evolution(sysm, pair.z0, pair.z)
    mp = maximum_principle_residual(sysm, pair, psi)
    assert mp["stationarity"] <= 1e-6


def test_lq_controllability_and_surjectivity():
    # controllability matrix has full rank, so the endpoint map is onto
    # and the surjectivity surrogate is positive
    ctrl = np.hstack([np.linalg.matrix_power(_LQ_A, k) @ _LQ_B
                      for k in range(4)])
    assert np.linalg.matrix_rank(ctrl) == 4
    p = lq_endpoint_problem()
    pair = MultiplierPair(1.0, Element(p.extras["kkt_multiplier"], p.X))
    rep = kkt_check(p, p.u_bar, pair)
    sigma_direct = np.linalg.svd(p.extras["endpoint_matrix"],
                                 compute_uv=False)[-1]
    assert rep["surjectivity_sigma"] > 1e-4
    assert_allclose(rep["surjectivity_sigma"], sigma_direct, rtol=1e-10)


def test_lq_endpoint_map_agrees_with_forward_simulation():
    p = lq_endpoint_problem()
    sysm = p.extras["system"]
    G = p.extras["endpoint_matrix"]
    rng = np.random.default_rng(12)
    w = rng.standard_normal((50, 2))
    xi = simulate_variation_evolution(sysm, w)
    assert_allclose(G @ w.ravel(), xi[-1], atol=1e-12)
    # affine consistency of the constraint evaluator
    du = rng.standard_normal(100)
    diff = p.constraint(p.u_bar.coords + du) - p.constraint(p.u_bar.coords)
    assert_allclose(diff, G @ du, atol=1e-10)


def test_lq_stationarity_inequality_along_trace():
    p = lq_endpoint_problem()
    pair, trace = extract_multiplier(p, p.u_bar, p.extras["schedule"][:10])
    for rec in (trace[0], trace[4], trace[9]):
        rec_pair = MultiplierPair(rec.a, rec.b)
        variations = p.variations(rec.u_eps, 100, seed=17)
        res = fritz_john_residual(p, rec.u_eps, rec_pair, variations)
        assert res >= -np.sqrt(rec.eps) - 1e-7
