"""Tests for the worked problem builders and the LQ end-to-end pipeline."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fcopt.convex import distance
from fcopt.evolution import (adjoint_evolution, maximum_principle_residual,
                             simulate_variation_evolution)
from fcopt.penalty import (MultiplierPair, extract_multiplier,
                           fritz_john_residual, kkt_check)
from fcopt.problems import (equality_qp, l2_example, lq_endpoint_problem,
                            scalar_problem, _LQ_A, _LQ_B)
from fcopt.spaces import Element
from oracles import (check_reference, equality_qp_hessian, jacobian_fd_error,
                     kkt_solve, lq_identity_batch_reference)


def test_scalar_problem_shape():
    p = scalar_problem()
    assert jacobian_fd_error(p, p.u_bar) <= 1e-12
    check_reference(p, p.u_bar)
    assert p.objective(p.u_bar) == 0.0
    assert distance(p.E, Element(np.zeros(1), p.X)) <= 1e-8
    assert_allclose(p.extras["minimizer"](0.04), -0.02)


def test_l2_feasible_line_and_reference():
    p = l2_example()
    for s in np.linspace(-2.0, 2.0, 9):
        u = np.zeros(6)
        u[0] = 1.0
        u[2] = s
        assert_allclose(p.constraint(u), np.zeros(6), atol=1e-14)
        assert p.objective(u) == 1.0
    assert jacobian_fd_error(p, p.u_bar) <= 1e-5
    check_reference(p, p.u_bar)


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
    H = equality_qp_hessian(9, 4)
    G, r, c = (p.extras[k] for k in ("G", "r", "c"))
    lam = p.extras["kkt_multiplier"]
    ub = p.u_bar.coords
    assert_allclose(H @ ub + c + G.T @ lam, np.zeros(9), atol=1e-10)
    assert_allclose(G @ ub, r, atol=1e-10)
    with pytest.raises(ValueError):
        equality_qp(dim=3, n_constraints=3)


@pytest.mark.parametrize("seed", range(4))
def test_qp_reference_matches_dense_kkt_solve(seed):
    # u_bar and lambda from the factor of H and the Schur complement
    # against the dense KKT solve, on every shape dim 4..14, k 1..3 and
    # the default problem, each within 1e-12 (1 + its max norm)
    shapes = [(dim, k) for dim in range(4, 15) for k in range(1, 4)]
    for dim, k in shapes + [(8, 3)]:
        p = equality_qp(dim, k, seed)
        G, r, c = (p.extras[key] for key in ("G", "r", "c"))
        ubar, lam = kkt_solve(equality_qp_hessian(dim, seed), G, -c, r)
        for got, want in ((p.u_bar.coords, ubar),
                          (p.extras["kkt_multiplier"], lam)):
            tol = 1e-12 * (1.0 + np.abs(want).max())
            assert np.abs(got - want).max() <= tol, (dim, k, seed)


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
    H = lq_identity_batch_reference(N)[0]
    c, G = p.extras["c"], p.extras["G"]
    lam = p.extras["kkt_multiplier"]
    ub = p.u_bar.coords
    assert_allclose(H @ ub + c + G.T @ lam, np.zeros(p.V.dim), atol=1e-10)
    assert_allclose(p.constraint(ub), np.zeros(4), atol=1e-12)
    assert jacobian_fd_error(p, p.u_bar) <= 1e-5


@pytest.mark.parametrize("N", [2, 17, 50])
def test_lq_builder_matches_identity_batch_oracle(N):
    # H and c accumulated over blocks of steps, H factored in place, u_bar
    # and lambda from that factor and the 4 x 4 Schur complement, and
    # ybar_ref from a forward sweep of u_bar, against the dense identity
    # batch and the dense KKT solve: equal up to roundoff
    p = lq_endpoint_problem(N)
    H, c, ubar, lam, ybar_ref, G = lq_identity_batch_reference(N)
    low = p.f0_hess.low
    for got, want, tol in ((low @ low.T, H, 1e-12),
                           (p.extras["c"], c, 1e-12),
                           (p.u_bar.coords, ubar, 1e-11),
                           (p.extras["kkt_multiplier"], lam, 1e-11),
                           (p.extras["ybar_ref"], ybar_ref, 1e-11)):
        assert_allclose(got, want, rtol=0, atol=tol * np.abs(want).max())
    assert np.array_equal(p.extras["G"], G)
    # the factor is lower triangular, and f0_hess forms H from it
    assert np.array_equal(low, np.tril(low))
    assert np.array_equal(p.f0_hess.matrix, low @ low.T)


def test_lq_builder_traced_peak_at_mesh_400():
    # H (800 x 800, 5.1 MB), factored in place, is the only array of that
    # size: W is never formed, and the blocked accumulation and
    # factorization keep no temporary larger than 800 x 128.  The peak is
    # 7.2e6 B (11.4e6 with a separate factor, 20.9e6 with W formed); the
    # bound is that plus 20%
    tracemalloc.start()
    try:
        p = lq_endpoint_problem(400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.V.dim == 800
    assert peak <= 8.7e6


@pytest.mark.parametrize("N", [200, 400])
def test_lq_builder_holds_one_square_array(N):
    # the problem keeps the Cholesky factor of H and no copy of H: the
    # traced memory still held after the build is at most 1.5 arrays of
    # N m x N m, where H beside its factor would hold 2
    lq_endpoint_problem(10)
    tracemalloc.start()
    try:
        p = lq_endpoint_problem(N)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 1.5 * 8 * p.V.dim ** 2


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
    # and the surjectivity surrogate is positive; it is taken from the
    # L2(0,T) control gram dt I to the identity endpoint gram, where the
    # singular values are those of G / sqrt(dt)
    ctrl = np.hstack([np.linalg.matrix_power(_LQ_A, k) @ _LQ_B
                      for k in range(4)])
    assert np.linalg.matrix_rank(ctrl) == 4
    p = lq_endpoint_problem()
    pair = MultiplierPair(1.0, Element(p.extras["kkt_multiplier"], p.X))
    rep = kkt_check(p, p.u_bar, pair)
    dt = 1.0 / 50
    sigma_direct = np.linalg.svd(p.extras["G"],
                                 compute_uv=False)[-1] / np.sqrt(dt)
    assert rep["surjectivity_sigma"] > 1e-4
    assert_allclose(rep["surjectivity_sigma"], sigma_direct, rtol=1e-10)


def test_lq_endpoint_map_agrees_with_forward_simulation():
    p = lq_endpoint_problem()
    sysm = p.extras["system"]
    G = p.extras["G"]
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
