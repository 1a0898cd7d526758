"""Tests for the time-grid dynamics: forward variations, adjoints, duality."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from fcopt.evolution import (EvolutionSystem, _crank_nicolson,
                             adjoint_evolution, adjoint_midpoints,
                             endpoint_map, maximum_principle_residual,
                             simulate_variation_evolution, spike_variation)
from fcopt.penalty import MultiplierPair
from fcopt.spaces import Element


def test_simulate_pure_integration():
    sys = EvolutionSystem(1.0, 100, np.zeros((1, 1)), np.ones((1, 1)))
    xi = simulate_variation_evolution(sys, np.ones((100, 1)))
    assert_allclose(xi[-1, 0], 1.0, atol=1e-12)


def test_simulate_zero_control_matrix():
    sys = EvolutionSystem(1.0, 50, np.array([[0.3]]), np.zeros((1, 1)))
    xi = simulate_variation_evolution(sys, np.ones((50, 1)))
    assert_allclose(xi, np.zeros((51, 1)))


def test_simulate_batch_matches_single_paths():
    # a trailing batch axis of B control paths gives the B trajectories
    # of B single calls
    rng = np.random.default_rng(3)
    N, n, m, B = 25, 3, 2, 6
    sys = EvolutionSystem(1.5, N, 0.7 * rng.standard_normal((N, n, n)),
                          rng.standard_normal((N, n, m)))
    w = rng.standard_normal((N, m, B))
    xi = simulate_variation_evolution(sys, w)
    assert xi.shape == (N + 1, n, B)
    for b in range(B):
        assert_allclose(xi[:, :, b], simulate_variation_evolution(sys, w[:, :, b]),
                        rtol=1e-13, atol=1e-14)


def test_nonzero_initial_state_pure_integration():
    # with A = 0 the scheme is exact for piecewise-constant forcing:
    # x_k = x0 + sum_{j<k} dt Bc_j w_j, the closed form x0 + int Bc w
    rng = np.random.default_rng(9)
    N, n, m, T = 40, 3, 2, 2.0
    Bc = rng.standard_normal((N, n, m))
    sys = EvolutionSystem(T, N, np.zeros((n, n)), Bc)
    x0 = np.array([1.0, -0.5, 2.0])
    w = rng.standard_normal((N, m))
    forcing = np.einsum("kij,kj->ki", Bc, w)
    x = _crank_nicolson(sys, x0, forcing)
    closed = x0 + np.concatenate(
        [np.zeros((1, n)), np.cumsum(sys.dt * forcing, axis=0)])
    assert_allclose(x, closed, rtol=1e-13, atol=1e-13)


def test_simulate_matrix_exponential_oracle():
    # oracle: constant A, Bc and constant-in-time w give the closed form
    # xi(T) = A^-1 (e^{AT} - I) Bc w by variation of constants
    T, N = 1.0, 10 ** 4
    cases = [
        (np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.0], [1.0]]),
         np.array([1.0])),
        (np.array([[0.2, 1.0, 0.0], [-1.0, -0.3, 0.5], [0.0, 0.1, -0.4]]),
         np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]]),
         np.array([0.7, -0.3])),
    ]
    for A, Bc, w in cases:
        oracle = np.linalg.solve(A, (expm(A * T) - np.eye(A.shape[0])) @ (Bc @ w))
        sys = EvolutionSystem(T, N, A, Bc)
        xi = simulate_variation_evolution(sys, np.tile(w, (N, 1)))
        assert_allclose(xi[-1], oracle, rtol=1e-6)


def test_endpoint_map_matches_simulation():
    rng = np.random.default_rng(5)
    N, n, m = 20, 3, 2
    A = 0.5 * rng.standard_normal((N, n, n))
    Bc = rng.standard_normal((N, n, m))
    sys = EvolutionSystem(2.0, N, A, Bc)
    G = endpoint_map(sys)
    assert G.matrix.shape == (n, N * m)
    for _ in range(5):
        w = rng.standard_normal((N, m))
        xi = simulate_variation_evolution(sys, w)
        assert_allclose(G.matrix @ w.ravel(), xi[-1], atol=1e-12)


def test_spike_zero_difference():
    sys = EvolutionSystem(1.0, 30, np.array([[0.4]]), np.array([[1.0]]))
    xi0, xiT = spike_variation(sys, np.zeros((30, 1)), np.zeros(30))
    assert xi0 == 0.0
    assert_allclose(xiT, np.zeros(1))


def test_spike_direct_integration():
    # scalar y' = u, u_ref = 0, v = 1 on [0, 2]: xi_hat(T) = 2, reported 1
    sys = EvolutionSystem(2.0, 200, np.zeros((1, 1)), np.array([[1.0]]))
    xi0, xiT = spike_variation(sys, np.ones((200, 1)), np.zeros(200))
    assert_allclose(xiT, np.array([1.0]), atol=1e-12)
    assert xi0 == 0.0
    # cost difference g = u: integral of 1 over [0, 2] is 2, reported 1
    xi0, _ = spike_variation(sys, np.zeros((200, 1)), np.ones(200))
    assert_allclose(xi0, 1.0, atol=1e-12)


def test_spike_cost_state_coupling():
    # gy = 1 and drift 1: xi_hat(t) = t, so xi0 = T^2/2, reported T/2;
    # midpoint quadrature is exact for linear integrands
    T, N = 2.0, 64
    sys = EvolutionSystem(T, N, np.zeros((1, 1)), np.array([[1.0]]),
                          gy=np.ones(1))
    xi0, xiT = spike_variation(sys, np.ones((N, 1)), np.zeros(N))
    assert_allclose(xiT, np.array([1.0]), atol=1e-12)
    assert_allclose(xi0, T / 2.0, atol=1e-12)


def test_adjoint_trivial_cases():
    rng = np.random.default_rng(0)
    sys = EvolutionSystem(1.0, 40, rng.standard_normal((2, 2)),
                          rng.standard_normal((2, 1)),
                          gy=rng.standard_normal(2))
    psi = adjoint_evolution(sys, 0.0, np.zeros(2))
    assert_allclose(psi, np.zeros((41, 2)))
    sys0 = EvolutionSystem(1.0, 40, np.zeros((3, 3)), np.zeros((3, 1)))
    z = np.array([1.0, -2.0, 0.5])
    psi = adjoint_evolution(sys0, 0.0, z)
    assert_allclose(psi, np.tile(-z, (41, 1)))


def test_adjoint_duality_exact():
    # <phi_T, xi(T)> equals sum_k dt <Bc_k' q_k, w_k> to machine precision:
    # the backward scheme is the exact transpose of the forward one
    rng = np.random.default_rng(11)
    for trial in range(20):
        N = int(rng.integers(5, 40))
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        per_step = trial % 2 == 0
        A = rng.standard_normal((N, n, n)) if per_step else rng.standard_normal((n, n))
        Bc = rng.standard_normal((N, n, m))
        sys = EvolutionSystem(1.5, N, A, Bc)
        w = rng.standard_normal((N, m))
        phi_T = rng.standard_normal(n)
        xi = simulate_variation_evolution(sys, w)
        lhs = float(phi_T @ xi[-1])
        psi = adjoint_evolution(sys, 0.0, -phi_T)     # psi(T) = phi_T
        q = adjoint_midpoints(sys, psi)
        rhs = sys.dt * float(np.sum([(sys.Bc[k].T @ q[k]) @ w[k]
                                     for k in range(N)]))
        assert_allclose(rhs, lhs, rtol=1e-12, atol=1e-12)


def test_adjoint_duality_with_endpoint_map():
    rng = np.random.default_rng(3)
    N, n, m = 25, 4, 2
    sys = EvolutionSystem(1.0, N, rng.standard_normal((n, n)),
                          rng.standard_normal((n, m)))
    G = endpoint_map(sys).matrix
    phi_T = rng.standard_normal(n)
    psi = adjoint_evolution(sys, 0.0, -phi_T)
    q = adjoint_midpoints(sys, psi)
    # G' phi_T stacks dt Bc_k' q_k: the discrete adjoint of the endpoint map
    stacked = np.concatenate([sys.dt * (sys.Bc[k].T @ q[k]) for k in range(N)])
    assert_allclose(stacked, G.T @ phi_T, atol=1e-12)


def test_maximum_principle_degenerate_pair_flagged():
    sys = EvolutionSystem(1.0, 10, np.zeros((2, 2)), np.eye(2))
    pair = MultiplierPair(0.0, Element(np.zeros(2), sys.state_space))
    assert pair.degenerate
    psi = adjoint_evolution(sys, pair.z0, pair.z)
    rep = maximum_principle_residual(sys, pair, psi)
    assert not rep["valid"]
    assert rep["stationarity"] == 0.0


def test_system_validation():
    with pytest.raises(ValueError):
        EvolutionSystem(1.0, 0, np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        EvolutionSystem(-1.0, 5, np.eye(2), np.eye(2))
    for T in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            EvolutionSystem(T, 5, np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        EvolutionSystem(1.0, 5, np.eye(2), np.ones((3, 1)) * np.nan)
    with pytest.raises(ValueError):
        EvolutionSystem(1.0, 5, np.ones((2, 3)), np.eye(2))
    sys = EvolutionSystem(1.0, 5, np.eye(2), np.ones((2, 1)))
    for bad in (np.ones((4, 1)), np.ones((5, 2, 3)), np.ones((5, 1, 2, 2))):
        with pytest.raises(ValueError, match="5 steps of dim 1"):
            sys.reshape_control(bad)
    with pytest.raises(ValueError):
        adjoint_evolution(sys, 0.0, np.zeros(3))
    with pytest.raises(ValueError):
        adjoint_midpoints(sys, np.zeros((3, 2)))


def test_superposition_of_responses():
    rng = np.random.default_rng(44)
    A = rng.standard_normal((3, 3)) * 0.5
    Bc = rng.standard_normal((3, 2))
    sys = EvolutionSystem(1.0, 64, A, Bc)
    v1 = rng.standard_normal((64, 2))
    v2 = rng.standard_normal((64, 2))
    xi1 = simulate_variation_evolution(sys, v1)
    xi2 = simulate_variation_evolution(sys, v2)
    xi = simulate_variation_evolution(sys, v1 + v2)
    assert np.max(np.abs(xi - (xi1 + xi2))) <= 1e-12
