"""Tests for the binary-tree models, backward pairs, and estimates."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fcopt.tree as tree
from fcopt.spaces import rank_mask
from fcopt.tree import (TreeModel, rank_deficiency_witness,
                        sde_duality_residual, sde_estimate_constant,
                        sde_estimate_sweep, simulate_variation_tree,
                        output_process, tree_bsde_solve)

_Z2 = np.zeros((2, 2))


def _scalar_model(T=1.0, d=4, a1=0.0, a2=0.0, c1=0.0, c2=0.0):
    one = np.array([[1.0]])
    return TreeModel(T, d, a1 * one, a2 * one, c1 * one, c2 * one)


def _random_model(d, n, m, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((d, n, n)), rng.standard_normal((d, n, n)),
            rng.standard_normal((d, n, m)), rng.standard_normal((d, n, m))]
    mats = [scale * M / max(np.linalg.norm(M[j]) for j in range(d))
            for M in mats]
    return TreeModel(1.0, d, *mats)


def test_increment_moments_exact():
    mod = _scalar_model(T=0.7, d=5)
    # the two equally likely increments of dB, child 0 and child 1
    inc = np.array([mod.sqrt_dt, -mod.sqrt_dt])
    assert inc.mean() == 0.0
    assert_allclose(np.mean(inc ** 2), mod.dt, rtol=0, atol=0)
    assert mod.leaf_count == 32


def test_model_validation():
    one = np.array([[1.0]])
    with pytest.raises(ValueError, match="depth"):
        TreeModel(1.0, 0, one, one, one, one)
    with pytest.raises(ValueError, match="horizon"):
        TreeModel(-1.0, 2, one, one, one, one)
    with pytest.raises(ValueError, match="square"):
        TreeModel(1.0, 2, np.ones((2, 3)), one, one, one)
    with pytest.raises(ValueError, match="A2"):
        TreeModel(1.0, 2, np.eye(2), np.eye(3), np.ones((2, 1)),
                  np.ones((2, 1)))
    with pytest.raises(ValueError, match="non-finite"):
        TreeModel(1.0, 2, np.full((1, 1), np.nan), one, one, one)


def test_one_step_martingale_representation():
    # terminal equal to the last noise increment: phi one level up is 0,
    # Phi is 1
    mod = _scalar_model(d=3)
    term = np.zeros((8, 1))
    term[0::2, 0] = mod.sqrt_dt
    term[1::2, 0] = -mod.sqrt_dt
    phi, Phi = tree_bsde_solve(mod, terminal=term)
    assert_allclose(phi[2], np.zeros((4, 1)), atol=0)
    assert_allclose(Phi[2], np.ones((4, 1)), atol=0)
    assert_allclose(phi[0], np.zeros((1, 1)), atol=0)


def test_deterministic_terminal():
    mod = TreeModel(2.0, 4, _Z2, _Z2, _Z2, _Z2)
    c = np.array([1.5, -0.5])
    term = np.tile(c, (16, 1))
    phi, Phi = tree_bsde_solve(mod, terminal=term)
    for j in range(5):
        assert_allclose(phi[j], np.tile(c, (2 ** j, 1)), atol=0)
    for j in range(4):
        assert_allclose(Phi[j], np.zeros((2 ** j, 2)), atol=0)


def test_martingale_conditional_means():
    # with zero coefficients the solution is the exact half-sum
    # martingale of its terminal data
    mod = TreeModel(1.0, 5, _Z2, _Z2, _Z2, _Z2)
    rng = np.random.default_rng(3)
    term = rng.standard_normal((32, 2))
    phi, _ = tree_bsde_solve(mod, terminal=term)
    for j in range(5):
        assert_allclose(phi[j], 0.5 * (phi[j + 1][0::2] + phi[j + 1][1::2]),
                        atol=0)
    assert_allclose(phi[0][0], term.mean(axis=0), atol=1e-15)


def test_scalar_geometric_recursion():
    lam, c, d = 0.7, 2.0, 6
    mod = _scalar_model(T=1.0, d=d, a1=lam)
    term = np.full((2 ** d, 1), c)
    phi, Phi = tree_bsde_solve(mod, terminal=term)
    for j in range(d + 1):
        expect = c / (1.0 - lam * mod.dt) ** (d - j)
        assert_allclose(phi[j], np.full((2 ** j, 1), expect), rtol=1e-13)
    for j in range(d):
        assert_allclose(Phi[j], np.zeros((2 ** j, 1)), atol=1e-13)


def test_driver_scalar_recursion():
    lam, d, z0 = -0.4, 5, 2.0
    g = np.linspace(1.0, 2.0, d)[:, None]
    mod = _scalar_model(T=1.0, d=d, a1=lam)
    term = np.full((2 ** d, 1), 0.3)
    phi, _ = tree_bsde_solve(mod, z0=z0, driver_gy=g, terminal=term)
    val = 0.3
    for j in range(d - 1, -1, -1):
        val = (val + mod.dt * z0 * g[j, 0]) / (1.0 - lam * mod.dt)
        assert_allclose(phi[j], np.full((2 ** j, 1), val), rtol=1e-13)


def _bsde_brute(model, z0, gy, terminal):
    # definitional per-node loops, no vectorization
    d, n = model.d, model.n
    phi = [None] * (d + 1)
    Phi = [None] * d
    phi[d] = [np.asarray(terminal[i], dtype=float)
              for i in range(2 ** d)]
    for j in reversed(range(d)):
        M = np.eye(n) - model.dt * model.A1[j].T
        phi[j], Phi[j] = [], []
        for i in range(2 ** j):
            up, dn = phi[j + 1][2 * i], phi[j + 1][2 * i + 1]
            P = (up - dn) / (2.0 * model.sqrt_dt)
            rhs = (0.5 * (up + dn)
                   + model.dt * (model.A2[j].T @ P + z0 * gy[j]))
            phi[j].append(np.linalg.solve(M, rhs))
            Phi[j].append(P)
    return phi, Phi


def test_solve_matches_brute_force_loops():
    mod = _random_model(d=3, n=3, m=2, seed=11)
    rng = np.random.default_rng(12)
    term = rng.standard_normal((8, 3))
    gy = rng.standard_normal((3, 3))
    phi, Phi = tree_bsde_solve(mod, z0=1.3, driver_gy=gy, terminal=term)
    bphi, bPhi = _bsde_brute(mod, 1.3, gy, term)
    for j in range(4):
        assert_allclose(phi[j], np.array(bphi[j]), atol=1e-13)
    for j in range(3):
        assert_allclose(Phi[j], np.array(bPhi[j]), atol=1e-13)


def test_implicit_scalar_closed_form():
    # scalar closed form c/(1-lam dt)^steps, first-order accurate for
    # exp(lam T)
    lam, c = 0.5, 1.0
    mod = _scalar_model(T=1.0, d=6, a1=lam)
    term = np.full((64, 1), c)
    phi, _ = tree_bsde_solve(mod, terminal=term)
    assert_allclose(phi[0][0, 0], c / (1.0 - lam * mod.dt) ** 6,
                    rtol=1e-13)
    assert abs(phi[0][0, 0] - c * np.exp(lam)) <= 0.1


def test_singular_step_matrix_error():
    d = 2
    with pytest.raises(ValueError, match="deeper tree"):
        _scalar_model(T=1.0, d=d, a1=float(d))  # 1 - dt*a1 = 0


def test_terminal_validation():
    mod = _scalar_model(d=2)
    with pytest.raises(ValueError, match="terminal"):
        tree_bsde_solve(mod)
    with pytest.raises(ValueError, match="terminal"):
        tree_bsde_solve(mod, terminal=np.ones((3, 1)))
    with pytest.raises(ValueError, match="driver_gy"):
        tree_bsde_solve(mod, driver_gy=np.ones((5, 1)),
                        terminal=np.ones((4, 1)))


def test_forward_variation_zero_coefficient_closed_form():
    # A1 = A2 = 0: xi(T) = sum dt C1 u + sum dB C2 u, path by path
    d = 3
    mod = TreeModel(1.0, d, _Z2, _Z2, np.array([[1.0], [0.0]]),
                    np.array([[0.0], [1.0]]))
    u = np.array([[1.0], [2.0], [-1.0]])
    xi = simulate_variation_tree(mod, u)
    for leaf in range(8):
        bits = [(leaf >> (d - 1 - j)) & 1 for j in range(d)]
        drift = mod.dt * np.sum(u[:, 0])
        noise = sum((1.0 if b == 0 else -1.0) * mod.sqrt_dt * u[j, 0]
                    for j, b in enumerate(bits))
        assert_allclose(xi[d][leaf], [drift, noise], atol=1e-14)


def test_forward_variation_implicit_drift_scalar():
    # deterministic scalar path: xi_{j+1} = (xi_j + dt)/(1 - a dt)
    a, d = 0.6, 5
    mod = _scalar_model(T=1.0, d=d, a1=a, c1=1.0)
    xi = simulate_variation_tree(mod, np.ones((d, 1)))
    val = 0.0
    for j in range(d):
        val = (val + mod.dt) / (1.0 - a * mod.dt)
        assert_allclose(xi[j + 1], np.full((2 ** (j + 1), 1), val),
                        rtol=1e-13)


def test_duality_trivial_cases():
    mod = _random_model(d=4, n=2, m=2, seed=5)
    term = np.random.default_rng(6).standard_normal((16, 2))
    assert sde_duality_residual(mod, np.zeros((4, 2)), term) <= 1e-15
    mod0 = TreeModel(1.0, 4, mod.A1, mod.A2, np.zeros((4, 2, 2)),
                     np.zeros((4, 2, 2)))
    assert sde_duality_residual(mod0, np.ones((4, 2)), term) <= 1e-15


def test_duality_exact_random_coefficients():
    mod = _random_model(d=6, n=3, m=2, seed=21)
    rng = np.random.default_rng(22)
    term = rng.standard_normal((64, 3))
    u = [rng.standard_normal((2 ** j, 2)) for j in range(6)]
    assert sde_duality_residual(mod, u, term) <= 1e-12


def test_duality_both_sides_nonzero():
    mod = _random_model(d=5, n=2, m=2, seed=31)
    rng = np.random.default_rng(32)
    term = rng.standard_normal((32, 2))
    u = rng.standard_normal((5, 2))
    xi = simulate_variation_tree(mod, u)
    lhs = float(np.mean(np.sum(term * xi[-1], axis=1)))
    assert abs(lhs) > 1e-3  # the identity is not vacuously 0 = 0
    assert sde_duality_residual(mod, u, term) <= 1e-12


def test_estimate_two_leaf_hand_values():
    one = np.array([[1.0]])
    mod = TreeModel(1.0, 1, 0 * one, 0 * one, 0 * one, one)
    rep = sde_estimate_constant(mod, G_mode="phi0")
    assert_allclose(rep.constant, 1.0, rtol=1e-12)
    assert rep.kernel_dim == 0
    assert_allclose(rep.sigma_profile, [1.0, 1.0], rtol=1e-12)
    rep0 = sde_estimate_constant(mod, G_mode="none")
    assert np.isinf(rep0.constant)
    assert rep0.kernel_dim == 1
    assert "rank deficient" in rep0.note


def test_estimate_isometry_full_noise_injection():
    # C2 = I, C1 = 0, A1 = A2 = 0: the output is the exact martingale
    # decomposition of phi_T, so the map is an isometry and C = 1
    mod = TreeModel(1.0, 5, _Z2, _Z2, _Z2, np.eye(2))
    rep = sde_estimate_constant(mod, G_mode="phi0")
    assert_allclose(rep.constant, 1.0, rtol=1e-10)
    # sigma_max = sigma_min = 1: all 64 singular values are one
    assert_allclose(rep.sigma_profile, [1.0, 1.0], rtol=1e-10)


def test_estimate_cap_and_mode_validation():
    mod = TreeModel(1.0, 4, _Z2, _Z2, _Z2, np.eye(2))
    with pytest.raises(ValueError, match="G_mode"):
        sde_estimate_constant(mod, G_mode="phi-zero")


def _dichotomy_models(C2, depths):
    rng = np.random.default_rng(42)
    R = rng.standard_normal((2, 2))
    R *= 0.5 / np.linalg.norm(R, 2)
    return [TreeModel(1.0, d, R, R, np.zeros((2, 2)), C2) for d in depths]


def test_sweep_full_rank_bounded():
    swept = sde_estimate_sweep(_dichotomy_models(np.eye(2), [4, 5, 6, 7, 8]))
    assert swept.verdict == "bounded"
    consts = np.array(swept.constants)
    assert np.all(np.isfinite(consts))
    assert consts.max() / consts.min() <= 2.0
    assert swept.kernel_dims == [0] * 5


def test_sweep_rank_deficient_growing():
    swept = sde_estimate_sweep(
        _dichotomy_models(np.diag([1.0, 0.0]), [4, 5, 6, 7, 8]))
    assert swept.verdict == "growing"
    kd = np.array(swept.kernel_dims, dtype=float)
    assert_allclose(kd, [2 ** d - 1 for d in (4, 5, 6, 7, 8)], atol=0)
    assert np.all(kd[1:] / kd[:-1] >= 1.5)
    assert all(not np.isfinite(c) for c in swept.constants)


def test_sweep_validation():
    mods = _dichotomy_models(np.eye(2), [4, 5])
    with pytest.raises(ValueError, match="3 depths"):
        sde_estimate_sweep(mods)
    bad = _dichotomy_models(np.eye(2), [4, 4, 5])
    with pytest.raises(ValueError, match="increasing"):
        sde_estimate_sweep(bad)


def _oracle_model(seed):
    """n, m in 1..3, depth <= 7, per-step or constant coefficients, C1
    zero or not, and an exactly zero C2 column in some draws."""
    rng = np.random.default_rng(seed)
    d, n, m = (int(v) for v in rng.integers([1, 1, 1], [8, 4, 4]))
    per_step = rng.random() < 0.5

    def draw(rows, cols):
        return 0.5 * rng.standard_normal((d, rows, cols) if per_step
                                         else (rows, cols))

    A1, A2, C1, C2 = draw(n, n), draw(n, n), draw(n, m), draw(n, m)
    if rng.random() < 0.3:
        C1 = np.zeros_like(C1)
    if rng.random() < 0.3:
        C2[..., int(rng.integers(m))] = 0.0
    return TreeModel(1.0, d, A1, A2, C1, C2)


def _dense_sigma(model, G_mode):
    """All 2^d n singular values from the dense map, zero-padded."""
    sig = np.linalg.svd(tree._estimate_matrix(model, G_mode),
                        compute_uv=False) * np.sqrt(model.leaf_count)
    dim = model.leaf_count * model.n
    return np.concatenate([sig, np.zeros(dim - sig.size)])


def _assert_matches_dense(rep, sig):
    kernel = sig.size - int(np.sum(rank_mask(sig)))
    assert rep.kernel_dim == kernel
    assert_allclose(rep.sigma_profile[0], sig[0], rtol=1e-10)
    if kernel:
        assert np.isinf(rep.constant) and rep.sigma_profile[1] == 0.0
    else:
        assert_allclose(rep.constant, 1.0 / sig[-1], rtol=1e-10)


@pytest.mark.parametrize("G_mode", ["phi0", "none"])
def test_estimate_matches_dense_oracle_random_family(G_mode):
    for seed in range(60):
        mod = _oracle_model(seed)
        _assert_matches_dense(sde_estimate_constant(mod, G_mode=G_mode),
                              _dense_sigma(mod, G_mode))


@pytest.mark.parametrize("C2", [np.eye(2), np.diag([1.0, 0.0])])
@pytest.mark.parametrize("G_mode", ["phi0", "none"])
def test_estimate_matches_dense_oracle_dichotomy(C2, G_mode):
    for mod in _dichotomy_models(C2, range(3, 9)):
        _assert_matches_dense(sde_estimate_constant(mod, G_mode=G_mode),
                              _dense_sigma(mod, G_mode))


def test_singular_count_matches_dense_count():
    for seed in range(20):
        mod = _oracle_model(seed)
        for G_mode in ("phi0", "none"):
            sig = np.sort(_dense_sigma(mod, G_mode))
            # midpoints of gaps wider than 1e-6 sigma_max, and above all
            gap = np.diff(sig) > 1e-6 * sig[-1]
            shifts = np.append((sig[1:] + sig[:-1])[gap] / 2.0,
                               1.5 * sig[-1])
            shifts = shifts[shifts > 0.0]
            want = np.searchsorted(sig, shifts)
            assert_allclose(tree._singular_count(mod, shifts, G_mode), want,
                            atol=0)


@pytest.mark.parametrize("d", [1, 2, 6])
def test_ill_conditioned_map_takes_dense_fallback(d, monkeypatch):
    # C2 = 1e-7: no structural kernel, but singular values below 1e-6
    # sigma_max, so the count is not certified
    one = np.array([[1.0]])
    mod = TreeModel(1.0, d, 0.3 * one, 0.2 * one, one, 1e-7 * one)
    built = []
    dense = tree._estimate_matrix
    monkeypatch.setattr(tree, "_estimate_matrix",
                        lambda *a: built.append(1) or dense(*a))
    rep = sde_estimate_constant(mod)
    assert built == [1]
    smax, smin, kernel = tree._dense_extremes(mod, "phi0")
    assert rep.kernel_dim == kernel
    assert list(rep.sigma_profile) == [smax, smin]
    _assert_matches_dense(rep, _dense_sigma(mod, "phi0"))


def test_ill_conditioned_elimination_takes_dense_fallback(monkeypatch):
    # a strong multiplicative noise makes the change of variables behind
    # the count too ill-conditioned to trust it
    one = np.array([[1.0]])
    mod = TreeModel(1.0, 3, 0.3 * one, 60.0 * one, one, one)
    assert tree._elimination_condition(mod) > tree._ELIMINATION_COND_MAX
    want = {G_mode: _dense_sigma(mod, G_mode) for G_mode in ("phi0", "none")}
    built = []
    dense = tree._estimate_matrix
    monkeypatch.setattr(tree, "_estimate_matrix",
                        lambda *a: built.append(1) or dense(*a))
    for G_mode, sig in want.items():
        _assert_matches_dense(sde_estimate_constant(mod, G_mode=G_mode), sig)
    assert len(built) == 2


def test_uncertified_beyond_dense_limit_raises():
    mod = TreeModel(1.0, 12, _Z2, _Z2, _Z2, np.diag([1.0, 1e-8]))
    assert mod.leaf_count * mod.n > tree.DENSE_MAX_DIM
    with pytest.raises(ValueError, match="dense limit"):
        sde_estimate_constant(mod)


def test_estimate_deep_trees_without_dense_path(monkeypatch):
    monkeypatch.setattr(tree, "_estimate_matrix", None)
    for C2, kernels in [(np.eye(2), [0, 0, 0]),
                        (np.diag([1.0, 0.0]), [4095, 8191, 16383])]:
        swept = sde_estimate_sweep(_dichotomy_models(C2, [12, 13, 14]))
        assert swept.kernel_dims == kernels


def test_rayleigh_check_rejects_wrong_extremes(monkeypatch):
    mod = TreeModel(1.0, 4, _Z2, _Z2, _Z2, np.eye(2))
    monkeypatch.setattr(tree, "_count_extremes",
                        lambda *a: (0.5, 0.25, 0))
    with pytest.raises(RuntimeError, match="Rayleigh"):
        sde_estimate_constant(mod)


def test_witness_ito_isometry_exact():
    # A1 = A2 = 0, C1 = 0: psi(T) is the plain noise sum over the
    # window, so lhs equals |r_hat|^2 * (window steps) * dt exactly
    d = 8
    mod = TreeModel(1.0, d, _Z2, _Z2, np.zeros((2, 2)),
                    np.diag([1.0, 0.0]))
    r_hat = np.array([0.0, 2.0])
    for k in (1, 2, 3, 5, 8):
        lhs, rhs = rank_deficiency_witness(mod, r_hat, k)
        steps = int(np.ceil(d / k))
        assert_allclose(lhs, 4.0 * steps * mod.dt, rtol=1e-14)
        assert rhs == 0.0


def test_witness_energy_split_random_drift():
    # with random bounded A1 = A2 the scaled terminal energy k*lhs
    # stays bounded while |r_hat|^2 / lhs grows with k
    mods = _dichotomy_models(np.diag([1.0, 0.0]), [8])
    mod = mods[0]
    r_hat = np.array([0.0, 1.0])
    scaled, inverse = [], []
    for k in range(1, 9):
        lhs, rhs = rank_deficiency_witness(mod, r_hat, k)
        scaled.append(lhs * k)
        inverse.append(1.0 / lhs)
        assert rhs >= 0.0
    scaled = np.array(scaled)
    inverse = np.array(inverse)
    assert scaled.max() <= 3.0 * mod.T
    assert inverse[-1] / inverse[0] >= mod.d / 2.0
    assert np.all(np.diff(inverse) >= -1e-12 * inverse[:-1])


def test_witness_preconditions():
    mod = TreeModel(1.0, 4, _Z2, _Z2, np.zeros((2, 2)),
                    np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="nonzero"):
        rank_deficiency_witness(mod, np.zeros(2), 2)
    with pytest.raises(ValueError, match="kernel"):
        rank_deficiency_witness(mod, np.array([1.0, 0.0]), 2)
    with pytest.raises(ValueError, match="window index"):
        rank_deficiency_witness(mod, np.array([0.0, 1.0]), 5)
    with pytest.raises(ValueError, match="shape"):
        rank_deficiency_witness(mod, np.array([0.0, 1.0, 0.0]), 2)


def test_output_process_shapes():
    mod = _random_model(d=3, n=2, m=2, seed=51)
    term = np.random.default_rng(52).standard_normal((8, 2))
    phi, Phi = tree_bsde_solve(mod, terminal=term)
    outs = output_process(mod, phi, Phi)
    assert [o.shape for o in outs] == [(1, 2), (2, 2), (4, 2)]
