"""Tests for wave observability Gramians and constants."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fcopt.wave import (WaveModel, _integral_cos_sin, mode_overlap_matrix,
                        observation_gramian, wave_observability_constant,
                        wave_sweep)


def test_frequencies_with_potential():
    m = WaveModel(4, a=2.5)
    assert_allclose(m.omega, np.sqrt((np.arange(1, 5) * np.pi) ** 2 + 2.5),
                    rtol=1e-15)
    assert_allclose(WaveModel(3).omega, np.arange(1, 4) * np.pi, rtol=1e-15)


def test_overlap_full_interval_is_identity():
    m = WaveModel(7, interval=(0.0, 1.0))
    assert_allclose(mode_overlap_matrix(m), np.eye(7), atol=1e-14)


def test_overlap_matches_dense_quadrature():
    m = WaveModel(6, interval=(0.3, 0.8))
    S = mode_overlap_matrix(m)
    x = np.linspace(0.3, 0.8, 20001)
    for k in range(1, 7):
        for l in range(1, 7):
            vals = 2.0 * np.sin(k * np.pi * x) * np.sin(l * np.pi * x)
            assert_allclose(S[k - 1, l - 1], np.trapezoid(vals, x),
                            atol=1e-9)


def test_full_observation_gramian_closed_form():
    # S = I makes the Gramian 2x2 block-diagonal per mode with exact
    # time integrals int cos^2 = T/2 + sin(2 w T)/(4w) etc.
    m = WaveModel(8, interval=(0.0, 1.0), T=1.0)
    G = observation_gramian(m)
    w, T = m.omega, m.T
    assert_allclose(np.diag(G)[:8], 0.5 * T + np.sin(2 * w * T) / (4 * w),
                    atol=1e-10)
    assert_allclose(np.diag(G)[8:], 0.5 * T - np.sin(2 * w * T) / (4 * w),
                    atol=1e-10)
    assert_allclose(np.diag(G[:8, 8:]), np.sin(w * T) ** 2 / (2 * w),
                    atol=1e-10)
    mode = np.arange(8)
    mask = np.ones((16, 16), dtype=bool)
    for i in mode:
        for j in (i, i + 8):
            mask[i, j] = mask[i + 8, j] = False
    assert np.max(np.abs(G[mask])) <= 1e-12


def test_full_observation_constant_matches_mode_eigenvalues():
    m = WaveModel(8, interval=(0.0, 1.0), T=1.0)
    rep = wave_observability_constant(m)
    w, T = m.omega, m.T
    s = np.sin(2 * w * T) / (4 * w)
    c = np.sin(w * T) ** 2 / (2 * w)
    lam_min = np.min(0.5 * T - np.sqrt(s ** 2 + c ** 2))
    assert_allclose(rep.constant, 1.0 / np.sqrt(lam_min), rtol=1e-8)
    assert rep.kernel_dim == 0


def test_gramian_symmetric_psd():
    m = WaveModel(12, interval=(0.4, 0.6), T=1.5)
    G = observation_gramian(m)
    assert_allclose(G, G.T, rtol=0, atol=0)
    eigs = np.linalg.eigvalsh(G)
    assert eigs[0] >= -1e-10 * eigs[-1]


def test_sweep_long_horizon_bounded():
    swept = wave_sweep([8, 16, 32, 64], interval=(0.4, 0.6), T=3.0)
    assert swept.verdict == "bounded"
    consts = np.array(swept.constants)
    assert consts.max() / consts.min() <= 1.05
    assert swept.kernel_dims == [0, 0, 0, 0]


def test_sweep_short_horizon_growing():
    swept = wave_sweep([8, 16, 32, 64], interval=(0.4, 0.6), T=0.2)
    assert swept.verdict == "growing"
    consts = np.array(swept.constants)
    finite = consts[np.isfinite(consts)]
    assert finite.size >= 2
    assert np.all(finite[1:] / finite[:-1] >= 2.0)
    kd = np.array(swept.kernel_dims)
    assert np.all(np.diff(kd) >= 0) and kd[-1] > 0


def test_complement_constants_monotone():
    m = WaveModel(16, T=3.0)
    rep = wave_observability_constant(m, complement=5)
    comp = rep.extras["complement_constants"]
    assert comp.shape == (6,)
    assert_allclose(comp[0], rep.constant, rtol=1e-14)
    assert np.all(np.diff(comp) <= 1e-14)


def test_complement_recovers_finite_constant_when_degenerate():
    # short horizon, enough modes for a numerically dead direction:
    # the complement constants turn finite once the worst directions
    # are removed
    m = WaveModel(32, interval=(0.4, 0.6), T=0.2)
    rep = wave_observability_constant(m, complement=2 * 32 - 1)
    assert np.isinf(rep.constant)
    comp = rep.extras["complement_constants"]
    assert np.isfinite(comp[rep.kernel_dim + 1])


def test_validation_errors():
    with pytest.raises(ValueError, match="one mode"):
        WaveModel(0)
    with pytest.raises(ValueError, match="interval"):
        WaveModel(4, interval=(0.6, 0.4))
    with pytest.raises(ValueError, match="horizon"):
        WaveModel(4, T=0.0)
    with pytest.raises(ValueError, match="lowest mode"):
        WaveModel(4, a=-(np.pi ** 2) - 1.0)
    with pytest.raises(ValueError, match="complement"):
        wave_observability_constant(WaveModel(4), complement=8)
    with pytest.raises(ValueError, match="mode counts"):
        wave_sweep([8, 16])
    with pytest.raises(ValueError, match="increasing"):
        wave_sweep([8, 8, 16])


@pytest.mark.parametrize("a", [np.nan, np.inf, -np.inf])
def test_non_finite_potential_rejected(a, monkeypatch):
    # NaN passes the lowest-mode sign test; it is refused before the
    # Gramian, by the model and by the experiment's declaration of a
    # (a finite float) under every expect
    from fcopt import wave
    from fcopt.experiments import run_experiment

    with pytest.raises(ValueError, match="finite"):
        WaveModel(4, a=a)

    def no_gramian(*args, **kwargs):
        raise AssertionError("Gramian built for a non-finite potential")

    monkeypatch.setattr(wave, "observation_gramian", no_gramian)
    for expect in ("auto", "bounded", "growing"):
        with pytest.raises(ValueError, match="a must be a finite number"):
            run_experiment("wave-obs", {"a": a, "expect": expect})


def _gauss_legendre_gramian(model, segments=64, nodes=24):
    # the time integral by composite Gauss-Legendre on equal segments of
    # [0, T]: time samples of every mode times the weights, through
    # matrix products
    x, wx = np.polynomial.legendre.leggauss(nodes)
    h = model.T / segments
    left = h * np.arange(segments)
    t = (left[:, None] + 0.5 * h * (x + 1.0)).ravel()
    w = np.tile(0.5 * h * wx, segments)
    phase = np.outer(t, model.omega)
    cos, sin = np.cos(phase), np.sin(phase)
    wc = w[:, None] * cos
    Icc = wc.T @ cos
    Ics = wc.T @ sin
    Iss = (w[:, None] * sin).T @ sin
    S = mode_overlap_matrix(model)
    G = np.block([[S * Icc, S * Ics],
                  [S * Ics.T, S * Iss]])
    return 0.5 * (G + G.T)


@pytest.mark.parametrize("interval", [(0.4, 0.6), (0.3, 0.8), (0.0, 1.0)])
@pytest.mark.parametrize("a", [0.0, 2.5, -5.0])
@pytest.mark.parametrize("T", [0.2, 1.0, 3.0, 0.002])
@pytest.mark.parametrize("modes", [1, 3, 16, 40])
def test_gramian_matches_gauss_legendre_time_integral(modes, T, a, interval):
    m = WaveModel(modes, interval=interval, T=T, a=a)
    G = observation_gramian(m)
    ref = _gauss_legendre_gramian(m)
    assert np.max(np.abs(G - ref)) <= 1e-13 * np.max(np.abs(ref))


def _direct_sum_gramian(model, points_per_period=500):
    # the trapezoidal rule summed term by term on equal steps of at most
    # 1/points_per_period of the shortest mode period; returns the step
    n = max(1, int(np.ceil(model.T * model.omega.max() * points_per_period
                           / (2.0 * np.pi))))
    t = np.linspace(0.0, model.T, n + 1)
    w = np.full(t.size, model.T / n)
    w[0] *= 0.5
    w[-1] *= 0.5
    phase = np.outer(t, model.omega)
    cos, sin = np.cos(phase), np.sin(phase)
    wc = w[:, None] * cos
    Icc = wc.T @ cos
    Ics = wc.T @ sin
    Iss = (w[:, None] * sin).T @ sin
    S = mode_overlap_matrix(model)
    G = np.block([[S * Icc, S * Ics],
                  [S * Ics.T, S * Iss]])
    return 0.5 * (G + G.T), model.T / n


@pytest.mark.parametrize("interval", [(0.4, 0.6), (0.3, 0.8), (0.0, 1.0)])
@pytest.mark.parametrize("a", [0.0, 2.5, -5.0])
@pytest.mark.parametrize("T", [0.2, 1.0, 3.0, 0.002])
@pytest.mark.parametrize("modes", [1, 3, 16, 40])
def test_gramian_matches_direct_trapezoidal_sum(modes, T, a, interval):
    # the exact time integral is the limit of the trapezoidal sum: each
    # time factor is (cos(d t) +- cos(s t))/2 or (sin(s t) -+ sin(d t))/2
    # with d, s = omega_k -+ omega_l, whose second derivative is at most
    # omega_k^2 + omega_l^2, so the sum is within T h^2/12 of that times
    # |S_kl| (the trapezoid error bound), plus rounding
    m = WaveModel(modes, interval=interval, T=T, a=a)
    G = observation_gramian(m)
    ref, h = _direct_sum_gramian(m)
    w2 = m.omega ** 2
    bound = (np.abs(mode_overlap_matrix(m)) * np.add.outer(w2, w2)
             * T * h ** 2 / 12.0)
    slack = 1e-14 * np.max(np.abs(ref))
    assert np.all(np.abs(G - ref) <= np.tile(bound, (2, 2)) + slack)


@pytest.mark.parametrize("modes, T, a, interval", [
    (8, 0.2, 0.0, (0.4, 0.6)),
    (8, 3.0, 2.5, (0.4, 0.6)),
    (32, 3.0, 2.5, (0.3, 0.5)),
    (16, 1.7, -3.0, (0.2, 0.5)),
])
def test_constant_matches_gauss_legendre_time_integral(modes, T, a, interval):
    # a Gramian rounded to eps moves lambda_min by about eps lambda_max,
    # so 8 modes at T = 0.2 (lambda_min ~ 9e-9 lambda_max) resolve the
    # constant to about 1e-9 only; the others to 1e-10
    m = WaveModel(modes, interval=interval, T=T, a=a)
    rep = wave_observability_constant(m)
    lam = np.linalg.eigvalsh(_gauss_legendre_gramian(m, 256, 64))
    rtol = max(1e-10, np.finfo(float).eps * lam[-1] / lam[0])
    assert rep.kernel_dim == 0
    assert_allclose(rep.constant, 1.0 / np.sqrt(lam[0]), rtol=rtol)


def _outer_overlap_matrix(model):
    # every entry from the full outer difference and sum, the diagonal
    # from its own closed form
    lo, hi = model.interval
    k = np.arange(1, model.modes + 1, dtype=float)
    diff = np.subtract.outer(k, k)
    summ = np.add.outer(k, k)

    def primitive_cos(n, x):
        return np.sin(n * np.pi * x) / (n * np.pi)

    S = np.empty((model.modes, model.modes))
    off = diff != 0
    S[off] = (primitive_cos(diff[off], hi) - primitive_cos(diff[off], lo)
              - primitive_cos(summ[off], hi) + primitive_cos(summ[off], lo))
    two_k = 2.0 * k
    S[~off] = ((hi - lo)
               - (np.sin(two_k * np.pi * hi)
                  - np.sin(two_k * np.pi * lo)) / (two_k * np.pi))
    return S


def _block_gramian(model):
    # the same closed-form time integrals, assembled with np.block from
    # the outer overlap matrix and then symmetrized
    omega, T = model.omega, model.T
    cos_diff, sin_diff = _integral_cos_sin(np.subtract.outer(omega, omega), T)
    cos_sum, sin_sum = _integral_cos_sin(np.add.outer(omega, omega), T)
    Icc = 0.5 * (cos_diff + cos_sum)
    Iss = 0.5 * (cos_diff - cos_sum)
    Ics = 0.5 * (sin_sum - sin_diff)
    S = _outer_overlap_matrix(model)
    G = np.block([[S * Icc, S * Ics],
                  [S * Ics.T, S * Iss]])
    return 0.5 * (G + G.T)


@pytest.mark.parametrize("interval",
                         [(0.4, 0.6), (0.2, 0.5), (0.1, 0.3), (0.0, 1.0)])
def test_gramian_bitwise_equals_block_assembly(interval):
    for modes in (1, 2, 4, 8, 16, 32, 64, 128, 256, 77):
        for T in (0.2, 0.6, 1.0, 3.0):
            for a in (0.0, 5.0, -3.0):
                m = WaveModel(modes, interval=interval, T=T, a=a)
                S = mode_overlap_matrix(m)
                assert np.array_equal(S, _outer_overlap_matrix(m))
                G = observation_gramian(m)
                assert np.array_equal(G, G.T)
                assert np.array_equal(G, _block_gramian(m))


@pytest.mark.parametrize("T", [0.2, 1.0, 3.0])
def test_eigenvalues_match_eigh(T):
    m = WaveModel(64, interval=(0.3, 0.5), T=T, a=2.0)
    rep = wave_observability_constant(m)
    ref = np.linalg.eigh(observation_gramian(m))[0]
    eig = rep.extras["eigenvalues"]
    assert "worst_mode" not in rep.extras
    assert np.all(np.diff(eig) >= 0)
    assert np.max(np.abs(eig - np.clip(ref, 0.0, None))) <= 1e-13 * ref[-1]


def test_long_horizon_gramian_memory_does_not_grow_with_T():
    # a time rule sampling the fastest mode 20 times per period would
    # hold 6.4e7 nodes (512 MB) at T = 1e5; the exact time integrals
    # need only the horizon
    m = WaveModel(64, T=1e5)
    tracemalloc.start()
    try:
        observation_gramian(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20
