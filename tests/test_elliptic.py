"""Tests for the elliptic operator assembly and estimate constants."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fcopt.elliptic import (EllipticSystem, _sturm_count,
                            elliptic_estimate_constant,
                            elliptic_operator_map, elliptic_sweep)
from fcopt.spaces import Element, norm


def test_matrix_assembly_constant_coefficients():
    s = EllipticSystem(4, a=1.0, c=0.0)
    h = 1.0 / 5.0
    T = np.diag([2.0] * 4) + np.diag([-1.0] * 3, 1) + np.diag([-1.0] * 3, -1)
    assert_allclose(s.matrix, T / h ** 2, rtol=1e-14)
    assert_allclose(s.matrix, s.matrix.T, rtol=0, atol=0)


def test_matrix_assembly_variable_coefficients():
    # hand-assembled 2-node mesh with a(x) = 1 + x and c(x) = x
    s = EllipticSystem(2, a=lambda x: 1.0 + x, c=lambda x: x)
    h = 1.0 / 3.0
    a = 1.0 + np.array([0.0, h, 2 * h, 1.0])
    amid = 0.5 * (a[:-1] + a[1:])
    expect = np.array([
        [(amid[0] + amid[1]) / h ** 2 - h, -amid[1] / h ** 2],
        [-amid[1] / h ** 2, (amid[1] + amid[2]) / h ** 2 - 2 * h],
    ])
    assert_allclose(s.matrix, expect, rtol=1e-14)


def test_operator_matches_differential_quotient():
    # applying the matrix to samples of a smooth function approximates
    # -(a y')' - c y with second-order accuracy
    def y(x):
        return np.sin(np.pi * x) * x

    def exact(x):
        # a = 1: -(y')' - c y = -y'' - x*y
        ypp = (-np.pi ** 2 * np.sin(np.pi * x) * x
               + 2.0 * np.pi * np.cos(np.pi * x))
        return -ypp - x * y(x)

    errs = []
    for N in (40, 80, 160):
        s = EllipticSystem(N, a=1.0, c=lambda x: x)
        errs.append(np.max(np.abs(s.matrix @ y(s.x) - exact(s.x))))
    errs = np.array(errs)
    assert np.all(errs[1:] < errs[:-1] / 3.2)  # ~O(h^2) decay


def test_l2_constant_matches_eigenvalue_formula():
    # largest eigenvalue of the discrete second-difference operator:
    # (4/h^2) sin^2(k pi h / 2) at the top mode k = N
    for N in (5, 16, 33):
        s = EllipticSystem(N, tag="L2L2")
        rep = elliptic_estimate_constant(s)
        k = np.arange(1, N + 1)
        lam = (4.0 / s.h ** 2) * np.sin(k * np.pi * s.h / 2.0) ** 2
        assert_allclose(rep.constant, lam[-1], rtol=1e-12)
        assert_allclose(np.sort(rep.sigma_profile), lam, rtol=1e-10)
        assert rep.kernel_dim == 0


def test_l2_constant_single_node():
    s = EllipticSystem(1, tag="L2L2")
    rep = elliptic_estimate_constant(s)
    assert_allclose(rep.constant, 8.0, rtol=1e-14)
    s2 = EllipticSystem(1, tag="H1H-1")
    rep2 = elliptic_estimate_constant(s2)
    assert_allclose(rep2.constant, 1.0, rtol=1e-12)


def test_h1_pair_is_isometry_for_unit_coefficients():
    for N in (7, 32, 101):
        s = EllipticSystem(N, a=1.0, c=0.0, tag="H1H-1")
        rep = elliptic_estimate_constant(s)
        assert_allclose(rep.sigma_profile, np.ones(N), rtol=1e-9)
        assert_allclose(rep.constant, 1.0, rtol=1e-9)


def test_h1_norms_bracket_operator_directly():
    # independent check of the tagged norms: for random phi, the ratio
    # |L phi|_{H^-1} / |phi|_{H^1_0} never exceeds the reported constant
    s = EllipticSystem(24, a=lambda x: 1.0 + 0.5 * np.sin(3 * x),
                       c=0.3, tag="H1H-1")
    rep = elliptic_estimate_constant(s)
    V, X = s.solution_space(), s.data_space()
    rng = np.random.default_rng(5)
    ratios = []
    for _ in range(64):
        phi = rng.standard_normal(24)
        ratios.append(norm(X, Element(s.matrix @ phi, X))
                      / norm(V, Element(phi, V)))
    ratios = np.array(ratios)
    assert np.all(ratios <= rep.constant * (1 + 1e-9))
    assert ratios.max() > 0.2 * rep.constant  # constant is attained nearby


def test_h1_dual_norm_matches_variational_definition():
    # |h|_{H^-1} = sup_v <h, v>_{L^2} / |v|_{H^1_0}, realized by the
    # solution of the unit-coefficient problem
    s = EllipticSystem(12, tag="H1H-1")
    X = s.data_space()
    K0 = s._reference_stiffness()
    M = s.h * np.eye(12)
    rng = np.random.default_rng(9)
    h_vec = rng.standard_normal(12)
    v_star = np.linalg.solve(K0, M @ h_vec)
    sup = (h_vec @ M @ v_star) / np.sqrt(v_star @ K0 @ v_star)
    assert_allclose(norm(X, Element(h_vec, X)), sup, rtol=1e-10)


def test_indefinite_potential_reported():
    # a potential above the first eigenvalue pi^2 makes the operator
    # indefinite; the estimate still computes
    s = EllipticSystem(20, a=1.0, c=50.0, tag="L2L2")
    assert s.min_eig < 0.0
    assert s.shifted_spd
    rep = elliptic_estimate_constant(s)
    assert "not positive definite" in rep.note
    assert np.isfinite(rep.constant)


def _count_below(diag, off, shift):
    off2 = [0.0] + (np.asarray(off) ** 2).tolist()
    pivmin = np.finfo(float).tiny * max(1.0, max(off2))
    return _sturm_count(list(diag), off2, shift, pivmin)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [1, 2, 17, 100])
def test_sturm_count_matches_eigvalsh(seed, n):
    # SPD (diagonally dominant) for even seeds, indefinite for odd ones
    rng = np.random.default_rng(1000 * n + seed)
    off = rng.uniform(-1.0, 1.0, n - 1)
    diag = rng.uniform(2.1, 3.0, n) if seed % 2 == 0 else rng.normal(size=n)
    T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    lam = np.linalg.eigvalsh(T)
    gaps = np.diff(lam)
    mids = (lam[:-1] + 0.5 * gaps)[gaps > 1e-6]
    shifts = np.concatenate([[lam[0] - 1.0, lam[-1] + 1.0, 0.0], mids])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sh in shifts:
            assert _count_below(diag, off, sh) == np.count_nonzero(lam < sh)


def test_sturm_count_guards_zero_pivot():
    # the first pivot of T - 1*I is exactly 0, and so is an eigenvalue of
    # [[1, 1], [1, 1]]: the guarded pivot counts it as below the shift
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _count_below([1.0, 1.0], [1.0], 1.0) == 1
        assert _count_below([1.0, 1.0], [1.0], 0.0) == 1
        assert _count_below([0.0, 0.0, 0.0], [0.0, 0.0], 0.0) == 3
        assert _count_below([1.0, 1.0, 1.0], [1.0, 1.0], 1.0) == 2


@pytest.mark.parametrize("N, c", [(1, 0.0), (30, 0.0), (64, 50.0),
                                  (100, 1e6), (127, 3e7), (255, 9.5)])
def test_min_eig_and_inertia_match_eigvalsh(N, c):
    # a large potential makes the operator strongly indefinite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = EllipticSystem(N, a=lambda x: 1.0 + x, c=c)
        lam = np.linalg.eigvalsh(s.matrix)
        scale = np.abs(lam).max()
        assert abs(s.min_eig - lam[0]) <= 1e-13 * scale
        assert s.positive_definite == (lam[0] > 0.0)
        assert s.shifted_spd == (lam[0] + s.shift > 0.0)
        rep = elliptic_estimate_constant(s)
    assert ("not positive definite" in rep.note) == (lam[0] <= 0.0)


def test_min_eig_of_zero_matrix_terminates():
    # a = 1, c = 8 on one node gives the 1 x 1 zero matrix: the Gershgorin
    # interval has width 0, so the bisection must stop at adjacent doubles
    s = EllipticSystem(1, a=1.0, c=8.0)
    assert s.matrix[0, 0] == 0.0
    assert not s.positive_definite
    assert abs(s.min_eig) <= np.finfo(float).tiny


def test_sweep_l2_growing():
    swept = elliptic_sweep([8, 16, 32, 64], tag="L2L2")
    assert swept.verdict == "growing"
    consts = np.array(swept.constants)
    # ~4x per mesh doubling
    assert np.all(consts[1:] / consts[:-1] > 3.0)
    ref = 4.0 * (np.array([8, 16, 32, 64]) + 1.0) ** 2
    assert_allclose(consts, ref, rtol=0.05)


def test_sweep_h1_bounded():
    swept = elliptic_sweep([8, 16, 32, 64], tag="H1H-1")
    assert swept.verdict == "bounded"
    assert_allclose(swept.constants, np.ones(4), rtol=1e-9)


def test_sweep_h1_bounded_variable_coefficients():
    swept = elliptic_sweep([8, 16, 32, 64], tag="H1H-1",
                           a=lambda x: 1.0 + 0.5 * np.sin(3 * x), c=0.3)
    consts = np.array(swept.constants)
    assert swept.verdict == "bounded"
    assert consts.max() / consts.min() <= 1.2


@pytest.mark.parametrize("tag, verdict", [("L2L2", "growing"),
                                          ("H1H-1", "bounded")])
def test_sweep_verdict_ignores_kernel(tag, verdict):
    # c is the lowest discrete eigenvalue at N=15, so that level alone has
    # a kernel; the constant is sigma_max, which the kernel does not move,
    # so the verdict follows the constants (a kernel-aware rule would say
    # "inconclusive" for both tags)
    c = 4.0 * 16 ** 2 * np.sin(np.pi / 32) ** 2
    swept = elliptic_sweep((15, 31, 63, 127), tag=tag, c=c)
    assert swept.kernel_dims == [1, 0, 0, 0]
    assert swept.verdict == verdict


def test_validation_errors():
    with pytest.raises(ValueError, match="interior node"):
        EllipticSystem(0)
    with pytest.raises(ValueError, match="space tag"):
        EllipticSystem(4, tag="H2L2")
    with pytest.raises(ValueError, match="positive"):
        EllipticSystem(4, a=-1.0)
    with pytest.raises(ValueError, match="nodal values"):
        EllipticSystem(4, a=np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        EllipticSystem(4, c=np.array([0.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError, match="levels"):
        elliptic_sweep([8, 16], tag="L2L2")
    with pytest.raises(ValueError, match="increasing"):
        elliptic_sweep([8, 8, 16], tag="L2L2")


def test_operator_map_spaces_consistent():
    s = EllipticSystem(6, tag="H1H-1")
    F = elliptic_operator_map(s)
    assert F.domain.dim == 6 and F.codomain.dim == 6
    assert F.domain.name.endswith("H10")
    assert F.codomain.name.endswith("Hm1")
