"""Tests for kernel dimensions, estimate constants and growth verdicts."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from fcopt.spaces import (Element, SpaceDescriptor, LinearMap,
                          singular_triplets)
from fcopt.diagnostics import (
    OperatorFamily,
    kernel_dimension,
    restricted_estimate_constant,
    compact_perturbed_constant,
    codim_growth_verdict,
)
from fcopt.elliptic import elliptic_sweep
from fcopt.penalty import MultiplierPair, kkt_check
from fcopt.problems import equality_qp, lq_endpoint_problem
from fcopt.tree import sde_estimate_sweep
from fcopt.wave import wave_sweep


def idmap(dim, mat=None, compact=False):
    s = SpaceDescriptor("X", dim)
    return LinearMap(np.eye(dim) if mat is None else mat, s, s, compact_flag=compact)


def two_space_map(mat, compact=False):
    nx, nv = mat.shape
    v = SpaceDescriptor("V", nv)
    x = SpaceDescriptor("X", nx)
    return LinearMap(mat, v, x, compact_flag=compact)


# ---------------------------------------------------------------- kernels


def kdim_both_ways(f):
    """kernel_dimension from its own SVD; a caller's sigma must agree."""
    kdim = kernel_dimension(f)
    sigma = singular_triplets(f, compute_uv=False)
    assert kernel_dimension(f, sigma=sigma) == kdim
    return kdim


def test_kernel_dimension_rank_one():
    f = idmap(2, np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert kdim_both_ways(f) == 1


def test_kernel_dimension_identity():
    assert kdim_both_ways(idmap(4)) == 0


def test_kernel_dimension_constructed_rank3():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(5, 3)) @ rng.normal(size=(3, 5))
    assert kdim_both_ways(idmap(5, m)) == 2


def test_kernel_dimension_zero_map():
    assert kdim_both_ways(idmap(3, np.zeros((3, 3)))) == 3


def _sigma_only_call(case):
    """One call of a sigma-only caller, its inputs built beforehand."""
    if case == "restricted":
        rng = np.random.default_rng(5)
        b, c = rng.normal(size=(6, 6)), rng.normal(size=(4, 4))
        v = SpaceDescriptor("V", 6, np.diag(b @ b.T) + 6.0)
        x = SpaceDescriptor("X", 4, np.diag(c @ c.T) + 4.0)
        f = LinearMap(rng.normal(size=(4, 6)), v, x)
        return lambda: restricted_estimate_constant(f)
    p = equality_qp(6, 2, 0)
    pair = MultiplierPair(1.0, Element(p.extras["kkt_multiplier"], p.X))
    return lambda: kkt_check(p, p.u_bar, pair)


@pytest.mark.parametrize("case", ["restricted", "kkt_check"])
def test_sigma_only_callers_run_one_svd_without_vectors(case, monkeypatch):
    # callers that read only sigma take one SVD per operator, with no
    # singular vectors formed (the kernel count reuses that sigma); the
    # elliptic estimate takes none (test_elliptic's structural guard)
    call = _sigma_only_call(case)
    calls = []
    svd = np.linalg.svd

    def recording_svd(a, full_matrices=True, compute_uv=True,
                      hermitian=False):
        calls.append(compute_uv)
        return svd(a, full_matrices=full_matrices, compute_uv=compute_uv,
                   hermitian=hermitian)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    call()
    assert calls == [False]


# ---------------------------------------------------------------- restricted


def test_restricted_constant_identity():
    rep = restricted_estimate_constant(idmap(5))
    assert rep.constant == pytest.approx(1.0)
    assert rep.kernel_dim == 0


def test_restricted_constant_diag_harmonic():
    # analytic oracle: sigma_min = 1/n
    n = 7
    f = idmap(n, np.diag(1.0 / np.arange(1, n + 1)))
    rep = restricted_estimate_constant(f)
    assert rep.constant == pytest.approx(float(n), rel=1e-12)


def test_restricted_constant_rank_deficient():
    rep = restricted_estimate_constant(idmap(2, np.array([[1.0, 0.0], [0.0, 0.0]])))
    assert rep.constant == pytest.approx(1.0)
    assert rep.kernel_dim == 1


def test_restricted_constant_zero_operator():
    rep = restricted_estimate_constant(idmap(3, np.zeros((3, 3))))
    assert np.isinf(rep.constant)
    assert rep.kernel_dim == 3


# ---------------------------------------------------------------- perturbed


def test_compact_perturbed_kernel_patched_by_projection():
    # F* kills coordinate 1; G restores it: stacked sigmas are all 1
    f = idmap(3, np.diag([0.0, 1.0, 1.0]))
    s = SpaceDescriptor("X", 3)
    w = SpaceDescriptor("W", 1)
    g = LinearMap(np.array([[1.0, 0.0, 0.0]]), s, w, compact_flag=True)
    rep = compact_perturbed_constant(f, g)
    assert rep.constant == pytest.approx(1.0)
    assert rep.kernel_dim == 0


def test_compact_perturbed_zero_g_reduces_to_plain_sigma():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
    f = idmap(4, m)
    s = f.codomain
    g = LinearMap(np.zeros((1, 4)), s, SpaceDescriptor("W", 1), compact_flag=True)
    rep = compact_perturbed_constant(f, g)
    direct = restricted_estimate_constant(f)
    assert rep.constant == pytest.approx(direct.constant, rel=1e-10)


def test_compact_perturbed_requires_flag():
    f = idmap(2)
    g = LinearMap(np.eye(2), f.domain, f.codomain, compact_flag=False)
    with pytest.raises(ValueError):
        compact_perturbed_constant(f, g)


def test_compact_perturbed_harmonic_with_projection():
    # diag(1/k) with G = projection onto the first m coordinates and
    # n = m + 1: the worst surviving coordinate is k = n, so C = n = m + 1
    n, m = 5, 4
    f = idmap(n, np.diag(1.0 / np.arange(1, n + 1)))
    s = f.codomain
    g = LinearMap(np.eye(m, n), s, SpaceDescriptor("W", m), compact_flag=True)
    rep = compact_perturbed_constant(f, g)
    assert rep.constant == pytest.approx(float(m + 1), rel=1e-10)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.integers(2, 6), st.integers(1, 4))
def test_compact_perturbed_matches_eigh_oracle(seed, n, wrows):
    # independent oracle: C = 1/sqrt(lambda_min(M'M)) for the stacked matrix
    rng = np.random.default_rng(seed)
    f = idmap(n, rng.normal(size=(n, n)))
    g = LinearMap(rng.normal(size=(wrows, n)), f.codomain,
                  SpaceDescriptor("W", wrows), compact_flag=True)
    stacked = np.vstack([f.matrix.T, g.matrix])
    lam = np.linalg.eigvalsh(stacked.T @ stacked)
    rep = compact_perturbed_constant(f, g)
    if lam.min() > 1e-12:
        assert rep.constant == pytest.approx(1.0 / np.sqrt(lam.min()), rel=1e-8)


def test_compact_perturbed_with_kernel_projector_bound():
    # invariant: G = projector onto ker(F*) gives a finite constant that is
    # at most the restricted constant + 1
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = rng.normal(size=(5, 2)) @ rng.normal(size=(2, 5))
        f = idmap(5, m)
        u, s, vt = np.linalg.svd(m)
        null = u[:, 2:]  # ker(F*) basis (identity gram)
        g = LinearMap(null.T, f.codomain, SpaceDescriptor("W", 3),
                      compact_flag=True)
        rep = compact_perturbed_constant(f, g)
        restr = restricted_estimate_constant(f)
        assert np.isfinite(rep.constant)
        assert rep.constant <= restr.constant + 1.0 + 1e-9


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6))
def test_compact_perturbed_monotone_in_g_rows(seed):
    # adding rows to G never increases the constant
    rng = np.random.default_rng(seed)
    n = 4
    f = idmap(n, rng.normal(size=(n, n)))
    rows = rng.normal(size=(3, n))
    small = LinearMap(rows[:1], f.codomain, SpaceDescriptor("W1", 1),
                      compact_flag=True)
    big = LinearMap(rows, f.codomain, SpaceDescriptor("W3", 3),
                    compact_flag=True)
    c_small = compact_perturbed_constant(f, small).constant
    c_big = compact_perturbed_constant(f, big).constant
    assert c_big <= c_small * (1.0 + 1e-9) or not np.isfinite(c_small)


# ---------------------------------------------------------------- verdicts


def test_growth_verdict_identity_family_bounded():
    fam = OperatorFamily([(n, idmap(n)) for n in (8, 16, 32)])
    sweep = codim_growth_verdict(fam)
    assert sweep.verdict == "bounded"
    assert_allclose(sweep.constants, [1.0, 1.0, 1.0])


def test_growth_verdict_harmonic_family_growing():
    fam = OperatorFamily(
        [(n, idmap(n, np.diag(1.0 / np.arange(1, n + 1))))
         for n in (8, 16, 32, 64)])
    sweep = codim_growth_verdict(fam)
    assert sweep.verdict == "growing"
    for (n, rep) in sweep.levels:
        assert 0.9 <= rep.constant / n <= 1.1
    assert "not a proof" in sweep.note


def test_growth_verdict_needs_three_levels():
    fam = OperatorFamily([(2, idmap(2)), (4, idmap(4))])
    with pytest.raises(ValueError):
        codim_growth_verdict(fam)


def test_growth_verdict_kernel_based_when_all_infinite():
    # families whose levels are all rank deficient fall back to kernel growth
    def deficient(n):
        m = np.zeros((n, n))
        half = n // 2
        m[:half, :half] = np.eye(half)
        return idmap(n, m)

    fam = OperatorFamily([(n, deficient(n)) for n in (8, 16, 32)])
    sweep = codim_growth_verdict(fam)
    assert sweep.verdict == "growing"
    assert sweep.kernel_dims == [4, 8, 16]


_SWEEPS = {
    "codim": lambda gf: codim_growth_verdict(
        OperatorFamily([(n, idmap(n)) for n in (8, 16, 32)]), growth_factor=gf),
    "elliptic": lambda gf: elliptic_sweep([7, 15, 31], tag="H1H-1",
                                          growth_factor=gf),
}


@pytest.mark.parametrize("sweep", sorted(_SWEEPS))
@pytest.mark.parametrize("factor", [1.0, 0.5, np.nan, np.inf])
def test_sweeps_reject_unusable_growth_factor(sweep, factor):
    with pytest.raises(ValueError, match="growth_factor"):
        _SWEEPS[sweep](factor)


_FIXED_SETTINGS = [
    (kernel_dimension, "tol"),
    (restricted_estimate_constant, "tol"),
    (compact_perturbed_constant, "tol"),
    (codim_growth_verdict, "tol"),
    (sde_estimate_sweep, "growth_factor"),
    (wave_sweep, "growth_factor"),
    (lq_endpoint_problem, "target_amp"),
]


@pytest.mark.parametrize("fn, name", _FIXED_SETTINGS,
                         ids=[fn.__name__ for fn, _ in _FIXED_SETTINGS])
def test_fixed_settings_are_not_parameters(fn, name):
    # the rank cutoff RANK_RTOL, the factor 2 of the tree and wave sweeps
    # and the lq-endpoint target amplitude 0.5 are fixed, as no caller
    # sets them
    assert name not in inspect.signature(fn).parameters


def test_family_ordering_enforced():
    with pytest.raises(ValueError):
        OperatorFamily([(8, idmap(8)), (4, idmap(4))])
