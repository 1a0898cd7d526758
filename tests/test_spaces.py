"""Tests for gram-metrized spaces, adjoints and singular triplets."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from fcopt.spaces import (
    SpaceDescriptor,
    Element,
    LinearMap,
    norm,
    dual_norm,
    pairing,
    apply_map,
    adjoint,
    singular_triplets,
    rank_mask,
    RANK_RTOL,
    gram_from_config,
    space_from_config,
    stiffness1d,
    _solve_triangular,
)


def random_spd(rng, dim):
    a = rng.normal(size=(dim, dim))
    return a.T @ a + 0.5 * np.eye(dim)


def gram_inner(space, x, y):
    return float(x.coords @ space.gram @ y.coords)


# ---------------------------------------------------------------- norm


def test_norm_euclidean():
    s = SpaceDescriptor("X", 2)
    assert norm(s, s.element([3.0, 4.0])) == pytest.approx(5.0)


def test_norm_zero():
    s = SpaceDescriptor("X", 3, random_spd(np.random.default_rng(0), 3))
    assert norm(s, s.zero()) == 0.0


def test_norm_stiffness_oracle():
    # oracle: explicit quadratic form x'Kx for K = tridiag(-1,2,-1)/h
    h = 0.25
    k = stiffness1d(3, h)
    x = np.array([1.0, 0.0, 0.0])
    expected = np.sqrt(x @ k @ x)  # = sqrt(2/h) = sqrt(8)
    assert expected == pytest.approx(np.sqrt(8.0))
    s = SpaceDescriptor("H", 3, gram_from_config("stiffness1d(0.25)", 3))
    assert norm(s, s.element(x)) == pytest.approx(expected, rel=1e-12)


def test_norm_dimension_mismatch():
    s2 = SpaceDescriptor("X", 2)
    s3 = SpaceDescriptor("Y", 3)
    with pytest.raises(ValueError):
        norm(s2, s3.element([1.0, 2.0, 3.0]))


def test_element_length_checked():
    s = SpaceDescriptor("X", 2)
    with pytest.raises(ValueError):
        Element([1.0, 2.0, 3.0], s)


# ---------------------------------------------------------------- grams


def test_gram_must_be_symmetric():
    with pytest.raises(ValueError):
        SpaceDescriptor("X", 2, [[1.0, 0.5], [0.0, 1.0]])
    # the zero gram is diagonal, and still reported here
    with pytest.raises(ValueError, match="not symmetric"):
        SpaceDescriptor("X", 2, np.zeros((2, 2)))


def test_diagonal_gram_kept_bitwise_and_owned():
    g = np.diag([3.0, 1e-300, 7.0])
    s = SpaceDescriptor("X", 3, g)
    assert np.array_equal(s.gram, 0.5 * (g + g.T))
    g[0, 0] = 5.0
    assert s.gram[0, 0] == 3.0


def test_quadratic_form_rows_match_norms():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    s = SpaceDescriptor("X", 4, a.T @ a + np.eye(4))
    stack = rng.normal(size=(6, 4))
    rows = [norm(s, s.element(x)) ** 2 for x in stack]
    assert_allclose(s.quadratic_form(stack), rows, rtol=1e-13)
    assert s.quadratic_form(stack[0]) == stack[0] @ (s.gram @ stack[0])


@pytest.mark.parametrize("h", [None, 0.1])
def test_diagonal_gram_matches_dense_reference(h):
    # expected: the products with the dense gram np.diag(d), which every
    # space formed while it stored its gram as a matrix, and division by
    # its Cholesky factor sqrt(d) for the dual norm
    dim = 37
    gram = None if h is None else h * np.eye(dim)
    d = np.ones(dim) if h is None else np.full(dim, h)
    s = SpaceDescriptor("X", dim, gram)
    assert s.is_diagonal
    dense = np.diag(d)
    rng = np.random.default_rng(11)
    x = rng.normal(size=dim)
    stack = rng.normal(size=(16, dim))
    assert np.array_equal(s.gram, dense)
    assert np.array_equal(s.chol_lower, np.diag(np.sqrt(d)))
    assert np.array_equal(s.apply_gram(x), dense @ x)
    assert np.array_equal(s.apply_gram(stack.T), dense @ stack.T)
    assert np.array_equal(s.quadratic_form(x), x @ (dense @ x))
    # the row dots sum over the same layout as with the dense product
    assert np.array_equal(s.quadratic_form(stack),
                          np.einsum("ij,ij->i", stack, (dense @ stack.T).T))
    assert np.array_equal(norm(s, s.element(x)), np.sqrt(x @ (dense @ x)))
    c = np.sqrt(d)
    assert np.array_equal(dual_norm(s, s.element(x)),
                          np.sqrt(x @ (x / c / c)))


def test_diagonal_space_memory_is_linear_in_dim():
    # a dense 4000 x 4000 gram and Cholesky factor take 256 MB; the
    # diagonal and its square root take 64 kB
    tracemalloc.start()
    try:
        s = SpaceDescriptor("x", 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.dim == 4000
    assert peak < 1e6


def test_same_dimension_other_gram_rejected():
    # the l2 samples of a control path are not an element of the
    # dt-weighted L2 space of the same dimension
    N = 50
    l2 = SpaceDescriptor("control-path", N)
    L2 = SpaceDescriptor("control-path", N, (1.0 / N) * np.eye(N))
    x = l2.element(np.ones(N))
    with pytest.raises(ValueError, match="passed where"):
        norm(L2, x)
    with pytest.raises(ValueError, match="passed where"):
        dual_norm(L2, x)
    with pytest.raises(ValueError, match="passed where"):
        apply_map(LinearMap(np.eye(N), L2, L2), x)
    # an equal gram held by another object is accepted, dense ones too
    assert norm(SpaceDescriptor("copy", N), x) == pytest.approx(np.sqrt(N))
    k = stiffness1d(4, 0.25)
    y = SpaceDescriptor("H", 4, k).element([1.0, 0.0, 0.0, 0.0])
    assert norm(SpaceDescriptor("H-copy", 4, k), y) == pytest.approx(
        np.sqrt(8.0))
    with pytest.raises(ValueError, match="passed where"):
        norm(SpaceDescriptor("H-scaled", 4, 2.0 * k), y)


def test_gram_must_be_positive_definite():
    for gram in ([[1.0, 0.0], [0.0, -1.0]], [[1.0, 0.0], [0.0, 0.0]],
                 [[1.0, 2.0], [2.0, 1.0]]):
        with pytest.raises(ValueError, match="not positive definite"):
            SpaceDescriptor("X", 2, gram)


def test_gram_config_rows_and_errors():
    g = gram_from_config([[2.0, 0.0], [0.0, 3.0]], 2)
    assert_allclose(g, np.diag([2.0, 3.0]))
    with pytest.raises(ValueError):
        gram_from_config("sparkle", 2)


def test_space_from_config():
    s = space_from_config({"name": "V", "dim": 3, "gram": "identity"})
    assert s.dim == 3
    assert_allclose(s.gram, np.eye(3))


# ---------------------------------------------------------------- dual norm


def test_dual_norm_is_sup_of_pairing():
    rng = np.random.default_rng(42)
    s = SpaceDescriptor("X", 4, random_spd(rng, 4))
    phi = s.element(rng.normal(size=4))
    dn = dual_norm(s, phi)
    # sampled sup over unit vectors never exceeds the gram-dual norm
    best = 0.0
    for _ in range(100):
        x = rng.normal(size=4)
        xe = s.element(x / norm(s, s.element(x)))
        best = max(best, pairing(phi, xe))
        assert pairing(phi, xe) <= dn + 1e-10
    # and the maximizer x* = G^-1 phi / |G^-1 phi| attains it
    xstar = s.apply_gram_inverse(phi.coords)
    xstar = s.element(xstar / norm(s, s.element(xstar)))
    assert pairing(phi, xstar) == pytest.approx(dn, rel=1e-10)
    assert best <= dn


# ---------------------------------------------------------------- adjoint


def test_adjoint_plain_transpose_for_identity_grams():
    v = SpaceDescriptor("V", 2)
    x = SpaceDescriptor("X", 2)
    f = LinearMap([[1.0, 2.0], [3.0, 4.0]], v, x)
    assert_allclose(adjoint(f).matrix, [[1.0, 3.0], [2.0, 4.0]])


def test_adjoint_of_identity_is_identity():
    g = random_spd(np.random.default_rng(1), 3)
    v = SpaceDescriptor("V", 3, g)
    x = SpaceDescriptor("X", 3, g)
    f = LinearMap(np.eye(3), v, x)
    assert_allclose(adjoint(f).matrix, np.eye(3), atol=1e-12)


def test_adjoint_pairing_identity_random():
    # oracle: both inner products evaluated directly, 100 random pairs
    rng = np.random.default_rng(7)
    v = SpaceDescriptor("V", 3, random_spd(rng, 3))
    x = SpaceDescriptor("X", 4, random_spd(rng, 4))
    f = LinearMap(rng.normal(size=(4, 3)), v, x)
    fstar = adjoint(f)
    for _ in range(100):
        u = v.element(rng.normal(size=3))
        phi = x.element(rng.normal(size=4))
        lhs = gram_inner(v, apply_map(fstar, phi), u)
        rhs = gram_inner(x, phi, apply_map(f, u))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10**6), st.integers(1, 5), st.integers(1, 5))
def test_adjoint_involution(seed, nv, nx):
    rng = np.random.default_rng(seed)
    v = SpaceDescriptor("V", nv, random_spd(rng, nv))
    x = SpaceDescriptor("X", nx, random_spd(rng, nx))
    f = LinearMap(rng.normal(size=(nx, nv)), v, x)
    back = adjoint(adjoint(f))
    assert_allclose(back.matrix, f.matrix, rtol=1e-12, atol=1e-12)
    assert back.domain is v and back.codomain is x


def test_adjoint_keeps_compact_flag():
    v = SpaceDescriptor("V", 2)
    f = LinearMap(np.eye(2), v, v, compact_flag=True)
    assert adjoint(f).compact_flag


# ---------------------------------------------------------------- svd


def test_singular_triplets_diagonal():
    s = SpaceDescriptor("X", 2)
    f = LinearMap(np.diag([3.0, 1.0]), s, s)
    sigmas = [t[0] for t in singular_triplets(f)]
    assert_allclose(sigmas, [3.0, 1.0])


def test_singular_triplets_identity():
    s = SpaceDescriptor("X", 4)
    f = LinearMap(np.eye(4), s, s)
    assert_allclose([t[0] for t in singular_triplets(f)], np.ones(4))


def _char_poly_roots_3x3(a):
    """Eigenvalues of a 3x3 matrix from its characteristic polynomial.

    Coefficients come from trace / principal-minor / determinant cofactor
    arithmetic only, independent of any eigensolver.
    """
    tr = a[0, 0] + a[1, 1] + a[2, 2]
    minors = (
        a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    )
    det = (
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )
    return np.sort(np.roots([1.0, -tr, minors, -det]).real)[::-1]


def assert_sigma_only_matches(f, sigmas):
    """compute_uv=False gives the triplets' sigma as a descending ndarray."""
    s = singular_triplets(f, compute_uv=False)
    assert isinstance(s, np.ndarray) and s.ndim == 1
    assert s.size == min(f.domain.dim, f.codomain.dim)
    assert np.all(np.diff(s) <= 0.0)
    assert_allclose(s, sigmas, rtol=1e-12, atol=1e-12 * max(sigmas))


def test_singular_triplets_charpoly_oracle():
    m = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    lam = _char_poly_roots_3x3(m.T @ m)
    expected = np.sqrt(np.clip(lam, 0.0, None))
    s = SpaceDescriptor("X", 3)
    f = LinearMap(m, s, s)
    got = [t[0] for t in singular_triplets(f)]
    assert_allclose(got, expected, atol=1e-10)
    assert_sigma_only_matches(f, got)
    assert_allclose(expected, [2.0, np.sqrt(2.0), 0.0], atol=1e-12)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("lower", [True, False])
def test_blocked_triangular_solve_matches_dense_solve(n, lower):
    # sizes around the block edge: one partial block, exactly one block,
    # one block plus one row, two full blocks plus two rows
    rng = np.random.default_rng(n)
    L = np.linalg.cholesky(random_spd(rng, n))
    t = L if lower else L.T
    for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
        x = _solve_triangular(t, b, lower=lower)
        assert x.shape == b.shape
        assert_allclose(x, np.linalg.solve(t, b), rtol=1e-10, atol=1e-12)
        assert_allclose(t @ x, b, rtol=1e-10, atol=1e-12)


def test_apply_gram_inverse_matches_dense_solve():
    rng = np.random.default_rng(5)
    for gram in (random_spd(rng, 70), np.diag(rng.uniform(0.5, 2.0, 70))):
        s = SpaceDescriptor("X", 70, gram=gram)
        assert np.array_equal(s.chol_lower, np.linalg.cholesky(gram))
        phi = rng.normal(size=70)
        assert_allclose(s.apply_gram_inverse(phi), np.linalg.solve(gram, phi),
                        rtol=1e-10, atol=1e-12)


def test_rank_mask_cutoff():
    # strictly above tol * sigma_max counts; a value at the cutoff does not
    s = np.array([4.0, 2.0, 4.0 * RANK_RTOL, 3.0 * RANK_RTOL, 0.0])
    assert rank_mask(s).tolist() == [True, True, False, False, False]
    assert rank_mask(s, tol=0.5).tolist() == [True, False, False, False,
                                              False]
    # unsorted input is masked in place
    assert rank_mask(s[::-1]).tolist() == [False, False, False, True, True]
    # a numerically zero operator, and no singular values at all
    assert rank_mask(np.zeros(3)).tolist() == [False, False, False]
    assert rank_mask(np.array([])).shape == (0,)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.0, 1e6), max_size=12),
       st.sampled_from([RANK_RTOL, 1e-6, 0.5]))
def test_rank_mask_matches_inline_rule(values, tol):
    # the rule it replaced: s > tol * smax when smax > 0, else no rank
    s = np.array(values)
    smax = max(values, default=0.0)
    expect = [smax > 0.0 and v > tol * smax for v in values]
    assert rank_mask(s, tol).tolist() == expect


def test_singular_triplets_structure_and_reconstruction():
    rng = np.random.default_rng(11)
    v = SpaceDescriptor("V", 3, random_spd(rng, 3))
    x = SpaceDescriptor("X", 4, random_spd(rng, 4))
    f = LinearMap(rng.normal(size=(4, 3)), v, x)
    trips = singular_triplets(f)
    smax = trips[0][0]
    recon = np.zeros_like(f.matrix)
    for sig, left, right in trips:
        assert norm(x, left) == pytest.approx(1.0, rel=1e-10)
        assert norm(v, right) == pytest.approx(1.0, rel=1e-10)
        assert_allclose(apply_map(f, right).coords, sig * left.coords,
                        atol=1e-10 * max(smax, 1.0))
        recon += sig * np.outer(left.coords, v.gram @ right.coords)
    assert np.abs(recon - f.matrix).max() <= 1e-10 * max(smax, 1.0)
    assert_sigma_only_matches(f, [t[0] for t in trips])


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6))
def test_sigma_set_matches_adjoint(seed):
    rng = np.random.default_rng(seed)
    v = SpaceDescriptor("V", 5, random_spd(rng, 5))
    x = SpaceDescriptor("X", 5, random_spd(rng, 5))
    f = LinearMap(rng.normal(size=(5, 5)), v, x)
    s1 = np.array([t[0] for t in singular_triplets(f)])
    s2 = np.array([t[0] for t in singular_triplets(adjoint(f))])
    assert_allclose(s1, s2, rtol=1e-8, atol=1e-8 * max(1.0, s1.max()))


def test_linear_map_shape_checked():
    v = SpaceDescriptor("V", 3)
    x = SpaceDescriptor("X", 2)
    with pytest.raises(ValueError):
        LinearMap(np.eye(3), v, x)
