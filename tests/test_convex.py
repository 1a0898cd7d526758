"""Tests for convex sets, projections, subgradients and variation sampling."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from fcopt.spaces import SpaceDescriptor, Element, norm, dual_norm, pairing
from fcopt.convex import (
    Singleton,
    NonnegativeCone,
    Box,
    WholeSpace,
    project,
    distance,
    dist_subgradient,
    normal_cone_residual,
    tangent_cone_sample,
    _kronecker,
)
from oracles import AffineSubspace, directional_variation


def random_diagonal(rng, dim):
    # the entries of a positive diagonal gram
    return rng.uniform(0.5, 2.0, size=dim)


# ---------------------------------------------------------------- project


def test_project_cone_clips():
    s = SpaceDescriptor("X", 2)
    e = project(NonnegativeCone(s), Element([-1.0, 2.0], s))
    assert_allclose(e.coords, [0.0, 2.0])


def test_project_singleton():
    s = SpaceDescriptor("X", 2)
    e = project(Singleton(s, [0.0, 0.0]), Element([3.0, 4.0], s))
    assert_allclose(e.coords, [0.0, 0.0])


def test_project_box_against_grid_oracle():
    # oracle: dense grid minimization of |x - e| over the box at step 1e-3
    s = SpaceDescriptor("X", 2)
    x = np.array([2.0, -0.5])
    grid = np.linspace(0.0, 1.0, 1001)
    gx, gy = np.meshgrid(grid, grid, indexing="ij")
    d2 = (gx - x[0]) ** 2 + (gy - x[1]) ** 2
    i, j = np.unravel_index(np.argmin(d2), d2.shape)
    oracle = np.array([grid[i], grid[j]])
    assert_allclose(oracle, [1.0, 0.0], atol=1e-12)
    got = project(Box(s, 0.0, 1.0), Element(x, s))
    assert_allclose(got.coords, oracle, atol=1e-3)
    assert_allclose(got.coords, [1.0, 0.0], atol=1e-12)


def test_project_affine_subspace():
    s = SpaceDescriptor("X", 3)
    # span{e1} shifted to pass through (0,1,0)
    aff = AffineSubspace(s, np.eye(3)[:, :1], offset=[0.0, 1.0, 0.0])
    p = project(aff, Element([2.0, 5.0, -3.0], s))
    assert_allclose(p.coords, [2.0, 1.0, 0.0], atol=1e-12)


def test_affine_requires_gram_orthonormal_basis():
    s = SpaceDescriptor("X", 2, [2.0, 1.0])
    with pytest.raises(ValueError):
        AffineSubspace(s, np.eye(2)[:, :1])  # |e1|_G = sqrt(2) != 1


def _kkt_enumeration(g, c, lo, hi):
    """Every KKT point of min (x - c)' G (x - c) over lo <= x <= hi.

    Tries each pattern of free coordinates and coordinates held at a
    finite lo or hi: 3^n patterns for a box, 2^n for the cone.  The
    minimizer on the face is a KKT point when it lies in the box and the
    gradient at it points outward at every held coordinate.
    """
    n = len(c)
    found = []
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        pattern = np.array(pattern)
        held = np.where(pattern < 0, lo, np.where(pattern > 0, hi, 0.0))
        if not np.all(np.isfinite(held[pattern != 0])):
            continue
        f, h = np.flatnonzero(pattern == 0), np.flatnonzero(pattern != 0)
        x = held.copy()
        x[f] = c[f] - np.linalg.solve(g[np.ix_(f, f)],
                                      g[np.ix_(f, h)] @ (x[h] - c[h]))
        grad = g @ (x - c)
        tol = 1e-9 * max(1.0, np.abs(grad).max())
        if (np.all(x >= lo - tol) and np.all(x <= hi + tol)
                and np.all(grad[pattern < 0] >= -tol)
                and np.all(grad[pattern > 0] <= tol)):
            found.append(x)
    return found


@pytest.mark.parametrize("kind", ["box", "nonneg"])
@pytest.mark.parametrize("dim", range(1, 7))
def test_project_diagonal_gram_matches_kkt_enumeration(kind, dim):
    # the projection, a clip per coordinate, is the unique KKT point in a
    # diagonal gram other than the identity; bounds include +-inf
    rng = np.random.default_rng([dim, 11])
    for _ in range(8):
        g = random_diagonal(rng, dim)
        s = SpaceDescriptor("X", dim, g)
        if kind == "box":
            lo = np.where(rng.random(dim) < 0.3, -np.inf,
                          rng.normal(size=dim))
            hi = np.where(rng.random(dim) < 0.3, np.inf,
                          np.nan_to_num(lo, neginf=-1.0)
                          + rng.uniform(0.1, 2.0, size=dim))
            E = Box(s, lo, hi)
        else:
            lo, hi = np.zeros(dim), np.full(dim, np.inf)
            E = NonnegativeCone(s)
        x = rng.normal(scale=3.0, size=dim)
        got = project(E, Element(x, s)).coords
        found = _kkt_enumeration(np.diag(g), x, lo, hi)
        assert found
        for ref in found:
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(got - ref).max() <= 1e-10 * scale


def _random_set(rng, s, kind):
    dim = s.dim
    if kind == "affine":
        raw = rng.normal(size=(dim, 2))
        # gram-orthonormalize the columns
        b = np.zeros_like(raw)
        for j in range(2):
            v = raw[:, j]
            for i in range(j):
                v = v - (b[:, i] @ (s.gram * v)) * b[:, i]
            b[:, j] = v / np.sqrt(v @ (s.gram * v))
        E = AffineSubspace(s, b, offset=rng.normal(size=dim))
    elif kind == "singleton":
        E = Singleton(s, rng.normal(size=dim))
    elif kind == "box":
        lo = rng.normal(size=dim)
        E = Box(s, lo, lo + rng.uniform(0.5, 2.0, size=dim))
    elif kind == "nonneg":
        E = NonnegativeCone(s)
    else:
        E = WholeSpace(s)
    return E


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.sampled_from(["singleton", "nonneg", "box", "affine", "whole"]))
def test_projection_invariants(seed, kind):
    rng = np.random.default_rng(seed)
    dim = 3
    s = SpaceDescriptor("X", dim, random_diagonal(rng, dim))
    E = _random_set(rng, s, kind)
    x = Element(rng.normal(scale=2.0, size=dim), s)
    p = project(E, x)
    # membership and idempotence
    assert distance(E, p) <= 1e-10
    p2 = project(E, p)
    assert np.abs(p2.coords - p.coords).max() <= 1e-10
    # optimality against sampled members
    d = norm(s, Element(x.coords - p.coords, s))
    members = E._samples(1000, seed % 97, 4.0, p.coords)
    for e in members[:: max(1, len(members) // 100)]:
        de = norm(s, Element(x.coords - e, s))
        assert d <= de + 1e-8


@pytest.mark.parametrize("gram", ["diagonal", "spd"])
@pytest.mark.parametrize("kind", ["singleton", "nonneg", "box", "affine",
                                  "whole"])
def test_project_stack_matches_row_by_row(kind, gram):
    # "diagonal" is a fixed gram diag(1, 2, 0.5), "spd" a random positive
    # diagonal: every gram is a positive diagonal
    rng = np.random.default_rng(4)
    dim = 3
    g = [1.0, 2.0, 0.5] if gram == "diagonal" else random_diagonal(rng, dim)
    s = SpaceDescriptor("X", dim, g)
    E = _random_set(rng, s, kind)
    stack = rng.normal(scale=2.0, size=(7, dim))
    got = E._project(stack)
    assert got.shape == stack.shape
    rows = np.array([E._project(x) for x in stack])
    assert_allclose(got, rows, rtol=1e-14, atol=1e-14)


# ---------------------------------------------------------------- distance


def test_distance_singleton():
    s = SpaceDescriptor("X", 2)
    assert distance(Singleton(s, [0.0, 0.0]), Element([3.0, 4.0], s)) == pytest.approx(5.0)


def test_distance_member_is_zero():
    s = SpaceDescriptor("X", 2)
    assert distance(Box(s, 0.0, 1.0), Element([0.5, 0.25], s)) == pytest.approx(0.0, abs=1e-14)


def test_distance_cone_grid_oracle():
    # componentwise projection formula gives sqrt(1 + 4) for x = (-1, -2, 3);
    # a coarse feasible grid never beats it
    s = SpaceDescriptor("X", 3)
    cone = NonnegativeCone(s)
    x = Element([-1.0, -2.0, 3.0], s)
    d = distance(cone, x)
    assert d == pytest.approx(np.sqrt(5.0), rel=1e-12)
    grid = np.linspace(0.0, 4.0, 41)
    gx, gy, gz = np.meshgrid(grid, grid, grid, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    dists = np.linalg.norm(pts - x.coords, axis=1)
    assert dists.min() >= d - 1e-12


# ---------------------------------------------------------------- subgradient


def test_dist_subgradient_singleton_unit_direction():
    s = SpaceDescriptor("X", 2)
    w = dist_subgradient(Singleton(s, [0.0, 0.0]), Element([3.0, 4.0], s))
    assert_allclose(w.coords, [0.6, 0.8], atol=1e-12)


def test_dist_subgradient_zero_selection_inside():
    s = SpaceDescriptor("X", 2)
    w = dist_subgradient(Box(s, 0.0, 1.0), Element([0.3, 0.9], s))
    assert_allclose(w.coords, [0.0, 0.0])


def test_dist_subgradient_cone_and_inequality():
    # sampled subgradient-inequality oracle on 1000 random y
    s = SpaceDescriptor("X", 2)
    cone = NonnegativeCone(s)
    x = Element([-3.0, 4.0], s)
    w = dist_subgradient(cone, x)
    assert_allclose(w.coords, [-1.0, 0.0], atol=1e-12)
    rng = np.random.default_rng(17)
    dx = distance(cone, x)
    for _ in range(1000):
        y = Element(rng.normal(scale=3.0, size=2), s)
        lhs = distance(cone, y) - dx
        rhs = pairing(w, Element(y.coords - x.coords, s))
        assert lhs >= rhs - 1e-10


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_dist_subgradient_riesz_identities(seed):
    # invariants: unit dual norm and <w, x - Px> = dist, in random
    # diagonal grams
    rng = np.random.default_rng(seed)
    dim = 3
    cone = NonnegativeCone(SpaceDescriptor("X", dim, random_diagonal(rng, dim)))
    point = Singleton(SpaceDescriptor("Y", dim, random_diagonal(rng, dim)),
                      rng.normal(size=dim))
    for E in (cone, point):
        s = E.space
        x = Element(rng.normal(scale=2.0, size=dim) - 1.0, s)
        d = distance(E, x)
        w = dist_subgradient(E, x)
        if d > 1e-8:
            assert dual_norm(s, w) == pytest.approx(1.0, rel=1e-9)
            gap = pairing(w, Element(x.coords - project(E, x).coords, s))
            assert gap == pytest.approx(d, rel=1e-9)
        else:
            assert dual_norm(s, w) <= 1.0 + 1e-12


# ---------------------------------------------------------------- normal cone


def test_normal_cone_residual_singleton_always_zero():
    s = SpaceDescriptor("X", 2)
    E = Singleton(s, [1.0, 2.0])
    r = normal_cone_residual(E, Element([1.0, 2.0], s), Element([5.0, -3.0], s))
    assert r == pytest.approx(0.0, abs=1e-12)


def test_normal_cone_residual_cone_origin():
    s = SpaceDescriptor("X", 2)
    E = NonnegativeCone(s)
    r = normal_cone_residual(E, s.zero(), Element([-1.0, -1.0], s))
    assert r <= 1e-12


def test_normal_cone_residual_box_endpoints_vertex_oracle():
    s = SpaceDescriptor("X", 1)
    E = Box(s, 0.0, 1.0)
    # vertex-enumeration oracle: sup over {0,1} of w (e~ - e)
    for e, w in [(1.0, 1.0), (0.0, -1.0)]:
        oracle = max(wv * (v - e) for v in (0.0, 1.0) for wv in [w])
        got = normal_cone_residual(E, Element([e], s), Element([w], s))
        assert oracle == pytest.approx(0.0)
        assert got == pytest.approx(0.0, abs=1e-12)


def test_normal_cone_residual_box2_matches_vertex_oracle():
    s = SpaceDescriptor("X", 2)
    E = Box(s, 0.0, 1.0)
    e = np.array([1.0, 1.0])
    w = np.array([1.0, 0.5])
    verts = np.array([[a, b] for a in (0.0, 1.0) for b in (0.0, 1.0)])
    oracle = ((verts - e) @ w).max()
    got = normal_cone_residual(E, Element(e, s), Element(w, s))
    assert got == pytest.approx(oracle, abs=1e-12)


def test_normal_cone_residual_requires_membership():
    s = SpaceDescriptor("X", 2)
    E = Box(s, 0.0, 1.0)
    with pytest.raises(ValueError):
        normal_cone_residual(E, Element([2.0, 0.5], s), Element([1.0, 0.0], s))


def test_bepsilon_vector_in_normal_cone():
    # the b_eps-shaped vector dist * subgradient passes the sampled check
    rng = np.random.default_rng(23)
    s = SpaceDescriptor("X", 3)
    E = NonnegativeCone(s)
    for _ in range(10):
        x = Element(rng.normal(scale=2.0, size=3), s)
        w = dist_subgradient(E, x)
        b = Element(distance(E, x) * w.coords, s)
        r = normal_cone_residual(E, project(E, x), b)
        assert r <= 1e-8


# ---------------------------------------------------------------- radial cone


@pytest.mark.parametrize("dim", [1, 2, 3, 7])
def test_kronecker_points_deterministic_and_in_unit_cube(dim):
    a, b = _kronecker(dim, 300, 11), _kronecker(dim, 300, 11)
    assert a.shape == (300, dim)
    assert_allclose(a, b, rtol=0, atol=0)
    assert a.min() >= 0.0 and a.max() < 1.0
    assert not np.array_equal(a, _kronecker(dim, 300, 12))
    # a shorter draw is a prefix of a longer one
    assert_allclose(_kronecker(dim, 40, 11), a[:40], rtol=0, atol=0)
    assert _kronecker(dim, 0, 11).shape == (0, dim)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kronecker_points_fill_every_grid_cell(seed, dim):
    pts = _kronecker(dim, 256, seed)
    cells = np.floor(4 * pts).astype(int)
    hit = np.unique(np.ravel_multi_index(cells.T, (4,) * dim))
    assert hit.size == 4 ** dim


def test_tangent_cone_sample_singleton_all_zero():
    s = SpaceDescriptor("X", 2)
    E = Singleton(s, [1.0, 1.0])
    for v in tangent_cone_sample(E, Element([1.0, 1.0], s), 32, seed=4):
        assert norm(s, v) == pytest.approx(0.0, abs=1e-12)


def test_tangent_cone_sample_whole_space_covers_ball():
    s = SpaceDescriptor("X", 2)
    E = WholeSpace(s)
    vs = tangent_cone_sample(E, s.zero(), 256, seed=4)
    norms = np.array([norm(s, v) for v in vs])
    assert norms.max() <= 1.0 + 1e-12
    # coverage: every quadrant direction gets hit
    dirs = np.array([v.coords for v in vs if norm(s, v) > 1e-6])
    signs = {(int(np.sign(d[0])), int(np.sign(d[1]))) for d in dirs}
    assert {(1, 1), (1, -1), (-1, 1), (-1, -1)} <= signs


def test_tangent_cone_sample_nonneg_cone_signs():
    s = SpaceDescriptor("X", 3)
    E = NonnegativeCone(s)
    for v in tangent_cone_sample(E, s.zero(), 64, seed=9):
        assert v.coords.min() >= -1e-12
        assert norm(s, v) <= 1.0 + 1e-12


def test_tangent_cone_sample_deterministic():
    s = SpaceDescriptor("X", 2)
    E = Box(s, 0.0, 1.0)
    a = tangent_cone_sample(E, Element([0.5, 0.5], s), 16, seed=3)
    b = tangent_cone_sample(E, Element([0.5, 0.5], s), 16, seed=3)
    for va, vb in zip(a, b):
        assert_allclose(va.coords, vb.coords)


# ---------------------------------------------------------------- variations


def test_directional_variation_absolute_value():
    res = directional_variation(lambda u: abs(u[0]), np.array([0.0]),
                                np.array([-1.0]))
    assert res.value == pytest.approx(1.0)
    assert res.converged
    res2 = directional_variation(lambda u: abs(u[0]), np.array([0.0]),
                                 np.array([1.0]))
    assert res2.value == pytest.approx(1.0)


def test_directional_variation_linear_exact():
    f = np.array([[1.0, -2.0], [0.5, 3.0]])
    v = np.array([0.7, -0.3])
    res = directional_variation(lambda u: f @ u, np.zeros(2), v)
    assert_allclose(res.value, f @ v, atol=1e-10)
    assert res.error_estimate <= 1e-10


def test_directional_variation_quadratic_first_order_error():
    # analytic derivative oracle: d/du u^2 at 3 is 6; error at step h is h
    res = directional_variation(lambda u: u[0] ** 2, np.array([3.0]),
                                np.array([1.0]), h_schedule=(1e-2, 1e-3))
    assert res.value == pytest.approx(6.0, abs=2e-3)
    q_coarse, q_fine = res.quotients
    ratio = abs(float(q_coarse) - 6.0) / abs(float(q_fine) - 6.0)
    assert ratio == pytest.approx(10.0, rel=0.2)


def test_directional_variation_flags_divergence():
    res = directional_variation(lambda u: np.sqrt(abs(u[0])),
                                np.array([0.0]), np.array([1.0]),
                                h_schedule=(1e-2, 1e-4, 1e-6, 1e-8))
    assert not res.converged


def test_directional_variation_rejects_bad_schedule():
    with pytest.raises(ValueError):
        directional_variation(lambda u: u, np.zeros(1), np.ones(1), h_schedule=())

