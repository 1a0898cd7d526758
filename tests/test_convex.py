"""Tests for convex sets, projections, subgradients and variation sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from fcopt.spaces import SpaceDescriptor, Element, norm, dual_norm, pairing
from fcopt.convex import (
    Singleton,
    NonnegativeCone,
    Box,
    AffineSubspace,
    WholeSpace,
    project,
    distance,
    dist_subgradient,
    normal_cone_residual,
    tangent_cone_sample,
    directional_variation,
    convex_set_from_config,
    _kronecker,
)


def random_spd(rng, dim):
    a = rng.normal(size=(dim, dim))
    return a.T @ a + 0.5 * np.eye(dim)


# ---------------------------------------------------------------- project


def test_project_cone_clips():
    s = SpaceDescriptor("X", 2)
    e = project(NonnegativeCone(s), s.element([-1.0, 2.0]))
    assert_allclose(e.coords, [0.0, 2.0])


def test_project_singleton():
    s = SpaceDescriptor("X", 2)
    e = project(Singleton(s, [0.0, 0.0]), s.element([3.0, 4.0]))
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
    got = project(Box(s, 0.0, 1.0), s.element(x))
    assert_allclose(got.coords, oracle, atol=1e-3)
    assert_allclose(got.coords, [1.0, 0.0], atol=1e-12)


def test_project_affine_subspace():
    s = SpaceDescriptor("X", 3)
    # span{e1} shifted to pass through (0,1,0)
    aff = AffineSubspace(s, np.eye(3)[:, :1], offset=[0.0, 1.0, 0.0])
    p = project(aff, s.element([2.0, 5.0, -3.0]))
    assert_allclose(p.coords, [2.0, 1.0, 0.0], atol=1e-12)


def test_affine_requires_gram_orthonormal_basis():
    s = SpaceDescriptor("X", 2, [[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        AffineSubspace(s, np.eye(2)[:, :1])  # |e1|_G = sqrt(2) != 1


def test_project_nondiagonal_gram_variational_inequality():
    # optimality of the metric projection: <G(x - Px), e - Px> <= 0 on members
    rng = np.random.default_rng(5)
    g = random_spd(rng, 3)
    s = SpaceDescriptor("X", 3, g)
    cone = NonnegativeCone(s)
    for _ in range(20):
        x = rng.normal(scale=2.0, size=3)
        p = project(cone, s.element(x)).coords
        assert p.min() >= -1e-12
        grad = g @ (x - p)
        members = cone._samples(500, 3, 5.0, p)
        assert ((members - p) @ grad).max() <= 1e-8


def test_project_box_nondiagonal_gram_matches_bruteforce():
    rng = np.random.default_rng(8)
    g = random_spd(rng, 2)
    s = SpaceDescriptor("X", 2, g)
    box = Box(s, 0.0, 1.0)
    x = np.array([1.7, -0.9])
    grid = np.linspace(0.0, 1.0, 401)
    gx, gy = np.meshgrid(grid, grid, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    diffs = pts - x
    vals = np.einsum("ni,ij,nj->n", diffs, g, diffs)
    oracle = pts[np.argmin(vals)]
    got = project(box, s.element(x)).coords
    assert np.abs(got - oracle).max() <= 5e-3


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.sampled_from(["singleton", "nonneg", "box", "affine", "whole"]))
def test_projection_invariants(seed, kind):
    rng = np.random.default_rng(seed)
    dim = 3
    s = SpaceDescriptor("X", dim, random_spd(rng, dim))
    if kind == "affine":
        raw = rng.normal(size=(dim, 2))
        # gram-orthonormalize the columns
        b = np.zeros_like(raw)
        for j in range(2):
            v = raw[:, j]
            for i in range(j):
                v = v - (b[:, i] @ s.gram @ v) * b[:, i]
            b[:, j] = v / np.sqrt(v @ s.gram @ v)
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
    x = s.element(rng.normal(scale=2.0, size=dim))
    p = project(E, x)
    # membership and idempotence
    assert distance(E, p) <= 1e-10
    p2 = project(E, p)
    assert np.abs(p2.coords - p.coords).max() <= 1e-10
    # optimality against sampled members
    d = norm(s, s.element(x.coords - p.coords))
    members = E._samples(1000, seed % 97, 4.0, p.coords)
    for e in members[:: max(1, len(members) // 100)]:
        de = norm(s, s.element(x.coords - e))
        assert d <= de + 1e-8


# ---------------------------------------------------------------- distance


def test_distance_singleton():
    s = SpaceDescriptor("X", 2)
    assert distance(Singleton(s, [0.0, 0.0]), s.element([3.0, 4.0])) == pytest.approx(5.0)


def test_distance_member_is_zero():
    s = SpaceDescriptor("X", 2)
    assert distance(Box(s, 0.0, 1.0), s.element([0.5, 0.25])) == pytest.approx(0.0, abs=1e-14)


def test_distance_cone_grid_oracle():
    # componentwise projection formula gives sqrt(1 + 4) for x = (-1, -2, 3);
    # a coarse feasible grid never beats it
    s = SpaceDescriptor("X", 3)
    cone = NonnegativeCone(s)
    x = s.element([-1.0, -2.0, 3.0])
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
    w = dist_subgradient(Singleton(s, [0.0, 0.0]), s.element([3.0, 4.0]))
    assert_allclose(w.coords, [0.6, 0.8], atol=1e-12)


def test_dist_subgradient_zero_selection_inside():
    s = SpaceDescriptor("X", 2)
    w = dist_subgradient(Box(s, 0.0, 1.0), s.element([0.3, 0.9]))
    assert_allclose(w.coords, [0.0, 0.0])


def test_dist_subgradient_cone_and_inequality():
    # sampled subgradient-inequality oracle on 1000 random y
    s = SpaceDescriptor("X", 2)
    cone = NonnegativeCone(s)
    x = s.element([-3.0, 4.0])
    w = dist_subgradient(cone, x)
    assert_allclose(w.coords, [-1.0, 0.0], atol=1e-12)
    rng = np.random.default_rng(17)
    dx = distance(cone, x)
    for _ in range(1000):
        y = s.element(rng.normal(scale=3.0, size=2))
        lhs = distance(cone, y) - dx
        rhs = pairing(w, s.element(y.coords - x.coords))
        assert lhs >= rhs - 1e-10


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_dist_subgradient_riesz_identities(seed):
    # invariants: unit dual norm and <w, x - Px> = dist, any gram
    rng = np.random.default_rng(seed)
    dim = 3
    s = SpaceDescriptor("X", dim, random_spd(rng, dim))
    E = NonnegativeCone(s)
    x = s.element(rng.normal(scale=2.0, size=dim) - 1.0)
    d = distance(E, x)
    w = dist_subgradient(E, x)
    if d > 1e-8:
        assert dual_norm(s, w) == pytest.approx(1.0, rel=1e-9)
        gap = pairing(w, s.element(x.coords - project(E, x).coords))
        assert gap == pytest.approx(d, rel=1e-9)
    else:
        assert dual_norm(s, w) <= 1.0 + 1e-12


# ---------------------------------------------------------------- normal cone


def test_normal_cone_residual_singleton_always_zero():
    s = SpaceDescriptor("X", 2)
    E = Singleton(s, [1.0, 2.0])
    r = normal_cone_residual(E, s.element([1.0, 2.0]), s.element([5.0, -3.0]))
    assert r == pytest.approx(0.0, abs=1e-12)


def test_normal_cone_residual_cone_origin():
    s = SpaceDescriptor("X", 2)
    E = NonnegativeCone(s)
    r = normal_cone_residual(E, s.zero(), s.element([-1.0, -1.0]))
    assert r <= 1e-12


def test_normal_cone_residual_box_endpoints_vertex_oracle():
    s = SpaceDescriptor("X", 1)
    E = Box(s, 0.0, 1.0)
    # vertex-enumeration oracle: sup over {0,1} of w (e~ - e)
    for e, w in [(1.0, 1.0), (0.0, -1.0)]:
        oracle = max(wv * (v - e) for v in (0.0, 1.0) for wv in [w])
        got = normal_cone_residual(E, s.element([e]), s.element([w]))
        assert oracle == pytest.approx(0.0)
        assert got == pytest.approx(0.0, abs=1e-12)


def test_normal_cone_residual_box2_matches_vertex_oracle():
    s = SpaceDescriptor("X", 2)
    E = Box(s, 0.0, 1.0)
    e = np.array([1.0, 1.0])
    w = np.array([1.0, 0.5])
    verts = np.array([[a, b] for a in (0.0, 1.0) for b in (0.0, 1.0)])
    oracle = ((verts - e) @ w).max()
    got = normal_cone_residual(E, s.element(e), s.element(w))
    assert got == pytest.approx(oracle, abs=1e-12)


def test_normal_cone_residual_requires_membership():
    s = SpaceDescriptor("X", 2)
    E = Box(s, 0.0, 1.0)
    with pytest.raises(ValueError):
        normal_cone_residual(E, s.element([2.0, 0.5]), s.element([1.0, 0.0]))


def test_bepsilon_vector_in_normal_cone():
    # the b_eps-shaped vector dist * subgradient passes the sampled check
    rng = np.random.default_rng(23)
    s = SpaceDescriptor("X", 3)
    E = NonnegativeCone(s)
    for _ in range(10):
        x = s.element(rng.normal(scale=2.0, size=3))
        w = dist_subgradient(E, x)
        b = s.element(distance(E, x) * w.coords)
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
    for v in tangent_cone_sample(E, s.element([1.0, 1.0]), 32, seed=4):
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
    a = tangent_cone_sample(E, s.element([0.5, 0.5]), 16, seed=3)
    b = tangent_cone_sample(E, s.element([0.5, 0.5]), 16, seed=3)
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


# ---------------------------------------------------------------- config


def test_convex_set_from_config_names():
    s = SpaceDescriptor("X", 2)
    assert convex_set_from_config(s, "whole").kind == "whole"
    assert convex_set_from_config(s, "nonneg").kind == "nonneg"
    assert convex_set_from_config(s, "singleton", point=[1.0, 0.0]).kind == "singleton"
    assert convex_set_from_config(s, "box", lo=0.0, hi=2.0).kind == "box"
    aff = convex_set_from_config(s, "affine", basis=np.eye(2)[:, :1])
    assert aff.kind == "affine"
    with pytest.raises(ValueError):
        convex_set_from_config(s, "mystery")
