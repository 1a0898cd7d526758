"""Closed convex sets: projections, distance subgradients, cone sampling.

All metric notions (projection, distance, subgradient) use the gram form of
the ambient space.  Subgradients are returned in dual coordinates, i.e. the
vector w with pairing action <w, y> = w' y; for the distance function at an
infeasible point this is w = G (x - Px) / dist, which has unit dual norm.

Normal-cone and radial-cone questions are answered by deterministic sampling
(a seeded R_d Kronecker sequence), never by exact polyhedral algebra.
"""

import numpy as np

from .spaces import Element, norm

__all__ = [
    "ConvexSet",
    "Singleton",
    "NonnegativeCone",
    "Box",
    "WholeSpace",
    "VariationSample",
    "project",
    "distance",
    "dist_subgradient",
    "normal_cone_residual",
    "tangent_cone_sample",
]

_MEMBERSHIP_TOL = 1e-8


def _kronecker(dim, count, seed):
    """Deterministic quasi-random points in [0,1)^dim: a shifted R_d sequence.

    Point k is frac(shift + k * alpha) with alpha_j = phi^-j, j = 1..dim,
    where phi is the positive root of x^(dim+1) = x + 1 (Roberts 2018, "The
    unreasonable effectiveness of quasirandom sequences"); the
    Cranley-Patterson shift is drawn from ``seed``.
    """
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = phi ** -np.arange(1.0, dim + 1)
    shift = np.random.default_rng(seed).random(dim)
    k = np.arange(1, max(int(count), 0) + 1, dtype=float)[:, None]
    return (shift + k * alpha) % 1.0


class ConvexSet:
    """Base class; concrete sets implement ``_project`` and ``_samples``.

    ``_project`` takes one point (a (dim,) array) or a (k, dim) stack of
    points and projects each row.
    """

    kind = "abstract"

    def __init__(self, space):
        self.space = space

    # concrete sets override
    def _project(self, coords):
        raise NotImplementedError

    def _samples(self, count, seed, radius, around):
        """Deterministic member points: extreme/vertex points + interior."""
        raise NotImplementedError


class Singleton(ConvexSet):
    """The one-point set {p}."""

    kind = "singleton"

    def __init__(self, space, point):
        super().__init__(space)
        self.point = np.asarray(
            point.coords if isinstance(point, Element) else point, dtype=float
        )
        if self.point.shape != (space.dim,):
            raise ValueError("singleton point does not fit space %r" % space.name)

    def _project(self, coords):
        out = np.empty(np.shape(coords))
        out[...] = self.point
        return out

    def _samples(self, count, seed, radius, around):
        return np.repeat(self.point[None, :], max(count, 1), axis=0)


class NonnegativeCone(ConvexSet):
    """The cone {x : x_i >= 0 componentwise}.

    Every gram is diagonal, so the gram projection onto it is the clip at
    0 per coordinate.
    """

    kind = "nonneg"

    def _project(self, coords):
        return np.clip(coords, 0.0, None)

    def _samples(self, count, seed, radius, around):
        dim = self.space.dim
        extremes = [np.zeros(dim)]
        extremes += [radius * row for row in np.eye(dim)]
        body = radius * _kronecker(dim, max(count - len(extremes), 0), seed)
        return np.vstack([np.asarray(extremes), body])[:count]


class Box(ConvexSet):
    """The box {x : lo_i <= x_i <= hi_i}.

    Every gram is diagonal, so the gram projection onto it is the clip to
    [lo_i, hi_i] per coordinate.
    """

    kind = "box"

    def __init__(self, space, lo, hi):
        super().__init__(space)
        self.lo = np.broadcast_to(np.asarray(lo, dtype=float), (space.dim,)).copy()
        self.hi = np.broadcast_to(np.asarray(hi, dtype=float), (space.dim,)).copy()
        if np.any(self.lo > self.hi):
            raise ValueError("box bounds must satisfy lo <= hi")

    def _project(self, coords):
        return np.clip(coords, self.lo, self.hi)

    def _samples(self, count, seed, radius, around):
        dim = self.space.dim
        verts = []
        if dim <= 12:
            for mask in range(1 << dim):
                bits = (mask >> np.arange(dim)) & 1
                verts.append(np.where(bits == 1, self.hi, self.lo))
                if len(verts) >= count:
                    break
        body_n = max(count - len(verts), 0)
        body = self.lo + (self.hi - self.lo) * _kronecker(dim, body_n, seed)
        pts = np.vstack([np.asarray(verts), body]) if verts else body
        return pts[:count]


class WholeSpace(ConvexSet):
    """The whole space (no constraint)."""

    kind = "whole"

    def _project(self, coords):
        return np.asarray(coords, dtype=float).copy()

    def _samples(self, count, seed, radius, around):
        dim = self.space.dim
        center = np.zeros(dim) if around is None else around
        extremes = []
        for row in np.eye(dim):
            extremes.append(center + radius * row)
            extremes.append(center - radius * row)
        body_n = max(count - len(extremes), 0)
        body = center + radius * (2.0 * _kronecker(dim, body_n, seed) - 1.0)
        pts = np.vstack([np.asarray(extremes), body]) if extremes else body
        return pts[:count]


class VariationSample:
    """A first-order variation pair (xi0, xi): cost slope and state direction."""

    def __init__(self, xi0, xi):
        self.xi0 = float(xi0)
        self.xi = xi

    def __repr__(self):
        return "VariationSample(xi0=%g, xi=%r)" % (self.xi0, self.xi)


def project(E, x):
    """Metric projection of x onto E in the gram metric of E.space."""
    coords = x.coords if isinstance(x, Element) else np.asarray(x, dtype=float)
    return Element(E._project(coords), E.space)


def distance(E, x):
    """dist(x, E) = |x - project(E, x)| in the gram norm."""
    p = project(E, x)
    coords = x.coords if isinstance(x, Element) else np.asarray(x, dtype=float)
    return norm(E.space, Element(coords - p.coords, E.space))


def dist_subgradient(E, x):
    """Subgradient selection of dist(., E) at x, in dual coordinates.

    Outside E this is the unit dual vector w = G (x - Px)/dist with
    |w|_dual = 1 and <w, x - Px> = dist(x, E); on E the selection 0 is
    returned (the multiplier formula multiplies it by dist = 0 anyway).
    """
    coords = x.coords if isinstance(x, Element) else np.asarray(x, dtype=float)
    p = E._project(coords)
    diff = coords - p
    d = norm(E.space, Element(diff, E.space))
    if d <= 1e-14 * (1.0 + float(np.abs(coords).max())):
        return E.space.zero()
    return Element(E.space.apply_gram(diff) / d, E.space)


def normal_cone_residual(E, e, w, samples=10**4, seed=0, radius=10.0):
    """Sampled normal-cone membership residual max <w, e~ - e> over e~ in E.

    A value <= tol certifies that w is (numerically, on the sample) in the
    normal cone of E at e.  The sample is deterministic given the seed and
    mixes extreme/vertex points of E with quasi-random interior points.

    Raises ValueError when e is not a member of E (residual > 1e-8).
    """
    ecoords = e.coords if isinstance(e, Element) else np.asarray(e, dtype=float)
    if distance(E, Element(ecoords, E.space)) > _MEMBERSHIP_TOL:
        raise ValueError("normal_cone_residual: base point is not in the set")
    wcoords = w.coords if isinstance(w, Element) else np.asarray(w, dtype=float)
    pts = E._samples(samples, seed, radius, ecoords)
    vals = (pts - ecoords) @ wcoords
    return float(vals.max()) if vals.size else 0.0


def tangent_cone_sample(E, e, count, seed=0, radius=10.0):
    """Unit-ball-capped radial cone directions alpha (e~ - e), e~ in E.

    Deterministic per (count, seed).  Every returned Element lies in the
    radial cone of E at e and has gram norm <= 1.
    """
    ecoords = e.coords if isinstance(e, Element) else np.asarray(e, dtype=float)
    pts = E._samples(count, seed + 1, radius, ecoords)
    alphas = _kronecker(1, count, seed + 2)[:, 0]
    out = []
    for pt, alpha in zip(pts, alphas):
        d = pt - ecoords
        nd = norm(E.space, Element(d, E.space))
        if nd > 1.0:
            d = d / nd
        out.append(Element(alpha * d, E.space))
    return out
