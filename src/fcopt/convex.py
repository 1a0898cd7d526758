"""Closed convex sets: projections, distance subgradients, cone sampling.

All metric notions (projection, distance, subgradient) use the gram form of
the ambient space.  Subgradients are returned in dual coordinates, i.e. the
vector w with pairing action <w, y> = w' y; for the distance function at an
infeasible point this is w = G (x - Px) / dist, which has unit dual norm.

Normal-cone and radial-cone questions are answered by deterministic sampling
(a seeded R_d Kronecker sequence), never by exact polyhedral algebra.
"""

import numpy as np

from .spaces import Element, norm, dual_norm, pairing

__all__ = [
    "ConvexSet",
    "Singleton",
    "NonnegativeCone",
    "Box",
    "AffineSubspace",
    "WholeSpace",
    "VariationSample",
    "VariationEstimate",
    "project",
    "distance",
    "dist_subgradient",
    "normal_cone_residual",
    "tangent_cone_sample",
    "directional_variation",
    "convex_set_from_config",
]

_MEMBERSHIP_TOL = 1e-8

# The gram box projection frees a held coordinate only when its gradient
# pulls it inward by more than this multiple of |G|_max |x - c|_inf, the
# roundoff of that gradient; it gives up after _BVLS_PASSES (dim + 1)
# passes, far more than any small problem takes.
_BVLS_RTOL = 1e-12
_BVLS_PASSES = 10


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


def _gram_bvls(space, coords, lo, hi):
    """Projection onto the box [lo, hi] in a non-diagonal gram metric.

    Minimizes (x - c)' G (x - c) over lo <= x <= hi by a primal active-set
    loop in the manner of BVLS (Stark and Parker, Comput. Stat. 10, 1995),
    one row at a time for a (k, dim) stack.  Each pass minimizes over the
    free coordinates with the others held at their bounds.  If that point
    leaves the box, the pass steps toward it up to the first bound it
    meets and holds that coordinate there.  Otherwise the pass frees the
    held coordinate whose gradient most pushes it back into the box, and
    the loop stops when no held gradient does.
    """
    if coords.ndim == 2:
        return np.array([_gram_bvls(space, row, lo, hi) for row in coords]
                        ).reshape(coords.shape)
    g = space.gram
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                 np.asarray(hi, dtype=float), coords)[:2]
    x = np.clip(coords, lo, hi)
    free = x == coords
    passes = _BVLS_PASSES * (coords.size + 1)
    for _ in range(passes):
        f, held = np.flatnonzero(free), np.flatnonzero(~free)
        z = x.copy()
        z[f] = coords[f] - np.linalg.solve(
            g[np.ix_(f, f)], g[np.ix_(f, held)] @ (x[held] - coords[held]))
        out = np.flatnonzero((z < lo) | (z > hi))
        if out.size:
            bound = np.where(z[out] < lo[out], lo[out], hi[out])
            alpha = (bound - x[out]) / (z[out] - x[out])
            k = int(np.argmin(alpha))
            x = x + alpha[k] * (z - x)
            x[out[k]] = bound[k]
            free[out[k]] = False
            continue
        x = z
        grad = g @ (x - coords)
        # inward pull of each held coordinate: -grad at lo, grad at hi; a
        # coordinate with lo = hi stays held
        pull = np.where(x[held] == lo[held], -grad[held], grad[held])
        pull[lo[held] == hi[held]] = -np.inf
        tol = _BVLS_RTOL * float(np.abs(g).max() * np.abs(x - coords).max())
        if not held.size or pull.max() <= tol:
            return x
        free[held[int(np.argmax(pull))]] = True
    raise RuntimeError("gram box projection did not settle in %d passes"
                       % passes)


class ConvexSet:
    """Base class; concrete sets implement ``_project`` and ``_samples``.

    ``_project`` takes one point (a (dim,) array) or a (k, dim) stack of
    points and projects each row.
    """

    kind = "abstract"

    def __init__(self, space):
        self.space = space

    def contains(self, x, tol=_MEMBERSHIP_TOL):
        return distance(self, x) <= tol

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
    """The cone {x : x_i >= 0 componentwise}."""

    kind = "nonneg"

    def _project(self, coords):
        if self.space.is_diagonal:
            return np.clip(coords, 0.0, None)
        return _gram_bvls(self.space, coords, 0.0, np.inf)

    def _samples(self, count, seed, radius, around):
        dim = self.space.dim
        extremes = [np.zeros(dim)]
        extremes += [radius * row for row in np.eye(dim)]
        body = radius * _kronecker(dim, max(count - len(extremes), 0), seed)
        return np.vstack([np.asarray(extremes), body])[:count]


class Box(ConvexSet):
    """The box {x : lo_i <= x_i <= hi_i}."""

    kind = "box"

    def __init__(self, space, lo, hi):
        super().__init__(space)
        self.lo = np.broadcast_to(np.asarray(lo, dtype=float), (space.dim,)).copy()
        self.hi = np.broadcast_to(np.asarray(hi, dtype=float), (space.dim,)).copy()
        if np.any(self.lo > self.hi):
            raise ValueError("box bounds must satisfy lo <= hi")

    def _project(self, coords):
        if self.space.is_diagonal:
            return np.clip(coords, self.lo, self.hi)
        return _gram_bvls(self.space, coords, self.lo, self.hi)

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


class AffineSubspace(ConvexSet):
    """offset + span(basis columns), basis gram-orthonormal.

    Parameters
    ----------
    space : SpaceDescriptor
    basis : array_like, shape (dim, k)
        Columns must be orthonormal in the gram inner product: B' G B = I.
    offset : array_like, shape (dim,)
    """

    kind = "affine"

    def __init__(self, space, basis, offset=None):
        super().__init__(space)
        basis = np.asarray(basis, dtype=float)
        if basis.ndim == 1:
            basis = basis[:, None]
        if basis.shape[0] != space.dim:
            raise ValueError("basis rows must match space dim")
        gb = basis.T @ space.gram @ basis
        if np.abs(gb - np.eye(basis.shape[1])).max() > 1e-8:
            raise ValueError(
                "affine basis is not gram-orthonormal (B' G B != I); "
                "orthonormalize before constructing the set"
            )
        self.basis = basis
        self.offset = (np.zeros(space.dim) if offset is None
                       else np.asarray(offset, dtype=float))

    def _project(self, coords):
        # (M @ d.T).T is M @ d for one point and applies M to each row of a
        # stack
        d = (coords - self.offset).T
        return self.offset + (
            self.basis @ (self.basis.T @ self.space.apply_gram(d))).T

    def _samples(self, count, seed, radius, around):
        k = self.basis.shape[1]
        extremes = []
        for col in self.basis.T:
            extremes.append(self.offset + radius * col)
            extremes.append(self.offset - radius * col)
        body_n = max(count - len(extremes), 0)
        coeff = radius * (2.0 * _kronecker(k, body_n, seed) - 1.0)
        body = self.offset + coeff @ self.basis.T
        pts = np.vstack([np.asarray(extremes), body]) if extremes else body
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


class VariationEstimate:
    """Result of a difference-quotient variation computation.

    Attributes
    ----------
    value : ndarray or float
        Quotient at the smallest step of the schedule.
    error_estimate : float
        Richardson-style estimate |q(h_last) - q(h_prev)|.
    converged : bool
        False when successive quotients diverge (non-differentiable
        direction warning).
    quotients : list
        The quotient at every step of the schedule.
    h_used : float
        Smallest step.
    """

    def __init__(self, value, error_estimate, converged, quotients, h_used):
        self.value = value
        self.error_estimate = error_estimate
        self.converged = converged
        self.quotients = quotients
        self.h_used = h_used


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


def directional_variation(fmap, e, v, h_schedule=(1e-2, 1e-3, 1e-4, 1e-5)):
    """One-sided difference-quotient variation of an evaluator along v.

    Evaluates (f(e + h v) - f(e)) / h over the decreasing step schedule and
    returns a VariationEstimate whose value is the quotient at the smallest
    step.  ``converged`` is set to False when the quotient sequence diverges
    (successive differences growing beyond 10x the previous difference),
    which flags a direction where no variation exists.
    """
    h_schedule = sorted({float(h) for h in h_schedule}, reverse=True)
    if not h_schedule or h_schedule[-1] <= 0.0:
        raise ValueError("h_schedule must contain positive steps")
    ecoords = e.coords if isinstance(e, Element) else np.asarray(e, dtype=float)
    vcoords = v.coords if isinstance(v, Element) else np.asarray(v, dtype=float)
    f0 = np.asarray(fmap(ecoords), dtype=float)
    quotients = []
    for h in h_schedule:
        fh = np.asarray(fmap(ecoords + h * vcoords), dtype=float)
        quotients.append((fh - f0) / h)
    diffs = [float(np.max(np.abs(quotients[i] - quotients[i - 1])))
             for i in range(1, len(quotients))]
    if diffs:
        err = diffs[-1]
        converged = True
        for i in range(1, len(diffs)):
            if diffs[i] > 10.0 * diffs[i - 1] + 1e-14:
                converged = False
    else:
        err = float("nan")
        converged = True
    value = quotients[-1]
    if value.ndim == 0:
        value = float(value)
    return VariationEstimate(value, err, converged, quotients, h_schedule[-1])


def convex_set_from_config(space, kind, **kwargs):
    """Build a ConvexSet from its config name.

    Names: "singleton" (point), "nonneg", "box" (lo, hi), "affine"
    (basis, offset), "whole".
    """
    kind = str(kind).strip().lower()
    if kind == "singleton":
        return Singleton(space, kwargs.get("point", np.zeros(space.dim)))
    if kind == "nonneg":
        return NonnegativeCone(space)
    if kind == "box":
        return Box(space, kwargs.get("lo", 0.0), kwargs.get("hi", 1.0))
    if kind == "affine":
        return AffineSubspace(space, kwargs["basis"], kwargs.get("offset"))
    if kind == "whole":
        return WholeSpace(space)
    raise ValueError("unknown convex set kind %r" % kind)
