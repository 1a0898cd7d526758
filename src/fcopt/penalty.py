"""Penalty-functional extraction of approximate multiplier pairs.

Given a smooth constrained minimization problem

    minimize f0(u)  subject to  f(u) in E,

with a reference local solution u_bar, the penalty

    Phi_eps(u) = sqrt( dist(f(u), E)^2 + ((f0(u) - f0(u_bar) + eps)^+)^2 )

has value eps at u_bar, so near-minimizers u_eps with Phi_eps(u_eps) <= eps
exist inside the ball of radius sqrt(eps) around u_bar.  At such a point the
normalized coefficient pair

    a_eps = (f0(u_eps) - f0(u_bar) + eps)^+ / Phi_eps(u_eps)
    b_eps = dist(f(u_eps), E) * psi_eps / Phi_eps(u_eps)

(with psi_eps a distance subgradient, in dual coordinates) satisfies
a_eps^2 + |b_eps|^2 = 1 and an approximate first-order inequality over
admissible variations.  Driving eps -> 0 along a schedule and taking the
final record yields a nonzero pair (z0, z) of Fritz John type; when z0 is
bounded away from 0 the pair rescales to a KKT multiplier z/z0.

Phi_eps itself is not differentiable, but Phi_eps^2 is C^1 (squared
distance to a convex set and squared positive part both are), so the inner
solver minimizes Phi_eps^2 by damped Newton descent, with the problem's
constant f0_hess as the Hessian of f0, and the Ekeland-type inequalities
are verified a posteriori on probe points.

The pipeline has one path.  extract_multiplier certifies u_bar once where
the problem's declared structure makes an exact certificate available (a
strictly convex quadratic f0 under affine equality constraints: the KKT
conditions at roundoff, see _certify_reference), then for each eps of
the schedule calls minimize_penalty, which returns u_eps with the Phi
parts (_phi_parts) its Newton solve last computed there, and reads the
pair (a, b) off those parts (_pair); Phi_eps is not evaluated again at
u_eps.  Each eps after the first starts from the secant prediction
through the last two near-minimizers (_secant_start).  The quadratic in
eps through the last three pairs, evaluated at eps = 0 (_PairLimit),
extrapolates the pair to its limit; the schedule ends at the first
record where that limit is resolved, and otherwise runs out and reports
its final record.
"""

import warnings
from functools import cached_property

import numpy as np

from .convex import Singleton, WholeSpace, dist_subgradient
from .convex import VariationSample, tangent_cone_sample
from .spaces import (Element, dual_norm, norm, pairing, LinearMap,
                     singular_triplets, _row_dots)

__all__ = [
    "ConstrainedProblem",
    "MultiplierPair",
    "TraceRecord",
    "PenaltyTrace",
    "PenaltyConfig",
    "DegeneratePenaltyError",
    "InnerConvergenceError",
    "InapplicableBranchError",
    "default_schedule",
    "minimize_penalty",
    "extract_multiplier",
    "fritz_john_residual",
    "kkt_check",
    "enhanced_sequence_report",
]


class DegeneratePenaltyError(ValueError):
    """Raised when Phi_eps vanishes up to roundoff, i.e. a (numerically)
    feasible point beats f0(u_bar) - eps."""


class InnerConvergenceError(RuntimeError):
    """Inner minimization failed; carries the best iterate found.

    Attributes
    ----------
    best : ndarray or None
        Coordinates of the best iterate seen before giving up.
    info : dict or None
        Partial diagnostic metadata for the failed run.
    """

    def __init__(self, message, best=None, info=None):
        super().__init__(message)
        self.best = best
        self.info = info


class InapplicableBranchError(ValueError):
    """Raised when the degenerate-branch report is requested but z = 0."""


# Allowed relative disagreement between a stacked row and the same point
# evaluated alone: summing the same terms in another order moves a value
# by a few ulps of their size, while a callable that reads the first row
# of a stack returns data of another point.
_ROW_RTOL = 1e-9


def _coords(u):
    if isinstance(u, Element):
        return np.asarray(u.coords, dtype=float)
    return np.asarray(u, dtype=float)


# block sizes of the triangular substitution (its off-diagonal updates run
# as matrix products, its small diagonal blocks by LU) and of the blocked
# Cholesky factorization (the inner dimension of its trailing updates)
_TRI_BLOCK = 64
_CHOL_BLOCK = 128


def _solve_triangular(t, b, lower):
    """Solve t x = b for a square triangular t by blocked substitution.

    b is a vector or a matrix of right-hand sides.  Each block row first
    subtracts the already solved blocks with one matrix product, then
    solves its own diagonal block with ``np.linalg.solve``.
    """
    n = t.shape[0]
    x = np.array(b, dtype=float)
    starts = range(0, n, _TRI_BLOCK)
    for i in (starts if lower else reversed(starts)):
        j = min(i + _TRI_BLOCK, n)
        if lower and i > 0:
            x[i:j] -= t[i:j, :i] @ x[:i]
        elif not lower and j < n:
            x[i:j] -= t[i:j, j:] @ x[j:]
        x[i:j] = np.linalg.solve(t[i:j, i:j], x[i:j])
    return x


def _cholesky(a):
    """Overwrite the positive definite float array a by its lower Cholesky
    factor, reading only its lower triangle, and return it.

    Blocked right-looking elimination: ``np.linalg.cholesky`` factors each
    diagonal block, ``_solve_triangular`` the panel below it, and the
    trailing lower triangle is updated one column strip at a time, so no
    temporary is larger than n x _CHOL_BLOCK (``np.linalg.cholesky`` of
    the whole matrix would copy it).  Raises np.linalg.LinAlgError when a
    is not positive definite.
    """
    n = a.shape[0]
    for k in range(0, n, _CHOL_BLOCK):
        e = min(k + _CHOL_BLOCK, n)
        a[k:e, k:e] = np.linalg.cholesky(a[k:e, k:e])
        a[k:e, e:] = 0.0
        strips = [(j, min(j + _CHOL_BLOCK, n))
                  for j in range(e, n, _CHOL_BLOCK)]
        for j, f in strips:
            a[j:f, k:e] = _solve_triangular(a[k:e, k:e], a[j:f, k:e].T,
                                            lower=True).T
        for j, f in strips:
            a[j:, j:f] -= a[j:, k:e] @ a[j:f, k:e].T
    return a


class _CholeskyHessian:
    """A constant positive definite Hessian H = low low', kept as ``low``.

    The array h handed in is overwritten by the factor (see _cholesky);
    ``matrix`` forms H when first read.
    """

    def __init__(self, h):
        self.low = _cholesky(h)

    @cached_property
    def matrix(self):
        return self.low @ self.low.T


class ConstrainedProblem:
    """Data of a smooth constrained problem: spaces, evaluators, target set.

    Parameters
    ----------
    V, X : SpaceDescriptor
        Control space (domain of the evaluators) and constraint space.
    f0, f0_grad : callable
        Objective u -> float and its gradient u -> (V.dim,) array.
    f, f_jac : callable
        Constraint map u -> (X.dim,) array and its Jacobian
        u -> (X.dim, V.dim) array.

        f0 and f must also accept a (k, V.dim) stack of points, one per
        row, and return f0 as a (k,) array and f as a (k, X.dim) array
        (the Ekeland probes evaluate their points as one stack).  A
        stacked result of another shape, such as the first row that
        ``lambda u: u[0]`` returns, raises ValueError; ``u[..., 0]`` or
        ``u.T[0]`` works for both.  A stack of exactly V.dim rows, where
        that first row has the expected shape, has its last row evaluated
        on its own as well, and a disagreement beyond roundoff raises the
        same ValueError.
    E : ConvexSet
        Target set in X.
    domain : ConvexSet or None
        Admissible set in V; None means the whole space.
    f0_hess : ndarray or _CholeskyHessian
        Constant objective Hessian: a (V.dim, V.dim) array, used as it is,
        or a positive definite one kept as its Cholesky factor, which lets
        a large problem without f_hess_combo take its Newton steps by the
        Woodbury identity (see _newton_minimize) and, with a Singleton E,
        have its reference point certified (see extract_multiplier).  It
        is required, and anything else (None included) raises ValueError.
    f_hess_combo : callable or None
        (u, w) -> sum_i w_i * Hess f_i(u), the second-order term of the
        constraint map weighted by a dual vector w; None declares f
        affine (see _factored_affine).
    name : str
        Display name.
    """

    def __init__(self, V, X, f0, f0_grad, f, f_jac, E, domain=None,
                 f0_hess=None, f_hess_combo=None, name="problem"):
        self.V = V
        self.X = X
        self._f0 = f0
        self._f0_grad = f0_grad
        self._f = f
        self._f_jac = f_jac
        self.E = E
        self.domain = domain
        self.f_hess_combo = f_hess_combo
        self.name = name
        self.f0_hess = f0_hess

    @property
    def f0_hess(self):
        """Constant Hessian of f0: a (V.dim, V.dim) array or its factor."""
        return self._f0_hess

    @f0_hess.setter
    def f0_hess(self, hess):
        arr = hess.low if isinstance(hess, _CholeskyHessian) else hess
        if not (isinstance(arr, np.ndarray)
                and arr.shape == (self.V.dim,) * 2):
            raise ValueError(
                "f0_hess of problem %r must be a (%d, %d) array"
                % (self.name, self.V.dim, self.V.dim))
        self._f0_hess = hess

    def objective(self, u):
        """Evaluate f0 at u: a float for one point, (k,) for a (k, V.dim) stack.

        u is an Element or a coordinate array.
        """
        u = _coords(u)
        if u.ndim == 1:
            return float(self._f0(u))
        return self._stacked(self._f0, u, "f0", (u.shape[0],))

    def gradient(self, u):
        """Gradient of f0 at u as a (V.dim,) array."""
        return np.asarray(self._f0_grad(_coords(u)), dtype=float)

    def constraint(self, u):
        """Evaluate f at u as an (X.dim,) array, or (k, X.dim) for a stack."""
        u = _coords(u)
        if u.ndim == 1:
            return np.asarray(self._f(u), dtype=float)
        return self._stacked(self._f, u, "f", (u.shape[0], self.X.dim))

    def _stacked(self, fn, u, name, shape):
        # a single-point callable handed a stack returns one row, or one
        # column, without complaint; the shape tells, except when the stack
        # has V.dim rows and the first row has the shape of the result:
        # then the last row evaluated on its own tells
        val = np.asarray(fn(u), dtype=float)
        ok = val.shape == shape
        if ok and len(u) == self.V.dim > 1:
            last = np.asarray(fn(u[-1]), dtype=float)
            ok = np.allclose(val[-1], last, rtol=_ROW_RTOL, atol=_ROW_RTOL)
        if not ok:
            raise ValueError(
                "%s of problem %r returned shape %r for a stack of %d points; "
                "expected %r with row i the value at point i "
                "(f0 and f must evaluate each row of a stack)"
                % (name, self.name, val.shape, shape[0], shape))
        return val

    def jacobian(self, u):
        """Jacobian of f at u as an (X.dim, V.dim) array."""
        return np.asarray(self._f_jac(_coords(u)), dtype=float)

    def jacobian_map(self, u):
        """Jacobian of f at u wrapped as a LinearMap from V to X."""
        return LinearMap(self.jacobian(u), domain=self.V, codomain=self.X)

    def variations(self, u, count, seed=0):
        """Sample admissible variations (xi0, xi) of (f0, f) at u.

        Draws radial-cone directions v of the admissible set at u (unit
        ball when the whole space is admissible) and linearizes:
        xi0 = grad f0(u).v, xi = f'(u)v.
        """
        u = _coords(u)
        dom = self.domain if self.domain is not None else WholeSpace(self.V)
        dirs = tangent_cone_sample(dom, Element(u, self.V), count, seed=seed)
        g = self.gradient(u)
        jac = self.jacobian(u)
        out = []
        for d in dirs:
            v = d.coords
            out.append(VariationSample(float(g @ v), Element(jac @ v, self.X)))
        return out

    def __repr__(self):
        return "ConstrainedProblem(%r, V dim %d, X dim %d)" % (
            self.name, self.V.dim, self.X.dim)


# Fixed settings of the penalty pipeline.  The inner stationarity
# tolerance on the dual norm of grad Phi_eps^2 is
# max(_INNER_FLOOR, _INNER_SCALE * eps^2), reached within _MAX_ITERS
# Newton iterations per eps.
_INNER_SCALE = 1e-2
_INNER_FLOOR = 1e-13
_MAX_ITERS = 200
# Allowed overshoot of |u_eps - u_bar| beyond sqrt(eps).
_BALL_SLACK = 1e-6
# A-posteriori tolerance and probe count of the variational inequality
# Phi(u_eps) - Phi(u) <= sqrt(eps) d(u_eps, u).
_EKELAND_TOL = 1e-8
_EKELAND_PROBES = 16
# Cauchy gap over the final records above which extract_multiplier warns.
_LIMIT_TOL = 1e-2
# The pair extrapolated to eps = 0 ends the schedule when the limits from
# the last two triples of records agree within _EXTRAP_TOL and the last two
# raw differences shrink by the ratio of their eps differences within a
# factor 2^(+-_ORDER_SLACK) (first order).
_EXTRAP_TOL = 1e-8
_ORDER_SLACK = 0.1
# Threshold declaring z0, or |z|, nonzero in the branch reports.
_NONZERO_TOL = 1e-6
# Slack of the monotone-decay checks, and the number of final records
# examined, in enhanced_sequence_report.
_MONO_SLACK = 1e-12
_TAIL_LEN = 5


class PenaltyConfig:
    """Seed of the penalty pipeline's one sampler, the Ekeland probes.

    Every other setting is fixed (see the module constants above), and
    the inner solver is damped Newton for every problem (see
    minimize_penalty).
    """

    def __init__(self, seed=0):
        self.seed = int(seed)


def default_schedule(eps0=0.1, steps=14):
    """Halving schedule eps0 * 2^-k, k = 0..steps-1."""
    if not 0.0 < eps0 < 1.0:
        raise ValueError("eps0 must lie in (0, 1)")
    if steps < 1:
        raise ValueError("need at least one step")
    return [eps0 * 2.0 ** (-k) for k in range(steps)]


class MultiplierPair:
    """Extracted pair (z0, z): z0 >= 0 real, z a dual vector on X.

    The pair is nonzero (z0 + |z| >= 1e-6) unless flagged degenerate.
    extrapolated is True for a limit that extract_multiplier extrapolated
    to eps = 0, False for a pair read off one record.
    """

    def __init__(self, z0, z, cauchy_gap=0.0, converged=True,
                 extrapolated=False):
        if z0 < 0:
            raise ValueError("z0 must be nonnegative")
        self.z0 = float(z0)
        self.z = z
        self.cauchy_gap = float(cauchy_gap)
        self.converged = bool(converged)
        self.extrapolated = bool(extrapolated)
        self.degenerate = (self.z0 + self.z_norm()) < 1e-6

    def z_norm(self):
        """Dual norm |z| on the constraint space."""
        return dual_norm(self.z.space, self.z)

    def __repr__(self):
        return "MultiplierPair(z0=%.6g, |z|=%.6g, gap=%.2g)" % (
            self.z0, self.z_norm(), self.cauchy_gap)


class TraceRecord:
    """One schedule step: eps, the near-minimizer, and its coefficient pair."""

    def __init__(self, eps, u_eps, phi, a, b, dist_val, f0_gap, inner_iters,
                 grad_norm=np.nan, ekeland_residual=np.nan):
        self.eps = float(eps)
        self.u_eps = u_eps
        self.phi = float(phi)
        self.a = float(a)
        self.b = b
        self.dist_val = float(dist_val)
        self.f0_gap = float(f0_gap)
        self.inner_iters = int(inner_iters)
        self.grad_norm = float(grad_norm)
        self.ekeland_residual = float(ekeland_residual)

    def b_norm(self):
        """Dual norm of the b coefficient."""
        return dual_norm(self.b.space, self.b)

    def __repr__(self):
        return "TraceRecord(eps=%.3g, a=%.4g, |b|=%.4g, dist=%.3g)" % (
            self.eps, self.a, self.b_norm(), self.dist_val)


class PenaltyTrace:
    """Ordered schedule records with strictly decreasing eps."""

    def __init__(self):
        self.records = []

    def append(self, rec):
        if self.records and rec.eps >= self.records[-1].eps:
            raise ValueError("trace eps values must be strictly decreasing")
        self.records.append(rec)

    def __len__(self):
        return len(self.records)

    def __getitem__(self, k):
        return self.records[k]

    def __iter__(self):
        return iter(self.records)

    def __repr__(self):
        return "PenaltyTrace(%d records)" % len(self.records)


def _phi_parts(p, u, f0_bar, eps):
    """Values entering Phi_eps at coordinates u: (phi2, dist, gap+, f, Pf).

    u is one point or a (k, V.dim) stack of points; for a stack each value
    has one entry (or row) per point.
    """
    fx = p.constraint(u)
    pe = p.E._project(fx)
    diff = fx - pe
    d2 = np.maximum(p.X.quadratic_form(diff), 0.0)
    gp = np.maximum(p.objective(u) - f0_bar + eps, 0.0)
    return d2 + gp * gp, np.sqrt(d2), gp, fx, pe


def _grad_phi2(p, u, parts):
    # parts is _phi_parts at u, which the caller has already computed
    _, dist, gp, fx, pe = parts
    jac = p.jacobian(u)
    g = 2.0 * (jac.T @ p.X.apply_gram(fx - pe))
    g0 = None
    if gp > 0.0:
        g0 = p.gradient(u)
        g = g + 2.0 * gp * g0
    return parts, g, (dist, gp, fx, pe, jac, g0)


def _hess_phi2(p, u, aux):
    _, gp, fx, pe, jac, g0 = aux
    gx_j = p.X.apply_gram(jac)
    h = 2.0 * (jac.T @ gx_j)
    if gp > 0.0:
        hess = p.f0_hess
        if isinstance(hess, _CholeskyHessian):
            hess = hess.matrix
        h = h + 2.0 * np.outer(g0, g0) + 2.0 * gp * hess
    if p.f_hess_combo is not None:
        w = p.X.apply_gram(fx - pe)
        h = h + 2.0 * np.asarray(p.f_hess_combo(u, w), dtype=float)
    return h


# Smallest V.dim at which _newton_minimize takes Woodbury steps.  Whole
# penalty schedules (2 vCPUs, 1 BLAS thread, min of 5-7 runs) measured the
# Woodbury/dense time ratio at 1.07-1.28 on equality QPs of dim 4-96, 1.04
# at 128, 0.84 at 192 and 0.67 at 256, and on lq-endpoint at 1.14, 1.03,
# 0.99, 0.80 and 0.36 for V.dim 100, 128, 150, 200 and 400.
_WOODBURY_MIN_DIM = 128


def _factored_affine(p):
    """Whether p declares f affine (no f_hess_combo) and f0 a strictly
    convex quadratic (f0_hess a _CholeskyHessian): the structure that the
    Woodbury steps and the reference certificate rest on."""
    return p.f_hess_combo is None and isinstance(p.f0_hess, _CholeskyHessian)


def _dense_step(h, g, mu):
    """Solve (h + mu I) s = -g; None when the matrix is singular."""
    try:
        return np.linalg.solve(h if mu == 0.0 else h + mu * np.eye(g.size),
                               -g)
    except np.linalg.LinAlgError:
        return None


def _woodbury_step(p, chol, g, aux, mu):
    """Solve ((2 gap+ + mu) H + U U') s = -g with H = chol chol' constant.

    U U' = 2 J' G_X J + 2 grad f0 grad f0', with U = sqrt(2) [J' L_X,
    grad f0] and G_X = L_X L_X', is the rest of the Hessian of Phi_eps^2
    (the grad f0 column only when gap+ > 0), of rank at most X.dim + 1.
    With V = chol^-1 U, w = chol^-1 g and alpha = 2 gap+ + mu,
    the Woodbury identity (Hager, SIAM Review 31, 1989) gives
    s = -chol'^-1 (w - V y) / alpha, where (alpha I + V'V) y = V'w: two
    triangular solves with the factor and one small dense solve, no
    V.dim x V.dim matrix.  None when alpha = 0 or the small system is
    singular.
    """
    _, gp, _, _, jac, g0 = aux
    alpha = 2.0 * gp + mu
    if alpha <= 0.0:
        return None
    cols = p.X._factor_apply(jac)
    if gp > 0.0:
        cols = np.vstack([cols, g0])
    vw = _solve_triangular(chol, np.column_stack([np.sqrt(2.0) * cols.T, g]),
                           lower=True)
    v, w = vw[:, :-1], vw[:, -1]
    try:
        y = np.linalg.solve(alpha * np.eye(v.shape[1]) + v.T @ v, v.T @ w)
    except np.linalg.LinAlgError:
        return None
    return _solve_triangular(chol.T, w - v @ y, lower=False) / -alpha


# Rounding noise of Phi_eps^2 = dist^2 + gap+^2 at u, in units of the
# machine epsilon: gap+ = f0(u) - f0_bar + eps inherits the rounding of its
# three terms and of the terms that cancel inside f0(u), whose size
# |grad f0(u)| |u| stands for; squaring doubles the relative error, and
# dist^2 is a sum of squares.  The factor 8 is headroom over that count.
_NOISE_ULPS = 8.0 * np.finfo(float).eps

# Approximate Wolfe window (Hager and Zhang, SIAM J. Optim. 16, 2005, with
# their delta = 0.1 and sigma = 0.9) for a step whose change of Phi_eps^2
# is below noise: the slope g(u + t s).s at the trial point must lie in
# [-_WOLFE_SIGMA |g.s|, _WOLFE_CAP |g.s|], where _WOLFE_CAP = 1 - 2 delta.
_WOLFE_SIGMA = 0.9
_WOLFE_CAP = 0.8


def _phi2_noise(u, f0_bar, eps, aux):
    dist, gp, _, _, _, g0 = aux
    size = 0.0
    if gp > 0.0:
        f0_u = gp + f0_bar - eps
        size = gp * (abs(f0_u) + abs(f0_bar) + eps
                     + float(np.linalg.norm(g0) * np.linalg.norm(u)))
    return _NOISE_ULPS * (size + dist * dist)


def _newton_minimize(p, u0, f0_bar, eps, tol):
    """Damped Newton descent on Phi_eps^2 from u0 until |grad| <= tol.

    Each iteration solves the mu-regularized Newton system for a step s
    and tries u + t s for t = 1, 1/2, 1/4, ...  A problem with a factored
    f0_hess H (_CholeskyHessian), no f_hess_combo and V.dim >=
    _WOODBURY_MIN_DIM regularizes along H and solves by the Woodbury
    identity on the factor (see _woodbury_step); any other problem forms
    the Hessian of Phi_eps^2, adds mu I and solves it densely.  A
    trial point is accepted by the Armijo test Phi2(u + t s) <= Phi2(u)
    + 1e-4 t g.s, or, when that fails with Phi2(u + t s) <= Phi2(u) + noise
    (the rounding noise of Phi2 at u), by the approximate Wolfe test on the
    slope: -0.9 |g.s| <= grad Phi2(u + t s).s <= 0.8 |g.s|.  The gradient
    that test computed is reused for the next iteration, and the gradient
    at an accepted point reuses the Phi parts its trial computed.

    Returns (u, parts, stats): parts is _phi_parts at the returned u, as
    its last trial (or, at u0, its first evaluation) computed them; stats
    holds inner_iters, grad_norm, backtracks (rejected trial points) and
    wolfe_steps (steps accepted by the slope test).
    """
    u = u0.copy()
    chol = None
    if _factored_affine(p) and p.V.dim >= _WOODBURY_MIN_DIM:
        chol = p.f0_hess.low
    mu = 0.0
    parts, g, aux = _grad_phi2(p, u, _phi_parts(p, u, f0_bar, eps))
    gnorm = dual_norm(p.V, Element(g, p.V))
    iters = backtracks = wolfe_steps = 0
    while gnorm > tol and iters < _MAX_ITERS:
        h = None if chol is not None else _hess_phi2(p, u, aux)
        step = None
        for _ in range(40):
            cand = (_dense_step(h, g, mu) if chol is None
                    else _woodbury_step(p, chol, g, aux, mu))
            if cand is not None and float(g @ cand) < 0.0:
                step = cand
                break
            mu = max(10.0 * mu, 1e-12)
        if step is None:
            raise InnerConvergenceError(
                "could not produce a descent direction", best=u,
                info={"inner_iters": iters, "grad_norm": gnorm, "tol": tol,
                      "mu": mu})
        phi2 = parts[0]
        slope = float(g @ step)
        noise = _phi2_noise(u, f0_bar, eps, aux)
        t = 1.0
        moved = False
        at_cand = None
        for _ in range(60):
            cand = u + t * step
            cand_parts = _phi_parts(p, cand, f0_bar, eps)
            cand_phi2 = cand_parts[0]
            if cand_phi2 <= phi2 + 1e-4 * t * slope:
                moved = True
                break
            if cand_phi2 <= phi2 + noise:
                at_cand = _grad_phi2(p, cand, cand_parts)
                cand_slope = float(at_cand[1] @ step)
                if (-_WOLFE_SIGMA * abs(slope) <= cand_slope
                        <= _WOLFE_CAP * abs(slope)):
                    moved = True
                    wolfe_steps += 1
                    break
                at_cand = None
            backtracks += 1
            t *= 0.5
        if not moved:
            mu = max(10.0 * mu, 1e-10)
        else:
            mu = mu * 0.25 if mu > 1e-14 else 0.0
            u = cand
            if at_cand is None:
                at_cand = _grad_phi2(p, u, cand_parts)
            parts, g, aux = at_cand
            gnorm = dual_norm(p.V, Element(g, p.V))
        iters += 1
    stats = {"inner_iters": iters, "grad_norm": gnorm,
             "backtracks": backtracks, "wolfe_steps": wolfe_steps}
    if gnorm > tol:
        raise InnerConvergenceError(
            "no stationary point of Phi_eps^2 within %d iterations "
            "(grad %.3e > tol %.3e)" % (_MAX_ITERS, gnorm, tol),
            best=u, info=dict(stats, tol=tol))
    return u, parts, stats


def _ekeland_residual(p, u, phi_u, f0_bar, eps, seed):
    """Max over probes of Phi(u) - Phi(probe) - sqrt(eps) d(u, probe); <= 0 ideally.

    phi_u is Phi_eps(u), which the caller already has.  The probes are
    u + t d for _EKELAND_PROBES random gram-unit directions d and t in
    (0.25, 0.05, 0.01) sqrt(eps); Phi is evaluated at all of them as one
    stack.
    """
    rng = np.random.default_rng([seed, 1009, int(round(1.0 / eps))])
    se = np.sqrt(eps)
    dirs = rng.standard_normal((_EKELAND_PROBES, u.size))
    dn = np.sqrt(np.maximum(p.V.quadratic_form(dirs), 0.0))
    keep = dn > 0.0
    dirs = dirs[keep] / dn[keep, None]
    t = np.array([0.25 * se, 0.05 * se, 0.01 * se])
    # row 3 i + j of the stack is the probe u + t_j d_i
    probes = (u + t[:, None] * dirs[:, None, :]).reshape(-1, u.size)
    phi_probe = np.sqrt(_phi_parts(p, probes, f0_bar, eps)[0]).reshape(-1, 3)
    return np.max(phi_u - phi_probe - se * t, initial=-np.inf)


def _certify_reference(p, ub):
    """Refuse u_bar unless it solves the problem's KKT system to roundoff.

    Only for f = J u + b, f0 = 0.5 u'Hu + c'u + const with H positive
    definite (_factored_affine) and E = {e}, where the KKT conditions make
    u_bar the global minimizer (Nocedal and Wright, Numerical Optimization,
    2006, Thm 16.2); any other u_bar is taken as given.  lam fits -grad
    f0(u_bar) by least squares in the V* norm.  The residuals of the
    system [[H, J'], [J, 0]] (u, lam) = (-c, e - b), |grad f0 + J' lam|_V*
    and dist(f(u_bar), E), must each be at most V.dim * _NOISE_ULPS times
    its normwise backward-error scale (|H| + |J|)(|u_bar| + |lam|) + |c| +
    |e - b| (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    Thm 7.1), with Frobenius norms of the whitened H and J.
    """
    if not (_factored_affine(p) and isinstance(p.E, Singleton)):
        return
    V, X = p.V, p.X
    low = p.f0_hess.low
    g0 = V._factor_solve(p.gradient(ub))
    jac = p.jacobian(ub)
    jt = V._factor_solve(jac.T)
    lam = np.linalg.lstsq(jt, -g0, rcond=None)[0]
    stat = np.linalg.norm(g0 + jt @ lam)
    resid = p.constraint(ub) - p.E.point
    # the right-hand side e - b is J u_bar - resid
    feas, rhs = (norm(X, Element(x, X)) for x in (resid, jac @ ub - resid))
    # |H| <= |low|_F^2 and c = grad f0 - H u_bar, whitened
    h_size = float(np.sum(_row_dots(low, low) / V.gram))
    c_size = np.linalg.norm(g0 - V._factor_solve(low @ (low.T @ ub)))
    j_size = np.linalg.norm(X._factor_apply(jt.T))
    tol = V.dim * _NOISE_ULPS * (
        (h_size + j_size) * (norm(V, Element(ub, V))
                             + dual_norm(X, Element(lam, X)))
        + c_size + rhs)
    if stat > tol or feas > tol:
        raise ValueError(
            "reference point of problem %r failed the local-optimality "
            "certificate: KKT stationarity residual %.3e, dist(f(u_bar), E) "
            "%.3e, tolerance %.3e" % (p.name, stat, feas, tol))


def _check_no_domain(p):
    # the Newton solver and the Ekeland probes range over all of V, so a
    # near-minimizer of a problem with an admissible set U could lie
    # outside U
    if p.domain is not None:
        raise ValueError(
            "problem %r has an admissible domain; the penalty solver "
            "minimizes over the whole space and does not support one"
            % p.name)


def minimize_penalty(p, u_bar, eps, cfg=None, warm_start=None, f0_bar=None):
    """Near-minimizer u_eps of Phi_eps with Phi_eps(u_eps) <= eps, and its info.

    Minimizes Phi_eps^2 (smooth) by damped Newton, to a gradient dual
    norm of max(1e-13, 1e-2 eps^2), walking a chain of starts until one
    attempt succeeds: a prediction, the previous near-minimizer, then
    u_bar.  warm_start is None (u_bar alone), the previous near-minimizer,
    or a tuple (prediction, previous) as extract_multiplier passes it.
    An attempt that fails gives way to the next start.  So does a
    prediction that meets the tolerance with 0 Newton iterations: it lies
    anywhere within the tolerance of the path, while a Newton step lands
    far below it, and the pair read off the unmoved prediction loses that
    accuracy (on lq-endpoint the pair error grew from 1e-8 to 3e-5).
    The Newton system takes f0_hess as the Hessian of f0, and the line
    search accepts a step by the Armijo decrease of Phi_eps^2 or, below
    its rounding noise, by an approximate Wolfe condition (see
    _newton_minimize).  It then verifies a posteriori that
    Phi_eps(u_eps) <= eps, that u_eps stays within sqrt(eps) + 1e-6 of
    u_bar, and that the Ekeland-type inequality holds on 16 probe
    directions (seeded by cfg.seed) up to 1e-8; these checks run once, on
    the attempt that succeeded.  u_bar is not certified here:
    extract_multiplier does that once per schedule.

    Phi is not evaluated at u_eps again: the Phi parts the inner solver
    last computed there serve the Phi <= eps check, the Ekeland residual
    and the info dict.  f0_bar is f0(u_bar), or None to compute it here.

    Returns (element, info dict) where info carries phi, dist, gap_plus,
    f (the constraint value f(u_eps); _pair forms the coefficient pair
    from these four), inner_iters, grad_norm, backtracks, wolfe_steps
    (the last four of the attempt that succeeded), ekeland_residual, ball,
    start (the start that succeeded: "predicted", "previous" or
    "reference"), rejected_starts (the starts given up before it: failed
    attempts, stalled ones with Phi > eps and 0-iteration predictions),
    rejected_iters (the Newton iterations those starts took in all),
    cold_start (start == "reference") and eps.

    Raises InnerConvergenceError (carrying the best iterate) when the inner
    solver stalls or any a-posteriori check fails; its info dict carries
    the iteration count, grad_norm, tol and the failing quantity (phi,
    ball or ekeland_residual).  Raises ValueError for eps outside (0, 1)
    and for a problem with a domain: the solver minimizes over the whole
    space V.
    """
    if cfg is None:
        cfg = PenaltyConfig()
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    _check_no_domain(p)
    ub = _coords(u_bar)
    if f0_bar is None:
        f0_bar = p.objective(ub)

    tol = max(_INNER_FLOOR, _INNER_SCALE * eps * eps)

    predicted, previous = (warm_start if isinstance(warm_start, tuple)
                           else (None, warm_start))
    chain = [(kind, _coords(x)) for kind, x in
             (("predicted", predicted), ("previous", previous))
             if x is not None]
    chain.append(("reference", ub))
    rejected = rejected_iters = 0
    for kind, start in chain:
        try:
            u, (phi2, dist, gp, fx, _), stats = _newton_minimize(
                p, start, f0_bar, eps, tol)
        except InnerConvergenceError as err:
            if kind == "reference":
                raise
            rejected += 1
            rejected_iters += (err.info or {}).get("inner_iters", 0)
            continue
        phi = float(np.sqrt(phi2))
        stalled = phi > eps * (1.0 + 1e-9) + 1e-15
        if stalled and kind == "reference":
            raise InnerConvergenceError(
                "inner solve stalled at Phi = %.6e > eps = %.6e" % (phi, eps),
                best=u, info=dict(stats, tol=tol, phi=phi, eps=eps))
        # a prediction that meets tol as it stands is not taken (see above)
        if stalled or (kind == "predicted" and stats["inner_iters"] == 0):
            rejected += 1
            rejected_iters += stats["inner_iters"]
            continue
        break

    ball = norm(p.V, Element(u - ub, p.V))
    if ball > np.sqrt(eps) + _BALL_SLACK:
        raise InnerConvergenceError(
            "minimizer left the sqrt(eps) ball: |u_eps - u_bar| = %.3e" % ball,
            best=u, info=dict(stats, tol=tol, ball=ball, eps=eps))
    res = _ekeland_residual(p, u, phi, f0_bar, eps, cfg.seed)
    if res > _EKELAND_TOL:
        raise InnerConvergenceError(
            "a-posteriori variational inequality violated by %.3e" % res,
            best=u, info=dict(stats, tol=tol, ekeland_residual=res, eps=eps))

    info = dict(stats, phi=phi, dist=dist, gap_plus=gp, f=fx,
                ekeland_residual=res, ball=ball, start=kind,
                rejected_starts=rejected, rejected_iters=rejected_iters,
                cold_start=kind == "reference", eps=eps)
    return Element(u, p.V), info


def _pair(p, phi, dist, gp, fx):
    """Normalized coefficient pair (a, b) at u_eps from its Phi parts.

    phi = Phi_eps(u_eps), dist = dist(f(u_eps), E), gp = gap+ and
    fx = f(u_eps), as _phi_parts and minimize_penalty give them.
    a = gp / phi and b = dist psi / phi, with psi the distance subgradient
    at f(u_eps) in dual coordinates, so a^2 + |b|^2 = 1.  Raises
    DegeneratePenaltyError when gap+ = 0 and the subgradient selection is
    0 (f(u_eps) lies in E up to roundoff, phi = 0 included): such a
    point beats f0(u_bar) - eps, and the pair would read (0, 0).
    """
    psi = dist_subgradient(p.E, Element(fx, p.X))
    if gp == 0.0 and not psi.coords.any():
        raise DegeneratePenaltyError(
            "Phi_eps(u_eps) = %.3g is roundoff of a feasible point below "
            "f0(u_bar) - eps: pair undefined" % phi)
    a = gp / phi
    b = Element((dist / phi) * psi.coords, p.X)
    return a, b


def _cauchy_gap(trace):
    # a single record has no difference to bound the gap by
    if len(trace) < 2:
        return np.inf
    recs = trace.records[-3:]
    gap = 0.0
    for r0, r1 in zip(recs, recs[1:]):
        gap = max(gap, abs(r1.a - r0.a))
        gap = max(gap, dual_norm(r1.b.space,
                                 Element(r1.b.coords - r0.b.coords, r1.b.space)))
    return gap


def _secant(e1, x1, e2, x2, eps):
    """Value at eps of the secant through (e1, x1) and (e2, x2), e1 != e2."""
    return x1 + (eps - e1) / (e1 - e2) * (x1 - x2)


def _secant_start(trace, ub, eps):
    """Warm start (prediction, previous near-minimizer) at eps, or None.

    The prediction is the secant through the last two points (eps_k, u_k)
    of the penalty path, the first of them (0, u_bar): u_1 + (eps - eps_1)
    (u_1 - u_2) / (eps_1 - eps_2).  None before the first record.
    """
    if not trace:
        return None
    e1, u1 = trace[-1].eps, trace[-1].u_eps.coords
    e2, u2 = ((trace[-2].eps, trace[-2].u_eps.coords) if len(trace) > 1
              else (0.0, ub))
    return _secant(e1, u1, e2, u2, eps), u1


def _dual_hypot(da, db, gdb):
    """hypot(|da|, |db|) for a real da and a dual db, with gdb = G^-1 db."""
    return float(np.hypot(da, np.sqrt(max(float(db @ gdb), 0.0))))


class _PairLimit:
    """Pair at eps = 0 on the quadratic through three consecutive records.

    r1, r2 and r3 are the last three records, latest first.  a and b are
    the value at eps = 0 of the quadratic in eps through their pairs, the
    sum of the pairs with the Lagrange weights prod_{j != i} e_j / (e_j -
    e_i), renormalized to a^2 + |b|^2 = 1; gb = G^-1 b.  On a halving
    schedule that is (8 g(eps) - 6 g(2 eps) + g(4 eps)) / 3, two
    Richardson steps.  step is hypot(|a_1 - a_2|, |b_1 - b_2|) of the raw
    difference of the last two records and de their eps difference.  One
    solve with the gram of X per record serves both dual norms.
    """

    def __init__(self, X, r1, r2, r3):
        e1, e2, e3 = r1.eps, r2.eps, r3.eps
        w = (e2 * e3 / ((e2 - e1) * (e3 - e1)),
             e1 * e3 / ((e1 - e2) * (e3 - e2)),
             e1 * e2 / ((e1 - e3) * (e2 - e3)))
        g1, g2, g3 = (np.concatenate([[r.a], r.b.coords])
                      for r in (r1, r2, r3))
        lim = w[0] * g1 + w[1] * g2 + w[2] * g3
        diff = g1 - g2
        gi = X.apply_gram_inverse(np.column_stack([lim[1:], diff[1:]]))
        scale = _dual_hypot(lim[0], lim[1:], gi[:, 0])
        self.a = lim[0] / scale
        self.b = lim[1:] / scale
        self.gb = gi[:, 0] / scale
        self.step = _dual_hypot(diff[0], diff[1:], gi[:, 1])
        self.de = e2 - e1

    def gap(self, other):
        """hypot(|a - a'|, |b - b'|) to the limit of another record triple."""
        return _dual_hypot(self.a - other.a, self.b - other.b,
                           self.gb - other.gb)


def _resolved(prev, last):
    """Agreement of the limits prev and last, or None if it is unresolved.

    Resolved: the two limits agree within _EXTRAP_TOL, the raw differences
    shrink by the ratio of their eps differences within 2^(+-_ORDER_SLACK),
    and the limit's z0 is nonnegative.
    """
    gap = last.gap(prev)
    if not (gap <= _EXTRAP_TOL and last.a >= 0.0
            and min(prev.step, last.step) > 0.0):
        return None
    order = np.log2(prev.step / last.step) - np.log2(prev.de / last.de)
    return gap if abs(order) <= _ORDER_SLACK else None


def extract_multiplier(p, u_bar, schedule, cfg=None):
    """Run the schedule and return (MultiplierPair, PenaltyTrace).

    Sequentially minimizes Phi_eps along the strictly decreasing schedule,
    records (eps, u_eps, phi, a, b, dist, f0 gap, iteration count) per
    step, and reads the pair (z0, z) off the records.  The first eps
    starts from u_bar.  Every later one starts from the predictor step of
    a continuation in eps (Allgower and Georg, Numerical Continuation
    Methods, Springer 1990): the near-minimizers lie on a path u_eps ~
    u_bar + eps w, and the secant through its last two points (the first
    of them (0, u_bar)) predicts the next (see _secant_start).
    minimize_penalty falls back from the prediction to the previous
    near-minimizer, then to u_bar, and gives up a prediction that meets
    the inner tolerance with 0 iterations, which keeps the pair's
    accuracy.

    The schedule is a maximum.  The raw pair (a_eps, b_eps) is first order
    in eps, so from the 3rd record on the pair is extrapolated to eps = 0
    by the quadratic in eps through the last three records (see
    _PairLimit; two Richardson steps, (8 g(eps) - 6 g(2 eps) + g(4 eps))
    / 3 = (4 R1(eps) - R1(2 eps)) / 3 with R1(eps) = 2 g(eps) - g(2 eps),
    on a halving schedule; Richardson, Phil. Trans. R. Soc. A 210, 1911;
    Fiacco and McCormick, Nonlinear Programming: SUMT, Wiley 1968), and
    renormalized to a^2 + |b|^2 = 1.  From the 4th record on, the
    schedule stops at the first record where this limit is resolved: it
    agrees within 1e-8 with the limit from the triple ending one record
    earlier, the last two raw differences shrink by the ratio of their eps
    differences within a factor 2^(+-0.1), and its z0 is >= 0.  That
    limit is the pair, flagged extrapolated, with their agreement as its
    Cauchy gap.  A schedule that runs out first reports its final record,
    with the Cauchy gap max(|a_k - a_{k-1}|, |b_k - b_{k-1}|) over the
    final three records; a gap above 1e-2 raises a non-convergence
    warning but still returns the result.  A schedule of one eps has no
    difference to bound: its gap is inf and its pair is not converged.
    Before the first eps, u_bar is certified once: for f affine, f0 a
    strictly convex quadratic kept as its Cholesky factor and E a point,
    the KKT conditions must hold at u_bar up to roundoff, or ValueError is
    raised (see _certify_reference); any other problem's u_bar is taken
    as given.  cfg seeds the Ekeland probes.  Raises ValueError for a
    problem with a domain (see minimize_penalty).
    """
    if cfg is None:
        cfg = PenaltyConfig()
    _check_no_domain(p)
    sched = [float(e) for e in schedule]
    if not sched:
        raise ValueError("schedule must be nonempty")
    if any(not 0.0 < e < 1.0 for e in sched):
        raise ValueError("schedule values must lie in (0, 1)")
    if any(e1 >= e0 for e0, e1 in zip(sched, sched[1:])):
        raise ValueError("schedule must be strictly decreasing")

    ub = _coords(u_bar)
    f0_bar = p.objective(ub)
    _certify_reference(p, ub)

    trace = PenaltyTrace()
    prev = None
    for e in sched:
        el, info = minimize_penalty(p, ub, e, cfg,
                                    warm_start=_secant_start(trace, ub, e),
                                    f0_bar=f0_bar)
        a, b = _pair(p, info["phi"], info["dist"], info["gap_plus"], info["f"])
        trace.append(TraceRecord(
            eps=e, u_eps=el, phi=info["phi"], a=a, b=b,
            dist_val=info["dist"], f0_gap=p.objective(el) - f0_bar,
            inner_iters=info["inner_iters"], grad_norm=info["grad_norm"],
            ekeland_residual=info["ekeland_residual"]))
        if len(trace) >= 3:
            lim = _PairLimit(p.X, trace[-1], trace[-2], trace[-3])
            gap = None if prev is None else _resolved(prev, lim)
            if gap is not None:
                return MultiplierPair(lim.a, Element(lim.b, p.X),
                                      cauchy_gap=gap, extrapolated=True), trace
            prev = lim

    last = trace[-1]
    gap = _cauchy_gap(trace)
    converged = gap <= _LIMIT_TOL
    if not converged:
        warnings.warn(
            "multiplier sequence not Cauchy over the final records "
            "(gap %.3e > %.1e); returning the last pair anyway"
            % (gap, _LIMIT_TOL), RuntimeWarning)
    pair = MultiplierPair(last.a, last.b.copy(), cauchy_gap=gap,
                          converged=converged)
    return pair, trace


def fritz_john_residual(p, u_bar, pair, variations):
    """min over variation samples of z0 * xi0 + <z, xi>.

    A residual >= -tol certifies the first-order (Fritz John type)
    inequality on the sample.  Raises ValueError on an empty sample list.
    """
    if not variations:
        raise ValueError("fritz_john_residual needs at least one variation")
    vals = [pair.z0 * s.xi0 + pairing(pair.z, s.xi) for s in variations]
    return float(min(vals))


def kkt_check(p, u_bar, pair, cfg=None):
    """Normality report {normal, z_tilde, surjectivity_sigma}.

    normal is z0 > 1e-6; when normal, z_tilde = z / z0 is the KKT
    multiplier.  surjectivity_sigma is the smallest singular value of the
    constraint Jacobian at u_bar (gram geometry); a positive value is the
    computable surjectivity surrogate for the constraint qualification when
    the target set is a single point.  cfg is accepted and unused: the
    report samples nothing.
    """
    normal = pair.z0 > _NONZERO_TOL
    z_tilde = None
    if normal:
        z_tilde = Element(pair.z.coords / pair.z0, pair.z.space)
    sigma = singular_triplets(p.jacobian_map(u_bar), compute_uv=False)[-1]
    return {"normal": normal, "z_tilde": z_tilde,
            "surjectivity_sigma": float(sigma)}


def _decays(vals, slack):
    """Nonincreasing up to slack, and the tail at most half the head."""
    mono = all(v1 <= v0 + slack for v0, v1 in zip(vals, vals[1:]))
    head = vals[0]
    settled = head <= slack or vals[-1] <= 0.5 * head + slack
    return mono and settled


def enhanced_sequence_report(p, u_bar, trace):
    """Tail checks for the degenerate branch (the z != 0 conclusions).

    Requires |z| > 1e-6 on the final record, else raises
    InapplicableBranchError.  Over the last 5 records verifies:

    1. infeasibility: dist(f(u_eps), E) > 0;
    2. dist decays monotonically (up to 1e-12) toward 0;
    3. f0(u_eps) returns to f0(u_bar);
    4. the projections P_E(f(u_eps)) return to f(u_bar);
    5. <z_hat, f(u_eps) - P_E(f(u_eps))> > 0 with z_hat = z/|z|.

    Returns a dict with per-check booleans, the list of violations, the
    pairing values, and whether the normal branch applies as well (both
    branches are reported when z0 and |z| are both above tolerance).
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    last = trace[-1]
    zn = last.b_norm()
    if zn <= _NONZERO_TOL:
        raise InapplicableBranchError(
            "|z| = %.3e <= %.1e: the z != 0 branch does not apply"
            % (zn, _NONZERO_TOL))
    zhat = last.b.coords / zn
    tail = trace.records[-_TAIL_LEN:]
    ub = _coords(u_bar)
    f_bar = p.constraint(ub)

    dists = [r.dist_val for r in tail]
    gaps = [abs(r.f0_gap) for r in tail]
    projs = []
    pairings = []
    for r in tail:
        fx = p.constraint(r.u_eps)
        pe = p.E._project(fx)
        projs.append(norm(p.X, Element(pe - f_bar, p.X)))
        pairings.append(float(zhat @ (fx - pe)))

    checks = {
        "dist_positive": all(d > 0.0 for d in dists),
        "dist_to_zero": _decays(dists, _MONO_SLACK),
        "objective_to_reference": _decays(gaps, _MONO_SLACK),
        "projection_to_reference": _decays(projs, _MONO_SLACK),
        "positive_pairing": all(v > 0.0 for v in pairings),
    }
    violations = [name for name, ok in checks.items() if not ok]
    return {"applicable": True, "checks": checks, "violations": violations,
            "passed": not violations, "tail_len": len(tail), "z_norm": zn,
            "pairings": pairings,
            "normal_branch_too": last.a > _NONZERO_TOL}
