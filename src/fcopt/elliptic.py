"""One-dimensional elliptic operators and mesh-robust estimate constants.

The Sturm-Liouville operator L y = -(a y')' - c y on (0, 1) with zero
boundary values is discretized by finite differences on a uniform mesh
of N interior nodes (h = 1/(N+1), midpoint-averaged diffusion
coefficient).  The question answered here: in which norm pair does the
relation h = L phi admit an estimate |h| <= C |phi| with a constant
independent of the mesh?

Measured in L^2 on both sides, the best constant is the operator norm
of L, which scales like 4/h^2 and blows up under refinement: no uniform
estimate.  Measured from H^1_0 (phi side) to H^-1 (h side), the map is
for a = 1, c = 0 the discrete Riesz isometry -- every singular value
equals 1 -- and variable coefficients perturb the constant without
breaking its mesh independence.

Both constants come from the tridiagonal structure alone.  In L^2/L^2
both grams are h*I and cancel, so the singular values are sigma = |lambda(L)|.
In H^1_0/H^-1 the solution gram is K0 = T/h (T = tridiag(-1, 2, -1)) and
the data gram is h^3 T^-1 = h^2 K0^-1, so sigma = h |lambda(L, K0)|, the
eigenvalues of the symmetric-definite tridiagonal pencil.  Because K0 is
positive definite, Sylvester's law of inertia counts the pencil's
eigenvalues below s as the negative pivots of the tridiagonal L - s K0.
The extremes are bisected on these O(N) counts (Barth, Martin &
Wilkinson, Numer. Math. 9, 1967); no gram, factorization or SVD is
formed.  The kernel dimension is the number of |lambda| within
RANK_RTOL sigma_max (divided by h for the pencil), two counts that
reproduce the spaces.rank_mask rule sigma <= tol sigma_max.
"""

import math
from functools import cached_property

import numpy as np

from .diagnostics import EstimateReport, _finite_growth_verdict, _sweep
from .spaces import RANK_RTOL

__all__ = [
    "EllipticSystem",
    "elliptic_estimate_constant",
    "elliptic_sweep",
]

_TAGS = ("L2L2", "H1H-1")

# Python floats: numpy scalars would slow every step of the count loop
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _nodal_values(coef, x, label):
    if callable(coef):
        vals = np.asarray([coef(xi) for xi in x], dtype=float)
    else:
        vals = np.asarray(coef, dtype=float)
        if vals.ndim == 0:
            vals = np.full(x.shape, float(vals))
    if vals.shape != x.shape:
        raise ValueError("%s: expected %d nodal values, got shape %r"
                         % (label, x.size, vals.shape))
    if not np.all(np.isfinite(vals)):
        raise ValueError("%s: nodal values must be finite" % label)
    return vals


def _sturm_count(diag, off2, shift, pivmin):
    """Number of eigenvalues of a symmetric tridiagonal matrix below shift.

    ``diag`` lists the diagonal and ``off2`` the squared couplings of each
    row to the one before it (``off2[0] = 0``).  Counts the negative
    pivots of the LDL' factorization of T - shift*I (Sylvester's law of
    inertia; Barth, Martin & Wilkinson, Numer. Math. 9, 1967).  A pivot
    smaller than ``pivmin`` in magnitude is replaced by -pivmin, as
    LAPACK's dstebz does, so no division is by zero and none overflows;
    an eigenvalue equal to the shift then counts as below it.  Plain
    floats: for a few shifts this loop is faster than numpy's.
    """
    count = 0
    d = 1.0
    for a, b2 in zip(diag, off2):
        d = (a - shift) - b2 / d
        if abs(d) < pivmin:
            d = -pivmin
        if d < 0.0:
            count += 1
    return count


def _kth_eigenvalue(count, k, radius, negative, floor):
    """The k-th smallest eigenvalue (k = 1, 2, ...) by Sturm bisection.

    ``count(s)`` is the number of eigenvalues below s, ``negative`` is
    count(0), and every eigenvalue lies in [-radius, radius]; so the
    k-th lies in [-radius, 0] when k <= negative and in [0, radius]
    otherwise.  That bracket is bisected down to a width of 2 eps
    relative to its larger end, or ``floor`` when that is wider
    (dstebz's RELTOL and PIVMIN), and at the latest to adjacent doubles:
    a zero matrix has radius 0.  An eigenvalue whose final bracket still
    ends at 0 lies within ``floor`` of it and is returned as 0.0.
    """
    pad = radius * (1.0 + 8.0 * _EPS) + floor
    lo, hi = (-pad, 0.0) if k <= negative else (0.0, pad)
    while hi - lo > max(floor, 2.0 * _EPS * max(abs(lo), abs(hi))):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # adjacent doubles
        if count(mid) >= k:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi) if lo * hi > 0.0 else 0.0


class EllipticSystem:
    """Discretization of -(a y')' - c y on (0,1) with Dirichlet data.

    Parameters
    ----------
    N : int
        Interior node count; the mesh step is h = 1/(N+1).
    a : float, callable or array_like
        Diffusion coefficient, strictly positive.  A callable is
        evaluated at the N+2 mesh nodes (boundary included); an array
        supplies those nodal values directly.
    c : float, callable or array_like
        Potential; enters the operator as -c y.  Evaluated at the N
        interior nodes.
    tag : str
        Norm pair used by the estimate: "L2L2" measures both phi and
        h = L phi in L^2 (lumped mass h*I); "H1H-1" measures phi in
        H^1_0 (stiffness gram) and h in the dual H^-1 gram.

    Attributes
    ----------
    min_eig : float
        Smallest eigenvalue of the operator matrix (computed when read).
    positive_definite : bool
        Whether the operator matrix is positive definite.
    shift : float
        max |c| over interior nodes; the shifted operator matrix
        ``L + shift * I`` is the SPD diffusion stiffness plus the
        nonnegative diagonal ``shift - c``, so it is always SPD.
    """

    def __init__(self, N, a=1.0, c=0.0, tag="L2L2", name="elliptic"):
        N = int(N)
        if N < 1:
            raise ValueError("need at least one interior node")
        if tag not in _TAGS:
            raise ValueError("unknown space tag %r; expected one of %r"
                             % (tag, _TAGS))
        self.N = N
        self.h = 1.0 / (N + 1)
        self.tag = tag
        self.name = name
        x_full = np.linspace(0.0, 1.0, N + 2)
        self.x = x_full[1:-1]
        self.a_nodes = _nodal_values(a, x_full, "a")
        if np.any(self.a_nodes <= 0.0):
            raise ValueError("diffusion coefficient must be positive")
        self.c_nodes = _nodal_values(c, self.x, "c")

        amid = 0.5 * (self.a_nodes[:-1] + self.a_nodes[1:])
        self._main = (amid[:-1] + amid[1:]) / self.h ** 2 - self.c_nodes
        self._off = -amid[1:-1] / self.h ** 2
        # largest absolute row sum: bounds every eigenvalue (Gershgorin)
        absoff = np.abs(self._off)
        rows = np.abs(self._main)
        rows[:-1] += absoff
        rows[1:] += absoff
        self._norm_inf = float(rows.max())

        # definiteness is answered by a Sturm count; the smallest
        # eigenvalue itself is bisected only when it is read
        self._diag = self._main.tolist()
        self._off2 = [0.0] + (self._off * self._off).tolist()
        self._pivmin = _TINY * max(1.0, max(self._off2))
        self.shift = float(np.max(np.abs(self.c_nodes), initial=0.0))
        self._negative = self._count_below(0.0)
        self.positive_definite = self._negative == 0

    def _count_below(self, shift):
        return _sturm_count(self._diag, self._off2, shift, self._pivmin)

    def _pencil_count_below(self, s):
        # eigenvalues of the pencil (L, K0) below s = negative pivots of
        # the tridiagonal L - s K0, K0 = tridiag(-1, 2, -1)/h being SPD
        off2 = np.zeros(self.N)
        np.square(self._off + s / self.h, out=off2[1:])
        pivmin = _TINY * max(1.0, float(off2.max()))
        return _sturm_count(self._diag, off2.tolist(), 2.0 * s / self.h,
                            pivmin)

    @cached_property
    def min_eig(self):
        """Smallest eigenvalue of the operator matrix, by Sturm bisection.

        Bisects [-|L|_inf, 0] (or [0, |L|_inf] for a positive definite
        matrix) down to a width of 2 eps relative to the eigenvalue.
        Computed on first read and cached.
        """
        return _kth_eigenvalue(self._count_below, 1, self._norm_inf,
                               self._negative, self._pivmin)

    def __repr__(self):
        return "EllipticSystem(N=%d, tag=%r)" % (self.N, self.tag)


def elliptic_estimate_constant(sys):
    """Best constant C with |L phi| <= C |phi| in the tagged norm pair.

    Equivalently: the smallest C so that every solution of L phi = h
    obeys |h| <= C |phi|.  C is the largest singular value of the
    forward map in the tagged grams: sigma = |lambda(L)| for L2/L2 and
    sigma = h |lambda(L, K0)| for H1/H-1 (module docstring), so C is
    the larger modulus of the two extreme eigenvalues, each bisected on
    Sturm counts.  The kernel dimension counts the eigenvalues with
    sigma <= RANK_RTOL * C; ``sigma_profile`` is [sigma_max, sigma_min],
    with sigma_min 0.0 when the kernel is not trivial.  An indefinite
    operator (potential overpowering the diffusion) is reported in the
    note; the computation proceeds regardless.
    """
    N = sys.N
    if sys.tag == "L2L2":
        count, radius, scale = sys._count_below, sys._norm_inf, 1.0
    else:
        # |lambda(L, K0)| <= |L|_inf / lambda_min(K0), the latter in
        # closed form
        k0_min = (4.0 / sys.h) * math.sin(0.5 * math.pi * sys.h) ** 2
        count, radius, scale = (sys._pencil_count_below,
                                sys._norm_inf / k0_min, sys.h)

    def eigenvalue(k):
        # the pencil at shift 0 is L itself, so L's pivot floor serves
        return _kth_eigenvalue(count, k, radius, sys._negative, sys._pivmin)

    lowest = sys.min_eig if sys.tag == "L2L2" else eigenvalue(1)
    highest = eigenvalue(N)
    smax = scale * max(abs(lowest), abs(highest))

    if smax == 0.0:
        kdim = N
    else:
        cut = RANK_RTOL * smax / scale
        kdim = count(cut) - count(-cut)
    neg = sys._negative  # the pencil's inertia at 0 is L's
    if kdim:
        smin = 0.0
    elif neg == 0:
        smin = scale * abs(lowest)
    elif neg == N:
        smin = scale * abs(highest)
    else:
        # the eigenvalues next to 0 are the neg-th and the (neg+1)-th
        smin = scale * min(abs(eigenvalue(neg)), abs(eigenvalue(neg + 1)))

    note = ""
    if not sys.positive_definite:
        note = ("operator matrix is not positive definite "
                "(min eigenvalue %.3e)" % sys.min_eig)
    return EstimateReport(
        constant=smax,
        kernel_dim=kdim,
        sigma_profile=[smax, smin],
        verdict="inconclusive",
        note=note,
        extras={"tag": sys.tag, "N": N, "h": sys.h,
                "shift": sys.shift})


def elliptic_sweep(levels, tag="L2L2", a=1.0, c=0.0, growth_factor=2.0):
    """Estimate constants over a sequence of meshes plus a growth verdict.

    Parameters
    ----------
    levels : sequence of int
        Strictly increasing interior node counts (at least 3 of them).
    tag, a, c
        Forwarded to EllipticSystem.
    growth_factor : float
        Ratio treated as genuine growth per doubling of the node count.

    Returns
    -------
    SweepReport
        Per-level reports; verdict "bounded" when the constants stay
        within growth_factor overall, "growing" when they increase at
        least geometrically with the mesh resolution.
    """
    def build(n):
        return int(n), elliptic_estimate_constant(
            EllipticSystem(n, a=a, c=c, tag=tag))

    # the constant is sigma_max, so a kernel does not bear on the verdict
    def constants_rule(ns, consts, kdims, growth_factor):
        return _finite_growth_verdict(consts, ns, growth_factor)

    return _sweep(levels, build, growth_factor, "mesh levels",
                  rule=constants_rule)
