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
"""

import numpy as np

from .diagnostics import (EstimateReport, _finite_growth_verdict, _sweep,
                          kernel_dimension)
from .spaces import LinearMap, SpaceDescriptor, singular_triplets

__all__ = [
    "EllipticSystem",
    "elliptic_operator_map",
    "elliptic_estimate_constant",
    "elliptic_sweep",
]

_TAGS = ("L2L2", "H1H-1")


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


def _laplace_inverse(N):
    # closed-form inverse of tridiag(-1, 2, -1):
    # (T^-1)_ij = min(i,j) (N+1-max(i,j)) / (N+1), 1-based indices
    idx = np.arange(1, N + 1, dtype=float)
    lo = np.minimum.outer(idx, idx)
    hi = np.maximum.outer(idx, idx)
    return lo * (N + 1 - hi) / (N + 1)


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
    matrix : ndarray
        The symmetric (N, N) operator matrix.
    min_eig : float
        Smallest eigenvalue of the operator matrix (computed when read).
    positive_definite : bool
        Whether the operator matrix is positive definite.
    shift : float
        max |c| over interior nodes; the shifted matrix
        ``matrix + shift * I`` is the SPD diffusion stiffness plus the
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
        main = (amid[:-1] + amid[1:]) / self.h ** 2 - self.c_nodes
        off = -amid[1:-1] / self.h ** 2
        self.matrix = (np.diag(main)
                       + np.diag(off, 1)
                       + np.diag(off, -1))

        # definiteness is answered by a Sturm count; the smallest
        # eigenvalue itself is bisected only when it is read
        self._diag = main.tolist()
        self._off2 = [0.0] + (off * off).tolist()
        self._pivmin = np.finfo(float).tiny * max(1.0, max(self._off2))
        self._min_eig = None
        self.shift = float(np.max(np.abs(self.c_nodes), initial=0.0))
        self.positive_definite = self._count_below(0.0) == 0

    def _count_below(self, shift):
        return _sturm_count(self._diag, self._off2, shift, self._pivmin)

    @property
    def min_eig(self):
        """Smallest eigenvalue of the operator matrix, by Sturm bisection.

        Bisects the Gershgorin interval down to an absolute width of
        2 eps times its largest end, the accuracy LAPACK's dstebz gives
        with its default tolerance.  Computed on first read and cached.
        """
        if self._min_eig is None:
            main = np.asarray(self._diag)
            radius = np.sqrt(self._off2[1:] + [0.0]) + np.sqrt(self._off2)
            lo = float(np.min(main - radius))
            hi = float(np.max(main + radius))
            tol = 2.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
            lo, hi = lo - tol - self._pivmin, hi + tol
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break  # adjacent doubles: a zero matrix has tol = 0
                if self._count_below(mid) > 0:
                    hi = mid
                else:
                    lo = mid
            self._min_eig = 0.5 * (lo + hi)
        return self._min_eig

    def solution_space(self):
        """Space the argument phi lives in, per the tag."""
        if self.tag == "L2L2":
            return SpaceDescriptor("elliptic-solution-L2", self.N,
                                   gram=self.h * np.eye(self.N))
        K0 = self._reference_stiffness()
        return SpaceDescriptor("elliptic-solution-H10", self.N, gram=K0)

    def data_space(self):
        """Space the image h = L phi lives in, per the tag."""
        if self.tag == "L2L2":
            return SpaceDescriptor("elliptic-data-L2", self.N,
                                   gram=self.h * np.eye(self.N))
        gram = self.h ** 3 * _laplace_inverse(self.N)
        return SpaceDescriptor("elliptic-data-Hm1", self.N, gram=gram)

    def _reference_stiffness(self):
        T = (np.diag(np.full(self.N, 2.0))
             + np.diag(np.full(self.N - 1, -1.0), 1)
             + np.diag(np.full(self.N - 1, -1.0), -1))
        return T / self.h

    def __repr__(self):
        return "EllipticSystem(N=%d, tag=%r)" % (self.N, self.tag)


def elliptic_operator_map(sys):
    """The forward map phi -> L phi between the tagged spaces."""
    return LinearMap(sys.matrix, domain=sys.solution_space(),
                     codomain=sys.data_space())


def elliptic_estimate_constant(sys):
    """Best constant C with |L phi| <= C |phi| in the tagged norm pair.

    Equivalently: the smallest C so that every solution of L phi = h
    obeys |h| <= C |phi|.  Computed as the largest singular value of the
    forward map in the tagged grams.  An indefinite operator (potential
    overpowering the diffusion) is reported in the note; the
    computation proceeds on the assembled matrix regardless.
    """
    F = elliptic_operator_map(sys)
    sig = singular_triplets(F, compute_uv=False)
    note = ""
    if not sys.positive_definite:
        note = ("operator matrix is not positive definite "
                "(min eigenvalue %.3e)" % sys.min_eig)
    return EstimateReport(
        constant=sig[0],
        kernel_dim=kernel_dimension(F, sigma=sig),
        sigma_profile=sig,
        verdict="inconclusive",
        note=note,
        extras={"tag": sys.tag, "N": sys.N, "h": sys.h,
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
