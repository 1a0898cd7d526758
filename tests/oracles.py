"""Test-side oracles: dense reference constructions the package does not run.

Each builds, by plain dense linear algebra or difference quotients, an
object the package computes another way (or does not need), so tests can
compare against it:

* ``stiffness1d``, ``laplace_inverse``, ``solution_gram``, ``data_gram``,
  ``gram_norm``, ``operator_matrix`` and ``dense_sigma``: the dense grams
  of the elliptic norm pairs (not diagonal in H1_0/H-1, so the library's
  spaces cannot hold them), the dense operator matrix and its singular
  values between those grams, whitened by ``np.linalg.cholesky``: the
  oracle of the Sturm-bisection estimate in ``fcopt.elliptic``;
* ``AffineSubspace``: an affine target set with a gram-orthonormal basis;
* ``directional_variation`` with ``VariationEstimate``: one-sided
  difference quotients of an evaluator along a direction;
* ``jacobian_fd_error`` and ``check_reference``: a problem's analytic
  constraint Jacobian against central differences of its constraint map;
* ``kkt_solve``, ``equality_qp_hessian`` and
  ``lq_identity_batch_reference``: the Hessians H of the quadratic
  problems, which the package keeps only as a Cholesky factor, and their
  KKT solutions by one dense solve.
"""

import numpy as np

from fcopt.convex import ConvexSet, _kronecker
from fcopt.evolution import EvolutionSystem, endpoint_map
from fcopt.problems import _LQ_A, _LQ_B
from fcopt.spaces import Element


# ---------------------------------------------------------------- elliptic


def stiffness1d(dim, h):
    """Tridiagonal second-difference matrix tridiag(-1, 2, -1)/h."""
    k = 2.0 * np.eye(dim) - np.eye(dim, k=1) - np.eye(dim, k=-1)
    return k / float(h)


def laplace_inverse(N):
    """Closed-form inverse of tridiag(-1, 2, -1) of size N.

    (T^-1)_ij = min(i,j) (N+1-max(i,j)) / (N+1), 1-based indices.
    """
    idx = np.arange(1, N + 1, dtype=float)
    lo = np.minimum.outer(idx, idx)
    hi = np.maximum.outer(idx, idx)
    return lo * (N + 1 - hi) / (N + 1)


def solution_gram(sys):
    """Dense gram of the space the argument phi of an EllipticSystem lives in.

    L2L2: the lumped mass h I; H1H-1: the stiffness K0 = T/h.
    """
    if sys.tag == "L2L2":
        return sys.h * np.eye(sys.N)
    return stiffness1d(sys.N, sys.h)


def data_gram(sys):
    """Dense gram of the space the image h = L phi lives in, per the tag.

    L2L2: the lumped mass h I; H1H-1: the dual gram h^3 T^-1.
    """
    if sys.tag == "L2L2":
        return sys.h * np.eye(sys.N)
    return sys.h ** 3 * laplace_inverse(sys.N)


def gram_norm(gram, x):
    """sqrt(x' G x) in a dense gram."""
    return float(np.sqrt(x @ gram @ x))


def operator_matrix(sys):
    """The symmetric (N, N) operator matrix of an EllipticSystem, dense."""
    return (np.diag(sys._main) + np.diag(sys._off, 1)
            + np.diag(sys._off, -1))


def dense_sigma(sys):
    """Singular values of phi -> L phi between the tagged grams, descending.

    The SVD of C = R_X M R_V^-1, where G = R'R for the upper Cholesky
    factor R of each dense gram: |M x|_X / |x|_V = |C y| / |y| for
    y = R_V x.
    """
    rv = np.linalg.cholesky(solution_gram(sys)).T
    rx = np.linalg.cholesky(data_gram(sys)).T
    c = rx @ np.linalg.solve(rv.T, operator_matrix(sys).T).T
    return np.linalg.svd(c, compute_uv=False)


# ------------------------------------------------------------------ convex


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
        gb = basis.T @ space.apply_gram(basis)
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


# ----------------------------------------------------------------- penalty


def _central_differences(fn, u, h):
    """Columns (fn(u + h e_j) - fn(u - h e_j)) / 2h, j = 0..u.size-1."""
    return np.stack([(fn(u + s) - fn(u - s)) / (2.0 * h)
                     for s in h * np.eye(u.size)], axis=-1)


def jacobian_fd_error(p, u, h=1e-6):
    """Max relative error of p's analytic Jacobian vs central differences."""
    u = u.coords if isinstance(u, Element) else np.asarray(u, dtype=float)
    jac = p.jacobian(u)
    fd = _central_differences(p.constraint, u, h)
    scale = max(1.0, float(np.abs(jac).max()))
    return float(np.abs(fd - jac).max()) / scale


def check_reference(p, u_bar, tol=1e-5, h=1e-6):
    """Raise ValueError if p's Jacobian fails the difference check at u_bar."""
    err = jacobian_fd_error(p, u_bar, h=h)
    if err > tol:
        raise ValueError(
            "jacobian check failed at the reference point: "
            "relative error %.3e > %.1e" % (err, tol))
    return err


# ---------------------------------------------------------------- problems


def kkt_solve(H, A, g, r):
    """Solve the dense KKT system [[H, A'], [A, 0]] (x, lam) = (g, r)."""
    nx, nc = H.shape[0], A.shape[0]
    kkt = np.zeros((nx + nc, nx + nc))
    kkt[:nx, :nx] = H
    kkt[:nx, nx:] = A.T
    kkt[nx:, :nx] = A
    sol = np.linalg.solve(kkt, np.concatenate([g, r]))
    return sol[:nx], sol[nx:]


def equality_qp_hessian(dim, seed):
    """H of ``equality_qp(dim, n_constraints, seed)``, redrawn from its seed.

    H is the first draw of the builder's generator, so n_constraints does
    not change it.
    """
    B = np.random.default_rng(seed).standard_normal((dim, dim))
    return B.T @ B / dim + np.eye(dim)


def lq_identity_batch_reference(N, T=1.0):
    """H, c, u_bar, lambda, ybar_ref and G of the LQ builder with W formed
    from the identity batch of nu control paths, stepped all at once."""
    n, m = 4, 2
    nu, dt = N * m, T / N
    R = np.eye(n) - 0.5 * dt * _LQ_A
    P = np.eye(n) + 0.5 * dt * _LQ_A

    def steps(x0, forcing):
        x = np.empty((N + 1,) + np.shape(x0))
        x[0] = x0
        for k in range(N):
            x[k + 1] = np.linalg.solve(R, P @ x[k] + dt * forcing[k])
        return 0.5 * (x[:-1] + x[1:]), x[N]

    mid_free, y_free = steps(np.array([1.0, 0.0, -0.5, 0.0]),
                             np.zeros((N, n)))
    ybar0 = mid_free.ravel()
    forcing = np.einsum("kij,kj...->ki...",
                        np.broadcast_to(_LQ_B, (N, n, m)),
                        np.eye(nu).reshape(N, m, nu))
    W = steps(np.zeros((n, nu)), forcing)[0].reshape(N * n, nu)
    H = dt * (W.T @ W) + dt * np.eye(nu)
    c = dt * (W.T @ ybar0)
    G = endpoint_map(EvolutionSystem(T, N, _LQ_A, _LQ_B)).matrix
    y_target = y_free + 0.5 * (G @ (0.3 * np.sin(np.linspace(0.0, 3.0, nu))))
    ubar, lam = kkt_solve(H, G, -c, y_target - y_free)
    return H, c, ubar, lam, (ybar0 + W @ ubar).reshape(N, n), G
