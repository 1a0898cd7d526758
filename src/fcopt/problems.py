"""Worked constrained problems feeding the penalty pipeline.

Each builder returns a ConstrainedProblem with the reference solution
attached as ``p.u_bar`` (an Element) and oracle data in ``p.extras``:

- scalar_problem: minimize u subject to u = 0 on the line; the penalty
  near-minimizer is -eps/2 in closed form.
- l2_example: a six-dimensional truncation of a sequence-space example
  whose multiplier is purely degenerate (z0 -> 0, z nonzero); the third
  constraint coordinate is identically zero, so the constraint Jacobian is
  never surjective and the KKT branch fails.
- equality_qp: random strictly convex quadratic objective under full-rank
  affine equality constraints.
- lq_endpoint_problem: discrete-time linear-quadratic optimal control with
  a fixed endpoint, assembled from a Crank-Nicolson EvolutionSystem; the
  adjoint equation provides an independent stationarity certificate.

The last two are the same kind of problem, minimize 0.5 u'Hu + c'u + const
subject to Gu = r with H positive definite, and share one builder
(_quadratic_problem): it keeps H only as its Cholesky factor L, the
problem's f0_hess, and the KKT system, solved on L, gives the reference
point and the oracle multiplier.

Every f0 and f takes one point or a (k, dim) stack of points.  ``u.T[j]``
is coordinate j of a point or column j of a stack, and ``(M @ u.T).T`` is
M @ u for a point, so a single point is evaluated with the same arithmetic
as a plain vector.
"""

import numpy as np

from .convex import Singleton
from .evolution import (EvolutionSystem, _crank_nicolson,
                        _crank_nicolson_steps, endpoint_map)
from .penalty import (ConstrainedProblem, default_schedule, _CholeskyHessian,
                      _solve_triangular)
from .spaces import Element, SpaceDescriptor, _row_dots

__all__ = [
    "scalar_problem",
    "l2_example",
    "equality_qp",
    "lq_endpoint_problem",
]


def scalar_problem():
    """Minimize u subject to u = 0 on the real line; u_bar = 0.

    Phi_eps(u)^2 = u^2 + ((u + eps)^+)^2 is minimized at u = -eps/2, where
    the pair is (a, b) = (1/sqrt(2), -1/sqrt(2)); both the normal and the
    degenerate branch are active in the limit.
    """
    V = SpaceDescriptor("line", 1)
    X = SpaceDescriptor("constraint-line", 1)
    p = ConstrainedProblem(
        V, X,
        f0=lambda u: u.T[0],
        f0_grad=lambda u: np.array([1.0]),
        f=lambda u: u.copy(),
        f_jac=lambda u: np.eye(1),
        E=Singleton(X, np.zeros(1)),
        f0_hess=np.zeros((1, 1)),
        f_hess_combo=lambda u, w: np.zeros((1, 1)),
        name="scalar")
    p.u_bar = Element(np.zeros(1), V)
    p.extras = {"minimizer": lambda eps: -0.5 * eps}
    return p


def _l2_t_of_eps(eps):
    """Solve t + 6 t^5 = eps (the first-order condition of 2t^6 + (eps-t)^2)."""
    t = eps
    for _ in range(60):
        t = t - (t + 6.0 * t ** 5 - eps) / (1.0 + 30.0 * t ** 4)
    return t


def l2_example(dim=6):
    """Truncated sequence-space example with a degenerate multiplier.

    f(u) = (u2 + (u1-1)^3, -u2 + (u1-1)^3, 0, u4, ..., udim), f0(u) = u1,
    E = {0}, u_bar = e1.  The feasible set is the line {(1, 0, s, 0, ...)}
    on which f0 is constant, so u_bar is optimal; the multiplier limit is
    z0 = 0, z = -(1, 1, 0, ...)/sqrt(2).
    """
    if dim < 4:
        raise ValueError("need dim >= 4")
    V = SpaceDescriptor("l2-trunc", dim)
    X = SpaceDescriptor("l2-constraints", dim)

    def f(u):
        out = np.zeros(u.shape)
        cube = (u.T[0] - 1.0) ** 3
        out.T[0] = u.T[1] + cube
        out.T[1] = -u.T[1] + cube
        out.T[3:] = u.T[3:]
        return out

    def f_jac(u):
        jac = np.zeros((dim, dim))
        sq = 3.0 * (u[0] - 1.0) ** 2
        jac[0, 0] = sq
        jac[0, 1] = 1.0
        jac[1, 0] = sq
        jac[1, 1] = -1.0
        for j in range(3, dim):
            jac[j, j] = 1.0
        return jac

    def f_hess_combo(u, w):
        h = np.zeros((dim, dim))
        h[0, 0] = 6.0 * (u[0] - 1.0) * (w[0] + w[1])
        return h

    p = ConstrainedProblem(
        V, X,
        f0=lambda u: u.T[0],
        f0_grad=lambda u: np.eye(dim)[0],
        f=f,
        f_jac=f_jac,
        E=Singleton(X, np.zeros(dim)),
        f0_hess=np.zeros((dim, dim)),
        f_hess_combo=f_hess_combo,
        name="l2-fritz-john")
    ub = np.zeros(dim)
    ub[0] = 1.0
    p.u_bar = Element(ub, V)
    p.extras = {"offset_t": _l2_t_of_eps,
                "z_direction": -np.concatenate(([1.0, 1.0], np.zeros(dim - 2)))
                / np.sqrt(2.0)}
    return p


def _quadratic_problem(V, X, H, c, const, G, r, name):
    """minimize 0.5 u'Hu + c'u + const subject to Gu = r, H positive definite.

    The array H is overwritten by its lower Cholesky factor L, the
    problem's f0_hess: f0 = 0.5 |L'u|^2 + c'u + const, grad f0 = L L'u + c.
    The reference point and the oracle multiplier solve the KKT system
    Hu + G'lam = -c, Gu = r, eliminated on L: with Y = L^-1 G' and
    z = L^-1 c, the X.dim x X.dim Schur complement is Y'Y and
    u = -L'^-1 (z + Y lam).  The extras hold that multiplier and c, G, r.
    """
    hess = _CholeskyHessian(H)
    low = hess.low

    def f0(u):
        y = u @ low
        return 0.5 * _row_dots(y, y) + c @ u.T + const

    p = ConstrainedProblem(
        V, X,
        f0=f0,
        f0_grad=lambda u: low @ (u @ low) + c,
        f=lambda u: (G @ u.T).T - r,
        f_jac=lambda u: G,
        E=Singleton(X, np.zeros(X.dim)),
        f0_hess=hess,
        name=name)
    yz = _solve_triangular(low, np.column_stack([G.T, c]), lower=True)
    Y, z = yz[:, :X.dim], yz[:, X.dim]
    lam = -np.linalg.solve(Y.T @ Y, Y.T @ z + r)
    p.u_bar = Element(-_solve_triangular(low.T, z + Y @ lam, lower=False), V)
    p.extras = {"kkt_multiplier": lam, "c": c, "G": G, "r": r}
    return p


def equality_qp(dim=8, n_constraints=3, seed=0):
    """Random strictly convex QP under affine equality constraints.

    minimize 0.5 u'Hu + c'u  subject to  Gu = r, with H positive definite
    and G full row rank; u_bar and the oracle multiplier come from the KKT
    system (see _quadratic_problem), and the extracted penalty pair must
    align with (1, lambda)/sqrt(1 + |lambda|^2).
    """
    if n_constraints >= dim:
        raise ValueError("need fewer constraints than unknowns")
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((dim, dim))
    H = B.T @ B / dim + np.eye(dim)
    G = rng.standard_normal((n_constraints, dim))
    r = rng.standard_normal(n_constraints)
    c = rng.standard_normal(dim)
    return _quadratic_problem(SpaceDescriptor("qp-controls", dim),
                              SpaceDescriptor("qp-constraints", n_constraints),
                              H, c, 0.0, G, r, "equality-qp")


_LQ_A = np.array([[0.0, 1.0, 0.0, 0.0],
                  [-1.0, -0.1, 0.2, 0.0],
                  [0.0, 0.0, 0.0, 1.0],
                  [0.1, 0.0, -0.8, -0.2]])
_LQ_B = np.array([[0.0, 0.0],
                  [1.0, 0.0],
                  [0.0, 0.0],
                  [0.0, 1.0]])


def _midpoints(y):
    """Step midpoints (y_k + y_{k+1})/2 along the leading (time) axis."""
    return 0.5 * (y[:-1] + y[1:])


def _identity_batch_forcing(sys):
    """Per-step forcing Bc_k w_k of the identity batch of N*m control paths.

    Path j is the unit impulse in flattened control coordinate j, so step k
    forces only the columns k*m .. (k+1)*m - 1, with Bc_k; one (n, N*m)
    array is formed per step.
    """
    nu = sys.N * sys.m
    for k in range(sys.N):
        f = np.zeros((sys.n, nu))
        f[:, k * sys.m:(k + 1) * sys.m] = sys.Bc[k]
        yield f


# Crank-Nicolson steps per block of midpoint rows, and columns per strip of
# the Gramian, in _midpoint_gram
_GRAM_STEPS = 32
_GRAM_STRIP = 128


def _midpoint_gram(sys, ybar0):
    """W'W and W'ybar0 for the midpoint map W, without forming W.

    W (N n x N m) maps a flattened control path to the stacked step
    midpoints (y_k + y_{k+1})/2 of its trajectory from y_0 = 0; its columns
    are the trajectories of the identity batch of control paths.  The rows
    of W are produced one block of _GRAM_STEPS steps at a time, and a block
    of steps k0 .. k1-1 is zero in the columns of steps k1 and later (a
    control acts only from its own step on).  Each block adds the lower
    triangle of its W_b'W_b in column strips of _GRAM_STRIP, so no
    temporary is larger than (N m) x _GRAM_STRIP; only the lower
    triangle of the result holds W'W.
    """
    n, m = sys.n, sys.m
    nu = sys.N * m
    gram = np.zeros((nu, nu))
    rhs = np.zeros(nu)
    steps = _crank_nicolson_steps(sys, np.zeros((n, nu)),
                                  _identity_batch_forcing(sys))
    prev = np.zeros((n, nu))
    rows = np.empty((_GRAM_STEPS, n, nu))
    for k0 in range(0, sys.N, _GRAM_STEPS):
        k1 = min(k0 + _GRAM_STEPS, sys.N)
        for row, x in zip(rows[:k1 - k0], steps):
            np.add(prev, x, out=row)
            row *= 0.5
            prev = x
        cols = k1 * m
        wb = rows[:k1 - k0, :, :cols].reshape(-1, cols)
        rhs[:cols] += wb.T @ ybar0[k0:k1].ravel()
        for j in range(0, cols, _GRAM_STRIP):
            e = min(j + _GRAM_STRIP, cols)
            gram[j:cols, j:e] += wb[:, j:].T @ wb[:, j:e]
    return gram, rhs


def lq_endpoint_problem(N=50, T=1.0):
    """Linear-quadratic control with a pinned endpoint (oscillator pair).

    State dim 4, control dim 2, Crank-Nicolson grid of N steps on [0, T],
    running cost 0.5 |ybar|^2 + 0.5 |u|^2 on the step midpoints ybar; the
    endpoint y(T) is constrained to a reachable target built from the free
    response plus 0.5 times the image of a smooth reference input.
    The objective reduces to the quadratic 0.5 u'Hu + c'u + const on the
    flattened control path, the constraint to the affine endpoint map G
    (see _quadratic_problem); the Cholesky factor of H, formed in place,
    is the only N m x N m array kept.  The
    control and constraint spaces are those of the EvolutionSystem: the
    control path in the L2(0,T) gram dt I, the endpoint in the identity.
    """
    n, m = 4, 2
    dt = T / N
    nu = N * m
    y0 = np.array([1.0, 0.0, -0.5, 0.0])
    sysmodel = EvolutionSystem(T, N, _LQ_A, _LQ_B, name="lq-endpoint")

    # midpoint states ybar_k = (y_k + y_{k+1})/2 form the affine map
    # ybar = ybar0 + W u of the flattened control path, with ybar0 the
    # midpoints of the free response from y0
    free = _crank_nicolson(sysmodel, y0, np.zeros((N, n)))
    ybar0 = _midpoints(free)
    H, c = _midpoint_gram(sysmodel, ybar0)
    H *= dt
    H[np.diag_indices(nu)] += dt
    c *= dt
    const = 0.5 * dt * float(ybar0.ravel() @ ybar0.ravel())

    G = endpoint_map(sysmodel).matrix
    y_free = free[N]
    shape = 0.3 * np.sin(np.linspace(0.0, 3.0, nu))
    y_target = y_free + 0.5 * (G @ shape)
    p = _quadratic_problem(sysmodel.control_path_space, sysmodel.state_space,
                           H, c, const, G, y_target - y_free, "lq-endpoint")

    # reference-dependent per-step cost gradients for the adjoint equation,
    # from a forward sweep of u_bar
    u_ref = p.u_bar.coords.reshape(N, m)
    ybar_ref = _midpoints(_crank_nicolson(
        sysmodel, y0, np.einsum("kij,kj->ki", sysmodel.Bc, u_ref)))
    system = EvolutionSystem(T, N, _LQ_A, _LQ_B, gy=ybar_ref, gu=u_ref,
                             name="lq-endpoint")
    p.extras.update(y_free=y_free, y_target=y_target, system=system,
                    u_ref=u_ref, ybar_ref=ybar_ref, y0=y0,
                    schedule=default_schedule(0.1, 23))
    return p
