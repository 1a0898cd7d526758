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
  affine equality constraints; the KKT system gives an exact multiplier
  oracle.
- lq_endpoint_problem: discrete-time linear-quadratic optimal control with
  a fixed endpoint, assembled from a Crank-Nicolson EvolutionSystem; the
  dense KKT solve provides the oracle multiplier and the adjoint equation
  provides an independent stationarity certificate.

Every f0 and f takes one point or a (k, dim) stack of points.  ``u.T[j]``
is coordinate j of a point or column j of a stack, and ``(M @ u.T).T`` is
M @ u for a point, so a single point is evaluated with the same arithmetic
as a plain vector.
"""

import numpy as np

from .convex import Singleton
from .evolution import (EvolutionSystem, _crank_nicolson,
                        _crank_nicolson_steps, endpoint_map)
from .penalty import ConstrainedProblem, default_schedule
from .spaces import Element, SpaceDescriptor, _row_dots, rank_mask

__all__ = [
    "scalar_problem",
    "l2_example",
    "equality_qp",
    "lq_endpoint_problem",
]


def null_space(A):
    """Orthonormal basis of the null space of A, as columns, from its SVD.

    A singular value counts as zero when it is at most
    eps * max(A.shape) times the largest one.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    rank = np.count_nonzero(rank_mask(s, np.finfo(float).eps * max(A.shape)))
    return vh[rank:].T


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
        f0_hess=lambda u: np.zeros((1, 1)),
        f_hess_combo=lambda u, w: np.zeros((1, 1)),
        feasible_sampler=lambda ub, count, seed: np.zeros((1, 1)),
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

    def feasible_sampler(ub, count, seed):
        s = np.random.default_rng(seed).uniform(-1.0, 1.0, size=count)
        pts = np.zeros((count, dim))
        pts[:, 0] = 1.0
        pts[:, 2] = s
        return pts

    p = ConstrainedProblem(
        V, X,
        f0=lambda u: u.T[0],
        f0_grad=lambda u: np.eye(dim)[0],
        f=f,
        f_jac=f_jac,
        E=Singleton(X, np.zeros(dim)),
        f0_hess=lambda u: np.zeros((dim, dim)),
        f_hess_combo=f_hess_combo,
        feasible_sampler=feasible_sampler,
        name="l2-fritz-john")
    ub = np.zeros(dim)
    ub[0] = 1.0
    p.u_bar = Element(ub, V)
    p.extras = {"offset_t": _l2_t_of_eps,
                "z_direction": -np.concatenate(([1.0, 1.0], np.zeros(dim - 2)))
                / np.sqrt(2.0)}
    return p


def _kkt_solve(H, A, g, r):
    """Solve the KKT system [[H, A'], [A, 0]] (x, lam) = (g, r)."""
    nx, nc = H.shape[0], A.shape[0]
    kkt = np.zeros((nx + nc, nx + nc))
    kkt[:nx, :nx] = H
    kkt[:nx, nx:] = A.T
    kkt[nx:, :nx] = A
    sol = np.linalg.solve(kkt, np.concatenate([g, r]))
    return sol[:nx], sol[nx:]


def equality_qp(dim=8, n_constraints=3, seed=0):
    """Random strictly convex QP under affine equality constraints.

    minimize 0.5 u'Qu + c'u  subject to  A u = b, with Q positive definite
    and A full row rank.  u_bar and the oracle multiplier come from the
    dense KKT system [[Q, A'], [A, 0]]; the extracted penalty pair must
    align with (1, lambda)/sqrt(1 + |lambda|^2).
    """
    if n_constraints >= dim:
        raise ValueError("need fewer constraints than unknowns")
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((dim, dim))
    Q = B.T @ B / dim + np.eye(dim)
    A = rng.standard_normal((n_constraints, dim))
    b = rng.standard_normal(n_constraints)
    c = rng.standard_normal(dim)

    ub, lam = _kkt_solve(Q, A, -c, b)

    V = SpaceDescriptor("qp-controls", dim)
    X = SpaceDescriptor("qp-constraints", n_constraints)
    ns = null_space(A)

    def feasible_sampler(ubar, count, seed_):
        w = np.random.default_rng(seed_).standard_normal((count, ns.shape[1]))
        # probe several radii so the local-optimality spot check also
        # catches shallow descent directions near the reference point
        radii = np.array([0.02, 0.2, 2.0])[np.arange(count) % 3, None]
        return ubar + radii * (w @ ns.T)

    p = ConstrainedProblem(
        V, X,
        f0=lambda u: 0.5 * _row_dots(u @ Q, u) + c @ u.T,
        f0_grad=lambda u: Q @ u + c,
        f=lambda u: (A @ u.T).T - b,
        f_jac=lambda u: A,
        E=Singleton(X, np.zeros(n_constraints)),
        f0_hess=lambda u: Q,
        feasible_sampler=feasible_sampler,
        name="equality-qp")
    p.u_bar = Element(ub, V)
    p.extras = {"kkt_multiplier": lam, "Q": Q, "A": A, "b": b, "c": c}
    return p


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


def lq_endpoint_problem(N=50, T=1.0):
    """Linear-quadratic control with a pinned endpoint (oscillator pair).

    State dim 4, control dim 2, Crank-Nicolson grid of N steps on [0, T],
    running cost 0.5 |ybar|^2 + 0.5 |u|^2 on the step midpoints ybar; the
    endpoint y(T) is constrained to a reachable target built from the free
    response plus 0.5 times the image of a smooth reference input.
    The objective reduces to the quadratic 0.5 u'Hu + c'u + const on the
    flattened control path, the constraint to the affine endpoint map, so
    the dense KKT solve gives the exact reference solution and multiplier.
    """
    n, m = 4, 2
    dt = T / N
    nu = N * m
    y0 = np.array([1.0, 0.0, -0.5, 0.0])
    sysmodel = EvolutionSystem(T, N, _LQ_A, _LQ_B, name="lq-endpoint")

    # midpoint states ybar_k = (y_k + y_{k+1})/2 stacked as an affine map
    # ybar = ybar0 + W u of the flattened control path: the free response
    # from y0, plus the variations driven by the identity batch of paths
    free = _crank_nicolson(sysmodel, y0, np.zeros((N, n)))
    ybar0 = _midpoints(free).ravel()
    W = np.empty((N * n, nu))
    prev = np.zeros((n, nu))
    for k, x in enumerate(_crank_nicolson_steps(
            sysmodel, prev, _identity_batch_forcing(sysmodel))):
        rows = W[k * n:(k + 1) * n]
        np.add(prev, x, out=rows)
        rows *= 0.5
        prev = x

    H = W.T @ W
    H *= dt
    H[np.diag_indices(nu)] += dt
    c = dt * (W.T @ ybar0)
    const = 0.5 * dt * float(ybar0 @ ybar0)

    G = endpoint_map(sysmodel).matrix
    y_free = free[N]
    shape = 0.3 * np.sin(np.linspace(0.0, 3.0, nu))
    y_target = y_free + 0.5 * (G @ shape)
    ubar, lam = _kkt_solve(H, G, -c, y_target - y_free)

    V = SpaceDescriptor("control-path", nu)
    X = SpaceDescriptor("endpoint", n)

    def feasible_sampler(ub, count, seed_):
        # the null-space basis (nu x nu - n) is formed per call, not kept
        ns = null_space(G)
        w = np.random.default_rng(seed_).standard_normal((count, ns.shape[1]))
        return ub + 0.1 * (w @ ns.T)

    p = ConstrainedProblem(
        V, X,
        f0=lambda u: 0.5 * _row_dots(u @ H, u) + c @ u.T + const,
        f0_grad=lambda u: H @ u + c,
        f=lambda u: (G @ u.T).T + y_free - y_target,
        f_jac=lambda u: G,
        E=Singleton(X, np.zeros(n)),
        f0_hess=lambda u: H,
        feasible_sampler=feasible_sampler,
        name="lq-endpoint")
    p.u_bar = Element(ubar, V)

    # reference-dependent per-step cost gradients for the adjoint equation
    ybar_ref = (ybar0 + W @ ubar).reshape(N, n)
    u_ref = ubar.reshape(N, m)
    system = EvolutionSystem(T, N, _LQ_A, _LQ_B, gy=ybar_ref, gu=u_ref,
                             E=Singleton(SpaceDescriptor("endpoint", n),
                                         y_target),
                             name="lq-endpoint")
    p.extras = {"kkt_multiplier": lam, "endpoint_matrix": G, "H": H, "c": c,
                "y_free": y_free, "y_target": y_target, "system": system,
                "u_ref": u_ref, "ybar_ref": ybar_ref, "y0": y0,
                "schedule": default_schedule(0.1, 23)}
    return p
