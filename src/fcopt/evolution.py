"""Linearized control-system dynamics on a uniform time grid.

Forward variation equations xi' = A(t) xi + Bc(t) w driven by control
variations w, their spike (needle) counterparts driven by pointwise drift
differences, and the backward adjoint psi' = -A(t)' psi + z0 * g_y with the
*exact discrete transpose* of the forward scheme, so that the duality

    <phi_T, xi(T)> = sum_k dt <Bc_k' q_k, w_k>,      q_k = (psi_k + psi_{k+1})/2

holds to machine precision (no re-discretization error).  The forward
stepping is Crank-Nicolson with piecewise-constant data per step:

    (I - dt/2 A_k) xi_{k+1} = (I + dt/2 A_k) xi_k + dt Bc_k w_k

whose transpose is again Crank-Nicolson for the adjoint because the two
step factors are polynomials in the same matrix and therefore commute.
One loop steps this scheme forward: trajectories start from a given
initial state (zero for variations) and may carry a trailing batch axis,
so a batch of B control paths is simulated in a single pass.
State-space grams are the identity.
"""

import numpy as np

from .spaces import Element, LinearMap, SpaceDescriptor

__all__ = [
    "EvolutionSystem",
    "simulate_variation_evolution",
    "endpoint_map",
    "spike_variation",
    "adjoint_evolution",
    "adjoint_midpoints",
    "maximum_principle_residual",
]


def _per_step(arr, steps, shape, what):
    """Broadcast a constant matrix/vector to one value per time step."""
    a = np.asarray(arr, dtype=float)
    if a.shape == shape:
        a = np.broadcast_to(a, (steps,) + shape).copy()
    elif a.shape != (steps,) + shape:
        raise ValueError("%s must have shape %r or %r, got %r"
                         % (what, shape, (steps,) + shape, a.shape))
    if not np.all(np.isfinite(a)):
        raise ValueError("%s contains non-finite entries" % what)
    return a


class EvolutionSystem:
    """Per-step data of a linear(ized) control system on [0, T].

    Parameters
    ----------
    T : float
        Horizon; the grid is uniform with step dt = T/N.
    N : int
        Number of time steps.
    A : (n, n) or (N, n, n) array
        Drift Jacobian per step (constant matrices are broadcast).
    Bc : (n, m) or (N, n, m) array
        Control Jacobian per step.
    gy : (n,) or (N, n) array, optional
        Running-cost state gradient along the reference, per step
        (midpoint values); defaults to zero.
    gu : (m,) or (N, m) array, optional
        Running-cost control gradient along the reference; defaults to zero.
    E : ConvexSet or None
        Endpoint target set in the state space.
    name : str
        Display name.
    """

    def __init__(self, T, N, A, Bc, gy=None, gu=None, E=None, name="evolution"):
        if N < 1:
            raise ValueError("need at least one time step")
        if not (T > 0 and np.isfinite(T)):
            raise ValueError("horizon T must be positive and finite")
        self.T = float(T)
        self.N = int(N)
        self.dt = self.T / self.N
        A = np.asarray(A, dtype=float)
        n = A.shape[-1]
        if A.shape[-2] != n:
            raise ValueError("A blocks must be square")
        self.A = _per_step(A, self.N, (n, n), "A")
        Bc = np.asarray(Bc, dtype=float)
        m = Bc.shape[-1]
        self.Bc = _per_step(Bc, self.N, (n, m), "Bc")
        self.n = n
        self.m = m
        self.gy = _per_step(np.zeros(n) if gy is None else gy,
                            self.N, (n,), "gy")
        self.gu = _per_step(np.zeros(m) if gu is None else gu,
                            self.N, (m,), "gu")
        self.E = E
        self.name = name
        self.state_space = SpaceDescriptor("state", n)
        # flattened control paths, step-major
        self.control_path_space = SpaceDescriptor("control-path",
                                                  self.N * self.m)
        eye = np.eye(n)
        # Crank-Nicolson step factors (I -+ dt/2 A_k), one pair per step
        self._R = eye - 0.5 * self.dt * self.A
        self._P = eye + 0.5 * self.dt * self.A

    def reshape_control(self, w):
        """Coerce a control variation to shape (N, m), or (N, m, B) for a
        batch of B control paths."""
        if isinstance(w, Element):
            w = w.coords
        w = np.asarray(w, dtype=float)
        if w.ndim == 1:
            w = w.reshape(self.N, self.m)
        if w.shape[:2] != (self.N, self.m) or w.ndim not in (2, 3):
            raise ValueError("control sequence must have %d steps of dim %d"
                             % (self.N, self.m))
        return w

    def __repr__(self):
        return "EvolutionSystem(%r, n=%d, m=%d, N=%d, T=%g)" % (
            self.name, self.n, self.m, self.N, self.T)


def _crank_nicolson_steps(sys, x0, forcing):
    """Yield the Crank-Nicolson states x_1, ..., x_N from x_0 = x0.

    Steps (I - dt/2 A_k) x_{k+1} = (I + dt/2 A_k) x_k + dt f_k, taking f_k
    from the iterable ``forcing`` of N per-step values.  x0 has shape (n,)
    or (n, B) and each f_k (n,) or (n, B); a trailing batch axis carries B
    trajectories at once.  Each state is a new array.
    """
    x = x0
    for k, f in enumerate(forcing):
        x = np.linalg.solve(sys._R[k], sys._P[k] @ x + sys.dt * f)
        yield x


def _crank_nicolson(sys, x0, forcing):
    """Crank-Nicolson states x_0 = x0, ..., x_N stacked as (N+1, n[, B])."""
    x = np.empty((sys.N + 1,) + np.shape(x0))
    x[0] = x0
    for k, xk in enumerate(_crank_nicolson_steps(sys, x[0], forcing), 1):
        x[k] = xk
    return x


def simulate_variation_evolution(sys, w):
    """Trajectory of xi' = A xi + Bc w with xi(0) = 0.

    w is one control path, (N, m) or flattened (N*m,), giving an (N+1, n)
    array, or a batch of B paths, (N, m, B), giving (N+1, n, B).
    """
    w = sys.reshape_control(w)
    forcing = np.einsum("kij,kj...->ki...", sys.Bc, w)
    return _crank_nicolson(sys, np.zeros(forcing.shape[1:]), forcing)


def endpoint_map(sys):
    """The linear endpoint map w -> xi(T) as a LinearMap.

    Domain is the flattened control-path space (step-major, identity gram),
    codomain the state space.  Columns are accumulated transition products,
    equivalent to propagating unit impulses.
    """
    mat = np.zeros((sys.n, sys.N * sys.m))
    # one stacked solve per factor: the same LU solve of each step's
    # system as a per-step call, without 2N Python round trips
    S = sys.dt * np.linalg.solve(sys._R, sys.Bc)
    step = np.linalg.solve(sys._R, sys._P)
    acc = np.eye(sys.n)
    for k in range(sys.N - 1, -1, -1):
        mat[:, k * sys.m:(k + 1) * sys.m] = acc @ S[k]
        acc = acc @ step[k]
    return LinearMap(mat, domain=sys.control_path_space,
                     codomain=sys.state_space)


def spike_variation(sys, drift_diff, cost_diff):
    """Needle-variation pair (xi0_hat/T, xi_hat(T)/T).

    Parameters
    ----------
    drift_diff : (N, n) array
        Per-step drift differences F(t, y_ref, v) - F(t, y_ref, u_ref).
    cost_diff : (N,) array
        Per-step running-cost differences g(t, y_ref, v) - g(t, y_ref, u_ref).

    Integrates xi_hat' = A xi_hat + drift_diff by the forward scheme and
    xi0_hat' = gy . xi_hat + cost_diff by the midpoint rule, and returns
    both endpoint values divided by T.
    """
    drift = _per_step(np.asarray(drift_diff, dtype=float), sys.N, (sys.n,),
                      "drift_diff")
    cost = np.broadcast_to(np.asarray(cost_diff, dtype=float),
                           (sys.N,)).astype(float)
    xi = _crank_nicolson(sys, np.zeros(sys.n), drift)
    mid = 0.5 * (xi[:-1] + xi[1:])
    xi0 = sys.dt * float(np.sum(np.einsum("ki,ki->k", sys.gy, mid) + cost))
    return xi0 / sys.T, xi[sys.N] / sys.T


def adjoint_evolution(sys, z0, z):
    """Backward adjoint trajectory psi with psi(T) = -z; returns (N+1, n).

    Steps (I - dt/2 A_k') psi_k = (I + dt/2 A_k') psi_{k+1} - dt z0 gy_k,
    the exact discrete transpose of the forward variation scheme.
    """
    zc = z.coords if isinstance(z, Element) else np.asarray(z, dtype=float)
    if zc.shape != (sys.n,):
        raise ValueError("terminal dual vector must have state dimension")
    psi = np.zeros((sys.N + 1, sys.n))
    psi[sys.N] = -zc
    for k in range(sys.N - 1, -1, -1):
        rhs = sys._P[k].T @ psi[k + 1] - sys.dt * float(z0) * sys.gy[k]
        psi[k] = np.linalg.solve(sys._R[k].T, rhs)
    return psi


def adjoint_midpoints(sys, psi):
    """Per-step co-state values q_k = (psi_k + psi_{k+1})/2; shape (N, n)."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (sys.N + 1, sys.n):
        raise ValueError("adjoint trajectory has wrong shape")
    return 0.5 * (psi[:-1] + psi[1:])


def maximum_principle_residual(sys, pair, psi, hamiltonian_diff=None,
                               u_sampler=None, count=128, seed=0):
    """Pointwise-maximum certificate for the Hamiltonian along the grid.

    With q_k the co-state midpoints of psi, always reports the convex
    (stationarity) residual

        stationarity = max_k | Bc_k' q_k - z0 * gu_k |_inf,

    which vanishes at an interior Hamiltonian maximum.  When
    hamiltonian_diff(k, q_k, u) -> H(t_k, u) - H(t_k, u_ref(t_k)) is
    supplied, also reports max_violation = max over grid steps and sampled
    controls of that difference (<= tol certifies the maximum condition);
    controls come from u_sampler(count, seed) -> (count, m) array, or a
    seeded standard-normal sample when no sampler is given.

    A degenerate pair (z0 = 0, z = 0) yields residual 0 and valid=False.
    """
    q = adjoint_midpoints(sys, psi)
    z0 = float(pair.z0)
    znorm = pair.z_norm() if hasattr(pair, "z_norm") else float(
        np.linalg.norm(np.asarray(pair.z, dtype=float)))
    valid = (z0 + znorm) >= 1e-6
    stat = 0.0
    for k in range(sys.N):
        res = sys.Bc[k].T @ q[k] - z0 * sys.gu[k]
        stat = max(stat, float(np.abs(res).max()))
    if not valid:
        stat = 0.0
    out = {"stationarity": stat, "max_violation": None, "valid": valid}
    if hamiltonian_diff is not None:
        if u_sampler is not None:
            us = np.atleast_2d(np.asarray(u_sampler(count, seed), dtype=float))
        else:
            rng = np.random.default_rng(seed)
            us = rng.standard_normal((count, sys.m))
        worst = -np.inf
        for k in range(sys.N):
            for u in us:
                worst = max(worst, float(hamiltonian_diff(k, q[k], u)))
        out["max_violation"] = worst
    return out
