"""Binary-tree models of controlled linear noise-driven systems.

A depth-d binary tree carries the 2^d equally likely sign paths of a
random walk with steps +-sqrt(dt), the exact discrete stand-in for the
driving noise: the increment moments E[dB] = 0 and E[dB^2] = dt hold
exactly, and conditional expectations are half-sums over the two
children of a node.  Adapted processes are lists of per-level arrays
with 2^j rows at level j; expectations are plain node averages because
every node at a level is equally likely.

On this tree the backward pair (phi, Phi) with terminal data phi_T is
computed exactly by one small linear solve per node (drift-implicit
step), the controlled forward variation is stepped with the matching
drift-implicit scheme so that the duality identity

    E<phi_T, xi(T)> = E sum_t dt <C1^T phi + C2^T Phi, u>

holds to rounding error, and the linear map

    phi_T  ->  (sqrt(weight)-scaled process C1^T phi + C2^T Phi, phi(0))

yields the best constant C with |phi_T| <= C |output| in the mean-square
norms.  Whether C stays bounded as the tree deepens is governed by the
rank of C2: full rank keeps it bounded, while a kernel direction r_hat
of C2^T feeds a witness process whose terminal energy shrinks like 1/k
although any uniform constant would have to dominate |r_hat|^2 with it.
"""

import numpy as np

from .diagnostics import EstimateReport, _sweep
from .evolution import _per_step
from .spaces import RANK_RTOL, Element, rank_mask

__all__ = [
    "TreeModel",
    "tree_bsde_solve",
    "simulate_variation_tree",
    "output_process",
    "sde_duality_residual",
    "sde_estimate_constant",
    "sde_estimate_sweep",
    "rank_deficiency_witness",
]


class TreeModel:
    """Linear controlled system with multiplicative noise on a binary tree.

    State dynamics  dx = (A1 x + C1 u) dt + (A2 x + C2 u) dB  with the
    noise increment dB = +-sqrt(dt) equally likely per step.  Children
    of node i at level j are 2i (increment +sqrt(dt)) and 2i+1
    (increment -sqrt(dt)).

    Parameters
    ----------
    T : float
        Horizon; the step is dt = T/d.
    d : int
        Tree depth (number of time steps); 2^d leaves.
    A1, A2 : array_like
        Drift and noise state matrices, (n, n) constant or (d, n, n)
        per step.
    C1, C2 : array_like
        Drift and noise control matrices, (n, m) or (d, n, m).
    """

    def __init__(self, T, d, A1, A2, C1, C2, name="tree"):
        d = int(d)
        if d < 1:
            raise ValueError("tree depth must be at least 1")
        if not (T > 0 and np.isfinite(T)):
            raise ValueError("horizon T must be positive and finite")
        self.T = float(T)
        self.d = d
        self.dt = self.T / d
        self.sqrt_dt = np.sqrt(self.dt)
        self.name = name

        A1 = np.asarray(A1, dtype=float)
        n = A1.shape[-1]
        if A1.shape[-2:] != (n, n):
            raise ValueError("A1 must be square in its trailing axes")
        C1 = np.asarray(C1, dtype=float)
        m = C1.shape[-1]
        self.n, self.m = n, m
        self.A1 = _per_step(A1, d, (n, n), "A1")
        self.A2 = _per_step(A2, d, (n, n), "A2")
        self.C1 = _per_step(C1, d, (n, m), "C1")
        self.C2 = _per_step(C2, d, (n, m), "C2")
        # drift-implicit step matrices I - dt*A1_j, checked once here
        self.implicit_step = np.eye(n) - self.dt * self.A1
        sig = np.linalg.svd(self.implicit_step, compute_uv=False)
        if np.any(sig[:, -1] <= 1e-13 * np.maximum(sig[:, 0], 1.0)):
            raise ValueError("implicit step matrix I - dt*A1^T is numerically "
                             "singular; use a deeper tree (smaller step)")

    @property
    def leaf_count(self):
        return 2 ** self.d

    def node_counts(self):
        """Nodes per level, root through leaves."""
        return [2 ** j for j in range(self.d + 1)]

    def increments(self):
        """The two equally likely noise increments (child 0, child 1)."""
        return np.array([self.sqrt_dt, -self.sqrt_dt])

    def __repr__(self):
        return ("TreeModel(T=%g, d=%d, n=%d, m=%d)"
                % (self.T, self.d, self.n, self.m))


def _adapted_levels(model, proc, width, steps, what):
    """Normalize a process to per-level arrays (2^j, width), j < steps.

    Accepts a single (width,) vector (constant in time and over nodes),
    a (steps, width) deterministic path, or an explicit list of
    per-level arrays.
    """
    if proc is None:
        return [np.zeros((2 ** j, width)) for j in range(steps)]
    if isinstance(proc, (list, tuple)):
        if len(proc) != steps:
            raise ValueError("%s: expected %d levels, got %d"
                             % (what, steps, len(proc)))
        out = []
        for j, lev in enumerate(proc):
            lev = np.asarray(lev, dtype=float)
            if lev.shape != (2 ** j, width):
                raise ValueError("%s: level %d must have shape %r, got %r"
                                 % (what, j, (2 ** j, width), lev.shape))
            out.append(lev)
        return out
    arr = np.asarray(proc, dtype=float)
    if arr.shape == (width,):
        arr = np.broadcast_to(arr, (steps, width))
    if arr.shape != (steps, width):
        raise ValueError("%s must be a level list, a (%d,) vector or a "
                         "(%d, %d) path, got shape %r"
                         % (what, width, steps, width, arr.shape))
    return [np.broadcast_to(arr[j], (2 ** j, width)).copy()
            for j in range(steps)]


def _step_solve(M, rhs):
    """Solve M x = rhs for per-node right sides (nodes, n[, batch])."""
    squeeze = rhs.ndim == 2
    if squeeze:
        rhs = rhs[:, :, None]
    out = np.linalg.solve(M, rhs)
    return out[:, :, 0] if squeeze else out


def tree_bsde_solve(model, z0=0.0, driver_gy=None, terminal=None,
                    method="implicit"):
    """Backward pair (phi, Phi) on the tree from terminal data.

    Backward recursion from the leaves: at each node,

        Phi(t) = E[phi(t+dt) dB | node] / dt,
        phi(t) = E[phi(t+dt) | node]
                 + (A1^T phi(t) + A2^T Phi(t) + z0 g_y(t)) dt,

    the second line solved implicitly for phi(t) (one n-by-n linear
    solve per step, exact).  This is the discrete ground truth for the
    adjoint pair.  method="explicit" instead evaluates the drift at the
    conditional mean (no solve) -- a comparison variant that differs by
    one order in the step and does not transpose the forward scheme
    exactly.

    Parameters
    ----------
    model : TreeModel
    z0 : float
        Weight on the running driver.
    driver_gy : array_like or list or None
        g_y as a constant (n,) vector, a (d, n) path, or per-level list.
    terminal : array_like
        Leaf values of phi(T), shape (2^d, n); a batch (2^d, n, B)
        solves B terminal data at once.
    method : str
        "implicit" (default) or "explicit".

    Returns
    -------
    (phi, Phi)
        Lists of per-level arrays: phi has d+1 levels (root through
        leaves), Phi has d levels.
    """
    if method not in ("implicit", "explicit"):
        raise ValueError("method must be 'implicit' or 'explicit', got %r"
                         % method)
    if terminal is None:
        raise ValueError("terminal data is required")
    term = np.asarray(terminal, dtype=float)
    batched = term.ndim == 3
    want = (model.leaf_count, model.n)
    if term.shape[:2] != want or term.ndim not in (2, 3):
        raise ValueError("terminal must have shape %r (optionally with a "
                         "trailing batch axis), got %r" % (want, term.shape))
    gy = _adapted_levels(model, driver_gy, model.n, model.d, "driver_gy")

    phi = [None] * (model.d + 1)
    Phi = [None] * model.d
    phi[model.d] = term
    for j in range(model.d - 1, -1, -1):
        nxt = phi[j + 1]
        up, down = nxt[0::2], nxt[1::2]
        cond_mean = 0.5 * (up + down)
        Phi_j = (up - down) / (2.0 * model.sqrt_dt)
        drive = float(z0) * gy[j]
        if batched:
            drive = drive[:, :, None]
        spec = "ab,kbc->kac" if batched else "ab,kb->ka"
        rhs = cond_mean + model.dt * (
            np.einsum(spec, model.A2[j].T, Phi_j) + drive)
        if method == "implicit":
            phi[j] = _step_solve(model.implicit_step[j].T, rhs)
        else:
            phi[j] = rhs + model.dt * np.einsum(spec, model.A1[j].T,
                                                cond_mean)
        Phi[j] = Phi_j
    return phi, Phi


def simulate_variation_tree(model, u):
    """Forward controlled variation xi on the tree, xi(0) = 0.

    One step from node i at level j with control u_j(i):

        xhat     = solve(I - dt A1, xi + dt C1 u)     (implicit drift)
        children = xhat +- sqrt(dt) (A2 xhat + C2 u)  (explicit noise)

    The drift-implicit convention is the exact transpose of the
    backward recursion in tree_bsde_solve, which is what makes the
    duality pairing close to rounding error.

    Returns the list of d+1 per-level state arrays.
    """
    uu = _adapted_levels(model, u, model.m, model.d, "u")
    xi = [np.zeros((1, model.n))]
    for j in range(model.d):
        cur = xi[j]
        xhat = _step_solve(model.implicit_step[j],
                           cur + model.dt * (uu[j] @ model.C1[j].T))
        spread = model.sqrt_dt * (xhat @ model.A2[j].T
                                  + uu[j] @ model.C2[j].T)
        nxt = np.empty((2 ** (j + 1), model.n))
        nxt[0::2] = xhat + spread
        nxt[1::2] = xhat - spread
        xi.append(nxt)
    return xi


def output_process(model, phi, Phi):
    """The adjoint output C1^T phi + C2^T Phi per level (d levels)."""
    out = []
    for j in range(model.d):
        out.append(phi[j] @ model.C1[j] + Phi[j] @ model.C2[j])
    return out


def sde_duality_residual(model, u, terminal):
    """Mismatch of the adjoint pairing, normalized by its magnitudes.

    Computes |E<phi_T, xi(T)> - E sum_j dt <C1^T phi + C2^T Phi, u_j>|
    / max(1, |lhs|, |rhs|) with xi the forward variation driven by u
    and (phi, Phi) the backward pair with terminal data phi_T.  The two
    sides are evaluated by independent tree summations; a residual at
    rounding level certifies the discrete transposition.
    """
    term = np.asarray(terminal, dtype=float)
    uu = _adapted_levels(model, u, model.m, model.d, "u")
    xi = simulate_variation_tree(model, uu)
    phi, Phi = tree_bsde_solve(model, terminal=term)
    lhs = float(np.mean(np.sum(term * xi[-1], axis=1)))
    rhs = 0.0
    for j, out in enumerate(output_process(model, phi, Phi)):
        rhs += model.dt * float(np.mean(np.sum(out * uu[j], axis=1)))
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _estimate_matrix(model, G_mode):
    """Stacked matrix of phi_T -> (weighted outputs[, phi(0)])."""
    dim = model.leaf_count * model.n
    basis = np.eye(dim).reshape(model.leaf_count, model.n, dim)
    phi, Phi = tree_bsde_solve(model, terminal=basis)
    blocks = []
    for j in range(model.d):
        out = (np.einsum("kac,ab->kbc", phi[j], model.C1[j])
               + np.einsum("kac,ab->kbc", Phi[j], model.C2[j]))
        w = np.sqrt(model.dt / 2 ** j)
        blocks.append(w * out.reshape(2 ** j * model.m, dim))
    if G_mode == "phi0":
        blocks.append(phi[0].reshape(model.n, dim))
    return np.vstack(blocks)


def sde_estimate_constant(model, G_mode="phi0", cap=4096, tol=RANK_RTOL):
    """Best constant C with |phi_T| <= C |(output process, phi(0))|.

    Builds the linear map phi_T -> (sqrt(dt 2^-j)-weighted outputs
    C1^T phi + C2^T Phi at every node, and with G_mode "phi0" the extra
    block phi(0)) on the 2^d * n dimensional terminal space, and returns
    C = 1 / sigma_min of that map; phi_T carries the mean-square norm
    (leaf weight 2^-d).  A numerically rank-deficient map means the
    estimate fails on a subspace: the constant is reported as inf
    together with the kernel dimension.

    Parameters
    ----------
    model : TreeModel
    G_mode : str
        "phi0" includes the phi(0) block, "none" drops it.
    cap : int
        Resource guard on the terminal dimension 2^d * n.
    tol : float
        Relative rank cutoff.
    """
    if G_mode not in ("phi0", "none"):
        raise ValueError("G_mode must be 'phi0' or 'none', got %r" % G_mode)
    dim = model.leaf_count * model.n
    if dim > cap:
        raise ValueError(
            "terminal space dimension 2^d * n = %d exceeds the cap %d; "
            "use a smaller depth" % (dim, cap))
    mat = _estimate_matrix(model, G_mode)
    sig = np.linalg.svd(mat, compute_uv=False)
    if sig.size < dim:
        # fewer output rows than terminal dimensions: the remaining
        # singular values are structural zeros
        sig = np.concatenate([sig, np.zeros(dim - sig.size)])
    # terminal gram is 2^-d * identity: rescale plain singular values
    sig = sig * np.sqrt(float(model.leaf_count))
    smax = sig[0] if sig.size else 0.0
    kernel = dim - int(np.sum(rank_mask(sig, tol)))
    if kernel > 0:
        constant = np.inf
        note = ("output map is rank deficient on the terminal space; "
                "no finite constant exists at this depth")
    else:
        constant = 1.0 / sig[-1]
        note = ""
    return EstimateReport(
        constant=constant,
        kernel_dim=kernel,
        sigma_profile=sig,
        verdict="inconclusive",
        note=note,
        extras={"G_mode": G_mode, "depth": model.d, "dim": dim,
                "sigma_min": float(sig[-1]), "sigma_max": float(smax)})


def sde_estimate_sweep(models, G_mode="phi0", cap=4096, growth_factor=2.0):
    """Estimate constants over trees of increasing depth plus a verdict.

    Parameters
    ----------
    models : sequence of TreeModel
        At least 3, strictly increasing in depth.

    Returns
    -------
    SweepReport
        Levels keyed by terminal dimension 2^d * n.  Verdict "bounded"
        when kernels stay trivial and the constants vary by at most
        growth_factor; "growing" when the constants — or, for
        rank-deficient outputs, the kernel dimensions — grow at least
        geometrically with the representation dimension.
    """
    def build(mod):
        return (mod.leaf_count * mod.n,
                sde_estimate_constant(mod, G_mode=G_mode, cap=cap))

    return _sweep(models, build, growth_factor, "depths",
                  key=lambda mod: mod.d)


def rank_deficiency_witness(model, r_hat, k):
    """Energy split of the witness process for a C2^T kernel direction.

    The witness drives the noise term with r(t) = r_hat on the last
    ceil(d/k) steps (zero earlier) and integrates

        psi(0) = 0,
        psi steps by  -(A1^T psi + A2^T r) dt + r dB

    forward on the tree.  Returns (lhs, rhs) with lhs = E|psi(T)|^2 and
    rhs = E int |C1^T psi + C2^T r|^2 dt (the phi(0)-block would add
    |psi(0)|^2 = 0).  As k grows the window shrinks, lhs ~ |r_hat|^2
    T/k decays while k*lhs/|r_hat|^2 stays bounded — so no fixed C can
    dominate |r_hat|^2 by C*lhs for every k.

    Parameters
    ----------
    model : TreeModel
    r_hat : array_like or Element
        Nonzero vector with C2(t)^T r_hat = 0 at every step.
    k : int
        Window index, 1 <= k <= depth.
    """
    if isinstance(r_hat, Element):
        r_hat = r_hat.coords
    r_hat = np.asarray(r_hat, dtype=float)
    if r_hat.shape != (model.n,):
        raise ValueError("r_hat must have shape (%d,)" % model.n)
    rnorm = np.linalg.norm(r_hat)
    if rnorm == 0.0:
        raise ValueError("r_hat must be nonzero")
    k = int(k)
    if not 1 <= k <= model.d:
        raise ValueError("window index k must satisfy 1 <= k <= depth")
    worst = max(np.linalg.norm(model.C2[j].T @ r_hat)
                for j in range(model.d))
    if worst > 1e-10 * rnorm:
        raise ValueError("r_hat is not in the kernel of C2^T "
                         "(|C2^T r_hat| = %.3e)" % worst)

    window = int(np.ceil(model.d / k))
    start = model.d - window
    r = [r_hat if j >= start else np.zeros(model.n)
         for j in range(model.d)]

    psi = [np.zeros((1, model.n))]
    for j in range(model.d):
        cur = psi[j]
        drift = -(cur @ model.A1[j] + r[j] @ model.A2[j])
        base = cur + model.dt * drift
        nxt = np.empty((2 ** (j + 1), model.n))
        nxt[0::2] = base + model.sqrt_dt * r[j]
        nxt[1::2] = base - model.sqrt_dt * r[j]
        psi.append(nxt)

    lhs = float(np.mean(np.sum(psi[-1] ** 2, axis=1)))
    rhs = 0.0
    for j in range(model.d):
        out = psi[j] @ model.C1[j] + r[j] @ model.C2[j]
        rhs += model.dt * float(np.mean(np.sum(out ** 2, axis=1)))
    return lhs, rhs
