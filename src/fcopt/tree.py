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

The constant is found without forming that 2^d n column map.  Its
coefficients depend on the step and not on the node, so every node of a
level poses the same small elimination of the map's Jordan-Wielandt form
[[-s I, A], [A^T, -s I]]; by Sylvester's law and Haynsworth's inertia
additivity the number of singular values below a shift s is a weighted
sum of inertias of (n + m)-sized blocks, at O(d (n + m)^3) per shift
(_singular_count).  Counting a batch of shifts per pass narrows
sigma_max and sigma_min to adjacent doubles.  The count at 1e-6
sigma_max must equal the exact kernel dimension, found level by level
from small ranks; that certifies the numerical kernel.  A map that
fails the certificate (ill-conditioned, not structurally deficient), or
whose elimination is too ill-conditioned to trust, is factored densely
up to DENSE_MAX_DIM terminal dimensions, and every result is checked
against Rayleigh quotients of the map applied through tree_bsde_solve.
"""

import numpy as np

from .diagnostics import EstimateReport, _sweep
from .evolution import _per_step
from .spaces import Element, rank_mask

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


def tree_bsde_solve(model, z0=0.0, driver_gy=None, terminal=None):
    """Backward pair (phi, Phi) on the tree from terminal data.

    Backward recursion from the leaves: at each node,

        Phi(t) = E[phi(t+dt) dB | node] / dt,
        phi(t) = E[phi(t+dt) | node]
                 + (A1^T phi(t) + A2^T Phi(t) + z0 g_y(t)) dt,

    the second line solved implicitly for phi(t) (one n-by-n linear
    solve per step, exact).  This is the discrete ground truth for the
    adjoint pair.

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

    Returns
    -------
    (phi, Phi)
        Lists of per-level arrays: phi has d+1 levels (root through
        leaves), Phi has d levels.
    """
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
        phi[j] = _step_solve(model.implicit_step[j].T, rhs)
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


# Largest terminal dimension 2^d * n the dense fallback of
# sde_estimate_constant forms and factors.
DENSE_MAX_DIM = 4096

# The count is trusted while _elimination_condition is at most this.
_ELIMINATION_COND_MAX = 1e4

# Shifts evaluated per pass of the multisection in sde_estimate_constant.
_SHIFTS_PER_PASS = 15

# The kernel is certified by the count at this fraction of sigma_max.
_CERTIFY_RTOL = 1e-6

# Slack on the a-posteriori Rayleigh-quotient check.
_RAYLEIGH_RTOL = 1e-10

# First-pass shifts, as multiples of the smallest and of the largest
# Rayleigh quotient.
_LOW_GRID = 2.0 ** np.array([-12.0, -6.0, -3.0, -2.0, -1.0, -0.5, 0.0])
_HIGH_GRID = 2.0 ** np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 6.0, 12.0])

# Offsets of the shifts around an interpolated step of the count: in
# bracket widths before the interpolation converges, and in multiples of
# its expected error after.
_EARLY_OFFSETS = np.array([1e-2, 1e-4])
_LATE_OFFSETS = np.array([1e2, 1.0, 1e-2, 1e-4, 1e-6])

_EPS = np.finfo(float).eps


def _solve(Z, B):
    """Z^-1 B per shift, for symmetric Z.

    LU with partial pivoting; a Z that LU finds exactly singular (a shift
    on a singular value) is inverted through its eigenvalues instead,
    an exact zero one moved to the rounding level.
    """
    try:
        return np.linalg.solve(Z, B)
    except np.linalg.LinAlgError:
        lam, Q = np.linalg.eigh(Z)
        lam[lam == 0.0] = -_EPS * np.abs(lam).max()
        return Q @ ((np.swapaxes(Q, 1, 2) @ B) / lam[:, :, None])


def _pivots(model, sigmas, G_mode):
    """Eliminate the Jordan-Wielandt form on the tree at each shift.

    Returns (counts, negs, lams): counts[k] = #{sigma_i < sigmas[k]} as
    in _singular_count; lams[k, j] the eigenvalues, ascending and padded
    with NaN, of Z_j (j < d) and of the root block (j = d); negs[k, j]
    how many are negative.
    """
    s = np.asarray(sigmas, dtype=float)
    n, m, d, dt = model.n, model.m, model.d, model.dt
    # per level: [E | P] with E = (I - dt A1)^T and P = -dt A2^T, so that
    # one product gives E^T S E, P^T S E and P^T S P
    EP = np.concatenate([np.swapaxes(model.implicit_step, 1, 2),
                         -dt * np.swapaxes(model.A2, 1, 2)], axis=2)
    G = model.sqrt_dt * model.C2
    F = model.sqrt_dt * np.swapaxes(model.C1, 1, 2)
    Z = np.empty((s.size, n + m, n + m))
    Z[:, n:, n:] = -s[:, None, None] * np.eye(m)
    B = np.empty((s.size, n + m, n))
    lams = np.full((s.size, d + 1, max(n + m, 2 * n)), np.nan)
    # leaf form -s |phi_T|^2
    S = -s[:, None, None] * np.eye(n)
    for j in range(d - 1, -1, -1):
        T = EP[j].T @ (S @ EP[j])
        Z[:, :n, :n] = T[:, n:, n:] + dt * S
        Z[:, :n, n:] = G[j]
        Z[:, n:, :n] = G[j].T
        B[:, :n] = T[:, n:, :n]
        B[:, n:] = F[j]
        lams[:, j, :n + m] = np.linalg.eigvalsh(Z)
        S = T[:, :n, :n] - np.swapaxes(B, 1, 2) @ _solve(Z, B)
    if not np.isfinite(S).all():
        raise np.linalg.LinAlgError("the tree elimination overflowed")
    rows = (2 ** d - 1) * m
    if G_mode == "phi0":
        root = np.empty((s.size, 2 * n, 2 * n))
        root[:, :n, :n] = S
        root[:, :n, n:] = np.eye(n)
        root[:, n:, :n] = np.eye(n)
        root[:, n:, n:] = -s[:, None, None] * np.eye(n)
        rows += n
    else:
        root = S
    lams[:, d, :root.shape[1]] = np.linalg.eigvalsh(root)
    negs = np.count_nonzero(lams < 0.0, axis=2)
    return negs @ _level_weights(d) - rows, negs, lams


def _level_weights(d):
    """Nodes that share each block of _pivots: 2^j at level j, 1 root."""
    return np.append(2 ** np.arange(d, dtype=np.int64), 1)


def _elimination_condition(model):
    """How much the elimination of _pivots may amplify rounding.

    It rests on the change of variables (phi_v, sqrt(dt) Phi_v) ->
    children's phi = E phi_v + (-sqrt(dt) A2^T +- I) sqrt(dt) Phi_v,
    which is orthogonal up to scale when E = I and A2 = 0.  The product
    of its condition numbers over the levels stands in for the
    amplification: on random trees with the product below 1e4 the
    extremes agree with a dense SVD to 1e-10 relative, and above it
    they drift to 1e-4.
    """
    E = np.swapaxes(model.implicit_step, 1, 2)
    Q = -model.sqrt_dt * np.swapaxes(model.A2, 1, 2)
    eye = np.eye(model.n)
    return float(np.prod(np.linalg.cond(np.block([[E, Q + eye],
                                                  [E, Q - eye]]))))


def _singular_count(model, sigmas, G_mode):
    """Number of singular values of the estimate map below each shift.

    The map is the one of _estimate_matrix in the mean-square norms (its
    plain singular values times 2^(d/2)), padded with zeros to the
    terminal dimension.  Its Jordan-Wielandt form [[-s I, A], [A^T, -s I]]
    has rows + #{sigma_i < s} negative eigenvalues and does not square s.
    Written in the node variables (Phi_v, y_v) -- a child's phi is
    E phi_v - dt A2^T Phi_v +- sqrt(dt) Phi_v with E = (I - dt A1)^T --
    the form eliminates bottom-up: every node of level j leaves the same
    block Z_j(s) of size n + m and hands its parent the same Schur form
    S_j(s) in phi_v.  By Sylvester's law and Haynsworth's inertia
    additivity

        #{sigma_i < s} = sum_j 2^j neg(Z_j(s)) + neg(root block) - rows,

    at O(d (n + m)^3) per shift whatever 2^d is.

    sigmas : (K,) positive shifts, counted together.
    """
    return _pivots(model, sigmas, G_mode)[0]


def _rank_within(sig, scale):
    """rank_mask of sig against the larger of its own max and scale."""
    return int(np.count_nonzero(rank_mask(np.append(sig, scale))[:-1]))


def _structural_kernel(model, G_mode):
    """Dimension of the exact kernel of the estimate map, level by level.

    The terminal data of a level-j subtree whose outputs vanish on the
    whole subtree span a space of dimension k_j and reach a subspace R_j
    of the node's phi (k_d = n, R_d = R^n at a leaf).  A node whose
    children reach R_{j+1} = range(U) poses phi_children = (U a, U b);
    the null space of its output map on (a, b) adds to the children's
    unreached directions, k_j = 2 k_{j+1} - rank(output), and its image
    under phi_v is R_j.  Ranks are rank_mask decisions on matrices with
    n or m rows, against the scale of the factors that form them, so a
    product that cancels to rounding counts as zero.
    """
    n, dt, rdt = model.n, model.dt, model.sqrt_dt
    U = np.eye(n)
    free = n
    for j in range(model.d - 1, -1, -1):
        Phi_ab = np.hstack([U, -U]) / (2.0 * rdt)
        phi_ab = np.linalg.solve(model.implicit_step[j].T,
                                 np.hstack([U, U]) / 2.0
                                 + dt * model.A2[j].T @ Phi_ab)
        coef = np.hstack([model.C1[j].T, model.C2[j].T])
        lift = np.vstack([phi_ab, Phi_ab])
        _, sig, Vt = np.linalg.svd(coef @ lift)
        rank = _rank_within(sig, np.linalg.norm(coef) * np.linalg.norm(lift))
        free = 2 * free - rank
        Ur, sig, _ = np.linalg.svd(phi_ab @ Vt[rank:].T, full_matrices=False)
        U = Ur[:, :_rank_within(sig, np.linalg.norm(phi_ab))]
    if G_mode == "phi0":
        free -= U.shape[1]
    return free


def _crossing(lo, hi, level, at_lo, at_hi):
    """Where the count reaches level in (lo, hi), by interpolation, or None.

    at_lo and at_hi are the _pivots rows at the ends.  The count steps
    where an eigenvalue of a block turns negative, by 2^j at level j and
    by 1 at the root; between two shifts each such eigenvalue is smooth
    unless a block count falls (a pole), and its linear interpolant
    places its zero.  The guess is the zero at which the count so
    interpolated reaches level.
    """
    if at_lo is None or at_hi is None:
        return None
    (count, neg_lo, lam_lo), (_, neg_hi, lam_hi) = at_lo, at_hi
    rise = neg_hi - neg_lo
    if np.any(rise < 0):
        return None
    weights = _level_weights(rise.size - 1)
    zeros, steps = [], []
    for j in np.flatnonzero(rise):
        a = lam_lo[j, neg_lo[j]:neg_hi[j]]
        b = lam_hi[j, neg_lo[j]:neg_hi[j]]
        zeros.append(lo + (hi - lo) * (a / (a - b)))
        steps.append(np.full(a.size, weights[j]))
    if not zeros:
        return None
    zeros = np.concatenate(zeros)
    order = np.argsort(zeros)
    reach = count + np.cumsum(np.concatenate(steps)[order])
    k = int(np.searchsorted(reach, level))
    if k == reach.size:
        return None
    guess = zeros[order[k]]
    return guess if lo < guess < hi else None


def _shifts(lo, hi, guess, shrink):
    """The shifts one pass counts inside (lo, hi), sorted and distinct.

    A bracket of at most _SHIFTS_PER_PASS + 1 ulps counts every double
    inside.  Without a guess they are geometric while hi > 2 lo and even
    after.  With a guess from _crossing they take the guess and, while
    the last pass shrank the bracket by less than 100x, mostly even
    points; after that the interpolation converges quadratically, so
    the guess is off by about width * shrink, and the shifts cluster at
    multiples 100 ... 1e-6 of that around it.
    """
    width = hi - lo
    ulp = np.spacing(lo)
    if width <= (_SHIFTS_PER_PASS + 1) * ulp:
        # every double inside
        pts = lo + ulp * np.arange(1.0, _SHIFTS_PER_PASS + 1.0)
    elif guess is None:
        space = np.geomspace if hi > 2.0 * lo else np.linspace
        pts = space(lo, hi, _SHIFTS_PER_PASS + 2)
    else:
        if shrink is None or shrink > 1e-2:
            offs = width * _EARLY_OFFSETS
        else:
            offs = width * shrink * _LATE_OFFSETS
        even = _SHIFTS_PER_PASS - 1 - 2 * offs.size
        pts = np.concatenate([[guess], guess - offs, guess + offs,
                              np.linspace(lo, hi, even + 2)])
    pts = np.sort(pts[(pts > lo) & (pts < hi)])
    return pts[np.append(True, pts[1:] > pts[:-1])]


def _row(pivots, k):
    """The _pivots data of shift k."""
    return tuple(part[k] for part in pivots)


class _Bracket:
    """count(lo) < level <= count(hi), with the _pivots rows at the ends
    (None where not counted) and the width ratio of the last pass."""

    def __init__(self, lo, hi, level, at_lo, at_hi):
        self.lo, self.hi, self.level = lo, hi, level
        self.at_lo, self.at_hi = at_lo, at_hi
        self.shrink = None

    def shifts(self):
        if np.nextafter(self.lo, np.inf) >= self.hi:
            return np.empty(0)
        guess = _crossing(self.lo, self.hi, self.level, self.at_lo,
                          self.at_hi)
        return _shifts(self.lo, self.hi, guess, self.shrink)

    def narrow(self, pts, pivots, at):
        """Move the ends to the counted shifts pts (rows at + k)."""
        width = self.hi - self.lo
        above = pivots[0][at:at + pts.size] >= self.level
        i = int(np.argmax(above)) if above.any() else pts.size
        if i > 0:
            self.lo, self.at_lo = pts[i - 1], _row(pivots, at + i - 1)
        if i < pts.size:
            self.hi, self.at_hi = pts[i], _row(pivots, at + i)
        self.shrink = (self.hi - self.lo) / width


def _multisect(model, G_mode, brackets):
    """Narrow each _Bracket to adjacent doubles.

    Every pass counts the shifts of all open brackets in one _pivots
    call.
    """
    while True:
        grids = [br.shifts() for br in brackets]
        if not any(g.size for g in grids):
            return
        pivots = _pivots(model, np.concatenate(grids), G_mode)
        at = 0
        for br, pts in zip(brackets, grids):
            if pts.size:
                br.narrow(pts, pivots, at)
            at += pts.size


def _rayleigh_quotients(model, G_mode, batch=4):
    """|A x| / |x| of the estimate map on a fixed-seed batch of terminals.

    Applies the map itself: tree_bsde_solve on the batch, then
    output_process, in the mean-square norms.
    """
    rng = np.random.default_rng(0)
    term = rng.standard_normal((model.leaf_count, model.n, batch))
    phi, Phi = tree_bsde_solve(model, terminal=term)
    # batch axis first so that output_process multiplies per node
    first = [np.moveaxis(p, -1, 0) for p in phi]
    outs = output_process(model, first, [np.moveaxis(p, -1, 0) for p in Phi])
    energy = sum(model.dt * np.mean(np.sum(out ** 2, axis=2), axis=1)
                 for out in outs)
    if G_mode == "phi0":
        energy = energy + np.sum(first[0][:, 0] ** 2, axis=1)
    return np.sqrt(energy / np.mean(np.sum(term ** 2, axis=1), axis=0))


def _count_extremes(model, G_mode, rq):
    """(sigma_max, sigma_min, kernel) from counts, or None if uncertified.

    ``rq`` are Rayleigh quotients of the map, so they lie in
    [sigma_min, sigma_max]; the first pass counts shifts around the
    smallest and the largest of them, fine near and coarse away.
    """
    dim = model.leaf_count * model.n
    low = rq.min() if rq.min() > 0.0 else rq.max()
    grid = np.unique(np.concatenate([low * _LOW_GRID, rq.max() * _HIGH_GRID]))
    pivots = _pivots(model, grid, G_mode)
    i = int(np.argmax(pivots[0] >= dim))
    if i == 0:
        # sigma_max outside (grid[0], grid[-1]]: a Rayleigh quotient
        # 4096 times below it is as unlikely as a wrong count
        return None
    brackets = [_Bracket(grid[i - 1], grid[i], dim, _row(pivots, i - 1),
                         _row(pivots, i))]
    kernel = _structural_kernel(model, G_mode)
    if kernel == 0:
        # once certified below, sigma_min >= 1e-6 sigma_max
        k = int(np.argmax(pivots[0] >= 1))
        if k > 0:
            brackets.append(_Bracket(grid[k - 1], grid[k], 1,
                                     _row(pivots, k - 1), _row(pivots, k)))
        elif grid[0] > _CERTIFY_RTOL * grid[i - 1]:
            brackets.append(_Bracket(_CERTIFY_RTOL * grid[i - 1], grid[0], 1,
                                     None, _row(pivots, 0)))
        else:
            # sigma_min < grid[0] <= 1e-6 sigma_max: no certificate
            return None
    _multisect(model, G_mode, brackets)
    smax = brackets[0].lo
    floor = np.array([_CERTIFY_RTOL * smax])
    if _singular_count(model, floor, G_mode)[0] != kernel:
        return None
    return smax, (brackets[1].lo if kernel == 0 else 0.0), kernel


def _dense_extremes(model, G_mode):
    """(sigma_max, sigma_min, kernel) from the SVD of _estimate_matrix."""
    dim = model.leaf_count * model.n
    sig = np.linalg.svd(_estimate_matrix(model, G_mode), compute_uv=False)
    # terminal gram is 2^-d * identity: rescale plain singular values;
    # fewer rows than terminal dimensions leave structural zeros
    sig = np.sqrt(float(model.leaf_count)) * sig
    kernel = dim - int(np.count_nonzero(rank_mask(sig)))
    smax = float(sig[0]) if sig.size else 0.0
    return smax, (0.0 if kernel else float(sig[-1])), kernel


def sde_estimate_constant(model, G_mode="phi0"):
    """Best constant C with |phi_T| <= C |(output process, phi(0))|.

    The linear map phi_T -> (sqrt(dt 2^-j)-weighted outputs
    C1^T phi + C2^T Phi at every node, and with G_mode "phi0" the extra
    block phi(0)) acts on the 2^d * n dimensional terminal space, with
    phi_T in the mean-square norm (leaf weight 2^-d); C = 1 / sigma_min
    of that map.  A numerically rank-deficient map means the estimate
    fails on a subspace: the constant is reported as inf together with
    the kernel dimension.

    The map is never formed.  _singular_count counts its singular values
    below a batch of shifts by inertia on the tree; sigma_max (and
    sigma_min) are bracketed around Rayleigh quotients of the map and
    multisected to adjacent doubles, about 15 shifts per pass.  The
    count at 1e-6 sigma_max must equal the exact kernel dimension of
    _structural_kernel; that certifies the numerical kernel at the rank
    cutoff RANK_RTOL * sigma_max (1e-10 < 1e-6) as the same number, and
    a trivial kernel then has sigma_min >= 1e-6 sigma_max.  Two kinds of map take
    the dense SVD of _estimate_matrix instead, up to DENSE_MAX_DIM
    terminal dimensions (ValueError beyond): one that fails the
    certificate (ill-conditioned, not structurally deficient), and one
    whose tree elimination would amplify rounding too much to be trusted
    (_elimination_condition above 1e4: a near-singular implicit step or
    a strong noise coefficient A2).  Last, the map is applied through
    tree_bsde_solve and output_process to a fixed-seed batch of
    terminals, and every Rayleigh quotient must lie in
    [sigma_min, sigma_max] up to a relative 1e-10 (RuntimeError
    otherwise).

    Parameters
    ----------
    model : TreeModel
    G_mode : str
        "phi0" includes the phi(0) block, "none" drops it.

    Returns
    -------
    EstimateReport
        sigma_profile is [sigma_max, sigma_min]; sigma_min is 0.0 when
        the kernel is not trivial.
    """
    if G_mode not in ("phi0", "none"):
        raise ValueError("G_mode must be 'phi0' or 'none', got %r" % G_mode)
    dim = model.leaf_count * model.n
    rq = _rayleigh_quotients(model, G_mode)
    found = None
    if (rq.max() > 0.0
            and _elimination_condition(model) <= _ELIMINATION_COND_MAX):
        try:
            with np.errstate(all="ignore"):
                found = _count_extremes(model, G_mode, rq)
        except np.linalg.LinAlgError:
            found = None
    if found is None:
        if dim > DENSE_MAX_DIM:
            raise ValueError(
                "the singular-value count of the depth-%d estimate map is "
                "not certified (an ill-conditioned map or tree elimination) "
                "and its terminal dimension %d exceeds the dense limit %d; "
                "use a smaller depth"
                % (model.d, dim, DENSE_MAX_DIM))
        found = _dense_extremes(model, G_mode)
    smax, smin, kernel = found
    if (np.any(rq > smax * (1.0 + _RAYLEIGH_RTOL))
            or np.any(rq < smin * (1.0 - _RAYLEIGH_RTOL))):
        raise RuntimeError(
            "Rayleigh quotients [%.17g, %.17g] of the estimate map fall "
            "outside its counted singular values [%.17g, %.17g]"
            % (rq.min(), rq.max(), smin, smax))
    if kernel > 0:
        constant = np.inf
        note = ("output map is rank deficient on the terminal space; "
                "no finite constant exists at this depth")
    else:
        constant = 1.0 / smin
        note = ""
    return EstimateReport(
        constant=constant,
        kernel_dim=kernel,
        sigma_profile=[smax, smin],
        verdict="inconclusive",
        note=note,
        extras={"G_mode": G_mode, "depth": model.d, "dim": dim,
                "sigma_min": smin, "sigma_max": smax})


def sde_estimate_sweep(models):
    """Estimate constants over trees of increasing depth plus a verdict.

    Each constant is sde_estimate_constant's with G_mode "phi0".

    Parameters
    ----------
    models : sequence of TreeModel
        At least 3, strictly increasing in depth.

    Returns
    -------
    SweepReport
        Levels keyed by terminal dimension 2^d * n.  Verdict "bounded"
        when kernels stay trivial and the constants vary by at most a
        factor 2; "growing" when the constants — or, for
        rank-deficient outputs, the kernel dimensions — grow at least
        geometrically with the representation dimension.
    """
    def build(mod):
        return mod.leaf_count * mod.n, sde_estimate_constant(mod)

    return _sweep(models, build, 2.0, "depths",
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
