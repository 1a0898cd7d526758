"""Observability constants for the 1-D wave equation with sine modes.

Solutions of w_tt - w_xx + a w = 0 on (0, 1) with Dirichlet ends are
expanded in the orthonormal basis e_k(x) = sqrt(2) sin(k pi x); each
mode evolves exactly as cos(omega_k t), sin(omega_k t) with
omega_k = sqrt((k pi)^2 + a).  Initial data (w(0), w_t(0)) is encoded
in energy coordinates c = (alpha, beta) with alpha_k the position
coefficient and beta_k the velocity coefficient divided by omega_k, so
the squared L^2 x H^-1 energy norm is exactly |c|^2 (the H^-1 norm
taken spectrally through the same operator).

Observing the solution on a subinterval (x_lo, x_hi) over a horizon T
gives the quadratic form c^T Gram c = int_0^T int_obs w^2 dx dt.  Both
integrals are taken exactly, the spatial one through the sine overlaps
and the time one through sin and cos at omega_k +- omega_l, so the
Gramian carries no quadrature error at any horizon.  Its smallest
eigenvalue lambda_min controls the best constant
C = 1/sqrt(lambda_min) in  |initial data|_energy <= C |w|_{L^2(obs x (0,T))}.
A sweep over mode counts decides whether C is bounded (observable) or
grows; dropping the worst-observed eigendirections gives the constants
on finite-codimension complements.  The constants need the eigenvalues
only; no eigenvector is computed.
"""

import numpy as np

from .diagnostics import EstimateReport, _sweep
from .spaces import rank_mask

__all__ = [
    "WaveModel",
    "mode_overlap_matrix",
    "observation_gramian",
    "wave_observability_constant",
    "wave_sweep",
]


class WaveModel:
    """Sine-mode truncation of the 1-D Dirichlet wave equation.

    Parameters
    ----------
    modes : int
        Number of retained modes M.
    interval : tuple of float
        Observation subinterval (x_lo, x_hi) inside (0, 1).
    T : float
        Observation horizon.
    a : float
        Constant potential; must be finite and satisfy pi^2 + a > 0 so
        every mode frequency stays real.
    """

    def __init__(self, modes, interval=(0.4, 0.6), T=3.0, a=0.0,
                 name="wave"):
        modes = int(modes)
        if modes < 1:
            raise ValueError("need at least one mode")
        lo, hi = float(interval[0]), float(interval[1])
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError("observation interval must satisfy "
                             "0 <= lo < hi <= 1")
        if not (T > 0 and np.isfinite(T)):
            raise ValueError("horizon T must be positive and finite")
        a = float(a)
        if not np.isfinite(a):
            # NaN would pass the sign test below
            raise ValueError("potential a must be finite, got %r" % a)
        mu = (np.arange(1, modes + 1) * np.pi) ** 2 + a
        if mu[0] <= 0.0:
            raise ValueError("potential a = %g drives the lowest mode "
                             "frequency to zero or below" % a)
        self.modes = modes
        self.interval = (lo, hi)
        self.T = float(T)
        self.a = a
        self.omega = np.sqrt(mu)
        self.name = name

    def __repr__(self):
        return ("WaveModel(modes=%d, interval=(%g, %g), T=%g, a=%g)"
                % ((self.modes,) + self.interval + (self.T, self.a)))


def mode_overlap_matrix(model):
    """Overlaps S_kl = int_obs e_k e_l dx of the sine basis, closed form.

    Off the diagonal, S_kl = P(k-l, hi) - P(k-l, lo) - P(k+l, hi)
    + P(k+l, lo) with P(n, x) = sin(n pi x)/(n pi) = int cos(n pi x) dx;
    P depends on the integer n alone, so it is tabulated once over
    n = -(M-1) ... 2M and gathered.
    """
    lo, hi = model.interval
    M = model.modes
    n_pi = np.arange(1 - M, 2 * M + 1, dtype=float) * np.pi
    sin_hi, sin_lo = np.sin(n_pi * hi), np.sin(n_pi * lo)
    zero = M - 1                    # table index of n = 0
    k = np.arange(1, M + 1)
    at_2k = k + k + zero
    diag = ((hi - lo)
            - (sin_hi[at_2k] - sin_lo[at_2k]) / n_pi[at_2k])
    n_pi[zero] = 1.0                # read only by the diagonal, set below
    P_hi, P_lo = sin_hi / n_pi, sin_lo / n_pi
    diff = np.subtract.outer(k, k) + zero
    summ = np.add.outer(k, k) + zero
    S = P_hi[diff] - P_lo[diff] - P_hi[summ] + P_lo[summ]
    S[np.arange(M), np.arange(M)] = diag
    return S


def _integral_cos_sin(nu, T):
    """Exact integrals of cos(nu t) and sin(nu t) over t in [0, T].

    C = sin(nu T)/nu and S = (1 - cos(nu T))/nu, with C(0) = T and
    S(0) = 0; S is taken in the half-angle form 2 sin^2(nu T/2)/nu,
    which does not cancel at small nu T.
    """
    C = np.full(nu.shape, T)
    S = np.zeros(nu.shape)
    nz = nu != 0.0
    C[nz] = np.sin(nu[nz] * T) / nu[nz]
    S[nz] = 2.0 * np.sin(0.5 * T * nu[nz]) ** 2 / nu[nz]
    return C, S


def observation_gramian(model):
    """Gramian of c -> w restricted to the observation patch and horizon.

    Entries are int_0^T int_obs w_k w_l dx dt for the 2M basis solutions
    (cosine and sine time factors per mode): spatial overlaps times the
    exact time integrals of the oscillation products, taken through the
    product formulas at the frequencies omega_k +- omega_l in O(M^2) at
    any horizon.
    Symmetric positive semidefinite by construction; every factor is
    exactly symmetric or exactly transposed between the off-diagonal
    blocks, so G equals G.T bitwise.
    """
    T, omega = model.T, model.omega
    cos_diff, sin_diff = _integral_cos_sin(np.subtract.outer(omega, omega), T)
    cos_sum, sin_sum = _integral_cos_sin(np.add.outer(omega, omega), T)
    Icc = 0.5 * (cos_diff + cos_sum)
    Iss = 0.5 * (cos_diff - cos_sum)
    # cos(w_k t) sin(w_l t) = (sin((w_l + w_k) t) + sin((w_l - w_k) t)) / 2,
    # and the sine sum is odd in nu: at w_l - w_k it is -sin_diff[k, l]
    Ics = 0.5 * (sin_sum - sin_diff)
    S = mode_overlap_matrix(model)
    M = model.modes
    G = np.empty((2 * M, 2 * M))
    np.multiply(S, Icc, out=G[:M, :M])
    np.multiply(S, Ics, out=G[:M, M:])
    np.multiply(S, Ics.T, out=G[M:, :M])
    np.multiply(S, Iss, out=G[M:, M:])
    return G


def wave_observability_constant(model, complement=0):
    """Best constant C with |initial data|_energy <= C |observed w|.

    Computes the eigenvalues of the observation Gramian (no
    eigenvectors) and returns C = 1/sqrt(lambda_min); the report's
    sigma profile holds the square roots of the eigenvalues (the
    singular values of the observation map), the extras hold the
    ascending eigenvalues and the constants obtained after removing the
    worst j <= complement eigendirections -- the finite-codimension
    fallback when the full estimate degenerates.
    """
    complement = int(complement)
    if complement < 0 or complement >= 2 * model.modes:
        raise ValueError("complement must lie in [0, 2*modes)")
    G = observation_gramian(model)
    eigvals = np.clip(np.linalg.eigvalsh(G), 0.0, None)
    sig = np.sqrt(eigvals)[::-1]
    kernel = sig.size - int(np.sum(rank_mask(sig)))
    with np.errstate(divide="ignore"):
        comp = 1.0 / np.sqrt(eigvals[:complement + 1])
    constant = comp[0]
    note = ""
    if kernel > 0:
        constant = np.inf
        note = ("observation Gramian is numerically rank deficient; "
                "only the complement constants are meaningful")
    return EstimateReport(
        constant=constant,
        kernel_dim=kernel,
        sigma_profile=sig,
        verdict="inconclusive",
        note=note,
        extras={"eigenvalues": eigvals,
                "complement_constants": comp,
                "interval": model.interval,
                "T": model.T})


def wave_sweep(mode_counts, interval=(0.4, 0.6), T=3.0, a=0.0):
    """Observability constants over increasing mode counts plus verdict.

    Parameters
    ----------
    mode_counts : sequence of int
        Strictly increasing, at least 3 entries.
    interval, T, a
        Forwarded to WaveModel.

    Returns
    -------
    SweepReport
        Levels keyed by the coordinate dimension 2M; "bounded" when the
        constants stay within a factor 2 overall, "growing" when they
        climb at least geometrically with the mode count.
    """
    def build(M):
        model = WaveModel(M, interval=interval, T=T, a=a)
        return 2 * model.modes, wave_observability_constant(model)

    return _sweep(mode_counts, build, 2.0, "mode counts")
