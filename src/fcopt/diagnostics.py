"""Estimate-constant diagnostics for operator families.

Computable surrogates for the closed-range / finite-codimension estimates:
kernel dimensions of adjoints, best constants C in |phi| <= C |F* phi| on
the complement of the kernel, compact-perturbed variants with an auxiliary
map G (|phi|^2 <= C^2 (|F* phi|^2 + |G phi|^2)), and growth verdicts across
refinement families.

All constants are 1/sigma computations in the gram-induced geometry; the
numerical rank cutoff is sigma <= RANK_RTOL * sigma_max (spaces.rank_mask).
A verdict produced by a sweep is a diagnostic heuristic over finitely many
levels, never a proof about the underlying infinite-dimensional operator.
"""

import numpy as np

from .spaces import (
    SpaceDescriptor,
    LinearMap,
    adjoint,
    rank_mask,
    singular_triplets,
)

__all__ = [
    "OperatorFamily",
    "EstimateReport",
    "SweepReport",
    "kernel_dimension",
    "restricted_estimate_constant",
    "compact_perturbed_constant",
    "codim_growth_verdict",
]

_HEURISTIC_NOTE = ("verdict is a finite-level diagnostic heuristic, "
                   "not a proof about the limit operator")


class OperatorFamily:
    """An ordered refinement family of linear maps.

    Parameters
    ----------
    levels : sequence of (n, LinearMap)
        Pairs of level size and operator, ordered by strictly increasing n.
    description : str
        Free-text label of the family; no report reads it (reports name
        the family by their own inputs).
    """

    def __init__(self, levels, description=""):
        levels = [(int(n), f) for n, f in levels]
        if any(b <= a for (a, _), (b, _) in zip(levels, levels[1:])):
            raise ValueError("family levels must be ordered by increasing n")
        self.levels = levels
        self.description = str(description)

    def __iter__(self):
        return iter(self.levels)

    def __len__(self):
        return len(self.levels)


class EstimateReport:
    """Result of an estimate-constant computation.

    Attributes
    ----------
    constant : float
        The best constant C, or ``inf`` when the restricted operator is
        numerically rank deficient.
    kernel_dim : int
        Numerical kernel dimension of the adjoint (or stacked) operator.
    sigma_profile : ndarray
        Singular values, descending.  Tree-SDE reports
        (tree.sde_estimate_constant) and elliptic reports
        (elliptic.elliptic_estimate_constant) carry only the extremes
        [sigma_max, sigma_min], with sigma_min 0.0 when the kernel is
        not trivial.
    verdict : str
        One of "bounded", "growing", "inconclusive"; single-operator
        reports carry "inconclusive" (a verdict needs a sweep).
    note : str
    extras : dict
        Operation-specific extra outputs.
    """

    def __init__(self, constant, kernel_dim, sigma_profile,
                 verdict="inconclusive", note="", extras=None):
        self.constant = float(constant)
        self.kernel_dim = int(kernel_dim)
        self.sigma_profile = np.asarray(sigma_profile, dtype=float)
        self.verdict = verdict
        self.note = note
        self.extras = dict(extras or {})

    def __repr__(self):
        return ("EstimateReport(constant=%s, kernel_dim=%d, verdict=%r)"
                % (self.constant, self.kernel_dim, self.verdict))


class SweepReport:
    """Per-level estimate reports plus a growth verdict."""

    def __init__(self, levels, verdict, note=_HEURISTIC_NOTE):
        self.levels = list(levels)          # list of (n, EstimateReport)
        self.verdict = verdict
        self.note = note

    @property
    def constants(self):
        return [rep.constant for _, rep in self.levels]

    @property
    def kernel_dims(self):
        return [rep.kernel_dim for _, rep in self.levels]

    def __repr__(self):
        return "SweepReport(verdict=%r, constants=%r)" % (self.verdict, self.constants)


def kernel_dimension(F, sigma=None):
    """Numerical dimension of ker(F*) = codomain dim minus numerical rank.

    ``sigma`` takes the singular values of F (gram geometry) when the
    caller already has them, which saves a second SVD; by default they
    are computed here.
    """
    s = singular_triplets(F, compute_uv=False) if sigma is None else sigma
    return F.codomain.dim - int(np.sum(rank_mask(s)))


def restricted_estimate_constant(F):
    """Best C with |phi| <= C |F* phi| on the complement of ker(F*).

    The complement of the numerical kernel is the finite-codimensional
    subspace on which the estimate holds; C is 1/sigma for the smallest
    singular value above the rank cutoff.  A numerically zero operator
    yields the infinity flag with full kernel dimension.
    """
    s = singular_triplets(F, compute_uv=False)
    kdim = kernel_dimension(F, sigma=s)
    above = s[rank_mask(s)]
    if above.size == 0:
        return EstimateReport(np.inf, F.codomain.dim, s,
                              note="operator numerically zero")
    return EstimateReport(1.0 / above.min(), kdim, s)


def _stacked_with(F, G):
    """Stacked operator phi -> (F* phi, G phi) with block-diagonal gram."""
    fstar = adjoint(F)
    if G.domain.dim != F.codomain.dim:
        raise ValueError("G must act on the codomain of F")
    stacked_cod = SpaceDescriptor("stacked(%s+%s)"
                                  % (fstar.codomain.name, G.codomain.name),
                                  fstar.codomain.dim + G.codomain.dim,
                                  np.concatenate([fstar.codomain.gram,
                                                  G.codomain.gram]))
    mat = np.vstack([fstar.matrix, G.matrix])
    return LinearMap(mat, F.codomain, stacked_cod)


def compact_perturbed_constant(F, G):
    """Best C with |phi|^2 <= C^2 (|F* phi|^2 + |G phi|^2).

    G must be declared compact (compact_flag True) — finite dimensions
    cannot distinguish compactness, so the flag records the modelling
    intent and the sweep semantics carry the content.  Computed as
    1/sigma_min of the stacked operator [F*; G]; a rank-deficient stack
    yields the infinity flag.
    """
    if not G.compact_flag:
        raise ValueError("compact_perturbed_constant requires G.compact_flag")
    stacked = _stacked_with(F, G)
    s = singular_triplets(stacked, compute_uv=False)
    # phi-side null space of the stack
    kdim = stacked.domain.dim - int(np.sum(rank_mask(s)))
    if kdim > 0:
        return EstimateReport(np.inf, kdim, s,
                              note="stacked operator rank deficient")
    return EstimateReport(1.0 / s.min(), 0, s)


def _check_growth_factor(growth_factor):
    """Reject a growth factor the verdict cannot use (finite and > 1 only).

    At a factor <= 1 every sequence, constant ones included, counts as
    growing; at inf every sequence counts as bounded.
    """
    if not (np.isfinite(growth_factor) and growth_factor > 1.0):
        raise ValueError("growth_factor must be finite and > 1, got %r"
                         % (growth_factor,))


def _finite_growth_verdict(values, ns, growth_factor):
    """bounded / growing / inconclusive for a finite positive sequence."""
    values = np.asarray(values, dtype=float)
    if values.max() / values.min() <= growth_factor:
        return "bounded"
    monotone = np.all(np.diff(values) >= -1e-9 * values[:-1])
    if monotone:
        ok = True
        for i in range(len(values) - 1):
            per_doubling = growth_factor ** np.log2(ns[i + 1] / ns[i])
            if values[i + 1] < values[i] * per_doubling * (1.0 - 1e-9):
                ok = False
                break
        if ok:
            return "growing"
    return "inconclusive"


def _sweep_verdict(ns, consts, kdims, growth_factor):
    """Verdict for a sweep of estimate reports over increasing levels.

    A stable kernel dimension lets the constants decide; a kernel that
    inflates with the level means the estimate fails on an expanding
    subspace and the kernel dimensions play the role of the growth
    quantity.
    """
    ns = np.asarray(ns, dtype=float)
    consts = np.asarray(consts, dtype=float)
    kdims = np.asarray(kdims, dtype=float)
    if kdims.max() == kdims.min():
        if np.all(np.isfinite(consts)):
            return _finite_growth_verdict(consts, ns, growth_factor)
        return "inconclusive"
    if np.all(np.diff(kdims) >= 0):
        pos = kdims > 0
        if pos.sum() >= 2 and np.all(pos[np.argmax(pos):]):
            verdict = _finite_growth_verdict(kdims[pos], ns[pos], growth_factor)
            return "inconclusive" if verdict == "bounded" else verdict
        # a kernel that only just appeared: let the finite prefix of the
        # constants decide whether the estimate was already degrading
        finite = np.isfinite(consts)
        head = int(finite.sum())
        if head >= 2 and np.all(finite[:head]) and not np.any(finite[head:]):
            verdict = _finite_growth_verdict(consts[:head], ns[:head],
                                             growth_factor)
            if verdict == "growing":
                return "growing"
        return "inconclusive"
    return "inconclusive"


def _sweep(levels, build, growth_factor, noun, key=int, rule=_sweep_verdict):
    """Shared body of every sweep: validate, build each level, judge, stamp.

    ``levels`` needs at least 3 entries with ``key(entry)`` strictly
    increasing; ``noun`` names them in the error messages.
    ``build(entry)`` returns (n, EstimateReport) for one level, and
    ``rule(ns, consts, kdims, growth_factor)`` gives the verdict that is
    stamped on every report, with the heuristic note where it has none.
    """
    _check_growth_factor(growth_factor)
    levels = list(levels)
    if len(levels) < 3:
        raise ValueError("growth verdict needs at least 3 %s" % noun)
    keys = [key(entry) for entry in levels]
    if any(k2 <= k1 for k1, k2 in zip(keys, keys[1:])):
        raise ValueError("%s must be strictly increasing" % noun)
    reports = [build(entry) for entry in levels]
    ns = np.array([n for n, _ in reports], dtype=float)
    consts = np.array([rep.constant for _, rep in reports])
    kdims = np.array([rep.kernel_dim for _, rep in reports], dtype=float)
    verdict = rule(ns, consts, kdims, growth_factor)
    for _, rep in reports:
        rep.verdict = verdict
        rep.note = rep.note or _HEURISTIC_NOTE
    return SweepReport(reports, verdict)


def codim_growth_verdict(fam, growth_factor=2.0):
    """Estimate constants per family level plus a growth verdict.

    For each level the restricted constant is computed.  Verdict: with a
    stable kernel dimension across levels, "bounded" when max/min of the
    constants <= growth_factor and "growing" when they increase
    monotonically by at least growth_factor per doubling of n; when the
    kernel dimension itself grows with the level, the unrestricted
    estimate fails on an expanding subspace and the kernel dimensions
    play the role of the growth quantity.  The verdict is a heuristic
    over the computed levels, not a proof.
    """
    def build(entry):
        n, F = entry
        return n, restricted_estimate_constant(F)

    return _sweep(fam, build, growth_factor, "levels",
                  key=lambda entry: entry[0])
