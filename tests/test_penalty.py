"""Tests for the penalty pipeline: values, minimizers, pairs, certificates."""

import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import fcopt.penalty as penalty
from fcopt.convex import (Box, NonnegativeCone, Singleton, WholeSpace,
                          normal_cone_residual, project)
from fcopt.penalty import (ConstrainedProblem, DegeneratePenaltyError,
                           InapplicableBranchError, InnerConvergenceError,
                           MultiplierPair, PenaltyConfig, default_schedule,
                           enhanced_sequence_report, extract_multiplier,
                           fritz_john_residual, kkt_check, minimize_penalty)
from fcopt.problems import (equality_qp, l2_example, lq_endpoint_problem,
                            scalar_problem)
from fcopt.spaces import Element, SpaceDescriptor, dual_norm, norm
from oracles import AffineSubspace, equality_qp_hessian


def _unconstrained_quadratic():
    """f0 = (u0 - 1)^2 + u1^2 with no constraint (E = whole space)."""
    V = SpaceDescriptor("plane", 2)
    X = SpaceDescriptor("image", 2)
    p = ConstrainedProblem(
        V, X,
        f0=lambda u: (u[..., 0] - 1.0) ** 2 + u[..., 1] ** 2,
        f0_grad=lambda u: np.array([2.0 * (u[0] - 1.0), 2.0 * u[1]]),
        f=lambda u: u.copy(),
        f_jac=lambda u: np.eye(2),
        E=WholeSpace(X),
        f0_hess=2.0 * np.eye(2),
        name="unconstrained")
    p.u_bar = Element(np.array([1.0, 0.0]), V)
    return p


def _cone_problem():
    """Minimize u0 + 2 u1 over u >= 0 via E = nonnegative cone, u_bar = 0.

    The penalty near-minimizer is u_eps = -(eps/6)(1, 2) in closed form.
    """
    V = SpaceDescriptor("controls", 2)
    X = SpaceDescriptor("cone-space", 2)
    cost = np.array([1.0, 2.0])
    p = ConstrainedProblem(
        V, X,
        f0=lambda u: u @ cost,
        f0_grad=lambda u: cost.copy(),
        f=lambda u: u.copy(),
        f_jac=lambda u: np.eye(2),
        E=NonnegativeCone(X),
        f0_hess=np.zeros((2, 2)),
        name="cone")
    p.u_bar = Element(np.zeros(2), V)
    return p


def _target_problem(kind):
    """f0 = c.u + |u|^2/2, f(u) = M u + m into a target of the given kind.

    The control space has a gram other than the identity, so the probe
    directions are normalized in a metric other than the Euclidean one.
    u_bar = -c minimizes f0, so Phi_eps >= eps everywhere; it need not be
    feasible, since only the probe arithmetic is under test.
    """
    rng = np.random.default_rng(11)
    V = SpaceDescriptor("controls", 3, [2.0, 1.0, 1.5])
    X = SpaceDescriptor("targets", 3)
    M = rng.standard_normal((3, 3))
    m = rng.standard_normal(3)
    c = rng.standard_normal(3)
    E = {"whole": WholeSpace(X), "nonneg": NonnegativeCone(X),
         "box": Box(X, -0.2, 0.3),
         "affine": AffineSubspace(X, np.eye(3)[:, :2] @ [[0.6, 0.8],
                                                         [-0.8, 0.6]],
                                  offset=[0.0, 0.0, 0.4])}[kind]
    p = ConstrainedProblem(
        V, X,
        f0=lambda u: u @ c + 0.5 * np.sum(u * u, axis=-1),
        f0_grad=lambda u: c + u,
        f=lambda u: u @ M.T + m,
        f_jac=lambda u: M,
        E=E, f0_hess=np.eye(3), name="target-" + kind)
    p.u_bar = Element(-c, V)
    return p


# ----------------------------------------------------------------- values


def _phi(p, u_bar, eps, u):
    """Phi_eps(u) from the pipeline's own parts, at one point."""
    return float(np.sqrt(penalty._phi_parts(p, penalty._coords(u),
                                            p.objective(u_bar), eps)[0]))


def _pair_at(p, u_bar, eps, u):
    """The pipeline's (a, b) at u, from a fresh evaluation of its parts."""
    phi2, dist, gp, fx, _ = penalty._phi_parts(p, penalty._coords(u),
                                               p.objective(u_bar), eps)
    return penalty._pair(p, float(np.sqrt(phi2)), dist, gp, fx)


def test_penalty_value_at_reference_equals_eps():
    for p in (scalar_problem(), l2_example()):
        for eps in (0.3, 0.1, 1e-3):
            assert_allclose(_phi(p, p.u_bar, eps, p.u_bar), eps, rtol=1e-14)


def test_penalty_value_hand_arithmetic():
    p = scalar_problem()
    val = _phi(p, p.u_bar, 0.1, np.array([0.2]))
    assert_allclose(val, np.sqrt(0.2 ** 2 + 0.3 ** 2), rtol=1e-14)
    assert_allclose(val, 0.36055512754639896, rtol=1e-12)


def test_penalty_value_degenerate_flag():
    # whole space and f0(u) <= f0(u_bar) - eps force the value to 0 (the
    # pair is then undefined: test_multiplier_degenerate_error)
    p = _unconstrained_quadratic()
    bad_ref = Element(np.array([2.0, 0.0]), p.V)   # f0 = 1 there
    assert _phi(p, bad_ref, 0.5, np.array([1.0, 0.0])) == 0.0   # f0 = 0


def test_penalty_value_eps_range():
    # every entry point of the pipeline refuses an eps outside (0, 1)
    p = scalar_problem()
    for eps in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError, match="eps must lie"):
            minimize_penalty(p, p.u_bar, eps)
        with pytest.raises(ValueError, match="schedule values"):
            extract_multiplier(p, p.u_bar, [eps])


# ------------------------------------------------------------- minimizers


def _golden_section(fun, lo, hi, tol=1e-14):
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    while abs(b - a) > tol:
        if fun(c) < fun(d):
            b, d = d, c
            c = b - gr * (b - a)
        else:
            a, c = c, d
            d = a + gr * (b - a)
    return 0.5 * (a + b)


def test_minimize_scalar_against_golden_section_oracle():
    p = scalar_problem()
    for eps in (0.1, 0.01, 1e-3):
        def phi(u):
            return np.sqrt(u * u + max(u + eps, 0.0) ** 2)
        star = _golden_section(phi, -1.0, 1.0)
        # the oracle confirms the closed form -eps/2 up to its own
        # sqrt(machine-eps) resolution on a flat quadratic minimum
        assert abs(star - (-0.5 * eps)) < 5e-8
        el, _ = minimize_penalty(p, p.u_bar, eps)
        assert abs(el.coords[0] - star) < 5e-8
        assert abs(el.coords[0] - (-0.5 * eps)) < 1e-12


def test_minimize_unconstrained_stays_at_reference():
    p = _unconstrained_quadratic()
    el, info = minimize_penalty(p, p.u_bar, 0.05)
    assert_allclose(el.coords, p.u_bar.coords, atol=1e-12)
    assert_allclose(info["phi"], 0.05, rtol=1e-12)
    assert info["ekeland_residual"] <= 0.0


def _tight_inner_tolerance(monkeypatch):
    # gradient tolerance max(1e-15, 1e-10 eps^2) instead of the default
    # max(1e-13, 1e-2 eps^2), for oracles resolved to 1e-9 and beyond
    monkeypatch.setattr(penalty, "_INNER_SCALE", 1e-10)
    monkeypatch.setattr(penalty, "_INNER_FLOOR", 1e-15)


def test_minimize_l2_against_dense_scan_oracle(monkeypatch):
    # the reduced penalty along u = (1 - t, 0, ...) is 2 t^6 + (eps - t)^2;
    # a two-stage dense scan in t is the oracle for the near-minimizer
    eps = 1e-2
    p = l2_example()

    def reduced(t):
        return 2.0 * t ** 6 + (eps - t) ** 2

    coarse = np.linspace(0.0, 2.0 * eps, 20001)
    t0 = coarse[np.argmin(reduced(coarse))]
    fine = np.linspace(t0 - 2e-6, t0 + 2e-6, 400001)
    t_scan = fine[np.argmin(reduced(fine))]
    t_closed = eps - 6.0 * eps ** 5
    assert abs(t_scan - t_closed) < 1e-10

    _tight_inner_tolerance(monkeypatch)
    el, _ = minimize_penalty(p, p.u_bar, eps)
    assert abs((1.0 - el.coords[0]) - t_scan) < 1e-9
    assert_allclose(el.coords[1:], np.zeros(5), atol=1e-9)


def test_minimize_cone_closed_form():
    p = _cone_problem()
    for eps in (0.09, 0.01):
        el, _ = minimize_penalty(p, p.u_bar, eps)
        assert_allclose(el.coords, -(eps / 6.0) * np.array([1.0, 2.0]),
                        atol=1e-10)


def test_minimize_reports_ball_and_ekeland():
    p = equality_qp()
    el, info = minimize_penalty(p, p.u_bar, 1e-3)
    assert info["phi"] <= 1e-3 * (1.0 + 1e-9)
    assert info["ball"] <= np.sqrt(1e-3) + 1e-6
    assert info["ekeland_residual"] <= 1e-8
    assert info["grad_norm"] <= max(1e-13, 1e-2 * 1e-6)
    assert 0 <= info["wolfe_steps"] <= info["inner_iters"]
    assert info["backtracks"] >= 0


def test_minimize_convergence_error_carries_best_iterate(monkeypatch):
    p = l2_example()
    monkeypatch.setattr(penalty, "_MAX_ITERS", 1)
    with pytest.raises(InnerConvergenceError) as err:
        minimize_penalty(p, p.u_bar, 0.1)
    assert err.value.best is not None
    assert err.value.best.shape == (6,)
    info = err.value.info
    assert info["inner_iters"] == 1
    assert info["grad_norm"] > info["tol"] > 0.0


@pytest.mark.parametrize("overrides, key", [
    ({"_BALL_SLACK": -1.0}, "ball"),
    ({"_EKELAND_TOL": -1.0}, "ekeland_residual"),
])
def test_a_posteriori_failures_carry_telemetry(overrides, key, monkeypatch):
    p = equality_qp()
    for name, value in overrides.items():
        monkeypatch.setattr(penalty, name, value)
    with pytest.raises(InnerConvergenceError) as err:
        minimize_penalty(p, p.u_bar, 1e-3)
    info = err.value.info
    assert np.isfinite(info[key])
    assert info["grad_norm"] <= info["tol"]
    assert info["inner_iters"] >= 1
    assert err.value.best.shape == (p.V.dim,)


def test_phi_above_eps_failure_carries_telemetry(monkeypatch):
    # a solver that returns a point with Phi = 2 eps fails the Phi <= eps
    # check, cold restart included
    def stuck(p, u0, f0_bar, eps, tol):
        parts = (4.0 * eps * eps,) + penalty._phi_parts(p, u0, f0_bar, eps)[1:]
        return u0, parts, {"inner_iters": 0, "grad_norm": 0.0,
                           "backtracks": 0, "wolfe_steps": 0}

    monkeypatch.setattr(penalty, "_newton_minimize", stuck)
    p = equality_qp()
    with pytest.raises(InnerConvergenceError, match="stalled") as err:
        minimize_penalty(p, p.u_bar, 1e-2, warm_start=p.u_bar)
    assert_allclose(err.value.info["phi"], 2e-2)
    assert err.value.info["eps"] == 1e-2


def test_stacked_evaluation_rejects_single_point_callables():
    # lambda u: u[0] returns the first row of a stack; the shape guard
    # turns that into an error naming the callable and the expected shape
    V = SpaceDescriptor("plane", 2)
    X = SpaceDescriptor("image", 2)
    p = ConstrainedProblem(
        V, X,
        f0=lambda u: u[0],
        f0_grad=lambda u: np.array([1.0, 0.0]),
        f=lambda u: np.array([u[0], u[1]]),
        f_jac=lambda u: np.eye(2),
        E=Singleton(X, np.zeros(2)),
        f0_hess=np.zeros((2, 2)),
        name="single-point")
    assert p.objective(np.array([3.0, 4.0])) == 3.0
    stack = np.arange(10.0).reshape(5, 2)
    with pytest.raises(ValueError, match=r"f0 .*'single-point'.*\(5,\)"):
        p.objective(stack)
    with pytest.raises(ValueError, match=r"^f .*\(5, 2\)"):
        p.constraint(stack)
    # the Ekeland probe is the first stacked evaluation of a solve
    with pytest.raises(ValueError, match=r"^f .*\(48, 2\)"):
        minimize_penalty(p, Element(np.zeros(2), V), 0.01)


def test_stacked_evaluation_checks_a_row_of_a_dim_row_stack():
    # with V.dim = 48, u[0] of a 48-row stack has the shape of 48 values:
    # the shape guard passes it, and the last row evaluated on its own
    # shows that the rows are not the values at the points
    V = SpaceDescriptor("controls", 48)
    X = SpaceDescriptor("image", 1)
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((48, 48))

    def make(f0):
        return ConstrainedProblem(
            V, X, f0=f0, f0_grad=lambda u: np.eye(48)[0],
            f=lambda u: u[..., 1:2], f_jac=lambda u: np.eye(48)[1:2],
            E=Singleton(X, np.zeros(1)), f0_hess=np.zeros((48, 48)),
            name="first-row")

    p = make(lambda u: u[0])
    assert p.objective(stack[5]) == stack[5, 0]
    with pytest.raises(ValueError, match=r"f0 .*'first-row'.*\(48,\)"):
        p.objective(stack)
    with pytest.raises(ValueError, match=r"f0 .*\(47,\)"):
        p.objective(stack[:47])
    # the Ekeland probe is a 48-row stack
    with pytest.raises(ValueError, match=r"f0 .*\(48,\)"):
        minimize_penalty(p, Element(np.zeros(48), V), 0.01)
    # the same problem with a stack-safe objective passes both
    q = make(lambda u: u[..., 0])
    assert_allclose(q.objective(stack), stack[:, 0])
    el, _ = minimize_penalty(q, Element(np.zeros(48), V), 0.01)
    assert el.coords.shape == (48,)

    # M @ u on a stack maps its columns: with X.dim = V.dim the result has
    # the shape of 48 rows of values, but not their values
    Y = SpaceDescriptor("square", 48)
    M = rng.standard_normal((48, 48))

    def mapped(f):
        return ConstrainedProblem(V, Y, f0=lambda u: u[..., 0], f0_grad=None,
                                  f=f, f_jac=lambda u: M, E=WholeSpace(Y),
                                  f0_hess=np.zeros((48, 48)), name="columns")

    with pytest.raises(ValueError, match=r"^f .*'columns'.*\(48, 48\)"):
        mapped(lambda u: M @ u).constraint(stack)
    assert_allclose(mapped(lambda u: u @ M.T).constraint(stack), stack @ M.T)


def _per_point_ekeland_residual(p, u, eps, seed):
    # the probe as a loop of single-point penalty values: same directions,
    # same gram normalization, same radii
    rng = np.random.default_rng([seed, 1009, int(round(1.0 / eps))])
    se = np.sqrt(eps)
    phi_u = _phi(p, p.u_bar, eps, u)
    worst = -np.inf
    for d in rng.standard_normal((penalty._EKELAND_PROBES, u.size)):
        d = d / norm(p.V, Element(d, p.V))
        for t in (0.25 * se, 0.05 * se, 0.01 * se):
            phi = _phi(p, p.u_bar, eps, u + t * d)
            worst = max(worst, phi_u - phi - se * t)
    return worst, phi_u


@pytest.mark.parametrize("make", [
    scalar_problem, l2_example, equality_qp,
    lambda: lq_endpoint_problem(20),
    lambda: _target_problem("whole"), lambda: _target_problem("nonneg"),
    lambda: _target_problem("box"), lambda: _target_problem("affine"),
], ids=["scalar", "l2", "equality-qp", "lq-endpoint", "whole", "nonneg",
        "box", "affine"])
def test_stacked_ekeland_residual_matches_per_point_probes(make):
    from fcopt.penalty import _ekeland_residual, _phi_parts
    p = make()
    rng = np.random.default_rng(2)
    for eps in (0.05, 1e-3):
        # a point off the reference, so constraint, projection and gap all
        # vary over the probes
        u = p.u_bar.coords + 0.1 * np.sqrt(eps) * rng.standard_normal(p.V.dim)
        f0_bar = p.objective(p.u_bar)
        phi_u = np.sqrt(_phi_parts(p, u, f0_bar, eps)[0])
        stacked = _ekeland_residual(p, u, phi_u, f0_bar, eps, 3)
        oracle, phi_u = _per_point_ekeland_residual(p, u, eps, 3)
        assert abs(stacked - oracle) <= 1e-12 * max(1.0, phi_u)


def test_schedule_rejects_non_optimal_reference():
    p = equality_qp()
    from scipy.linalg import null_space
    ns = null_space(p.extras["G"])
    fake = Element(p.u_bar.coords + 0.5 * ns[:, 0], p.V)
    with pytest.raises(ValueError, match="local-optimality"):
        extract_multiplier(p, fake, default_schedule(0.1, 4))


def test_penalty_config_holds_only_the_seed():
    # every other setting is a module constant; minimize_penalty keeps its
    # positional layout, which a call hook reading warm_start as the fifth
    # argument relies on
    assert list(inspect.signature(PenaltyConfig).parameters) == ["seed"]
    assert vars(PenaltyConfig(seed=4)) == {"seed": 4}
    assert list(inspect.signature(minimize_penalty).parameters) == [
        "p", "u_bar", "eps", "cfg", "warm_start", "f0_bar"]


def test_certificate_runs_once_per_schedule(monkeypatch):
    # the reference certificate runs once for a whole extract_multiplier
    # schedule, and never in a direct minimize_penalty call
    p = equality_qp()
    calls = []
    certify = penalty._certify_reference

    def counting(p, ub):
        calls.append(p.name)
        return certify(p, ub)

    monkeypatch.setattr(penalty, "_certify_reference", counting)
    _, trace = extract_multiplier(p, p.u_bar, default_schedule(0.1, 6),
                                  PenaltyConfig(seed=5))
    assert len(trace) == 6
    assert calls == ["equality-qp"]
    minimize_penalty(p, p.u_bar, 1e-2, PenaltyConfig(seed=2))
    minimize_penalty(p, p.u_bar, 1e-3)
    assert calls == ["equality-qp"]


def _certified(p, ub):
    # the certificate applies to p (else any u_bar passes) and accepts ub
    assert penalty._factored_affine(p) and isinstance(p.E, Singleton)
    penalty._certify_reference(p, penalty._coords(ub))


def test_certificate_accepts_the_builders_references():
    # the 132 QP shapes of the benchmark (dim 4..14, k 1..3, four seeds)
    # and lq-endpoint meshes 2, 50 and 400: each u_bar solves its KKT
    # system to roundoff
    for dim in range(4, 15):
        for k in range(1, 4):
            for seed in range(4):
                p = equality_qp(dim, k, seed)
                _certified(p, p.u_bar)
    for N in (2, 50, 400):
        p = lq_endpoint_problem(N)
        _certified(p, p.u_bar)


def _unit_direction(p, kind):
    """A V-unit direction along null(G) or range(G*), G = f'(u_bar).

    The right singular vectors of G sqrt(G_V)^-1, mapped back by
    sqrt(G_V)^-1: the last spans part of null(G) when G has one, the
    first has the largest image.
    """
    vt = np.linalg.svd(p.V._factor_solve(p.jacobian(p.u_bar).T).T)[2]
    return p.V._factor_solve(vt[-1] if kind == "null" else vt[0])


def test_certificate_refuses_a_reference_off_the_minimizer():
    # 1e-6 along null(G) keeps u_bar feasible but not stationary, with f0
    # within about 1e-12 of its minimum, below any slack on sampled f0
    # values; 1e-6 along range(G*) leaves the constraint; on lq-endpoint
    # the control gram is dt I
    cases = [(equality_qp(), "null"), (equality_qp(), "range")]
    cases += [(lq_endpoint_problem(N), "range") for N in (2, 50, 400)]
    for p, kind in cases:
        d = _unit_direction(p, kind)
        assert_allclose(norm(p.V, Element(d, p.V)), 1.0, rtol=1e-12)
        if kind == "null":
            assert_allclose(p.jacobian(p.u_bar) @ d, 0.0, atol=1e-12)
        fake = p.u_bar.coords + 1e-6 * d
        with pytest.raises(ValueError, match="local-optimality"):
            extract_multiplier(p, fake, default_schedule(0.1, 4))


# ------------------------------------------------------------------ pairs


def test_multiplier_whole_space_and_feasible_point():
    p = _unconstrained_quadratic()
    a, b = _pair_at(p, p.u_bar, 0.1, p.u_bar)
    assert_allclose(a, 1.0)
    assert_allclose(b.coords, np.zeros(2))
    ps = scalar_problem()
    a, b = _pair_at(ps, ps.u_bar, 0.2, ps.u_bar)
    assert_allclose(a, 1.0)
    assert_allclose(b.coords, np.zeros(1))


def test_multiplier_degenerate_error():
    p = _unconstrained_quadratic()
    bad_ref = Element(np.array([2.0, 0.0]), p.V)
    with pytest.raises(DegeneratePenaltyError):
        _pair_at(p, bad_ref, 0.5, np.array([1.0, 0.0]))


@pytest.mark.parametrize("eps", [0.1 * 2.0 ** -13, 0.1 * 2.0 ** -14])
def test_pair_at_a_roundoff_phi_is_refused(eps):
    # started from u_bar, the l2 example's inner solve reaches Phi_eps of
    # 2.6e-15 and 3.2e-16 at these eps: gap+ = 0, and dist is below the
    # roundoff cutoff of dist_subgradient, which selects 0; the pair
    # would read (0, 0), so it is refused
    p = l2_example(6)
    _, info = minimize_penalty(p, p.u_bar, eps)
    assert info["gap_plus"] == 0.0 and 0.0 < info["phi"] <= 1e-14
    with pytest.raises(DegeneratePenaltyError, match="roundoff"):
        penalty._pair(p, info["phi"], info["dist"], info["gap_plus"],
                      info["f"])


def test_multiplier_l2_fifth_order_asymptotics(monkeypatch):
    # at the tight-tolerance near-minimizer, a = (6/sqrt(2)) eps^2 (1 + O(eps^4))
    # and b = -(1, 1, 0, ...)/sqrt(2)
    p = l2_example()
    eps = 1e-2
    _tight_inner_tolerance(monkeypatch)
    _, info = minimize_penalty(p, p.u_bar, eps)
    a, b = penalty._pair(p, info["phi"], info["dist"], info["gap_plus"],
                         info["f"])
    assert_allclose(a, (6.0 / np.sqrt(2.0)) * eps ** 2, rtol=1e-4)
    expect = np.zeros(6)
    expect[:2] = -1.0 / np.sqrt(2.0)
    assert_allclose(b.coords, expect, atol=1e-5)
    assert_allclose(a ** 2 + dual_norm(p.X, b) ** 2, 1.0, atol=1e-12)


def test_multiplier_pair_validation():
    X = SpaceDescriptor("image", 2)
    with pytest.raises(ValueError):
        MultiplierPair(-0.1, Element(np.zeros(2), X))
    pair = MultiplierPair(0.0, Element(np.zeros(2), X))
    assert pair.degenerate
    pair = MultiplierPair(0.6, Element(np.array([0.8, 0.0]), X))
    assert not pair.degenerate
    assert_allclose(np.hypot(pair.z0, pair.z_norm()), 1.0)


# ---------------------------------------------------------------- schedule


def test_default_schedule_values_and_validation():
    sched = default_schedule()
    assert len(sched) == 14
    assert_allclose(sched[0], 0.1)
    assert_allclose(sched[1], 0.05)
    ratios = np.array(sched[:-1]) / np.array(sched[1:])
    assert_allclose(ratios, 2.0)
    with pytest.raises(ValueError):
        default_schedule(eps0=1.5)
    with pytest.raises(ValueError):
        default_schedule(steps=0)


def test_extract_schedule_validation():
    p = scalar_problem()
    with pytest.raises(ValueError):
        extract_multiplier(p, p.u_bar, [])
    with pytest.raises(ValueError):
        extract_multiplier(p, p.u_bar, [0.1, 0.1])
    with pytest.raises(ValueError):
        extract_multiplier(p, p.u_bar, [0.5, 1.5])


def test_single_eps_schedule_is_not_converged():
    # one record has no difference to bound the Cauchy gap by: at eps 0.1
    # alone the pair of equality_qp(8, 3, 0) has z0 = 0.4857, against
    # 0.4762 from the Schur reference, so it must not be reported as a
    # converged limit.  Two records give a finite gap again
    p = equality_qp(8, 3, 0)
    with pytest.warns(RuntimeWarning, match="not Cauchy"):
        pair, trace = extract_multiplier(p, p.u_bar, [0.1])
    assert len(trace) == 1
    assert pair.cauchy_gap == np.inf and not pair.converged
    pair, _ = extract_multiplier(p, p.u_bar, [0.1, 0.05])
    assert np.isfinite(pair.cauchy_gap)


def test_extract_trace_invariants():
    p = equality_qp()
    pair, trace = extract_multiplier(p, p.u_bar, default_schedule(0.1, 14))
    eps = np.array([rec.eps for rec in trace])
    assert np.all(np.diff(eps) < 0)
    for rec in trace:
        assert rec.a >= 0.0
        assert rec.phi > 0.0
        norm2 = rec.a ** 2 + rec.b_norm() ** 2
        assert abs(norm2 - 1.0) <= 1e-9
    assert pair.z0 >= 0.0
    assert abs(np.hypot(pair.z0, pair.z_norm()) - 1.0) <= pair.cauchy_gap + 1e-9
    assert not pair.degenerate


def test_extract_whole_space_limit():
    p = _unconstrained_quadratic()
    pair, trace = extract_multiplier(p, p.u_bar, default_schedule(0.1, 8))
    assert_allclose(pair.z0, 1.0)
    assert_allclose(pair.z.coords, np.zeros(2))
    assert pair.cauchy_gap <= 1e-12


def test_extract_l2_degenerate_limit():
    # 14 halvings from 0.1: z0 collapses, z aligns with -(1,1,0,...)/sqrt(2)
    p = l2_example()
    sched = [0.1 * 2.0 ** (-k) for k in range(15)]
    pair, trace = extract_multiplier(p, p.u_bar, sched)
    assert pair.z0 <= 1e-3
    direction = np.zeros(6)
    direction[:2] = 1.0 / np.sqrt(2.0)
    cosine = abs(pair.z.coords @ direction) / pair.z_norm()
    assert cosine >= 0.999
    assert_allclose(pair.z_norm(), 1.0, atol=1e-6)
    # the sign convention puts z on the negative diagonal
    assert pair.z.coords[0] < 0 and pair.z.coords[1] < 0


def test_extract_non_converged_warning(monkeypatch):
    p = equality_qp()
    monkeypatch.setattr(penalty, "_LIMIT_TOL", 1e-12)
    with pytest.warns(RuntimeWarning, match="not Cauchy"):
        pair, trace = extract_multiplier(p, p.u_bar, default_schedule(0.1, 6))
    assert not pair.converged
    assert len(trace) == 6


def test_extract_sequential_is_deterministic():
    p = equality_qp()
    sched = default_schedule(0.1, 8)
    pair1, trace1 = extract_multiplier(p, p.u_bar, sched)
    pair2, trace2 = extract_multiplier(p, p.u_bar, sched)
    assert np.array_equal(pair1.z.coords, pair2.z.coords)
    assert pair1.z0 == pair2.z0
    for r1, r2 in zip(trace1, trace2):
        assert np.array_equal(r1.u_eps.coords, r2.u_eps.coords)


# ----------------------------------------------------------- certificates


def test_fritz_john_empty_variations_rejected():
    p = scalar_problem()
    pair = MultiplierPair(1.0, Element(np.zeros(1), p.X))
    with pytest.raises(ValueError):
        fritz_john_residual(p, p.u_bar, pair, [])


def test_fritz_john_unconstrained_minimum():
    p = _unconstrained_quadratic()
    pair = MultiplierPair(1.0, Element(np.zeros(2), p.X))
    res = fritz_john_residual(p, p.u_bar, pair,
                              p.variations(p.u_bar, 500, seed=1))
    assert res >= -1e-6


def test_fritz_john_l2_variation_structure():
    # f'(u_bar) v = (v2, -v2, 0, v4, v5, v6) pairs to zero with the
    # diagonal z, so the residual reduces to min z0 xi1 = 0 at z0 = 0
    p = l2_example()
    z = np.zeros(6)
    z[:2] = -1.0 / np.sqrt(2.0)
    pair = MultiplierPair(0.0, Element(z, p.X))
    variations = p.variations(p.u_bar, 800, seed=2)
    pairings = [pair.z0 * s.xi0 + z @ s.xi.coords for s in variations]
    assert np.abs(pairings).max() <= 1e-12
    assert abs(fritz_john_residual(p, p.u_bar, pair, variations)) <= 1e-12


def test_kkt_check_whole_space():
    p = _unconstrained_quadratic()
    pair = MultiplierPair(1.0, Element(np.zeros(2), p.X))
    rep = kkt_check(p, p.u_bar, pair)
    assert rep["normal"]
    assert_allclose(rep["z_tilde"].coords, np.zeros(2))


def test_kkt_check_l2_abnormal():
    p = l2_example()
    sched = [0.1 * 2.0 ** (-k) for k in range(15)]
    pair, _ = extract_multiplier(p, p.u_bar, sched)
    rep = kkt_check(p, p.u_bar, pair)
    assert not rep["normal"]
    assert rep["z_tilde"] is None
    # third constraint coordinate is identically zero
    assert rep["surjectivity_sigma"] <= 1e-12


def test_kkt_check_qp_normal():
    p = equality_qp()
    pair, _ = extract_multiplier(p, p.u_bar, default_schedule(0.1, 14))
    rep = kkt_check(p, p.u_bar, pair)
    assert rep["normal"]
    assert rep["surjectivity_sigma"] > 0.1
    assert_allclose(rep["z_tilde"].coords, p.extras["kkt_multiplier"],
                    atol=1e-4)


def test_enhanced_report_scalar_all_checks_pass():
    p = scalar_problem()
    pair, trace = extract_multiplier(p, p.u_bar, default_schedule(0.1, 10))
    rep = enhanced_sequence_report(p, p.u_bar, trace)
    assert rep["applicable"]
    assert rep["passed"]
    assert all(rep["checks"].values())
    assert all(v > 0 for v in rep["pairings"])
    assert rep["normal_branch_too"]    # a = 1/sqrt(2) stays positive


def test_enhanced_report_l2_degenerate_branch():
    p = l2_example()
    sched = [0.1 * 2.0 ** (-k) for k in range(12)]
    pair, trace = extract_multiplier(p, p.u_bar, sched)
    rep = enhanced_sequence_report(p, p.u_bar, trace)
    assert rep["passed"], rep["violations"]
    assert not rep["normal_branch_too"]


def test_enhanced_report_inapplicable_when_z_zero():
    p = _unconstrained_quadratic()
    pair, trace = extract_multiplier(p, p.u_bar, default_schedule(0.1, 6))
    with pytest.raises(InapplicableBranchError):
        enhanced_sequence_report(p, p.u_bar, trace)


# ----------------------------------------------- trace-level inequalities


def test_stationarity_inequality_along_trace():
    # a xi1 + <b, xi2> >= -sqrt(eps) - slack over 100 sampled variations
    # at each near-minimizer
    p = equality_qp()
    pair, trace = extract_multiplier(p, p.u_bar, default_schedule(0.1, 10))
    slack = 1e-7
    for k, rec in enumerate(trace):
        rec_pair = MultiplierPair(rec.a, rec.b)
        variations = p.variations(rec.u_eps, 100, seed=100 + k)
        res = fritz_john_residual(p, rec.u_eps, rec_pair, variations)
        assert res >= -np.sqrt(rec.eps) - slack


def test_normal_cone_inequality_along_trace():
    # the b coefficient lies in the normal cone of E at the projection
    p = _cone_problem()
    pair, trace = extract_multiplier(p, p.u_bar, default_schedule(0.1, 10))
    for rec in trace:
        fx = Element(p.constraint(rec.u_eps), p.X)
        res = normal_cone_residual(p.E, project(p.E, fx), rec.b,
                                   samples=2000, seed=7)
        assert res <= 1e-8
    # singleton targets are degenerate normal cones: residual exactly 0
    ps = equality_qp()
    pair_s, trace_s = extract_multiplier(ps, ps.u_bar, default_schedule(0.1, 6))
    for rec in trace_s:
        fx = Element(ps.constraint(rec.u_eps), ps.X)
        res = normal_cone_residual(ps.E, project(ps.E, fx), rec.b,
                                   samples=200, seed=3)
        assert res <= 1e-12


# ------------------------------------------------------- oracle equivalence


def _direct_kkt_pair(p, seed):
    """Normalized (1, lambda) of equality_qp(p.V.dim, k, seed) from a
    direct KKT solve.

    Independent of the penalty code: H redrawn from the seed, null-space
    reduction for u_bar, least squares for the multiplier.
    """
    H = equality_qp_hessian(p.V.dim, seed)
    G, r, c = (p.extras[key] for key in ("G", "r", "c"))
    from scipy.linalg import null_space, lstsq
    Z = null_space(G)
    u_part = np.linalg.lstsq(G, r, rcond=None)[0]
    y = np.linalg.solve(Z.T @ H @ Z, -Z.T @ (H @ u_part + c))
    u_star = u_part + Z @ y
    lam = lstsq(G.T, -(H @ u_star + c))[0]
    assert_allclose(u_star, p.u_bar.coords, atol=1e-8)
    ref = np.concatenate([[1.0], lam])
    return ref / np.linalg.norm(ref)


def _extracted_pair(p):
    pair, _ = extract_multiplier(p, p.u_bar, default_schedule(0.1, 14),
                                 PenaltyConfig())
    return np.concatenate([[pair.z0], pair.z.coords])


@settings(max_examples=12, deadline=None)
@given(dim=st.integers(4, 14), k=st.integers(1, 3),
       seed=st.integers(0, 10 ** 6))
# instances whose inner solves once stalled on roundoff-level changes of
# Phi_eps^2 near the end of the schedule
@example(dim=12, k=1, seed=0)
@example(dim=8, k=1, seed=1000000)
@example(dim=14, k=2, seed=2)
@example(dim=6, k=2, seed=953938)
def test_qp_pair_matches_direct_kkt_solve(dim, k, seed):
    # the extracted pair, with the default configuration, must match the
    # normalized (1, lambda) direction within 1e-4
    p = equality_qp(dim=dim, n_constraints=k, seed=seed)
    assert_allclose(_extracted_pair(p), _direct_kkt_pair(p, seed),
                    atol=1e-4)


@pytest.mark.parametrize("seed", range(4))
def test_qp_sweep_matches_direct_kkt_solve(seed):
    # every shape dim 4..14, k 1..3 with the default configuration: the
    # pair matches the direct KKT solve within 1e-4, and it is the
    # extrapolated limit, within 1e-8 of the Schur reference (7.9e-9 at
    # most over the 132 shapes), resolved within 9 of the 14 eps
    bad = []
    for dim in range(4, 15):
        for k in range(1, 4):
            p = equality_qp(dim=dim, n_constraints=k, seed=seed)
            pair, trace = extract_multiplier(p, p.u_bar,
                                             default_schedule(0.1, 14))
            got = np.concatenate([[pair.z0], pair.z.coords])
            err = np.abs(got - _direct_kkt_pair(p, seed)).max()
            if not (err <= 1e-4 and pair.extrapolated and len(trace) <= 9
                    and _pair_error(p, pair) <= 1e-8):
                bad.append((dim, k, err, len(trace), _pair_error(p, pair)))
    assert bad == []


def _no_woodbury_step(*args):
    raise AssertionError("the dense path took a Woodbury step")


def _no_dense_hessian(*args):
    raise AssertionError("the Woodbury path formed the dense Hessian")


@pytest.mark.parametrize("N", [17, 50, 200])
def test_lq_woodbury_pairs_match_dense_path(N, monkeypatch):
    # the Woodbury steps on the factor of H and the dense Newton solves
    # give the same record pairs.  A record's pair is resolved to about
    # one ulp of f0(u_bar) over eps, since gap+ = f0(u) - f0(u_bar) + eps
    # carries the rounding of f0: at the last eps, 2.4e-8, that is 1.2e-9,
    # and moving u_bar by one ulp moves the dense path's last pair by as
    # much.  The bound is 1e-9 plus 8 such ulps
    sched = default_schedule(0.1, 23)
    p = lq_endpoint_problem(N)
    assert isinstance(p.f0_hess, penalty._CholeskyHessian)
    with monkeypatch.context() as m:
        m.setattr(penalty, "_WOODBURY_MIN_DIM", 1)
        m.setattr(penalty, "_hess_phi2", _no_dense_hessian)
        pair, trace = extract_multiplier(p, p.u_bar, sched)
    with monkeypatch.context() as m:
        m.setattr(penalty, "_WOODBURY_MIN_DIM", p.V.dim + 1)
        m.setattr(penalty, "_woodbury_step", _no_woodbury_step)
        dense_pair, dense_trace = extract_multiplier(p, p.u_bar, sched)
    ulp = np.spacing(abs(p.objective(p.u_bar)))
    for rec, ref in zip(trace, dense_trace):
        tol = 1e-9 + 8.0 * ulp / rec.eps
        assert abs(rec.a - ref.a) <= tol
        assert np.abs(rec.b.coords - ref.b.coords).max() <= tol
    assert abs(pair.z0 - dense_pair.z0) <= 1e-9 + 8.0 * ulp / sched[-1]


def test_woodbury_iteration_forms_no_square_array(monkeypatch):
    # a Newton iteration on the factor allocates vectors and V.dim x 5
    # blocks: the traced peak of a whole solve (Ekeland probe included)
    # stays below half of one V.dim x V.dim array, where the dense path
    # forms several
    p = lq_endpoint_problem(200)
    square = 8 * p.V.dim ** 2
    peaks = {}
    for path, min_dim in (("woodbury", 1), ("dense", p.V.dim + 1)):
        monkeypatch.setattr(penalty, "_WOODBURY_MIN_DIM", min_dim)
        # the first solve also pays one-time allocations of numpy
        minimize_penalty(p, p.u_bar, 0.1)
        tracemalloc.start()
        try:
            minimize_penalty(p, p.u_bar, 0.05)
            peaks[path] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["woodbury"] <= 0.5 * square < 2 * square <= peaks["dense"]


def test_woodbury_step_solves_the_newton_system():
    # against the dense solve of ((2 gap+ + mu) H + 2 J'G_X J
    # + 2 grad f0 grad f0') s = -g, with and without the grad f0 term, in
    # a constraint gram other than the identity
    rng = np.random.default_rng(3)
    dim, k = 9, 3
    B = rng.standard_normal((dim, dim))
    H = B @ B.T / dim + np.eye(dim)
    C = rng.standard_normal((k, k))
    X = SpaceDescriptor("constraints", k, gram=np.diag(C @ C.T) + k)
    p = ConstrainedProblem(
        SpaceDescriptor("controls", dim), X, f0=None, f0_grad=None, f=None,
        f_jac=None, E=Singleton(X, np.zeros(k)),
        f0_hess=penalty._CholeskyHessian(H.copy()))
    chol = p.f0_hess.low
    jac = rng.standard_normal((k, dim))
    g0 = rng.standard_normal(dim)
    g = rng.standard_normal(dim)
    for gp, mu in ((0.3, 0.0), (1e-6, 0.0), (0.0, 1e-3), (0.2, 0.5)):
        aux = (0.0, gp, None, None, jac, g0 if gp > 0.0 else None)
        h = 2.0 * jac.T @ (X.gram[:, None] * jac) + (2.0 * gp + mu) * H
        if gp > 0.0:
            h += 2.0 * np.outer(g0, g0)
        want = np.linalg.solve(h, -g)
        got = penalty._woodbury_step(p, chol, g, aux, mu)
        # the forward error bound of a backward stable solve, cond eps
        bound = 10.0 * np.linalg.cond(h) * np.finfo(float).eps
        assert_allclose(got, want, rtol=0, atol=bound * np.abs(want).max())
    # alpha = 0 leaves the system singular: no step, so mu is raised
    assert penalty._woodbury_step(p, chol, g, (0.0, 0.0, None, None, jac,
                                               None), 0.0) is None


@pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
def test_cholesky_in_place_reads_only_the_lower_triangle(n):
    # sizes around the block edge.  The factor overwrites its argument,
    # matches the dense factorization, and is the same bit for bit when
    # the strict upper triangle of the argument is NaN
    rng = np.random.default_rng(n)
    B = rng.standard_normal((n, n))
    H = B @ B.T / n + np.eye(n)
    a = H.copy()
    low = penalty._cholesky(a)
    assert low is a
    assert_allclose(low, np.linalg.cholesky(H), rtol=0, atol=1e-12)
    nan_upper = H.copy()
    nan_upper[np.triu_indices(n, 1)] = np.nan
    assert np.array_equal(penalty._cholesky(nan_upper), low)


def test_f0_hess_is_an_array_or_none():
    # a callable, a list, an array of another shape or a factor of another
    # shape is refused when the problem is built and when f0_hess is
    # replaced; the problem keeps the Hessian it had
    p = equality_qp(dim=5, n_constraints=2, seed=1)
    H = p.f0_hess
    low = H.low
    for bad in (lambda u: low, low[:4, :4], low.tolist(),
                penalty._CholeskyHessian(np.eye(4))):
        with pytest.raises(ValueError, match="f0_hess"):
            ConstrainedProblem(p.V, p.X, f0=None, f0_grad=None, f=None,
                               f_jac=None, E=p.E, f0_hess=bad)
        with pytest.raises(ValueError, match="f0_hess"):
            p.f0_hess = bad
        assert p.f0_hess is H


def test_f0_hess_is_required():
    # the Newton solver reads f0_hess as the Hessian of f0, and nothing
    # stands in for a missing one: building a problem without it, or
    # setting it to None, raises ValueError and keeps the Hessian it had
    p = equality_qp(dim=5, n_constraints=2, seed=1)
    H = p.f0_hess
    for kwargs in ({}, {"f0_hess": None}):
        with pytest.raises(ValueError, match="f0_hess .* must be a"):
            ConstrainedProblem(p.V, p.X, f0=p.objective, f0_grad=p.gradient,
                               f=p.constraint, f_jac=p.jacobian, E=p.E,
                               **kwargs)
    with pytest.raises(ValueError, match="f0_hess"):
        p.f0_hess = None
    assert p.f0_hess is H


@pytest.mark.parametrize("make, woodbury", [
    (lambda: equality_qp(14, 3, 0), False),
    (lambda: equality_qp(penalty._WOODBURY_MIN_DIM - 1, 3, 0), False),
    (lambda: equality_qp(penalty._WOODBURY_MIN_DIM, 3, 0), True),
    (lambda: lq_endpoint_problem(50), False),
    (lambda: lq_endpoint_problem(100), True),
    (lambda: lq_endpoint_problem(200), True),
    (lambda: lq_endpoint_problem(400), True),
], ids=["qp-14", "qp-below", "qp-at", "lq-50", "lq-100", "lq-200", "lq-400"])
def test_newton_path_chosen_by_dim(make, woodbury, monkeypatch):
    # below _WOODBURY_MIN_DIM every Newton step is dense, from it on every
    # step is a Woodbury step: the largest equality QP of the benchmark
    # (dim 14) and lq-endpoint at mesh 50 stay dense, the lq-endpoint
    # meshes 100, 200 and 400 (dim 200 and up) take Woodbury steps.  The
    # inner solves run without the a-posteriori checks, which mesh 400
    # fails (its near-minimizer leaves the sqrt(eps) ball)
    p = make()
    calls = {"_woodbury_step": 0, "_hess_phi2": 0}
    for name in calls:
        def counted(*args, _fn=getattr(penalty, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(penalty, name, counted)
    ub = p.u_bar.coords
    for eps in (0.1, 1e-3):
        penalty._newton_minimize(p, ub, p.objective(ub), eps, 1e-2 * eps ** 2)
    taken, avoided = (("_woodbury_step", "_hess_phi2") if woodbury
                      else ("_hess_phi2", "_woodbury_step"))
    assert calls[taken] > 0 and calls[avoided] == 0


def test_domain_rejected_up_front():
    # minimize -u1 subject to u1 + u2 = 0 on U = [-1, 1]^2 from
    # u_bar = (1, -1): the solver minimizes over the whole plane and
    # returned (1.1, -1.1) at eps 0.1, outside U, with Phi = 0; a problem
    # with a domain is refused before any work
    V = SpaceDescriptor("plane", 2)
    X = SpaceDescriptor("line", 1)
    p = ConstrainedProblem(
        V, X,
        f0=lambda u: -u.T[0],
        f0_grad=lambda u: np.array([-1.0, 0.0]),
        f=lambda u: (u.T[0] + u.T[1])[..., None],
        f_jac=lambda u: np.array([[1.0, 1.0]]),
        E=Singleton(X, np.zeros(1)),
        domain=Box(V, -1.0, 1.0),
        f0_hess=np.zeros((2, 2)),
        name="box-line")
    ub = Element(np.array([1.0, -1.0]), V)
    with pytest.raises(ValueError, match="domain"):
        minimize_penalty(p, ub, 0.1)
    with pytest.raises(ValueError, match="domain"):
        extract_multiplier(p, ub, default_schedule(0.1, 4))


def _recorded_schedule(p, sched, monkeypatch):
    # extract_multiplier with the info dict of every minimize_penalty call
    infos = []
    minimize = penalty.minimize_penalty

    def recording(*args, **kwargs):
        el, info = minimize(*args, **kwargs)
        infos.append(info)
        return el, info

    monkeypatch.setattr(penalty, "minimize_penalty", recording)
    pair, trace = extract_multiplier(p, p.u_bar, sched)
    return pair, trace, infos


@pytest.mark.parametrize("make, steps, extrapolated", [
    (equality_qp, 14, True), (lambda: lq_endpoint_problem(10), 10, False),
], ids=["equality-qp", "lq-endpoint"])
def test_schedule_reuses_the_parts_of_the_returned_point(make, steps,
                                                         extrapolated,
                                                         monkeypatch):
    # every record's pair, and its info phi, dist and gap_plus, must be
    # those of a fresh evaluation at u_eps.  Both warm attempts at the
    # third eps (the prediction and the previous point) are forced to
    # fail: each returns its minimizer moved by 1 in every coordinate,
    # with that point's parts, whose Phi > eps sends the step on to the
    # cold restart; parts kept from those attempts (or from any rejected
    # trial point) show here.  The QP's pair is resolved by extrapolation
    # before its 14 eps run out; lq-endpoint at mesh 10 runs all 10
    p = make()
    ub = p.u_bar.coords
    sched = default_schedule(0.1, steps)
    solve = penalty._newton_minimize
    forced = []

    def failing_warm_start(q, u0, f0_bar, eps, tol):
        if eps == sched[2] and not np.array_equal(u0, ub):
            u, _, stats = solve(q, u0, f0_bar, eps, tol)
            forced.append(stats["inner_iters"])
            far = u + 1.0
            return far, penalty._phi_parts(q, far, f0_bar, eps), stats
        return solve(q, u0, f0_bar, eps, tol)

    monkeypatch.setattr(penalty, "_newton_minimize", failing_warm_start)
    pair, trace, infos = _recorded_schedule(p, sched, monkeypatch)
    assert len(forced) == 2 and infos[2]["cold_start"]
    assert infos[2]["start"] == "reference"
    assert infos[2]["rejected_starts"] == 2
    # the Newton work of both given-up attempts is counted, and only there
    assert min(forced) >= 1
    assert infos[2]["rejected_iters"] == sum(forced)
    assert all(i["rejected_iters"] == 0 for k, i in enumerate(infos)
               if k != 2)
    assert len(infos) == len(trace)
    assert pair.extrapolated is extrapolated
    assert len(trace) < steps if extrapolated else len(trace) == steps
    f0_bar = p.objective(ub)
    for rec, info in zip(trace, infos):
        a, b = _pair_at(p, p.u_bar, rec.eps, rec.u_eps)
        assert rec.a == a
        assert np.array_equal(rec.b.coords, b.coords)
        phi2, dist, gp, fx, _ = penalty._phi_parts(p, rec.u_eps.coords,
                                                   f0_bar, rec.eps)
        assert info["phi"] == rec.phi == float(np.sqrt(phi2))
        assert info["dist"] == rec.dist_val == dist
        assert info["gap_plus"] == gp
        assert np.array_equal(info["f"], fx)
    if not extrapolated:
        assert pair.z0 == trace[-1].a


def test_default_qp_schedule_phi_evaluation_budget(monkeypatch):
    # the default schedule on the default instance evaluates Phi_eps^2 at
    # 781 points, the 14 x 48 Ekeland probe points included; a line search
    # that judges steps by changes of Phi_eps^2 below its roundoff
    # evaluates over 12,000 and stalls
    points = [0]
    singles = [0]
    stacks = []
    parts = penalty._phi_parts

    def counting(p, u, *args):
        u = np.asarray(u)
        points[0] += 1 if u.ndim == 1 else len(u)
        if u.ndim == 1:
            singles[0] += 1
        else:
            stacks.append(len(u))
        return parts(p, u, *args)

    monkeypatch.setattr(penalty, "_phi_parts", counting)
    p = equality_qp()
    _, trace = extract_multiplier(p, p.u_bar, default_schedule(0.1, 14))
    assert 0 < points[0] <= 2000
    # each Ekeland check evaluates its 16 x 3 probe points as one stack,
    # once per record; the extrapolated pair ends the schedule early
    assert len(trace) < 14
    assert stacks == [48] * len(trace)
    # single points are the Newton trial points and each start's first
    # gradient only: the gradient at an accepted trial point, the Phi <= eps
    # check, the probe's Phi(u_eps), the info dict and the pair reuse the
    # parts of that trial (one first gradient and one trial per record here)
    assert singles[0] <= 15


def _pair_error(p, pair):
    # normalized (z0, z) against the normalized Schur-complement (1, lambda)
    ref = np.concatenate([[1.0], p.extras["kkt_multiplier"]])
    got = np.concatenate([[pair.z0], pair.z.coords])
    return np.linalg.norm(got / np.linalg.norm(got)
                          - ref / np.linalg.norm(ref))


def test_secant_start_when_a_is_below_half(monkeypatch):
    # z0 = 0.476 < 1/2: the previous near-minimizer u_eps has gap
    # (a - 1/2) eps < 0 at eps/2, and Newton spends 3 iterations per eps
    # getting back onto the path (41 over the schedule); from the secant
    # prediction it takes 1.  The raw pair of the 14th record is 1.13e-6
    # from the Schur reference either way; the extrapolated pair ends the
    # schedule after 7 records, within 1e-8 of it
    p = equality_qp(8, 3, 0)
    pair, trace, infos = _recorded_schedule(p, default_schedule(0.1, 14),
                                            monkeypatch)
    assert 0.45 < pair.z0 < 0.5
    assert sum(r.inner_iters for r in trace) <= 20
    assert pair.extrapolated
    assert _pair_error(p, pair) <= 1e-8
    # the first eps starts cold from u_bar, every later one from its
    # prediction, the second one's from the secant through (0, u_bar)
    assert [i["start"] for i in infos] == ["reference"] + ["predicted"] * 6
    assert [i["cold_start"] for i in infos] == [True] + [False] * 6
    assert all(i["rejected_starts"] == 0 for i in infos)


@pytest.mark.parametrize("N", [100, 200])
def test_prediction_on_the_path_is_not_taken_unmoved(N, monkeypatch):
    # on lq-endpoint the secant prediction meets the inner tolerance as it
    # stands at most eps; taken unmoved, its pair is only tol-accurate (a
    # pair error of 2.9e-5 at mesh 100, stationarity 2.0e-5).  Such a start
    # is given up, so every record is at least one Newton step from its
    # start.  The rule fires only at the last eps (5 of 23 at mesh 100, 6
    # at mesh 200), which an extrapolated stop never reaches, so the limit
    # is kept unresolved and the raw last record is the pair.  Mesh 200
    # takes the Woodbury path
    from fcopt.evolution import adjoint_evolution, maximum_principle_residual
    monkeypatch.setattr(penalty, "_resolved", lambda prev, last: None)
    p = lq_endpoint_problem(N)
    pair, trace, infos = _recorded_schedule(p, p.extras["schedule"],
                                            monkeypatch)
    assert not pair.extrapolated
    assert len(trace) == len(p.extras["schedule"])
    assert min(r.inner_iters for r in trace) >= 1
    assert _pair_error(p, pair) <= 1e-7
    sysm = p.extras["system"]
    mp = maximum_principle_residual(sysm, pair,
                                    adjoint_evolution(sysm, pair.z0, pair.z))
    assert mp["stationarity"] <= 1e-6
    # a start given up falls through to the next in the chain
    assert any(info["start"] == "previous" for info in infos)
    for info in infos:
        assert info["rejected_starts"] == {"predicted": 0, "previous": 1,
                                           "reference": 0}[info["start"]]


@pytest.mark.parametrize("N", [50, 200])
def test_lq_schedule_ends_at_its_extrapolated_limit(N):
    # the raw pair is first order in eps, 1.7e-8 from the reference after
    # all 23 eps at mesh 50; two Richardson steps, the quadratic through
    # the last three records at eps = 0, are resolved after 11 records
    # (8.4e-10 at mesh 50, 7.2e-10 at mesh 200) and are the reported pair
    from fcopt.evolution import adjoint_evolution, maximum_principle_residual
    p = lq_endpoint_problem(N)
    pair, trace = extract_multiplier(p, p.u_bar, p.extras["schedule"])
    assert pair.extrapolated and pair.converged
    assert len(trace) <= 11
    assert pair.cauchy_gap <= 1e-8
    assert_allclose(pair.z0 ** 2 + pair.z_norm() ** 2, 1.0, atol=1e-12)
    assert _pair_error(p, pair) <= 1e-9
    sysm = p.extras["system"]
    mp = maximum_principle_residual(sysm, pair,
                                    adjoint_evolution(sysm, pair.z0, pair.z))
    assert mp["stationarity"] <= 1e-8


@pytest.mark.parametrize("make", [scalar_problem, l2_example],
                         ids=["scalar", "l2"])
def test_pair_without_first_order_differences_is_the_last_record(make):
    # the raw differences of these pairs never shrink at first order (on
    # scalar they are exactly 0, on l2 at roundoff from the 3rd record
    # on), so no limit is resolved: the schedule runs out and its last
    # record is the pair
    p = make()
    pair, trace = extract_multiplier(p, p.u_bar, default_schedule(0.1, 15))
    assert pair.extrapolated is False
    assert len(trace) == 15
    assert pair.z0 == trace[-1].a
    assert np.array_equal(pair.z.coords, trace[-1].b.coords)
    assert pair.cauchy_gap == penalty._cauchy_gap(trace)


def test_extrapolation_reads_the_order_off_the_eps_differences():
    # on a schedule of ratio 1/3 the raw differences shrink by 3, not by
    # the 2 of a halving schedule; the order test compares them with the
    # ratio of the eps differences, so the limit is still resolved
    p = lq_endpoint_problem(50)
    sched = [0.1 * 3.0 ** (-k) for k in range(23)]
    pair, trace = extract_multiplier(p, p.u_bar, sched)
    assert pair.extrapolated
    assert len(trace) < 23
    steps = [penalty._PairLimit(p.X, r2, r1, r0).step
             for r0, r1, r2 in zip(trace.records[-4:], trace.records[-3:],
                                   trace.records[-2:])]
    assert abs(np.log2(steps[0] / steps[1]) - np.log2(3.0)) <= 0.1
    assert _pair_error(p, pair) <= 1e-8


@pytest.mark.parametrize("ratio", [0.5, 1.0 / 3.0], ids=["halving", "third"])
def test_pair_limit_is_the_quadratic_at_zero(ratio):
    # records whose (a, b) is an exact quadratic q(eps) = q0 + q1 eps +
    # q2 eps^2: the limit is q(0), renormalized in the dual norm of a
    # non-identity gram, to roundoff
    rng = np.random.default_rng(5)
    X = SpaceDescriptor("constraints", 3, [0.5, 2.0, 3.0])
    q0, q1, q2 = rng.standard_normal((3, 4))
    recs = []
    for e in (0.1 * ratio ** k for k in (2, 1, 0)):
        g = q0 + q1 * e + q2 * e * e
        recs.append(penalty.TraceRecord(e, None, 1.0, g[0],
                                        Element(g[1:], X), 0.0, 0.0, 0))
    lim = penalty._PairLimit(X, *recs)
    want = q0 / np.hypot(q0[0], dual_norm(X, Element(q0[1:], X)))
    assert_allclose(np.concatenate([[lim.a], lim.b]), want, rtol=0,
                    atol=1e-13)
    assert_allclose(lim.gb, lim.b / X.gram, rtol=1e-15, atol=0)
    assert lim.de == recs[1].eps - recs[0].eps
