"""End-to-end acceptance gate.

Ten numbered criteria, each printed as a single line

    ACCEPTANCE <n> PASS — <name>   or   ACCEPTANCE <n> FAIL — <name>

on the real stdout (bypassing capture) so the gate is scannable from
any test run.  A FAIL line re-raises the underlying assertion.
"""

import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fcopt.spaces import SpaceDescriptor, LinearMap
from fcopt.penalty import (PenaltyConfig, default_schedule, extract_multiplier,
                           fritz_john_residual, kkt_check,
                           enhanced_sequence_report)
from fcopt.problems import (scalar_problem, l2_example, equality_qp,
                            lq_endpoint_problem)
from fcopt.evolution import (EvolutionSystem, simulate_variation_evolution,
                             adjoint_evolution, adjoint_midpoints,
                             maximum_principle_residual)
from fcopt.diagnostics import (OperatorFamily, restricted_estimate_constant,
                               codim_growth_verdict)
from fcopt.elliptic import elliptic_sweep
from fcopt.tree import (TreeModel, sde_estimate_sweep, sde_duality_residual,
                        rank_deficiency_witness)
from fcopt.wave import wave_sweep
from oracles import directional_variation, lq_identity_batch_reference


@contextmanager
def _criterion(num, name, cap=None):
    def emit(verdict):
        msg = "ACCEPTANCE %d %s — %s" % (num, verdict, name)
        if cap is not None:
            with cap.disabled():
                print(msg, flush=True)
        else:
            print(msg, file=sys.__stdout__, flush=True)

    try:
        yield
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


def _extract(p, steps=15, eps0=0.1, seed=7, schedule=None):
    if schedule is None:
        schedule = default_schedule(eps0, steps)
    return extract_multiplier(p, p.u_bar, schedule,
                              PenaltyConfig(seed=seed))


def _random_tree(rng):
    d = int(rng.integers(2, 7))
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    mats = [rng.standard_normal((n, n)), rng.standard_normal((n, n)),
            rng.standard_normal((n, m)), rng.standard_normal((n, m))]
    return TreeModel(1.0, d, *mats)


def _rank_dichotomy_models(C2, depths, T=1.0):
    rng = np.random.default_rng(42)
    R = rng.standard_normal((2, 2))
    R *= 0.5 / np.linalg.norm(R, 2)
    return [TreeModel(T, d, R, R, np.zeros((2, 2)), C2) for d in depths]


# -------------------------------------------------------------- criteria


def test_acceptance_1_trace_normalization(capfd):
    with _criterion(1, "trace normalization a^2 + |b|^2 = 1", capfd):
        runs = [
            (scalar_problem(), default_schedule(0.1, 15)),
            (l2_example(6), default_schedule(0.1, 15)),
            (equality_qp(8, 3, 0), default_schedule(0.1, 15)),
        ]
        lq = lq_endpoint_problem(50)
        runs.append((lq, lq.extras["schedule"]))
        checked = 0
        for p, schedule in runs:
            _, trace = _extract(p, schedule=schedule)
            for r in trace:
                if r.phi > 0:
                    dev = abs(r.a ** 2 + r.b_norm() ** 2 - 1.0)
                    assert dev <= 1e-9, (p.name, r.eps, dev)
                    checked += 1
        assert checked >= 40


def test_acceptance_2_degenerate_l2_multiplier(capfd):
    with _criterion(2, "degenerate multiplier on the sequence example", capfd):
        t0 = time.perf_counter()
        p = l2_example(6)
        pair, trace = _extract(p, steps=15, eps0=0.1)
        assert pair.z0 <= 1e-3
        z = np.asarray(pair.z.coords)
        span = np.zeros(6)
        span[:2] = 1.0
        cosine = abs(z @ span) / (np.linalg.norm(z) * np.linalg.norm(span))
        assert cosine >= 0.999
        assert kkt_check(p, p.u_bar, pair)["normal"] is False
        fj = fritz_john_residual(p, p.u_bar, pair,
                                 p.variations(p.u_bar, 1000, seed=7))
        assert fj >= -1e-6
        assert time.perf_counter() - t0 < 10.0


def test_acceptance_3_lq_matches_dense_kkt(capfd):
    with _criterion(3, "LQ endpoint multiplier vs dense KKT solve", capfd):
        p = lq_endpoint_problem(50)
        assert p.extras["system"].n == 4 and p.extras["system"].m == 2
        pair, _ = _extract(p, schedule=p.extras["schedule"])

        # independent oracle: one dense solve of the stationarity system
        # [[H, G'], [G, 0]] [u, lam] = [-c, y_target - y_free], with H
        # formed from the dense identity batch
        H = lq_identity_batch_reference(50)[0]
        c = np.asarray(p.extras["c"])
        G = np.asarray(p.extras["G"])
        rhs = np.asarray(p.extras["y_target"]) - np.asarray(p.extras["y_free"])
        nu, nl = H.shape[0], G.shape[0]
        K = np.block([[H, G.T], [G, np.zeros((nl, nl))]])
        lam_dense = np.linalg.solve(K, np.concatenate([-c, rhs]))[nu:]

        ref = np.concatenate([[1.0], lam_dense])
        ref /= np.linalg.norm(ref)
        got = np.concatenate([[pair.z0], np.asarray(pair.z.coords)])
        got /= np.linalg.norm(got)
        assert np.linalg.norm(got - ref) <= 1e-4
        assert pair.z0 >= 0.1

        sysm = p.extras["system"]
        psi = adjoint_evolution(sysm, pair.z0, pair.z)
        mp = maximum_principle_residual(sysm, pair, psi)
        assert mp["valid"] and mp["stationarity"] <= 1e-6


def test_acceptance_4_diagnostics_calibration(capfd):
    with _criterion(4, "diagnostics calibration on diag(1/k) and identity", capfd):
        def harmonic(n):
            s = SpaceDescriptor("X", n)
            return LinearMap(np.diag(1.0 / np.arange(1.0, n + 1)), s, s)

        sizes = (8, 16, 32, 64)
        for n in sizes:
            rep = restricted_estimate_constant(harmonic(n))
            assert 0.9 <= rep.constant / n <= 1.1
        fam = OperatorFamily([(n, harmonic(n)) for n in sizes])
        assert codim_growth_verdict(fam).verdict == "growing"

        def ident(n):
            s = SpaceDescriptor("X", n)
            return LinearMap(np.eye(n), s, s)

        for n in sizes:
            assert restricted_estimate_constant(ident(n)).constant == 1.0
        fam = OperatorFamily([(n, ident(n)) for n in sizes])
        assert codim_growth_verdict(fam).verdict == "bounded"


def test_acceptance_5_elliptic_dichotomy(capfd):
    with _criterion(5, "elliptic constant dichotomy L2/L2 vs H1/H-1", capfd):
        meshes = (15, 31, 63, 127)
        l2 = elliptic_sweep(meshes, tag="L2L2", a=1.0, c=0.0)
        consts = np.array(l2.constants)
        assert np.all(consts[1:] / consts[:-1] >= 3.0)
        assert l2.verdict == "growing"
        h1 = elliptic_sweep(meshes, tag="H1H-1", a=1.0, c=0.0)
        consts = np.array(h1.constants)
        assert consts.max() / consts.min() <= 1.1
        assert h1.verdict == "bounded"


def test_acceptance_6_sde_rank_dichotomy_and_witness(capfd):
    with _criterion(6, "tree-SDE rank dichotomy and deficiency witness", capfd):
        depths = (4, 5, 6, 7, 8)
        full = sde_estimate_sweep(_rank_dichotomy_models(np.eye(2), depths))
        consts = np.array(full.constants)
        assert np.all(np.isfinite(consts))
        assert consts.max() / consts.min() <= 2.0
        assert full.verdict == "bounded"

        C2 = np.diag([1.0, 0.0])
        deficient = sde_estimate_sweep(_rank_dichotomy_models(C2, depths))
        kd = np.array(deficient.kernel_dims, dtype=float)
        assert np.all(kd > 0)
        assert np.all(kd[1:] / kd[:-1] >= 1.5)
        assert deficient.verdict == "growing"

        model = _rank_dichotomy_models(C2, [8])[0]
        r_hat = np.array([0.0, 1.0])
        r_sq = float(r_hat @ r_hat)
        scaled, inverse = [], []
        for k in range(1, model.d + 1):
            lhs, _ = rank_deficiency_witness(model, r_hat, k)
            scaled.append(lhs * k / r_sq)
            inverse.append(r_sq / lhs)
        scaled = np.array(scaled)
        inverse = np.array(inverse)
        assert scaled.max() <= 3.0 * model.T
        assert np.all(np.diff(inverse) >= -1e-12 * inverse[:-1])
        assert inverse[-1] / inverse[0] >= model.d / 2.0


def test_acceptance_7_exact_duality_pairings(capfd):
    with _criterion(7, "exact adjoint and tree duality pairings", capfd):
        rng = np.random.default_rng(5)
        for _ in range(20):
            N = int(rng.integers(5, 40))
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            sysm = EvolutionSystem(1.5, N, rng.standard_normal((n, n)),
                                   rng.standard_normal((N, n, m)))
            w = rng.standard_normal((N, m))
            phi_T = rng.standard_normal(n)
            xi = simulate_variation_evolution(sysm, w)
            lhs = float(phi_T @ xi[-1])
            q = adjoint_midpoints(sysm, adjoint_evolution(sysm, 0.0, -phi_T))
            rhs = sysm.dt * float(np.sum([(sysm.Bc[k].T @ q[k]) @ w[k]
                                          for k in range(N)]))
            assert abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)) <= 1e-12

        for _ in range(20):
            model = _random_tree(rng)
            u = rng.standard_normal((model.d, model.m))
            terminal = rng.standard_normal((model.leaf_count, model.n))
            assert sde_duality_residual(model, u, terminal) <= 1e-12


def test_acceptance_8_wave_horizon_dichotomy(capfd):
    with _criterion(8, "wave observability horizon dichotomy", capfd):
        t0 = time.perf_counter()
        modes = (8, 16, 32, 64)
        long_T = wave_sweep(modes, interval=(0.4, 0.6), T=3.0, a=0.0)
        consts = np.array(long_T.constants)
        assert np.all(np.isfinite(consts))
        assert np.all(consts[1:] / consts[:-1] <= 1.2)
        assert long_T.verdict == "bounded"

        short_T = wave_sweep(modes, interval=(0.4, 0.6), T=0.2, a=0.0)
        cs = short_T.constants
        kd = short_T.kernel_dims
        for i in range(len(cs) - 1):
            if np.isfinite(cs[i]) and np.isfinite(cs[i + 1]):
                assert cs[i + 1] / cs[i] >= 2.0
            elif np.isfinite(cs[i]):
                pass  # finite level followed by an outright failure
            else:
                assert kd[i + 1] > kd[i]
        assert short_T.verdict == "growing"
        assert time.perf_counter() - t0 < 120.0


def test_acceptance_9_directional_variation_quotients(capfd):
    with _criterion(9, "one-sided directional variation quotients", capfd):
        for sign in (-1.0, 1.0):
            res = directional_variation(lambda u: abs(u[0]),
                                        np.array([0.0]), np.array([sign]))
            assert res.value == pytest.approx(1.0)
        res = directional_variation(lambda u: u[0] ** 2, np.array([3.0]),
                                    np.array([1.0]), h_schedule=(1e-2, 1e-3))
        q_coarse, q_fine = res.quotients
        ratio = abs(float(q_coarse) - 6.0) / abs(float(q_fine) - 6.0)
        assert ratio == pytest.approx(10.0, rel=0.2)


def test_acceptance_10_enhanced_condition_tail(capfd):
    with _criterion(10, "enhanced-condition tail report", capfd):
        p = l2_example(6)
        _, trace = _extract(p, steps=15, eps0=0.1)
        rep = enhanced_sequence_report(p, p.u_bar, trace)
        assert rep["applicable"] and rep["passed"]

        tail = trace.records[-5:]
        dist = np.array([r.dist_val for r in tail])
        gap = np.array([abs(r.f0_gap) for r in tail])
        assert np.all(dist > 0)            # f(u_eps) stays outside E
        assert np.all(np.diff(dist) < 0) and dist[-1] <= 1e-6
        assert np.all(np.diff(gap) < 0) and gap[-1] <= 1e-2
        pairings = np.array(rep["pairings"][-5:])
        assert np.all(pairings > 0)
