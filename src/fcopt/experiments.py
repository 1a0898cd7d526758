"""Named end-to-end experiments with machine-checkable pass criteria.

Each experiment bundles a model build, a computation, and a list of
criteria records ``{name, passed, value, threshold}``.  Runs are
deterministic for a fixed parameter set: every sampled computation takes
its generator seed from the parameters, so re-running an experiment
reproduces all result values and CSV table bytes.

The registry keys double as command-line names::

    l2-fritz-john   degenerate multiplier on a sequence-space problem
    lq-endpoint     endpoint-constrained LQ control vs dense KKT oracle
    elliptic-l2     elliptic operator between L2 grams (growing constants)
    elliptic-h1     elliptic operator between H1_0/H-1 grams (bounded)
    sde-rank        tree-SDE estimate constants, full vs deficient rank
    sde-witness     terminal-energy witness of diffusion rank deficiency
    wave-obs        string observability constants from a subinterval
"""

import json
import os
import time

import numpy as np

from . import __version__
from .config import merge_params
from .penalty import (PenaltyConfig, default_schedule, extract_multiplier,
                      fritz_john_residual, kkt_check, enhanced_sequence_report)
from .problems import l2_example, lq_endpoint_problem
from .evolution import adjoint_evolution, maximum_principle_residual
from .elliptic import elliptic_sweep
from .tree import TreeModel, sde_estimate_sweep, rank_deficiency_witness
from .wave import wave_sweep

__all__ = ["RunReport", "list_experiments", "experiment_names",
           "run_experiment", "format_table", "write_report",
           "REPORT_SCHEMA"]

REPORT_SCHEMA = "fcopt-report/1"


# ---------------------------------------------------------------- reports


def _jsonable(obj):
    """Convert numpy scalars/arrays and containers to JSON-safe values.

    Non-finite floats become the strings ``"inf"``, ``"-inf"`` or
    ``"nan"`` so the emitted file is strict JSON.
    """
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if np.isnan(v):
            return "nan"
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


class RunReport:
    """Outcome of one named experiment run.

    Attributes
    ----------
    experiment : str
        Registry name.
    inputs : dict
        The fully merged parameter set the run used.
    results : dict
        Headline numbers (constants, residuals, verdicts).
    criteria : list of dict
        Records ``{name, passed, value, threshold}``.
    tables : dict
        Name -> (header, rows); written as CSV companions.
    wall_clock_s : float
        Run duration in seconds.
    version : str
        Library version that produced the report.
    """

    schema = REPORT_SCHEMA

    def __init__(self, experiment, inputs, results, criteria, tables,
                 wall_clock_s):
        self.experiment = str(experiment)
        self.inputs = dict(inputs)
        self.results = dict(results)
        self.criteria = list(criteria)
        self.tables = dict(tables)
        self.wall_clock_s = float(wall_clock_s)
        self.version = __version__

    @property
    def passed(self):
        """True when every criterion holds."""
        return all(c["passed"] for c in self.criteria)

    def to_dict(self):
        """JSON-ready payload (tables are referenced, not inlined)."""
        return {
            "schema": self.schema,
            "experiment": self.experiment,
            "version": self.version,
            "inputs": _jsonable(self.inputs),
            "results": _jsonable(self.results),
            "criteria": _jsonable(self.criteria),
            "passed": self.passed,
            "wall_clock_s": self.wall_clock_s,
        }

    def __repr__(self):
        return "RunReport(%s, passed=%s, %d criteria)" % (
            self.experiment, self.passed, len(self.criteria))


def _csv_cell(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if np.isnan(v):
            return "nan"
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        return repr(v)
    return str(x)


def format_table(header, rows):
    """Render a (header, rows) table as deterministic CSV text.

    Floats are written with ``repr`` (shortest round-trip form), so two
    runs that produce bitwise-equal values produce byte-identical CSV.
    """
    lines = [",".join(str(h) for h in header)]
    for row in rows:
        lines.append(",".join(_csv_cell(x) for x in row))
    return "\n".join(lines) + "\n"


def _write_document(payload, tables, path):
    """Write a JSON payload and its CSV tables, laid out as write_report says.

    ``tables`` maps a name to (header, rows); the JSON gains a ``tables``
    key mapping each name to its CSV file name.  Returns all paths
    written, JSON first.
    """
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    stem = os.path.splitext(path)[0]
    written = [path]
    refs = {}
    for tname in sorted(tables):
        header, rows = tables[tname]
        if len(tables) == 1:
            csv_path = stem + ".csv"
        else:
            csv_path = "%s-%s.csv" % (stem, tname)
        with open(csv_path, "w") as fh:
            fh.write(format_table(header, rows))
        refs[tname] = os.path.basename(csv_path)
        written.append(csv_path)
    payload = dict(payload, tables=refs)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return written


def write_report(report, path):
    """Write a report as JSON plus one CSV file per table.

    Parameters
    ----------
    report : RunReport
        The report to serialize.
    path : str
        Output path for the JSON document.  Each table is written next
        to it: a single table reuses the stem with a ``.csv`` suffix,
        several tables get ``<stem>-<name>.csv``.

    Returns
    -------
    list of str
        All paths written, JSON first.
    """
    return _write_document(report.to_dict(), report.tables, path)


# ---------------------------------------------------------------- helpers


def _criterion(name, passed, value, threshold):
    return {"name": name, "passed": bool(passed), "value": _jsonable(value),
            "threshold": threshold}


def _need(cond, msg):
    if not cond:
        raise ValueError(msg)


def _int_tuple(val, what, min_len=1):
    vals = val if isinstance(val, (tuple, list, np.ndarray)) else (val,)
    out = []
    for v in vals:
        iv = int(v)
        _need(iv == v, "%s entries must be integers" % what)
        out.append(iv)
    _need(len(out) >= min_len, "%s needs at least %d entries" % (what, min_len))
    return tuple(out)


def _normalization_deviation(trace):
    """Max |a^2 + |b|^2 - 1| over trace records with phi > 0."""
    devs = [abs(r.a ** 2 + r.b_norm() ** 2 - 1.0)
            for r in trace if r.phi > 0]
    return max(devs) if devs else 0.0


def _trace_table(trace):
    header = ("eps", "a", "b_norm", "dist", "gap")
    rows = [[r.eps, r.a, r.b_norm(), r.dist_val, r.f0_gap] for r in trace]
    return header, rows


def _successive_ratios(consts):
    """Ratios c[i+1]/c[i]; inf-over-finite is inf, inf-over-inf is nan."""
    out = []
    for a, b in zip(consts, consts[1:]):
        if np.isfinite(a) and np.isfinite(b):
            out.append(b / a)
        elif np.isfinite(a):
            out.append(np.inf)
        else:
            out.append(np.nan)
    return out


def _sweep_table(keys, key_name, swept, extra=None):
    header = [key_name, "dim", "constant", "kernel_dim"]
    if extra:
        header.append(extra[0])
    rows = []
    for key, (n, rep) in zip(keys, swept.levels):
        row = [key, n, rep.constant, rep.kernel_dim]
        if extra:
            row.append(extra[1](rep))
        rows.append(row)
    return tuple(header), rows


# ---------------------------------------------------------------- runners


def _run_l2_fritz_john(params):
    dim = int(params["dim"])
    _need(dim >= 4, "dim must be >= 4")
    eps0 = float(params["eps0"])
    _need(0 < eps0 < 1.0, "eps0 must lie in (0, 1)")
    steps = int(params["steps"])
    _need(2 <= steps <= 200, "steps must lie in [2, 200]")
    samples = int(params["samples"])
    _need(samples >= 1, "samples must be positive")
    seed = int(params["seed"])

    p = l2_example(dim)
    cfg = PenaltyConfig(seed=seed)
    pair, trace = extract_multiplier(p, p.u_bar, default_schedule(eps0, steps),
                                     cfg)
    z = np.asarray(pair.z.coords)
    zdir = np.asarray(p.extras["z_direction"])
    cosine = abs(z @ zdir) / (np.linalg.norm(z) * np.linalg.norm(zdir))
    kk = kkt_check(p, p.u_bar, pair, cfg)
    fj = fritz_john_residual(p, p.u_bar, pair,
                             p.variations(p.u_bar, samples, seed=seed))
    enh = enhanced_sequence_report(p, p.u_bar, trace, cfg)
    norm_dev = _normalization_deviation(trace)

    criteria = [
        _criterion("z0-degenerate", pair.z0 <= 1e-3, pair.z0, "z0 <= 1e-3"),
        _criterion("z-direction-cosine", cosine >= 0.999, cosine,
                   "cosine >= 0.999"),
        _criterion("kkt-abnormal", not kk["normal"], kk["normal"],
                   "normal == false"),
        _criterion("fritz-john-residual", fj >= -1e-6, fj,
                   "min sampled residual >= -1e-6"),
        _criterion("normalization", norm_dev <= 1e-9, norm_dev,
                   "max |a^2+|b|^2-1| <= 1e-9"),
        _criterion("enhanced-tail", enh["passed"], enh["passed"],
                   "positive pairing over the trace tail"),
    ]
    results = {
        "z0": pair.z0, "z": z, "cosine": cosine,
        "fritz_john_min": fj, "normalization_deviation": norm_dev,
        "kkt_normal": kk["normal"], "enhanced_passed": enh["passed"],
        "cauchy_gap": pair.cauchy_gap, "records": len(trace),
    }
    return results, criteria, {"trace": _trace_table(trace)}


def _run_lq_endpoint(params):
    N = int(params["mesh"])
    _need(2 <= N <= 2000, "mesh must lie in [2, 2000]")
    T = float(params["T"])
    _need(T > 0, "T must be positive")
    eps0 = float(params["eps0"])
    _need(0 < eps0 < 1.0, "eps0 must lie in (0, 1)")
    steps = int(params["steps"])
    _need(2 <= steps <= 200, "steps must lie in [2, 200]")
    seed = int(params["seed"])

    p = lq_endpoint_problem(N, T)
    cfg = PenaltyConfig(seed=seed)
    pair, trace = extract_multiplier(p, p.u_bar, default_schedule(eps0, steps),
                                     cfg)
    lam = np.asarray(p.extras["kkt_multiplier"])
    ref = np.concatenate([[1.0], lam])
    ref /= np.linalg.norm(ref)
    got = np.concatenate([[pair.z0], np.asarray(pair.z.coords)])
    got /= np.linalg.norm(got)
    pair_err = float(np.linalg.norm(got - ref))

    sysm = p.extras["system"]
    psi = adjoint_evolution(sysm, pair.z0, pair.z)
    mp = maximum_principle_residual(sysm, pair, psi, seed=seed)
    norm_dev = _normalization_deviation(trace)

    criteria = [
        _criterion("pair-matches-kkt", pair_err <= 1e-4, pair_err,
                   "normalized pair error <= 1e-4"),
        _criterion("z0-normal", pair.z0 >= 0.1, pair.z0, "z0 >= 0.1"),
        _criterion("stationarity", mp["valid"] and mp["stationarity"] <= 1e-6,
                   mp["stationarity"], "adjoint stationarity <= 1e-6"),
        _criterion("normalization", norm_dev <= 1e-9, norm_dev,
                   "max |a^2+|b|^2-1| <= 1e-9"),
    ]
    results = {
        "z0": pair.z0, "multiplier": np.asarray(pair.z.coords),
        "kkt_multiplier": lam, "pair_error": pair_err,
        "stationarity": mp["stationarity"],
        "normalization_deviation": norm_dev, "records": len(trace),
    }
    return results, criteria, {"trace": _trace_table(trace)}


def _elliptic_common(params, tag):
    levels = _int_tuple(params["levels"], "levels", min_len=3)
    a = float(params["a"])
    c = float(params["c"])
    factor = float(params["growth_factor"])
    swept = elliptic_sweep(levels, tag=tag, a=a, c=c, growth_factor=factor)
    consts = swept.constants
    table = _sweep_table(levels, "N", swept,
                         extra=("h", lambda rep: rep.extras["h"]))
    return swept, consts, table


def _run_elliptic_l2(params):
    swept, consts, table = _elliptic_common(params, "L2L2")
    ratios = _successive_ratios(consts)
    min_ratio = min(ratios)
    criteria = [
        _criterion("verdict-growing", swept.verdict == "growing",
                   swept.verdict, "verdict == growing"),
        _criterion("mesh-ratio", min_ratio >= 3.0, min_ratio,
                   "successive constant ratio >= 3"),
    ]
    results = {"constants": consts, "kernel_dims": swept.kernel_dims,
               "ratios": ratios, "verdict": swept.verdict}
    return results, criteria, {"sweep": table}


def _run_elliptic_h1(params):
    swept, consts, table = _elliptic_common(params, "H1H-1")
    spread = max(consts) / min(consts)
    criteria = [
        _criterion("verdict-bounded", swept.verdict == "bounded",
                   swept.verdict, "verdict == bounded"),
        _criterion("constant-spread", spread <= 1.1, spread,
                   "max/min constant <= 1.1"),
    ]
    results = {"constants": consts, "kernel_dims": swept.kernel_dims,
               "spread": spread, "verdict": swept.verdict}
    return results, criteria, {"sweep": table}


def _rank_models(depths, c2, seed, scale, T):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((2, 2))
    R *= scale / np.linalg.norm(R, 2)
    C2 = np.eye(2) if c2 == "identity" else np.diag([1.0, 0.0])
    C1 = np.zeros((2, 2))
    return [TreeModel(T, d, R, R, C1, C2) for d in depths]


def _run_sde_rank(params):
    depths = _int_tuple(params["depths"], "depths", min_len=3)
    _need(all(1 <= d <= 14 for d in depths), "depths must lie in [1, 14]")
    c2 = str(params["c2"])
    _need(c2 in ("identity", "deficient"),
          "c2 must be 'identity' or 'deficient'")
    seed = int(params["seed"])
    scale = float(params["scale"])
    _need(0 < scale < 1, "scale must lie in (0, 1)")
    T = float(params["T"])
    _need(T > 0, "T must be positive")
    g_mode = str(params["g_mode"])
    # without the phi(0) block constant terminal data span a kernel at every
    # depth, so the criteria below (trivial kernels for C2 = I) cannot hold
    _need(g_mode == "phi0", "g_mode must be 'phi0'")

    models = _rank_models(depths, c2, seed, scale, T)
    swept = sde_estimate_sweep(models, G_mode=g_mode)
    consts = swept.constants
    kd = swept.kernel_dims
    table = _sweep_table(depths, "depth", swept)

    if c2 == "identity":
        finite = all(np.isfinite(c) for c in consts)
        spread = max(consts) / min(consts) if finite else np.inf
        criteria = [
            _criterion("verdict-bounded", swept.verdict == "bounded",
                       swept.verdict, "verdict == bounded"),
            _criterion("constant-spread", finite and spread <= 2.0, spread,
                       "finite constants, max/min <= 2"),
            _criterion("trivial-kernels", all(k == 0 for k in kd), kd,
                       "kernel dimension 0 at every depth"),
        ]
    else:
        kratios = [b / a if a > 0 else np.inf for a, b in zip(kd, kd[1:])]
        criteria = [
            _criterion("verdict-growing", swept.verdict == "growing",
                       swept.verdict, "verdict == growing"),
            _criterion("kernel-growth",
                       all(k > 0 for k in kd) and min(kratios) >= 1.5,
                       kd, "kernel dims grow >= 1.5x per depth step"),
            _criterion("constants-infinite",
                       all(not np.isfinite(c) for c in consts), consts,
                       "estimate constant infinite at every depth"),
        ]
    results = {"constants": consts, "kernel_dims": kd, "depths": depths,
               "verdict": swept.verdict, "c2": c2}
    return results, criteria, {"sweep": table}


def _run_sde_witness(params):
    depth = int(params["depth"])
    _need(2 <= depth <= 14, "depth must lie in [2, 14]")
    seed = int(params["seed"])
    scale = float(params["scale"])
    _need(0 < scale < 1, "scale must lie in (0, 1)")
    T = float(params["T"])
    _need(T > 0, "T must be positive")

    model = _rank_models([depth], "deficient", seed, scale, T)[0]
    r_hat = np.array([0.0, 1.0])
    rows, scaled, inverse = [], [], []
    for k in range(1, depth + 1):
        lhs, rhs = rank_deficiency_witness(model, r_hat, k)
        window = int(np.ceil(depth / k))
        scaled.append(lhs * k)
        inverse.append(1.0 / lhs)
        rows.append([k, window, lhs, rhs, lhs * k, 1.0 / lhs])
    scaled = np.array(scaled)
    inverse = np.array(inverse)
    growth = inverse[-1] / inverse[0]
    monotone = bool(np.all(np.diff(inverse) >= -1e-12 * inverse[:-1]))

    criteria = [
        _criterion("scaled-energy-bounded", scaled.max() <= 3.0 * T,
                   scaled.max(), "max k*lhs <= 3*T"),
        _criterion("inverse-energy-grows", growth >= depth / 2.0, growth,
                   "(1/lhs) growth over k >= depth/2"),
        _criterion("inverse-monotone", monotone, monotone,
                   "1/lhs nondecreasing in k"),
    ]
    results = {"scaled": scaled, "inverse": inverse, "growth": growth,
               "depth": depth}
    table = (("k", "window_steps", "lhs", "rhs", "scaled", "inverse"), rows)
    return results, criteria, {"witness": table}


def _expected_wave_regime(lo, hi, T):
    """Travel-time rule of thumb for the expected sweep regime.

    A disturbance must reach the observed subinterval within the time
    window, so boundedness is expected once T covers a round trip from
    the farthest endpoint: T >= 2 * max(lo, 1 - hi).  This is only used
    to pick which criteria to check when ``expect`` is ``auto``.
    """
    return "bounded" if T >= 2.0 * max(lo, 1.0 - hi) else "growing"


def _run_wave_obs(params):
    modes = _int_tuple(params["modes"], "modes", min_len=3)
    lo = float(params["x_lo"])
    hi = float(params["x_hi"])
    _need(0.0 <= lo < hi <= 1.0, "need 0 <= x_lo < x_hi <= 1")
    T = float(params["T"])
    _need(T > 0, "T must be positive")
    a = float(params["a"])
    expect = str(params["expect"])
    _need(expect in ("auto", "bounded", "growing"),
          "expect must be auto, bounded, or growing")

    swept = wave_sweep(modes, interval=(lo, hi), T=T, a=a)
    consts = swept.constants
    kd = swept.kernel_dims
    ratios = _successive_ratios(consts)
    regime = expect if expect != "auto" else _expected_wave_regime(lo, hi, T)
    table = _sweep_table(modes, "modes", swept)

    if regime == "bounded":
        finite = all(np.isfinite(c) for c in consts)
        worst = max(ratios) if finite else np.inf
        criteria = [
            _criterion("verdict-bounded", swept.verdict == "bounded",
                       swept.verdict, "verdict == bounded"),
            _criterion("doubling-ratio", finite and worst <= 1.2, worst,
                       "constant ratio per mode doubling <= 1.2"),
        ]
    else:
        ok = True
        for i, r in enumerate(ratios):
            if np.isnan(r):
                ok = ok and kd[i + 1] > kd[i]
            else:
                ok = ok and r >= 2.0
        criteria = [
            _criterion("verdict-growing", swept.verdict == "growing",
                       swept.verdict, "verdict == growing"),
            _criterion("doubling-growth", ok, ratios,
                       "ratio >= 2 per doubling, or kernel inflation"),
        ]
    results = {"constants": consts, "kernel_dims": kd, "ratios": ratios,
               "verdict": swept.verdict, "regime_checked": regime}
    return results, criteria, {"sweep": table}


# ---------------------------------------------------------------- registry


EXPERIMENTS = {
    "l2-fritz-john": {
        "describe": "degenerate sequence-space problem: abnormal multiplier "
                    "(z0 ~ 0) along span{(1,1,0,...)}",
        "defaults": {"dim": 6, "eps0": 0.1, "steps": 15, "samples": 1000,
                     "seed": 7},
        "runner": _run_l2_fritz_john,
    },
    "lq-endpoint": {
        "describe": "endpoint-constrained LQ control: extracted pair vs "
                    "dense KKT solve and adjoint stationarity",
        "defaults": {"mesh": 50, "T": 1.0, "eps0": 0.1, "steps": 23,
                     "seed": 7},
        "runner": _run_lq_endpoint,
    },
    "elliptic-l2": {
        "describe": "1-D elliptic operator between L2 grams: estimate "
                    "constant grows like 4(N+1)^2",
        "defaults": {"levels": (15, 31, 63, 127), "a": 1.0, "c": 0.0,
                     "growth_factor": 2.0},
        "runner": _run_elliptic_l2,
    },
    "elliptic-h1": {
        "describe": "1-D elliptic operator between H1_0 and H-1 grams: "
                    "estimate constant stays at 1",
        "defaults": {"levels": (15, 31, 63, 127), "a": 1.0, "c": 0.0,
                     "growth_factor": 2.0},
        "runner": _run_elliptic_h1,
    },
    "sde-rank": {
        "describe": "tree-SDE estimate constants across depths: bounded for "
                    "full-rank C2, kernel inflation for deficient C2",
        "defaults": {"depths": (4, 5, 6, 7, 8), "c2": "identity", "seed": 42,
                     "scale": 0.5, "T": 1.0, "g_mode": "phi0"},
        "runner": _run_sde_rank,
    },
    "sde-witness": {
        "describe": "terminal-energy witness of diffusion rank deficiency: "
                    "k*lhs bounded while 1/lhs grows with k",
        "defaults": {"depth": 8, "seed": 42, "scale": 0.5, "T": 1.0},
        "runner": _run_sde_witness,
    },
    "wave-obs": {
        "describe": "string observability from a subinterval: bounded "
                    "constants for large T, growth below travel time",
        "defaults": {"modes": (8, 16, 32, 64), "x_lo": 0.4, "x_hi": 0.6,
                     "T": 3.0, "a": 0.0, "expect": "auto"},
        "runner": _run_wave_obs,
    },
}


def experiment_names():
    """Registry names in declaration order."""
    return list(EXPERIMENTS)


def list_experiments():
    """(name, description) pairs for every registered experiment."""
    return [(name, entry["describe"]) for name, entry in EXPERIMENTS.items()]


def run_experiment(name, overrides=None):
    """Run one registered experiment and collect a RunReport.

    Parameters
    ----------
    name : str
        Registry key, e.g. ``"l2-fritz-john"``.
    overrides : dict, optional
        Parameter overrides; keys must exist in the experiment defaults.

    Returns
    -------
    RunReport
        Inputs echo, results, per-criterion pass/fail, wall clock.

    Raises
    ------
    ValueError
        For an unknown name, unknown parameter key, or a parameter
        outside its documented range.
    """
    if name not in EXPERIMENTS:
        raise ValueError("unknown experiment %r (known: %s)"
                         % (name, ", ".join(EXPERIMENTS)))
    entry = EXPERIMENTS[name]
    params = merge_params(entry["defaults"], overrides)
    t0 = time.perf_counter()
    results, criteria, tables = entry["runner"](params)
    wall = time.perf_counter() - t0
    return RunReport(name, params, results, criteria, tables, wall)
