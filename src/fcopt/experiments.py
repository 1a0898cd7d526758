"""Named end-to-end experiments with machine-checkable pass criteria.

Each experiment bundles a model build, a computation, and a list of
criteria records ``{name, passed, value, threshold}``.  Runs are
deterministic for a fixed parameter set: every sampled computation takes
its generator seed from the parameters, so re-running an experiment
reproduces all result values and CSV table bytes.

Each registry entry declares its parameters once, as ``params`` (name ->
``Param``).  ``run_experiment``, ``fcopt solve`` and ``fcopt diagnose``
type and range-check every value with ``validate`` before any model is
built, so a runner checks only what involves more than one parameter.
The two penalty experiments and ``fcopt solve`` run their schedule
through one runner, ``_run_schedule``.

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
import math
import operator
import os
import time

import numpy as np

from . import __version__
from .penalty import (PenaltyConfig, default_schedule, extract_multiplier,
                      fritz_john_residual, kkt_check, enhanced_sequence_report)
from .problems import l2_example, lq_endpoint_problem
from .evolution import adjoint_evolution, maximum_principle_residual
from .elliptic import elliptic_sweep
from .tree import TreeModel, sde_estimate_sweep, rank_deficiency_witness
from .wave import wave_sweep

__all__ = ["RunReport", "Param", "validate", "list_experiments",
           "run_experiment", "format_table", "write_report", "REPORT_SCHEMA"]

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


# ------------------------------------------------------------- parameters


def _show(value):
    """A value as the command line spells it (lists comma-joined)."""
    if isinstance(value, (tuple, list, np.ndarray)):
        return ",".join(str(v) for v in value)
    return str(value)


def _number(kind, value):
    """Text or a number as an int, or as a finite float."""
    if isinstance(value, bool):
        raise TypeError(value)
    if kind != "float":
        return int(value) if isinstance(value, str) else operator.index(value)
    if not math.isfinite(float(value)):
        raise ValueError(value)
    return float(value)


class Param:
    """The kind, default and admissible values of one parameter.

    ``kind`` is "int", "float" (finite), "str" or "ints" (a tuple of at
    least ``min_len`` ints).  ``allowed`` is an interval such as
    "[2, 200]" or "(0, inf)" for the numeric kinds, bounding each entry
    of an "ints" value, and the tuple of choices for "str".
    """

    def __init__(self, kind, default, allowed, min_len=1):
        self.kind, self.default = kind, default
        self.allowed, self.min_len = allowed, min_len
        self.range = allowed
        if kind == "str":
            self.range = "{%s}" % ", ".join(allowed)
        else:
            self.closed = (allowed[0] == "[", allowed[-1] == "]")
            self.lo, self.hi = (float(b) for b in allowed[1:-1].split(","))

    def with_default(self, default):
        """The same declaration with another default."""
        return Param(self.kind, default, self.allowed, self.min_len)

    def describe(self):
        """(kind, default, range) as ``fcopt list`` and the README show them."""
        kind = "%d+ ints" % self.min_len if self.kind == "ints" else self.kind
        return kind, _show(self.default), self.range

    def check(self, name, value):
        """``value`` typed by this kind; ValueError unless it is admitted."""
        try:
            if self.kind == "ints":
                parts = value.split(",") if isinstance(value, str) else value
                typed = tuple(_number("int", v) for v in parts)
                if len(typed) < self.min_len:
                    raise ValueError(value)
            elif self.kind == "str":
                typed = str(value).strip()
            else:
                typed = _number(self.kind, value)
        except (TypeError, ValueError):
            noun = {"int": "a single integer", "float": "a finite number",
                    "ints": "a comma list of at least %d integers"
                            % self.min_len}[self.kind]
            raise ValueError("%s must be %s, got %s"
                             % (name, noun, _show(value))) from None
        if self.kind == "str":
            admitted = typed in self.allowed
        else:
            admitted = all(
                (v >= self.lo if self.closed[0] else v > self.lo)
                and (v <= self.hi if self.closed[1] else v < self.hi)
                for v in (typed if self.kind == "ints" else (typed,)))
        if not admitted:
            raise ValueError("%s must lie in %s, got %s"
                             % (name, self.range, _show(value)))
        return typed


def validate(params, overrides=None):
    """Every parameter of the declaration ``params`` (name -> Param), typed.

    ``overrides`` maps names to text (``"2.5"``, ``"8,16,32"``) or to
    typed values; a name it omits takes its default.  Raises ValueError,
    before anything is built, with ``unknown parameter 'x' (known: ...)``,
    ``<name> must be <kind>, got <value>`` or ``<name> must lie in
    <range>, got <value>``.
    """
    overrides = overrides or {}
    unknown = [key for key in overrides if key not in params]
    if unknown:
        raise ValueError("unknown parameter %r (known: %s)"
                         % (unknown[0], ", ".join(sorted(params))))
    return {name: p.check(name, overrides.get(name, p.default))
            for name, p in params.items()}


# ---------------------------------------------------------------- helpers


# Largest |a^2 + |b|^2 - 1| over the records of a trace that a run may
# report as passed (the pairs are normalized by construction).
_NORM_TOL = 1e-9


def _criterion(name, passed, value, threshold):
    return {"name": name, "passed": bool(passed), "value": _jsonable(value),
            "threshold": threshold}


def _need(cond, msg):
    if not cond:
        raise ValueError(msg)


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


def _run_schedule(p, params):
    """Run the penalty schedule of ``params`` on the built problem ``p``.

    The schedule is default_schedule(eps0, steps), which
    extract_multiplier may end early, and the config seed is ``seed``,
    all checked by ``validate``.  Returns (pair, trace).
    """
    return extract_multiplier(
        p, p.u_bar, default_schedule(params["eps0"], params["steps"]),
        PenaltyConfig(seed=params["seed"]))


def _run_l2_fritz_john(params):
    p = l2_example(params["dim"])
    pair, trace = _run_schedule(p, params)
    z = np.asarray(pair.z.coords)
    zdir = np.asarray(p.extras["z_direction"])
    cosine = abs(z @ zdir) / (np.linalg.norm(z) * np.linalg.norm(zdir))
    kk = kkt_check(p, p.u_bar, pair)
    fj = fritz_john_residual(p, p.u_bar, pair,
                             p.variations(p.u_bar, params["samples"],
                                          seed=params["seed"]))
    enh = enhanced_sequence_report(p, p.u_bar, trace)
    norm_dev = _normalization_deviation(trace)

    criteria = [
        _criterion("z0-degenerate", pair.z0 <= 1e-3, pair.z0, "z0 <= 1e-3"),
        _criterion("z-direction-cosine", cosine >= 0.999, cosine,
                   "cosine >= 0.999"),
        _criterion("kkt-abnormal", not kk["normal"], kk["normal"],
                   "normal == false"),
        _criterion("fritz-john-residual", fj >= -1e-6, fj,
                   "min sampled residual >= -1e-6"),
        _criterion("normalization", norm_dev <= _NORM_TOL, norm_dev,
                   "max |a^2+|b|^2-1| <= 1e-9"),
        _criterion("enhanced-tail", enh["passed"], enh["passed"],
                   "positive pairing over the trace tail"),
    ]
    results = {
        "z0": pair.z0, "z": z, "cosine": cosine,
        "fritz_john_min": fj, "normalization_deviation": norm_dev,
        "kkt_normal": kk["normal"], "enhanced_passed": enh["passed"],
        "cauchy_gap": pair.cauchy_gap, "records": len(trace),
        "extrapolated": pair.extrapolated,
    }
    return results, criteria, {"trace": _trace_table(trace)}


def _run_lq_endpoint(params):
    p = lq_endpoint_problem(params["mesh"], params["T"])
    pair, trace = _run_schedule(p, params)
    lam = np.asarray(p.extras["kkt_multiplier"])
    ref = np.concatenate([[1.0], lam])
    ref /= np.linalg.norm(ref)
    got = np.concatenate([[pair.z0], np.asarray(pair.z.coords)])
    got /= np.linalg.norm(got)
    pair_err = float(np.linalg.norm(got - ref))

    sysm = p.extras["system"]
    psi = adjoint_evolution(sysm, pair.z0, pair.z)
    mp = maximum_principle_residual(sysm, pair, psi)
    norm_dev = _normalization_deviation(trace)

    criteria = [
        _criterion("pair-matches-kkt", pair_err <= 1e-4, pair_err,
                   "normalized pair error <= 1e-4"),
        _criterion("z0-normal", pair.z0 >= 0.1, pair.z0, "z0 >= 0.1"),
        _criterion("stationarity", mp["valid"] and mp["stationarity"] <= 1e-6,
                   mp["stationarity"], "adjoint stationarity <= 1e-6"),
        _criterion("normalization", norm_dev <= _NORM_TOL, norm_dev,
                   "max |a^2+|b|^2-1| <= 1e-9"),
    ]
    results = {
        "z0": pair.z0, "multiplier": np.asarray(pair.z.coords),
        "kkt_multiplier": lam, "pair_error": pair_err,
        "stationarity": mp["stationarity"],
        "normalization_deviation": norm_dev, "records": len(trace),
        "extrapolated": pair.extrapolated,
    }
    return results, criteria, {"trace": _trace_table(trace)}


def _elliptic_common(params, tag):
    levels = params["levels"]
    swept = elliptic_sweep(levels, tag=tag, a=params["a"], c=params["c"],
                           growth_factor=params["growth_factor"])
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
    depths, c2 = params["depths"], params["c2"]
    models = _rank_models(depths, c2, params["seed"], params["scale"],
                          params["T"])
    swept = sde_estimate_sweep(models)
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
    depth, T = params["depth"], params["T"]
    model = _rank_models([depth], "deficient", params["seed"],
                         params["scale"], T)[0]
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


def _travel_time(lo, hi):
    """T* = 2 max(lo, 1 - hi): a round trip from the farthest endpoint."""
    return 2.0 * max(lo, 1.0 - hi)


# Horizons T with WAVE_AUTO_BAND[0] < T/T* < WAVE_AUTO_BAND[1] sit too
# close to the threshold for a finite mode sweep to show either regime:
# with modes 8..64 and 32..256 on (0.4, 0.6), (0.2, 0.5) and (0.1, 0.3),
# expect=auto fails somewhere in 0.95..1.02 T* and passes at 0.9 and
# 1.05 T*.
WAVE_AUTO_BAND = (0.9, 1.05)

# The band and the travel time T* were measured at a = 0; a potential
# a > 0 slows the low modes (group velocity k pi / omega_k < 1), so the
# threshold drifts past the band.  With modes 8..64 and 8..32 on
# (0.4, 0.6), expect=auto passes at 0.9 and 1.05 T* up to a = 12 (and
# at 0.5..3 T* outside the band), fails at 1.05 T* for a = 14..18 and
# at both edges for a = 20; (0.2, 0.5) and (0.1, 0.3) pass up to a = 20,
# and a potential down to -9 passes everywhere.
WAVE_AUTO_MAX_POTENTIAL = 12.0

# Outside the band, expect=auto still needs a sweep fine enough to show
# the regime: on those three intervals, sweeps that start at
# WAVE_AUTO_MIN_MODES or more modes and at least double per step pass at
# every T/T* from 0.5 to 3 outside the band, while (4, 8, 16),
# (7, 14, 28), (8, 12, 16) and (8, 10, 32) fail somewhere in 0.7..1.1.
WAVE_AUTO_MIN_MODES = 8


def _expected_wave_regime(lo, hi, T):
    """Travel-time rule of thumb for the expected sweep regime.

    A disturbance must reach the observed subinterval within the time
    window, so boundedness is expected once T covers a round trip from
    the farthest endpoint: T >= 2 * max(lo, 1 - hi).  This is only used
    to pick which criteria to check when ``expect`` is ``auto``.
    """
    return "bounded" if T >= _travel_time(lo, hi) else "growing"


def _run_wave_obs(params):
    modes, lo, hi = params["modes"], params["x_lo"], params["x_hi"]
    T, a, expect = params["T"], params["a"], params["expect"]
    _need(lo < hi, "need x_lo < x_hi")
    t_star = _travel_time(lo, hi)
    band = WAVE_AUTO_BAND[0] * t_star, WAVE_AUTO_BAND[1] * t_star
    _need(expect != "auto" or not band[0] < T < band[1],
          "T = %g lies in (%g, %g), within (%g, %g) x the travel time "
          "T* = %g, where neither regime shows at finite modes; with "
          "expect=auto choose T outside that band, or set expect=bounded "
          "or expect=growing" % ((T,) + band + WAVE_AUTO_BAND + (t_star,)))
    _need(expect != "auto"
          or (modes[0] >= WAVE_AUTO_MIN_MODES
              and all(m2 >= 2 * m1 for m1, m2 in zip(modes, modes[1:]))),
          "modes %s are too coarse for expect=auto: start at %d or more "
          "modes and at least double per step, or set expect=bounded or "
          "expect=growing" % (",".join(map(str, modes)), WAVE_AUTO_MIN_MODES))

    _need(expect != "auto" or a <= WAVE_AUTO_MAX_POTENTIAL,
          "potential a = %g exceeds %g, beyond which the travel time T* "
          "no longer predicts the regime at finite modes; with "
          "expect=auto use a <= %g, or set expect=bounded or "
          "expect=growing" % (a, WAVE_AUTO_MAX_POTENTIAL,
                              WAVE_AUTO_MAX_POTENTIAL))

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


# The upper bounds of the size parameters (dim, samples, levels, modes)
# are the largest values of doubling ladders that pass in one cold
# process within 60 s on a 2-core machine with one BLAS thread and no
# more than half of its 7 GB; CHANGES.md records the ladders.
_SCHEDULE = {"eps0": Param("float", 0.1, "(0, 1)"),
             "steps": Param("int", 15, "[2, 200]"),
             "seed": Param("int", 7, "[0, inf)")}
_ELLIPTIC = {"levels": Param("ints", (15, 31, 63, 127), "[1, 2097151]",
                             min_len=3),
             "a": Param("float", 1.0, "(0, inf)"),
             "c": Param("float", 0.0, "(-inf, inf)"),
             "growth_factor": Param("float", 2.0, "(1, inf)")}
_TREE = {"seed": Param("int", 42, "[0, inf)"),
         "scale": Param("float", 0.5, "(0, 1)"),
         "T": Param("float", 1.0, "(0, inf)")}

EXPERIMENTS = {
    "l2-fritz-john": {
        "describe": "degenerate sequence-space problem: abnormal multiplier "
                    "(z0 ~ 0) along span{(1,1,0,...)}",
        "params": dict(_SCHEDULE, dim=Param("int", 6, "[4, 2000]"),
                       samples=Param("int", 1000, "[1, 1024000]")),
        "runner": _run_l2_fritz_john,
    },
    "lq-endpoint": {
        "describe": "endpoint-constrained LQ control: extracted pair vs "
                    "dense KKT solve and adjoint stationarity",
        "params": dict(_SCHEDULE, steps=_SCHEDULE["steps"].with_default(23),
                       mesh=Param("int", 50, "[2, 2000]"),
                       T=Param("float", 1.0, "(0, inf)")),
        "runner": _run_lq_endpoint,
    },
    "elliptic-l2": {
        "describe": "1-D elliptic operator between L2 grams: estimate "
                    "constant grows like 4(N+1)^2",
        "params": _ELLIPTIC,
        "runner": _run_elliptic_l2,
    },
    "elliptic-h1": {
        "describe": "1-D elliptic operator between H1_0 and H-1 grams: "
                    "estimate constant stays at 1",
        "params": _ELLIPTIC,
        "runner": _run_elliptic_h1,
    },
    "sde-rank": {
        "describe": "tree-SDE estimate constants across depths: bounded for "
                    "full-rank C2, kernel inflation for deficient C2",
        "params": dict(depths=Param("ints", (4, 5, 6, 7, 8), "[1, 14]",
                                    min_len=3),
                       c2=Param("str", "identity", ("identity", "deficient")),
                       **_TREE),
        "runner": _run_sde_rank,
    },
    "sde-witness": {
        "describe": "terminal-energy witness of diffusion rank deficiency: "
                    "k*lhs bounded while 1/lhs grows with k",
        "params": dict(depth=Param("int", 8, "[2, 14]"), **_TREE),
        "runner": _run_sde_witness,
    },
    "wave-obs": {
        "describe": "string observability from a subinterval: bounded "
                    "constants for large T, growth below travel time",
        "params": {"modes": Param("ints", (8, 16, 32, 64), "[1, 4096]",
                                  min_len=3),
                   "x_lo": Param("float", 0.4, "[0, 1]"),
                   "x_hi": Param("float", 0.6, "[0, 1]"),
                   "T": Param("float", 3.0, "(0, inf)"),
                   "a": Param("float", 0.0, "(-inf, inf)"),
                   "expect": Param("str", "auto",
                                   ("auto", "bounded", "growing"))},
        "runner": _run_wave_obs,
    },
}


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
        Parameter overrides, as text or typed values; each key must be
        declared in the experiment's ``params`` (see ``validate``).

    Returns
    -------
    RunReport
        Inputs echo, results, per-criterion pass/fail, wall clock.

    Raises
    ------
    ValueError
        For an unknown name, or a parameter that ``validate`` refuses
        (unknown, not of its kind, or out of its range); raised before
        any model is built.
    """
    if name not in EXPERIMENTS:
        raise ValueError("unknown experiment %r (known: %s)"
                         % (name, ", ".join(EXPERIMENTS)))
    entry = EXPERIMENTS[name]
    params = validate(entry["params"], overrides)
    t0 = time.perf_counter()
    results, criteria, tables = entry["runner"](params)
    wall = time.perf_counter() - t0
    return RunReport(name, params, results, criteria, tables, wall)
