"""Command line front end.

Four subcommands::

    fcopt solve    --problem <name|config> --out trace.json
    fcopt diagnose --family <diag|elliptic-l2|elliptic-h1|file.npz> --out r.json
    fcopt example  <experiment-name> [overrides] --out report.json
    fcopt list

``solve`` runs the penalty schedule on a registered problem, through
the schedule runner of the penalty experiments and with the parameter
declarations they use (a parameter not of its kind or out of range
exits 2 before the problem is built), and writes
the full trace (records, multiplier pair, residual checks) as JSON plus
a CSV companion with columns eps, a, b_norm, dist, gap; it exits 1 when
a record's pair is not normalized (|a^2 + |b|^2 - 1| > 1e-9) or the
final pair is not converged (a Cauchy gap above 1e-2).  ``example``
runs a registered experiment and exits 1 when any of its criteria fail.
Exit codes: 0 success, 1 a criterion or the computation failed, 2 bad
usage (unknown name, malformed parameter, unreadable input).
"""

import argparse
import os
import sys
import time

import numpy as np

from . import __version__
from .config import load_config
from .spaces import SpaceDescriptor, LinearMap
from .penalty import (fritz_john_residual, kkt_check,
                      DegeneratePenaltyError, InnerConvergenceError)
from .problems import (scalar_problem, l2_example, equality_qp,
                       lq_endpoint_problem)
from .diagnostics import OperatorFamily, codim_growth_verdict
from .elliptic import elliptic_sweep
from .experiments import (EXPERIMENTS, Param, RunReport, run_experiment,
                          list_experiments, validate, write_report,
                          _jsonable, _normalization_deviation, _run_schedule,
                          _NORM_TOL, _trace_table, _write_document)

__all__ = ["main"]

TRACE_SCHEMA = "fcopt-trace/1"

# each problem's builder and the parameters it takes, in order
SOLVE_PROBLEMS = {
    "scalar": (scalar_problem, ()),
    "l2-fritz-john": (l2_example, ("dim",)),
    "equality-qp": (equality_qp, ("dim", "n_constraints", "seed")),
    "lq-endpoint": (lq_endpoint_problem, ("mesh",)),
}

# the declarations of the penalty experiments, with solve's defaults, and
# equality-qp's n_constraints
_L2 = EXPERIMENTS["l2-fritz-john"]["params"]
SOLVE_PARAMS = dict(_L2, samples=_L2["samples"].with_default(256),
                    mesh=EXPERIMENTS["lq-endpoint"]["params"]["mesh"],
                    n_constraints=Param("int", 3, "[1, 64]"))
_SCHEDULE_KEYS = ("eps0", "steps", "seed", "samples")

DIAGNOSE_PARAMS = {"levels": Param("ints", (8, 16, 32, 64), "[1, 4096]",
                                   min_len=3),
                   "growth_factor": Param("float", 2.0, "(1, inf)")}


# ------------------------------------------------------------------- solve


def _cmd_solve(args):
    overrides = {}
    name = args.problem
    if os.path.isfile(name):
        overrides = load_config(name)
        if "problem" not in overrides:
            raise ValueError("config %s does not set 'problem'" % name)
        name = overrides.pop("problem")
    if name not in SOLVE_PROBLEMS:
        raise ValueError("unknown problem %r (known: %s)"
                         % (name, ", ".join(sorted(SOLVE_PROBLEMS))))
    for key in ("eps0", "steps", "seed"):
        val = getattr(args, key)
        if val is not None:
            overrides[key] = val
    params = validate(SOLVE_PARAMS, overrides)
    build, keys = SOLVE_PROBLEMS[name]
    p = build(*(params[key] for key in keys))
    pair, trace = _run_schedule(p, params)
    kk = kkt_check(p, p.u_bar, pair)
    fj = fritz_john_residual(p, p.u_bar, pair,
                             p.variations(p.u_bar, params["samples"],
                                          seed=params["seed"]))
    records = []
    for r in trace:
        records.append({
            "eps": r.eps, "phi": r.phi, "a": r.a, "b_norm": r.b_norm(),
            "dist": r.dist_val, "gap": r.f0_gap,
            "inner_iters": r.inner_iters, "grad_norm": r.grad_norm,
            "ekeland_residual": r.ekeland_residual,
            "u": np.asarray(r.u_eps.coords), "b": np.asarray(r.b.coords),
        })
    z_tilde = kk.get("z_tilde")
    payload = {
        "schema": TRACE_SCHEMA,
        "version": __version__,
        "problem": name,
        "inputs": _jsonable(params),
        "pair": {"z0": pair.z0, "z": np.asarray(pair.z.coords),
                 "cauchy_gap": pair.cauchy_gap, "converged": pair.converged,
                 "degenerate": pair.degenerate,
                 "extrapolated": pair.extrapolated},
        "kkt": {"normal": kk["normal"],
                "surjectivity_sigma": kk["surjectivity_sigma"],
                "z_tilde": None if z_tilde is None
                else np.asarray(z_tilde.coords)},
        "residuals": {"fritz_john_min": fj},
        "records": records,
    }
    _write_document(_jsonable(payload), {"trace": _trace_table(trace)},
                    args.out)
    print("solve %s: %d records, z0=%.6g, |z|=%.6g -> %s"
          % (name, len(trace), pair.z0, pair.z_norm(), args.out))
    # the normalization criterion of the experiments: a pair taken below
    # the resolution of Phi_eps can lose its norm, and is no answer
    norm_dev = _normalization_deviation(trace)
    if norm_dev > _NORM_TOL:
        print("error: pair not normalized: max |a^2+|b|^2-1| = %.3e > %.0e"
              % (norm_dev, _NORM_TOL), file=sys.stderr)
        return 1
    # the last pair of a schedule whose final records still move is not
    # the limit pair the run reports
    if not pair.converged:
        print("error: pair not converged: Cauchy gap %.3e over the final "
              "records" % pair.cauchy_gap, file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- diagnose


def _diag_family(levels):
    """diag(1/k) truncations on identity-gram spaces."""
    pairs = []
    for n in levels:
        s = SpaceDescriptor("X", n)
        mat = np.diag(1.0 / np.arange(1, n + 1))
        pairs.append((n, LinearMap(mat, s, s)))
    return OperatorFamily(pairs)


def _custom_family(path):
    """Load an operator family from an .npz of square matrices.

    Array names must parse as integer level sizes; each array is used as
    a map between identity-gram spaces of matching dimension.
    """
    try:
        data = np.load(path)
    except Exception as exc:
        raise ValueError("cannot read operator file %s: %s" % (path, exc))
    pairs = []
    for key in data.files:
        try:
            n = int(key)
        except ValueError:
            raise ValueError("array name %r is not an integer level" % key)
        mat = np.asarray(data[key], dtype=float)
        if mat.ndim != 2:
            raise ValueError("array %r must be a matrix" % key)
        dom = SpaceDescriptor("V", mat.shape[1])
        cod = SpaceDescriptor("X", mat.shape[0])
        pairs.append((n, LinearMap(mat, dom, cod)))
    pairs.sort(key=lambda t: t[0])
    return OperatorFamily(pairs)


def _cmd_diagnose(args):
    params = validate(DIAGNOSE_PARAMS, {"levels": args.levels,
                                        "growth_factor": args.growth_factor})
    levels, factor = params["levels"], params["growth_factor"]

    t0 = time.perf_counter()
    family = args.family
    if family == "diag":
        swept = codim_growth_verdict(_diag_family(levels),
                                     growth_factor=factor)
        label = "diag"
    elif family in ("elliptic-l2", "elliptic-h1"):
        tag = "L2L2" if family == "elliptic-l2" else "H1H-1"
        swept = elliptic_sweep(levels, tag=tag, growth_factor=factor)
        label = family
    elif os.path.isfile(family):
        swept = codim_growth_verdict(_custom_family(family),
                                     growth_factor=factor)
        label = os.path.basename(family)
    else:
        raise ValueError(
            "unknown family %r (use diag, elliptic-l2, elliptic-h1, "
            "or a .npz file path)" % family)

    rows = [[n, rep.constant, rep.kernel_dim] for n, rep in swept.levels]
    report = RunReport(
        "diagnose",
        inputs={"family": label, "levels": levels, "growth_factor": factor},
        results={"constants": swept.constants,
                 "kernel_dims": swept.kernel_dims,
                 "verdict": swept.verdict, "note": swept.note},
        criteria=[],
        tables={"sweep": (("n", "constant", "kernel_dim"), rows)},
        wall_clock_s=time.perf_counter() - t0)
    write_report(report, args.out)
    print("diagnose %s: verdict=%s, constants=%s"
          % (label, swept.verdict,
             ["%.4g" % c for c in swept.constants]))
    return 0


# ----------------------------------------------------------------- example


def _example_overrides(args, params):
    """Map command-line flags onto the experiment's parameter names."""
    over = {}
    if args.depth is not None:
        over["depths" if "depths" in params else "depth"] = args.depth
    if args.mesh is not None:
        over["levels" if "levels" in params else "mesh"] = args.mesh
    for key in ("modes", "T", "eps0", "steps", "seed", "c2", "expect"):
        val = getattr(args, key)
        if val is not None:
            over[key] = val
    for item in args.set or []:
        if "=" not in item:
            raise ValueError("--set expects key=value, got %r" % item)
        key, _, val = item.partition("=")
        over[key.strip()] = val
    return over


def _cmd_example(args):
    name = args.name
    if name not in EXPERIMENTS:
        raise ValueError("unknown experiment %r (known: %s)"
                         % (name, ", ".join(EXPERIMENTS)))
    overrides = load_config(args.config) if args.config else {}
    overrides.update(_example_overrides(args, EXPERIMENTS[name]["params"]))
    report = run_experiment(name, overrides)
    if args.out:
        write_report(report, args.out)
    print("experiment %s (v%s, %.2fs)" % (report.experiment, report.version,
                                          report.wall_clock_s))
    for c in report.criteria:
        print("  %s %-22s value=%s  [%s]"
              % ("PASS" if c["passed"] else "FAIL", c["name"],
                 c["value"], c["threshold"]))
    print("passed" if report.passed else "FAILED")
    return 0 if report.passed else 1


# -------------------------------------------------------------------- list


def _print_params(params):
    for key, p in params.items():
        print("      %-14s %-8s %-16s %s" % ((key,) + p.describe()))


def _cmd_list(args):
    print("registered experiments (fcopt example <name>):")
    for name, desc in list_experiments():
        print("  %-14s %s" % (name, desc))
        _print_params(EXPERIMENTS[name]["params"])
    print("registered problems (fcopt solve --problem <name>):")
    for name in sorted(SOLVE_PROBLEMS):
        print("  %s" % name)
        keys = dict.fromkeys(_SCHEDULE_KEYS + SOLVE_PROBLEMS[name][1])
        _print_params({key: SOLVE_PARAMS[key] for key in keys})
    return 0


# -------------------------------------------------------------------- main


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fcopt",
        description="multiplier extraction and estimate-constant "
                    "diagnostics on finite discretizations")
    parser.add_argument("--version", action="version",
                        version="fcopt %s" % __version__)
    sub = parser.add_subparsers(dest="command")

    ps = sub.add_parser("solve", help="run the penalty schedule on a problem")
    ps.add_argument("--problem", required=True,
                    help="problem name or key=value config file")
    ps.add_argument("--eps0", default=None,
                    help="initial schedule value in (0, 1) (default 0.1)")
    ps.add_argument("--steps", default=None,
                    help="largest number of schedule values, halved "
                         "successively (default 15)")
    ps.add_argument("--seed", default=None,
                    help="generator seed for sampled checks (default 7)")
    ps.add_argument("--out", required=True, help="trace JSON output path")

    pd = sub.add_parser("diagnose", help="estimate-constant growth verdict "
                                         "for an operator family")
    pd.add_argument("--family", required=True,
                    help="diag, elliptic-l2, elliptic-h1, or an .npz path")
    pd.add_argument("--levels", default=DIAGNOSE_PARAMS["levels"].default,
                    help="comma-separated level sizes (default 8,16,32,64)")
    pd.add_argument("--growth-factor", dest="growth_factor",
                    default=DIAGNOSE_PARAMS["growth_factor"].default,
                    help="ratio treated as growth between levels "
                         "(finite, > 1)")
    pd.add_argument("--out", required=True, help="report JSON output path")

    pe = sub.add_parser("example", help="run a registered experiment")
    pe.add_argument("name", help="experiment name (see 'fcopt list')")
    pe.add_argument("--depth", default=None,
                    help="tree depth (or comma list of depths)")
    pe.add_argument("--modes", default=None,
                    help="comma list of mode counts")
    pe.add_argument("--mesh", default=None,
                    help="mesh size (or comma list of mesh levels)")
    pe.add_argument("--T", default=None, help="time horizon")
    pe.add_argument("--eps0", default=None,
                    help="initial schedule value in (0, 1)")
    pe.add_argument("--steps", default=None,
                    help="largest number of schedule values")
    pe.add_argument("--seed", default=None, help="generator seed")
    pe.add_argument("--c2", default=None,
                    help="diffusion control rank: identity or deficient")
    pe.add_argument("--expect", default=None,
                    help="expected regime: auto, bounded, or growing")
    pe.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="generic parameter override (repeatable)")
    pe.add_argument("--config", default=None,
                    help="key=value config file with parameter overrides")
    pe.add_argument("--out", default=None, help="report JSON output path")

    sub.add_parser("list", help="list registered experiments and problems, "
                                "with their parameters")
    return parser


_DISPATCH = {"solve": _cmd_solve, "diagnose": _cmd_diagnose,
             "example": _cmd_example, "list": _cmd_list}


def main(argv=None):
    """Entry point; returns the process exit code.

    0: success (all criteria passed, outputs written).
    1: the computation ran but a criterion failed or did not converge.
    2: bad usage — unknown name, malformed or out-of-range parameter,
       unreadable config, or invalid flags.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return _DISPATCH[args.command](args)
    except (DegeneratePenaltyError, InnerConvergenceError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
