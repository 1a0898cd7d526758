"""Command line front end.

Four subcommands::

    fcopt solve    --problem <name|config> --out trace.json
    fcopt diagnose --family <diag|elliptic-l2|elliptic-h1|file.npz> --out r.json
    fcopt example  <experiment-name> [overrides] --out report.json
    fcopt list

``solve`` runs the penalty schedule on a registered problem and writes
the full trace (records, multiplier pair, residual checks) as JSON plus
a CSV companion with columns eps, a, b_norm, dist, gap.  ``example``
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
from .config import load_config, coerce_value, merge_params
from .spaces import SpaceDescriptor, LinearMap
from .penalty import (PenaltyConfig, default_schedule, extract_multiplier,
                      fritz_john_residual, kkt_check,
                      DegeneratePenaltyError, InnerConvergenceError)
from .problems import (scalar_problem, l2_example, equality_qp,
                       lq_endpoint_problem)
from .diagnostics import OperatorFamily, codim_growth_verdict
from .elliptic import elliptic_sweep
from .experiments import (EXPERIMENTS, RunReport, run_experiment,
                          list_experiments, write_report, _jsonable,
                          _trace_table, _write_document)

__all__ = ["main"]

TRACE_SCHEMA = "fcopt-trace/1"

SOLVE_PROBLEMS = {
    "scalar": lambda params: scalar_problem(),
    "l2-fritz-john": lambda params: l2_example(int(params["dim"])),
    "equality-qp": lambda params: equality_qp(int(params["dim"]),
                                              int(params["n_constraints"]),
                                              int(params["seed"])),
    "lq-endpoint": lambda params: lq_endpoint_problem(int(params["mesh"])),
}

SOLVE_DEFAULTS = {"eps0": 0.1, "steps": 15, "seed": 7, "dim": 6, "mesh": 50,
                  "n_constraints": 3, "samples": 256}


# ------------------------------------------------------------------- solve


def _cmd_solve(args):
    overrides = {}
    name = args.problem
    if os.path.isfile(name):
        file_params = load_config(name)
        if "problem" not in file_params:
            raise ValueError("config %s does not set 'problem'" % name)
        name = str(file_params.pop("problem"))
        overrides.update(file_params)
    if name not in SOLVE_PROBLEMS:
        raise ValueError("unknown problem %r (known: %s)"
                         % (name, ", ".join(sorted(SOLVE_PROBLEMS))))
    for key in ("eps0", "steps", "seed"):
        val = getattr(args, key)
        if val is not None:
            overrides[key] = val
    params = merge_params(SOLVE_DEFAULTS, overrides)
    eps0 = float(params["eps0"])
    steps = int(params["steps"])
    seed = int(params["seed"])
    if not 0 < eps0 < 1.0:
        raise ValueError("eps0 must lie in (0, 1)")
    if not 2 <= steps <= 200:
        raise ValueError("steps must lie in [2, 200]")

    p = SOLVE_PROBLEMS[name](params)
    cfg = PenaltyConfig(seed=seed)
    pair, trace = extract_multiplier(p, p.u_bar, default_schedule(eps0, steps),
                                     cfg)
    kk = kkt_check(p, p.u_bar, pair, cfg)
    fj = fritz_john_residual(p, p.u_bar, pair,
                             p.variations(p.u_bar, int(params["samples"]),
                                          seed=seed))
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
                 "degenerate": pair.degenerate},
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
    return 0


# ---------------------------------------------------------------- diagnose


def _diag_family(levels):
    """diag(1/k) truncations on identity-gram spaces."""
    pairs = []
    for n in levels:
        s = SpaceDescriptor("X", n)
        mat = np.diag(1.0 / np.arange(1, n + 1))
        pairs.append((n, LinearMap(mat, s, s)))
    return OperatorFamily(pairs, "diag(1/k) truncations")


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
    return OperatorFamily(pairs, os.path.basename(path))


def _cmd_diagnose(args):
    levels = [int(v) for v in str(args.levels).split(",") if v.strip()]
    if len(levels) < 3:
        raise ValueError("need at least 3 levels, got %r" % args.levels)
    factor = float(args.growth_factor)

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


def _example_overrides(args, defaults):
    """Map command-line flags onto the experiment's parameter names."""
    over = {}
    if args.depth is not None:
        key = "depths" if "depths" in defaults else "depth"
        over[key] = coerce_value(args.depth)
    if args.modes is not None:
        over["modes"] = coerce_value(args.modes)
    if args.mesh is not None:
        key = "levels" if "levels" in defaults else "mesh"
        over[key] = coerce_value(args.mesh)
    for key in ("T", "eps0", "steps", "seed", "c2", "expect"):
        val = getattr(args, key)
        if val is not None:
            over[key] = val
    for item in args.set or []:
        if "=" not in item:
            raise ValueError("--set expects key=value, got %r" % item)
        key, _, val = item.partition("=")
        over[key.strip()] = coerce_value(val)
    return over


def _cmd_example(args):
    name = args.name
    if name not in EXPERIMENTS:
        raise ValueError("unknown experiment %r (known: %s)"
                         % (name, ", ".join(EXPERIMENTS)))
    defaults = EXPERIMENTS[name]["defaults"]
    file_params = load_config(args.config) if args.config else {}
    overrides = merge_params(defaults, file_params,
                             _example_overrides(args, defaults))
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


def _cmd_list(args):
    print("registered experiments (fcopt example <name>):")
    for name, desc in list_experiments():
        print("  %-14s %s" % (name, desc))
    print("registered problems (fcopt solve --problem <name>):")
    for name in sorted(SOLVE_PROBLEMS):
        print("  %s" % name)
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
    ps.add_argument("--eps0", type=float, default=None,
                    help="initial schedule value in (0, 1) (default 0.1)")
    ps.add_argument("--steps", type=int, default=None,
                    help="number of schedule values, halved successively "
                         "(default 15)")
    ps.add_argument("--seed", type=int, default=None,
                    help="generator seed for sampled checks (default 7)")
    ps.add_argument("--out", required=True, help="trace JSON output path")

    pd = sub.add_parser("diagnose", help="estimate-constant growth verdict "
                                         "for an operator family")
    pd.add_argument("--family", required=True,
                    help="diag, elliptic-l2, elliptic-h1, or an .npz path")
    pd.add_argument("--levels", default="8,16,32,64",
                    help="comma-separated level sizes (default 8,16,32,64)")
    pd.add_argument("--growth-factor", type=float, default=2.0,
                    dest="growth_factor",
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
    pe.add_argument("--T", type=float, default=None, help="time horizon")
    pe.add_argument("--eps0", type=float, default=None,
                    help="initial schedule value in (0, 1)")
    pe.add_argument("--steps", type=int, default=None,
                    help="number of schedule values")
    pe.add_argument("--seed", type=int, default=None, help="generator seed")
    pe.add_argument("--c2", default=None,
                    help="diffusion control rank: identity or deficient")
    pe.add_argument("--expect", default=None,
                    help="expected regime: auto, bounded, or growing")
    pe.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="generic parameter override (repeatable)")
    pe.add_argument("--config", default=None,
                    help="key=value config file with parameter overrides")
    pe.add_argument("--out", default=None, help="report JSON output path")

    sub.add_parser("list", help="list registered experiments and problems")
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
