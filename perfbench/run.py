"""fcopt benchmark: three workloads, end-to-end metrics, a traced layer split.

usage (from the repository root):

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

WORKLOAD is cli-cold, spectral-sweep or penalty-schedule (see
perfbench/README.md).  Each run is a closed loop with one caller over
operations built from the seed.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer split of the same work and the
tracing overhead; ``all`` runs every workload both ways.  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}.  The exit
code is 0 when every check held, 1 when one failed, and 2 when the
benchmark cannot run (for instance, no fcopt under ./src).

The run measures the checkout it sits in: ``src/`` goes first on the
import path and the run stops if ``fcopt`` resolves anywhere else.
"""

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
MIN_OPS = 11          # op_tail_s needs a percentile with 10 samples beyond
SETUP_PROBES = 2      # fresh processes that repeat the set-up
CLI_SETUPS = 3        # cold `fcopt --version` calls timed as cli-cold set-up
BLAS_THREADS = 1      # at most nproc; see _pin_blas_threads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_blas_threads():
    """Run BLAS on one thread, in this process and its children.

    Must run before numpy loads.  On the 2-core reference machine, two
    BLAS threads made penalty-schedule's ops_per_s spread 18% across
    five runs of identical inputs, one thread 3%.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _die(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def _import_checkout_fcopt():
    sys.path.insert(0, SRC)
    try:
        import fcopt
    except ImportError as exc:
        _die("cannot import fcopt from %s: %s" % (SRC, exc))
    where = os.path.realpath(fcopt.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        _die("fcopt resolves to %s, outside this checkout's src/" % where)


class Context:
    """Paths and state shared by the operations of one run."""

    def __init__(self, out_dir):
        self.root = ROOT
        self.out_dir = out_dir
        pythonpath = os.environ.get("PYTHONPATH")
        self.child_env = dict(os.environ, PYTHONPATH=SRC + (
            os.pathsep + pythonpath if pythonpath else ""))
        self.import_samples = []


# ----------------------------------------------------------------- set-up


def _in_process_setup(workload):
    """Import the workload's modules and warm up; returns seconds."""
    t0 = time.perf_counter()
    for name in workload.modules:
        importlib.import_module(name)
    workload.warm_up()
    return time.perf_counter() - t0


def _run_probe(workload_name, importtime):
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        os.path.abspath(__file__), "--probe", workload_name]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        _die("set-up probe failed: %s" % proc.stderr.strip()[-500:])
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"], proc.stderr


def _setup(ctx, workload, trace):
    """Set-up times (seconds) of this run; import samples when tracing."""
    from tracer import parse_importtime
    if not workload.in_process:
        times = []
        for _ in range(CLI_SETUPS):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "fcopt.cli", "--version"], cwd=ROOT,
                env=ctx.child_env, capture_output=True, text=True,
                timeout=170)
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                _die("fcopt --version failed: %s" % proc.stderr.strip())
        return times
    times = [_in_process_setup(workload)]
    for _ in range(SETUP_PROBES):
        seconds, stderr = _run_probe(workload.name, trace)
        times.append(seconds)
        if trace:
            ctx.import_samples.append(parse_importtime(stderr))
    return times


# ------------------------------------------------------------------- loop


class Sample:
    def __init__(self, op, seconds, outcome, detail):
        self.label = op.label
        self.kind = op.kind
        self.seconds = seconds
        self.outcome = outcome
        self.detail = detail


def _run_op(op, run):
    t0 = time.perf_counter()
    try:
        result, error = run(), None
    except Exception as exc:  # classified by the op's check
        result, error = None, exc
    seconds = time.perf_counter() - t0
    outcome, detail = op.check(result, error)
    return Sample(op, seconds, outcome, detail)


def _measure(workload, rounds, seconds):
    """Closed loop over whole rounds; returns the samples."""
    samples = []
    for _ in range(workload.rounds_per_run(seconds)):
        samples += [_run_op(op, op.run) for op in next(rounds)]
    while len(samples) < MIN_OPS:
        samples += [_run_op(op, op.run) for op in next(rounds)]
    return samples


def _measure_traced(workload, rounds, seconds, tracer):
    """Whole rounds, each run untraced and then traced on the same inputs.

    The run does half as many rounds as an untraced one, as it runs each
    round twice.
    """
    plain, traced = [], []
    n_rounds = workload.rounds_per_run(seconds / 2.0)
    for _ in range(n_rounds):
        ops = next(rounds)
        plain += [_run_op(op, op.run) for op in ops]
        if workload.in_process:
            tracer.install()
            try:
                traced += [_run_op(op, op.run) for op in ops]
            finally:
                tracer.uninstall()
        else:
            traced += [_run_op(op, lambda op=op: op.run_traced(tracer))
                       for op in ops]
    return plain, traced, n_rounds


# ---------------------------------------------------------------- metrics


def tail_percentile(values):
    """(percentile, value, samples beyond) for the highest integer
    percentile that leaves at least 10 samples above it (nearest rank)."""
    xs = sorted(values)
    n = len(xs)
    q = 100 * (n - 10) // n
    rank = math.ceil(q * n / 100)
    return q, xs[rank - 1], n - rank


def _peak_rss_mb(in_process):
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def _end_to_end(samples, setup_times, in_process):
    times = [s.seconds for s in samples]
    ok = sum(s.outcome == "ok" for s in samples)
    q, tail, beyond = tail_percentile(times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail, "s"),
        "ok_fraction": (ok / len(times), "fraction"),
        "peak_rss_mb": (_peak_rss_mb(in_process), "MB"),
    }
    notes = {
        "setup_s": "median of %d set-ups" % len(setup_times),
        "ops_per_s": "%d ops in %.3f s of operation time"
                     % (len(times), sum(times)),
        "op_p50_s": "median of %d ops" % len(times),
        "op_tail_s": "p%d of %d ops, %d beyond" % (q, len(times), beyond),
        "ok_fraction": "%d completed and correct / %d attempted"
                       % (ok, len(times)),
        "peak_rss_mb": "high-water RSS of %s" % (
            "this process" if in_process else "the child processes"),
    }
    return metrics, notes


def _median_imports(samples):
    modules = {m for s in samples for m in s}
    return {m: statistics.median(s.get(m, 0.0) for s in samples)
            for m in modules}


# ----------------------------------------------------------------- report


def _fingerprint(seed, workload):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git_dir = os.path.join(ROOT, ".git")
    commit = None
    if os.path.isdir(git_dir):
        proc = subprocess.run(["git", "--git-dir", git_dir, "rev-parse",
                               "HEAD"], capture_output=True, text=True,
                              timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(), "nproc": NPROC,
        "git_commit": commit,
    }


def _blas_threads():
    """Threads OpenBLAS reports, or the configured count if it cannot."""
    import ctypes
    import glob
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__),
                                  os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _print_metrics(metrics, notes):
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print("  %-34s %14.6g %-8s %s" % (name, value, unit, note))


def _print_outcomes(samples):
    by_label = {}
    for s in samples:
        counts = by_label.setdefault(s.kind, [0, 0])
        counts[0] += 1
        counts[1] += s.outcome != "ok"
    bad = {k: c for k, c in by_label.items() if c[1]}
    if bad:
        print("  not ok by operation (not ok / attempted):")
        for kind, (n, nbad) in sorted(bad.items()):
            print("    %-40s %d/%d" % (kind, nbad, n))
    for s in samples:
        if s.outcome == "wrong":
            print("  WRONG %s: %s" % (s.label, s.detail))


def _emit(correct, samples, metrics):
    result = {
        "correct": bool(correct),
        "attempted": len(samples),
        "failed": sum(s.outcome != "ok" for s in samples),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    sys.stdout.flush()


# ------------------------------------------------------------------- main


def run_workload(name, seed, seconds, trace):
    from workloads import WORKLOADS
    from tracer import Tracer, layer_metrics, self_check

    workload = WORKLOADS[name]
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="run-",
                               dir=os.path.join(ROOT, ".perfbench_out"))
    ctx = Context(out_dir)
    try:
        setup_times = _setup(ctx, workload, trace)
        fingerprint = _fingerprint(seed, name)
        print("env " + json.dumps(fingerprint, sort_keys=True))
        rounds = workload.rounds(seed, ctx)
        if not trace:
            samples = _measure(workload, rounds, seconds)
            metrics, notes = _end_to_end(samples, setup_times,
                                         workload.in_process)
            missing = []
        else:
            tracer = Tracer()
            plain, traced, n_rounds = _measure_traced(workload, rounds,
                                                      seconds, tracer)
            samples = plain + traced
            imports = _median_imports(ctx.import_samples)
            metrics = layer_metrics(tracer, imports, n_rounds)
            overhead = (sum(s.seconds for s in traced)
                        / sum(s.seconds for s in plain))
            metrics["trace.overhead"] = (overhead, "ratio")
            notes = {"trace.overhead":
                     "traced / untraced operation time, same %d ops"
                     % len(plain)}
            missing = self_check(tracer, imports, name)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_out"))
        except OSError:
            pass

    wrong = [s for s in samples if s.outcome == "wrong"]
    correct = not wrong and not missing
    print("workload %s  seed %d  trace %d  ops %d" % (name, seed, trace,
                                                       len(samples)))
    if trace:
        print("  per-layer values are per round of the workload; import "
              "times per process")
    _print_metrics(metrics, notes)
    _print_outcomes(samples)
    if missing:
        print("  SELF-CHECK: no calls recorded for %s" % ", ".join(missing))
    _emit(correct, samples, metrics)
    return 0 if correct else 1


def run_all(seed, seconds, trace):
    status = 0
    from workloads import WORKLOADS
    for name in WORKLOADS:
        for t in ((0, 1) if trace is None else (trace,)):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(t)], cwd=ROOT)
            status = max(status, proc.returncode)
    return status


def probe(name):
    from workloads import WORKLOADS
    seconds = _in_process_setup(WORKLOADS[name])
    print(json.dumps({"setup_s": seconds}))
    return 0


def main(argv=None):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--probe", choices=list(WORKLOADS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _pin_blas_threads()
    warnings.simplefilter("ignore", RuntimeWarning)
    _import_checkout_fcopt()
    if args.probe:
        return probe(args.probe)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds,
                        args.trace or 0)


if __name__ == "__main__":
    sys.exit(main())
