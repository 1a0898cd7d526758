"""The benchmark's three workloads: their operations, inputs and checks.

Each workload yields rounds: lists of operations built from the workload
seed.  An operation runs the program once and is then checked; its
outcome is one of

* ``OK``: it completed and passed its check;
* ``FAILED``: the program reported the failure itself (an
  ``InnerConvergenceError`` or ``DegeneratePenaltyError``, an experiment
  whose own criteria fail, a CLI exit code 1, a pair flagged as not
  converged);
* ``WRONG``: the program reported success but the check disagrees, or it
  raised something it does not document.  Any ``WRONG`` outcome makes the
  run incorrect.

No module here imports numpy or fcopt at import time, so that the
set-up a workload times includes those imports.
"""

import json
import os
import random
import subprocess
import sys

OK, FAILED, WRONG = "ok", "failed", "wrong"

# Expected failures the program signals itself; anything else is WRONG.
REPORTED_ERRORS = ("InnerConvergenceError", "DegeneratePenaltyError")

PERFBENCH = os.path.dirname(os.path.abspath(__file__))


class Op:
    """One operation: ``run()`` is timed, ``check(result, error)`` is not."""

    def __init__(self, label, run, check, run_traced=None, kind=None):
        self.label = label
        self.kind = kind or label
        self.run = run
        self.check = check
        self.run_traced = run_traced


def _error_outcome(error):
    name = type(error).__name__
    detail = "%s: %s" % (name, error)
    return (FAILED if name in REPORTED_ERRORS else WRONG), detail


# ------------------------------------------------------------ experiments


def _experiment_op(label, name, overrides):
    def run():
        from fcopt.experiments import run_experiment
        return run_experiment(name, overrides)

    def check(report, error):
        if error is not None:
            return _error_outcome(error)
        if report.passed:
            return OK, ""
        failing = [c["name"] for c in report.criteria if not c["passed"]]
        return FAILED, "criteria failed: %s" % ", ".join(failing)

    return Op(label, run, check)


# --------------------------------------------------------------- cli-cold

CLI_EXPERIMENTS = ("l2-fritz-john", "lq-endpoint", "elliptic-l2",
                   "elliptic-h1", "sde-rank", "sde-witness", "wave-obs")
CLI_PROBLEMS = ("scalar", "l2-fritz-john", "equality-qp", "lq-endpoint")
CLI_FAMILIES = ("diag", "elliptic-l2", "elliptic-h1")


def _cli_commands():
    cmds = [("list", ["list"])]
    cmds += [("solve " + p, ["solve", "--problem", p]) for p in CLI_PROBLEMS]
    cmds += [("diagnose " + f, ["diagnose", "--family", f])
             for f in CLI_FAMILIES]
    cmds += [("example " + e, ["example", e]) for e in CLI_EXPERIMENTS]
    return cmds


def _check_cli(label, out, proc, error):
    if error is not None:
        return WRONG, "could not run: %s" % error
    rc, stdout, stderr = proc
    if rc == 1 and "Traceback" not in stderr:
        return FAILED, "exit 1: %s" % stderr.strip()[-200:]
    if rc != 0:
        return WRONG, "exit %d: %s" % (rc, stderr.strip()[-200:])
    if out is None:
        missing = [n for n in CLI_EXPERIMENTS + CLI_PROBLEMS
                   if n not in stdout]
        if missing:
            return WRONG, "list omits %s" % ", ".join(missing)
        return OK, ""
    try:
        with open(out) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return WRONG, "report unreadable: %s" % exc
    csv = os.path.splitext(out)[0] + ".csv"
    if not os.path.isfile(csv) or os.path.getsize(csv) == 0:
        return WRONG, "CSV companion missing"
    if label.startswith("solve"):
        if not report.get("records"):
            return WRONG, "trace has no records"
        if report["pair"]["converged"] is not True:
            return FAILED, "pair flagged as not converged"
        return OK, ""
    if report.get("passed") is not True:
        return WRONG, "exit 0 but report not passed"
    return OK, ""


def _cli_op(label, args, ctx):
    out = None
    if args[0] != "list":
        out = os.path.join(ctx.out_dir, label.replace(" ", "_") + ".json")
        args = args + ["--out", out]

    def launch(cmd):
        if out is not None:
            for path in (out, os.path.splitext(out)[0] + ".csv"):
                if os.path.exists(path):
                    os.remove(path)
        proc = subprocess.run(cmd, cwd=ctx.root, env=ctx.child_env,
                              capture_output=True, text=True, timeout=170)
        return proc.returncode, proc.stdout, proc.stderr

    def run():
        return launch([sys.executable, "-m", "fcopt.cli"] + args)

    def run_traced(tracer):
        from tracer import parse_importtime
        stats = os.path.join(ctx.out_dir, "trace-stats.json")
        proc = launch([sys.executable, "-X", "importtime",
                       os.path.join(PERFBENCH, "cli_child.py"), stats]
                      + args)
        with open(stats) as fh:
            tracer.merge(json.load(fh))
        os.remove(stats)
        ctx.import_samples.append(parse_importtime(proc[2]))
        return proc

    def check(proc, error):
        return _check_cli(label, out, proc, error)

    return Op(label, run, check, run_traced)


def _cli_rounds(rng, ctx):
    cmds = _cli_commands()
    while True:
        ops = [_cli_op(label, args, ctx) for label, args in cmds]
        rng.shuffle(ops)
        yield ops


# ---------------------------------------------------------- spectral-sweep

ELLIPTIC_LEVELS = (63, 127, 255, 511)
SDE_DEPTHS = (6, 7, 8, 9, 10)
WAVE_MODES = (32, 64, 128, 256)
FAMILY_LEVELS = (64, 128, 256, 512)


def _random_family(seed):
    """Dense random operators U diag(s) V' with known singular values.

    Half the families keep sigma_min = 1 at every level (verdict
    "bounded"); the other half let sigma_min = 1/n^2 (verdict
    "growing").  Returns the family, the expected constants 1/sigma_min
    and the expected verdict.
    """
    import numpy as np
    from fcopt.diagnostics import OperatorFamily
    from fcopt.spaces import LinearMap, SpaceDescriptor

    rng = np.random.default_rng(seed)
    growing = bool(rng.integers(2))
    pairs, expected = [], []
    for n in FAMILY_LEVELS:
        u = np.linalg.qr(rng.standard_normal((n, n)))[0]
        v = np.linalg.qr(rng.standard_normal((n, n)))[0]
        s = rng.uniform(1.0, 2.0, n)
        s[rng.integers(n)] = 1.0 / n ** 2 if growing else 1.0
        space = SpaceDescriptor("R%d" % n, n)
        pairs.append((n, LinearMap((u * s) @ v.T, space, space)))
        expected.append(1.0 / s.min())
    family = OperatorFamily(pairs, "random dense U diag(s) V'")
    return family, expected, "growing" if growing else "bounded"


def _family_op(seed):
    family, expected, verdict = _random_family(seed)

    def run():
        from fcopt.diagnostics import codim_growth_verdict
        return codim_growth_verdict(family)

    def check(swept, error):
        if error is not None:
            return WRONG, "%s: %s" % (type(error).__name__, error)
        worst = max(abs(c - e) / e for c, e in zip(swept.constants, expected))
        if worst > 1e-8:
            return WRONG, "constant off by %.2e relative" % worst
        if any(k != 0 for k in swept.kernel_dims):
            return WRONG, "kernel dims %s, expected 0" % swept.kernel_dims
        if swept.verdict != verdict:
            return WRONG, "verdict %s, expected %s" % (swept.verdict, verdict)
        return OK, ""

    return Op("codim random %s" % verdict, run, check, kind="codim random")


def _spectral_rounds(rng, ctx):
    while True:
        sde_seed = rng.randrange(10 ** 6)
        ops = [
            _experiment_op("elliptic-l2 N=63..511", "elliptic-l2",
                           {"levels": ELLIPTIC_LEVELS}),
            _experiment_op("elliptic-h1 N=63..511", "elliptic-h1",
                           {"levels": ELLIPTIC_LEVELS}),
            _experiment_op("sde-rank identity d=6..10", "sde-rank",
                           {"depths": SDE_DEPTHS, "c2": "identity",
                            "seed": sde_seed}),
            _experiment_op("sde-rank deficient d=6..10", "sde-rank",
                           {"depths": SDE_DEPTHS, "c2": "deficient",
                            "seed": sde_seed}),
            _experiment_op("wave-obs T=3 M=32..256", "wave-obs",
                           {"modes": WAVE_MODES, "T": 3.0}),
            _experiment_op("wave-obs T=0.2 M=32..256", "wave-obs",
                           {"modes": WAVE_MODES, "T": 0.2}),
            _family_op(rng.randrange(10 ** 6)),
        ]
        rng.shuffle(ops)
        yield ops


# -------------------------------------------------------- penalty-schedule

QP_DIMS = range(4, 15)
QP_CONSTRAINTS = range(1, 4)
QP_PER_SHAPE = 4
QP_MASTER_SEED = 0
LQ_MESHES = (100, 200, 400)
L2_DIMS = (6, 40)


def _qp_op(dim, k, seed):
    def run():
        from fcopt.penalty import (PenaltyConfig, default_schedule,
                                   extract_multiplier, kkt_check)
        from fcopt.problems import equality_qp
        p = equality_qp(dim, k, seed)
        cfg = PenaltyConfig()
        pair, _ = extract_multiplier(p, p.u_bar, default_schedule(0.1, 14),
                                     cfg)
        return p, pair, kkt_check(p, p.u_bar, pair, cfg)

    def check(result, error):
        import numpy as np
        if error is not None:
            return _error_outcome(error)
        p, pair, kk = result
        # the oracle of test_qp_pair_matches_direct_kkt_solve: the
        # normalized (z0, z) against (1, lambda) from the dense KKT solve
        ref = np.concatenate([[1.0], p.extras["kkt_multiplier"]])
        got = np.concatenate([[pair.z0], pair.z.coords])
        err = float(np.abs(got / np.linalg.norm(got)
                           - ref / np.linalg.norm(ref)).max())
        if err <= 1e-4 and kk["normal"]:
            return OK, ""
        detail = "pair error %.2e, normal=%s" % (err, kk["normal"])
        return (WRONG if pair.converged else FAILED), detail

    return Op("equality_qp dim=%d k=%d seed=%d" % (dim, k, seed), run, check,
              kind="equality_qp")


def _qp_pool():
    """The fixed set of equality_qp instances: (dim, k, seed) triples.

    QP_PER_SHAPE instances per shape (dim, k), their seeds drawn blind
    from the constant QP_MASTER_SEED.  The set is the same in every run:
    with instances drawn from the workload seed, the share of stalled
    schedules (which take about ten times as long as converged ones)
    changed from seed to seed, and ops_per_s spread 31% and op_p50_s 70%
    across five seeds.  The workload seed orders the operations.
    """
    master = random.Random(QP_MASTER_SEED)
    return [(dim, k, master.randrange(10 ** 6)) for dim in QP_DIMS
            for k in QP_CONSTRAINTS for _ in range(QP_PER_SHAPE)]


def _penalty_rounds(rng, ctx):
    pool = _qp_pool()
    while True:
        ops = [_qp_op(dim, k, seed) for dim, k, seed in pool]
        ops += [_experiment_op("lq-endpoint mesh=%d" % n, "lq-endpoint",
                               {"mesh": n}) for n in LQ_MESHES]
        ops += [_experiment_op("l2-fritz-john dim=%d" % d, "l2-fritz-john",
                               {"dim": d}) for d in L2_DIMS]
        rng.shuffle(ops)
        yield ops


# --------------------------------------------------------------- registry


def _warm_spectral():
    from fcopt.experiments import run_experiment
    run_experiment("elliptic-l2")


def _warm_penalty():
    from fcopt.experiments import run_experiment
    run_experiment("l2-fritz-john")


class Workload:
    """A named workload.

    ``modules`` and ``warm_up`` form its set-up (no ``modules`` means the
    operations run in child processes).  A run always executes whole
    rounds, so the mix of operations is the same in every run, and their
    number depends on ``--seconds`` alone: round(seconds / round_seconds).
    Runs of two versions of the program then do the same work, and
    op_tail_s is taken at the same percentile.  ``round_seconds`` sizes
    a 30 s run to 1 cli-cold round (27 s of operations at commit 1b8e95f
    on the reference machine, see README.md), 3 spectral-sweep rounds
    (42 s; fewer rounds put op_tail_s below the median) and 1
    penalty-schedule round (23 s).
    """

    def __init__(self, name, rounds, modules, warm_up, round_seconds):
        self.name = name
        self._rounds = rounds
        self.modules = modules
        self.warm_up = warm_up
        self.round_seconds = round_seconds

    @property
    def in_process(self):
        return bool(self.modules)

    def rounds(self, seed, ctx):
        return self._rounds(random.Random(seed), ctx)

    def rounds_per_run(self, seconds):
        return max(1, round(seconds / self.round_seconds))


WORKLOADS = {
    "cli-cold": Workload("cli-cold", _cli_rounds, (), None, 25.0),
    "spectral-sweep": Workload(
        "spectral-sweep", _spectral_rounds,
        ("fcopt.experiments", "fcopt.diagnostics", "fcopt.spaces"),
        _warm_spectral, 10.0),
    "penalty-schedule": Workload(
        "penalty-schedule", _penalty_rounds,
        ("fcopt.experiments", "fcopt.problems", "fcopt.penalty"),
        _warm_penalty, 21.0),
}
