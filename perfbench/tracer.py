"""Per-layer tracing of fcopt from outside the package.

``Tracer.install`` replaces every public function of every loaded
``fcopt.*`` module (the names in its ``__all__``) with a wrapper that
counts calls and accumulates wall time.  Modules bind their own copies of
imported functions (``from .spaces import singular_triplets``), so each
function is replaced in every ``fcopt`` namespace that holds it, not only
in the module that defines it.  Nothing under ``src/`` changes.

Self time of a call is its duration minus the durations of the traced
calls made inside it.  The tracer keeps one call stack, so it assumes the
traced code runs on one thread (the penalty schedule's thread mode is not
used by the benchmark).

``LAYER_METRICS`` names the per-layer metrics, how each is read from the
recorded calls, and the workloads on which it should move; ``self_check``
fails a traced run in which one of those layers recorded no calls.
"""

import functools
import os
import sys
import time
import types
from collections import defaultdict

# Private names and constructors traced in addition to each module's
# __all__: they carry a layer metric that no public function exposes.
# Entries are (module, class or None, function).
EXTRA_HOOKS = (
    ("fcopt.tree", None, "_estimate_matrix"),
    ("fcopt.elliptic", "EllipticSystem", "__init__"),
)

# name, unit, kind, function keys, workloads on which it should move.
# kind: "total"/"self" sum call time, "calls" sums call counts, "counter"
# reads a counter kept by a hook below, "import" is the cumulative import
# time of a module from ``python -X importtime``.  A key ending in "."
# covers every traced function of that module.  The self-check requires a
# non-zero call count (for "import", a non-zero time) for the keys on each
# listed workload.
LAYER_METRICS = (
    ("cli.import_s", "s", "import", ("fcopt.cli",), ("cli-cold",)),
    ("penalty.import_s", "s", "import", ("fcopt.penalty",), ("cli-cold",)),
    ("convex.import_s", "s", "import", ("fcopt.convex",), ("cli-cold",)),
    ("spaces.import_s", "s", "import", ("fcopt.spaces",), ("cli-cold",)),
    ("cli.main_s", "s", "total", ("cli.main",), ("cli-cold",)),
    ("experiments.run_s", "s", "total", ("experiments.run_experiment",),
     ("cli-cold", "spectral-sweep")),
    ("experiments.self_s", "s", "self", ("experiments.run_experiment",),
     ("cli-cold", "spectral-sweep")),
    ("experiments.write_report_s", "s", "total",
     ("experiments.write_report",), ("cli-cold",)),
    ("experiments.report_bytes", "bytes", "counter",
     ("experiments.write_report",), ("cli-cold",)),
    ("problems.build_s", "s", "total", ("problems.",), ("penalty-schedule",)),
    ("problems.build_calls", "count", "calls", ("problems.",),
     ("penalty-schedule",)),
    ("penalty.extract_s", "s", "total", ("penalty.extract_multiplier",),
     ("penalty-schedule",)),
    ("penalty.minimize_s", "s", "total", ("penalty.minimize_penalty",),
     ("penalty-schedule",)),
    ("penalty.minimize_calls", "count", "calls",
     ("penalty.minimize_penalty",), ("penalty-schedule",)),
    ("penalty.inner_iters", "count", "counter",
     ("penalty.minimize_penalty",), ("penalty-schedule",)),
    ("penalty.cold_restarts", "count", "counter",
     ("penalty.minimize_penalty",), ("penalty-schedule",)),
    ("penalty.inner_failures", "count", "counter",
     ("penalty.minimize_penalty",), ("penalty-schedule",)),
    ("penalty.kkt_check_s", "s", "total", ("penalty.kkt_check",),
     ("penalty-schedule",)),
    ("penalty.fritz_john_s", "s", "total", ("penalty.fritz_john_residual",),
     ("penalty-schedule",)),
    ("penalty.enhanced_s", "s", "total",
     ("penalty.enhanced_sequence_report",), ("penalty-schedule",)),
    ("convex.variations_s", "s", "total", ("convex.tangent_cone_sample",),
     ("penalty-schedule",)),
    ("evolution.adjoint_s", "s", "total", ("evolution.adjoint_evolution",),
     ("penalty-schedule",)),
    ("evolution.max_principle_s", "s", "total",
     ("evolution.maximum_principle_residual",), ("penalty-schedule",)),
    ("spaces.singular_triplets_s", "s", "total",
     ("spaces.singular_triplets",), ("spectral-sweep",)),
    ("spaces.singular_triplets_calls", "count", "calls",
     ("spaces.singular_triplets",), ("spectral-sweep",)),
    ("diagnostics.kernel_dimension_s", "s", "total",
     ("diagnostics.kernel_dimension",), ("spectral-sweep",)),
    ("diagnostics.kernel_dimension_calls", "count", "calls",
     ("diagnostics.kernel_dimension",), ("spectral-sweep",)),
    ("diagnostics.estimate_s", "s", "total",
     ("diagnostics.restricted_estimate_constant",
      "diagnostics.compact_perturbed_constant",
      "diagnostics.closed_range_constant"), ("spectral-sweep",)),
    ("elliptic.build_s", "s", "total", ("elliptic.EllipticSystem.__init__",),
     ("spectral-sweep",)),
    ("elliptic.estimate_s", "s", "total",
     ("elliptic.elliptic_estimate_constant",), ("spectral-sweep",)),
    ("elliptic.estimate.self_s", "s", "self",
     ("elliptic.elliptic_estimate_constant",), ("spectral-sweep",)),
    ("tree.bsde_solve_s", "s", "total", ("tree.tree_bsde_solve",),
     ("spectral-sweep",)),
    ("tree.bsde_solve_calls", "count", "calls", ("tree.tree_bsde_solve",),
     ("spectral-sweep",)),
    ("tree.estimate_s", "s", "total", ("tree.sde_estimate_constant",),
     ("spectral-sweep",)),
    ("tree.estimate.self_s", "s", "self", ("tree.sde_estimate_constant",),
     ("spectral-sweep",)),
    ("tree.estimate_matrix_cells", "count", "counter",
     ("tree.sde_estimate_constant",), ("spectral-sweep",)),
    ("wave.gramian_s", "s", "total", ("wave.observation_gramian",),
     ("spectral-sweep",)),
    ("wave.constant_s", "s", "total", ("wave.wave_observability_constant",),
     ("spectral-sweep",)),
)


def _key(module_name, qualname):
    return module_name[len("fcopt."):] + "." + qualname


def _after_minimize(stats, args, kwargs, result):
    # minimize_penalty(p, u_bar, eps, cfg, warm_start, return_info, ...)
    if not isinstance(result, tuple):
        return
    info = result[1]
    stats.counters["penalty.inner_iters"] += info["inner_iters"]
    warm = kwargs.get("warm_start", args[4] if len(args) > 4 else None)
    if warm is not None and info["cold_start"]:
        stats.counters["penalty.cold_restarts"] += 1


def _error_minimize(stats, exc):
    from fcopt.penalty import InnerConvergenceError
    if isinstance(exc, InnerConvergenceError):
        stats.counters["penalty.inner_failures"] += 1


def _after_write_report(stats, args, kwargs, result):
    stats.counters["experiments.report_bytes"] += sum(
        os.path.getsize(path) for path in result)


def _after_estimate_matrix(stats, args, kwargs, result):
    rows, cols = result.shape
    stats.counters["tree.estimate_matrix_cells"] += rows * cols


HOOKS = {
    "penalty.minimize_penalty": (_after_minimize, _error_minimize),
    "experiments.write_report": (_after_write_report, None),
    "tree._estimate_matrix": (_after_estimate_matrix, None),
}


class Tracer:
    """Call counts, total and self times, and hook counters per function."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self._child_time = []
        self._restore = []

    def _wrap(self, key, fn):
        after, on_error = HOOKS.get(key, (None, None))
        stack = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                dt = clock() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                self.calls[key] += 1
                self.total[key] += dt
                self.self_time[key] += dt - inner
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the traced functions of every loaded fcopt module."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("fcopt.") and mod is not None}
        wrappers = {}
        for name, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if (isinstance(fn, types.FunctionType)
                        and fn.__module__ == name):
                    wrappers[id(fn)] = self._wrap(_key(name, attr), fn)
        for name, cls, attr in EXTRA_HOOKS:
            owner = modules.get(name)
            if cls is not None:
                owner = getattr(owner, cls, None)
            fn = getattr(owner, attr, None)
            if not isinstance(fn, types.FunctionType):
                continue
            qualname = attr if cls is None else cls + "." + attr
            wrapped = self._wrap(_key(name, qualname), fn)
            if cls is None:
                wrappers[id(fn)] = wrapped
            else:
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def uninstall(self):
        """Put every original function back."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def to_dict(self):
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time),
                "counters": dict(self.counters)}

    def merge(self, data):
        """Add the stats of another tracer, as saved by ``to_dict``."""
        for field, mine in (("calls", self.calls), ("total", self.total),
                            ("self", self.self_time),
                            ("counters", self.counters)):
            for key, value in data[field].items():
                mine[key] += value


def _sum(table, keys):
    total = 0
    for key in keys:
        if key.endswith("."):
            total += sum(v for k, v in table.items() if k.startswith(key))
        else:
            total += table.get(key, 0)
    return total


def parse_importtime(stderr_text):
    """Cumulative import seconds per module from ``-X importtime`` output."""
    out = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            cumulative_us = int(parts[1])
        except ValueError:
            continue
        out.setdefault(parts[2].strip(), cumulative_us * 1e-6)
    return out


def layer_metrics(tracer, import_times, rounds):
    """Per-layer metric values, per round of the workload.

    ``import_times`` maps a module to its cumulative import seconds in one
    process (a median over the traced processes); every other value is
    the tracer's total divided by the number of traced rounds.
    """
    tables = {"total": tracer.total, "self": tracer.self_time,
              "calls": tracer.calls}
    values = {}
    for name, unit, kind, keys, _ in LAYER_METRICS:
        if kind == "import":
            value = import_times.get(keys[0], 0.0)
        elif kind == "counter":
            value = tracer.counters.get(name, 0) / rounds
        else:
            value = _sum(tables[kind], keys) / rounds
        values[name] = (value, unit)
    return values


def self_check(tracer, import_times, workload):
    """Names of layer metrics expected on ``workload`` that saw no calls."""
    missing = []
    for name, _, kind, keys, workloads in LAYER_METRICS:
        if workload not in workloads:
            continue
        if kind == "import":
            seen = import_times.get(keys[0], 0.0) > 0.0
        else:
            seen = _sum(tracer.calls, keys) > 0
        if not seen:
            missing.append(name)
    return missing
