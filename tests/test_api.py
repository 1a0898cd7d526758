"""Guards on the package surface, read from the source of src/fcopt.

Every name a module lists in ``__all__`` must be referenced by the
package's own code (a caller, a subclass, a default), and so must every
public method and property of a class listed there, unless WIRED_LATER
names the ROADMAP item that will give it one; and no module of the
package or of the tests may import a name it never uses.  The functions
the benchmark's tracer times (perfbench/tracer.py) must exist and be
traceable.
"""

import ast
import importlib
from collections import Counter
import pathlib
import types

import numpy as np
import pytest

import fcopt
from fcopt.evolution import EvolutionSystem, maximum_principle_residual
from fcopt.penalty import ConstrainedProblem, MultiplierPair
from fcopt.spaces import SpaceDescriptor
from fcopt.tree import sde_estimate_sweep

SRC = pathlib.Path(fcopt.__file__).parent
MODULES = sorted(path.stem for path in SRC.glob("*.py"))
TESTS = pathlib.Path(__file__).resolve().parent
TEST_MODULES = sorted(path.stem for path in TESTS.glob("*.py"))
TRACER = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
          / "tracer.py")

# public names (module.name) and public methods or properties
# (module.Class.name) without a reader in the package, and what will read
# them
WIRED_LATER = {
    "convex.Box": "ROADMAP 5",
    "convex.NonnegativeCone": "ROADMAP 5",
    "convex.normal_cone_residual": "ROADMAP 5",
    "evolution.spike_variation": "ROADMAP 5(b)",
    "diagnostics.compact_perturbed_constant": "ROADMAP 7",
    "tree.sde_duality_residual": "ROADMAP 9",
    "evolution.simulate_variation_evolution": "ROADMAP 4",
    "cli.main": "the fcopt console script (pyproject.toml)",
}


def _tree(module):
    return ast.parse((SRC / (module + ".py")).read_text())


def _public(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _loads(node, attributes=True):
    """Names read anywhere under node, as a name or (optionally) an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif attributes and isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _references():
    """(module, top-level definition or None, names read there), package-wide."""
    refs = []
    for module in MODULES:
        for node in _tree(module).body:
            owner = getattr(node, "name", None)
            refs.append((module, owner, _loads(node)))
    return refs


REFERENCES = _references()


@pytest.mark.parametrize("module", MODULES)
def test_public_names_have_production_callers(module):
    # a definition reading its own name (recursion) does not count
    missing = []
    for name in _public(_tree(module)):
        if "%s.%s" % (module, name) in WIRED_LATER:
            continue
        if not any(name in names for mod, owner, names in REFERENCES
                   if (mod, owner) != (module, name)):
            missing.append(name)
    assert missing == [], (
        "public names of fcopt.%s that no code in src/fcopt reads: %s; "
        "call them, move them into the tests, or name the ROADMAP item "
        "that will call them in WIRED_LATER" % (module, ", ".join(missing)))


def _methods(module):
    """Public methods and properties of the classes in a module's __all__.

    Yields (key, node), key being "module.Class.name"; a property's getter
    and setter are two nodes of one key.
    """
    tree = _tree(module)
    public = set(_public(tree))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in public:
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")):
                    yield "%s.%s.%s" % (module, node.name, sub.name), sub


def _attributes(node):
    """Attribute names under node, with their number of occurrences."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute))


ATTRIBUTES = sum((_attributes(_tree(module)) for module in MODULES),
                 Counter())


@pytest.mark.parametrize("module", MODULES)
def test_public_methods_have_production_readers(module):
    # a method is read when its name appears as an attribute (x.name)
    # somewhere in src/fcopt outside its own body; a recursive call or a
    # property's own setter decorator does not count
    missing = []
    for key, node in _methods(module):
        name = node.name
        if key in WIRED_LATER or key in missing:
            continue
        if ATTRIBUTES[name] <= _attributes(node)[name]:
            missing.append(key)
    assert missing == [], (
        "public methods of fcopt.%s that no code in src/fcopt reads: %s; "
        "read them, move them into the tests, or name the ROADMAP item "
        "that will read them in WIRED_LATER" % (module, ", ".join(missing)))


def test_wired_later_lists_public_names():
    public = {"%s.%s" % (module, name) for module in MODULES
              for name in _public(_tree(module))}
    public |= {key for module in MODULES for key, _ in _methods(module)}
    assert sorted(set(WIRED_LATER) - public) == []


@pytest.mark.parametrize(
    "path", [SRC / (m + ".py") for m in MODULES]
    + [TESTS / (m + ".py") for m in TEST_MODULES],
    ids=MODULES + ["tests." + m for m in TEST_MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _loads(tree, attributes=False) | set(_public(tree))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert unused == [], "%s imports unused names: %s" % (
        path.name, ", ".join(unused))


def test_settings_without_a_setter_are_gone():
    # knobs that no caller sets are not parameters
    space = SpaceDescriptor("line", 1)
    system = EvolutionSystem(1.0, 2, np.zeros((1, 1)), np.ones((1, 1)))
    pair = MultiplierPair(1.0, space.zero())
    calls = [
        lambda: ConstrainedProblem(space, space, None, None, None, None,
                                   None, f0_hess=np.eye(1),
                                   feasible_sampler=None),
        lambda: maximum_principle_residual(system, pair, np.zeros((3, 1)),
                                           seed=0),
        lambda: EvolutionSystem(1.0, 2, np.zeros((1, 1)), np.ones((1, 1)),
                                E=None),
        lambda: sde_estimate_sweep([], G_mode="phi0"),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="unexpected keyword"):
            call()


def _tracer_tables():
    """LAYER_METRICS and EXTRA_HOOKS of perfbench/tracer.py, as literals."""
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if getattr(target, "id", None) in ("LAYER_METRICS",
                                                   "EXTRA_HOOKS"):
                    tables[target.id] = ast.literal_eval(node.value)
    return tables["LAYER_METRICS"], tables["EXTRA_HOOKS"]


def _traceable(key, extra_hooks):
    """Whether the tracer can wrap the function of a metric key.

    It wraps a function that a module defines and lists in __all__, and
    the (module, class or None, function) entries of EXTRA_HOOKS.
    """
    module_name, _, qualname = key.partition(".")
    module = importlib.import_module("fcopt." + module_name)
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    fn = getattr(owner, attr, None)
    if not isinstance(fn, types.FunctionType):
        return False
    if ("fcopt." + module_name, owner_name or None, attr) in extra_hooks:
        return True
    return (not owner_name and attr in getattr(module, "__all__", ())
            and fn.__module__ == module.__name__)


# keys the tracer still lists for a function the package has deleted; the
# metric reads its other keys (ROADMAP 1 drops this one from the benchmark)
STALE_TRACED = {"diagnostics.closed_range_constant"}


def test_benchmark_traced_functions_exist():
    # the benchmark's self-check fails a traced run in which a layer saw
    # no calls, so each function key it requires must still be defined
    # and traceable here; a key ending in "." covers a whole module
    metrics, extra_hooks = _tracer_tables()
    keys = sorted({key for _, _, kind, keys, _ in metrics if kind != "import"
                   for key in keys if not key.endswith(".")})
    assert "elliptic.EllipticSystem.__init__" in keys
    assert not any(_traceable(key, extra_hooks) for key in STALE_TRACED)
    missing = [key for key in keys
               if key not in STALE_TRACED and not _traceable(key, extra_hooks)]
    assert missing == [], (
        "perfbench/tracer.py times %s, which fcopt no longer defines or "
        "exports; retire that layer in the benchmark (a change to "
        "perfbench/) before removing the function" % ", ".join(missing))
