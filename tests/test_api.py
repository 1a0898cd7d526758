"""Guards on the package surface, read from the source of src/fcopt.

Every name a module lists in ``__all__`` must be referenced by the
package's own code (a caller, a subclass, a default), unless
WIRED_LATER names the ROADMAP item that will give it one; and no module
may import a name it never uses.
"""

import ast
import pathlib

import pytest

import fcopt

SRC = pathlib.Path(fcopt.__file__).parent
MODULES = sorted(path.stem for path in SRC.glob("*.py"))

# public names without a caller in the package, and what will call them
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


def test_wired_later_lists_public_names():
    public = {"%s.%s" % (module, name) for module in MODULES
              for name in _public(_tree(module))}
    assert sorted(set(WIRED_LATER) - public) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = _tree(module)
    used = _loads(tree, attributes=False) | set(_public(tree))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert unused == [], "fcopt.%s imports unused names: %s" % (
        module, ", ".join(unused))
