"""Range checks generated from the parameter declarations.

For every declared parameter of every experiment, of ``fcopt solve`` and
of ``fcopt diagnose``: each finite bound and each choice passes
``validate``; one step outside each bound, a non-integral value for an
int kind and an unknown string for a choice kind are refused with exit
2 (or the ValueError ``run_experiment`` raises) before any model is
built.  The README's parameter table must list the same declarations.
Running every endpoint end to end is left to the experiments' own tests.
"""

import math
import pathlib
import re

import pytest

import fcopt.cli as cli
from fcopt.cli import DIAGNOSE_PARAMS, SOLVE_PARAMS, main
from fcopt.experiments import EXPERIMENTS, run_experiment, validate

DECLARATIONS = ([("example " + name, entry["params"])
                 for name, entry in EXPERIMENTS.items()]
                + [("solve", SOLVE_PARAMS), ("diagnose", DIAGNOSE_PARAMS)])

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _value(p, v):
    """v as a value of p's kind: an ints kind repeats it min_len times."""
    return (v,) * p.min_len if p.kind == "ints" else v


def _text(value):
    if isinstance(value, tuple):
        return ",".join(_text(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _step(p, bound, outward):
    """The neighbour of a bound, one int or one float ulp away."""
    direction = -1 if (bound == p.lo) == outward else 1
    if p.kind == "float":
        return math.nextafter(bound, direction * math.inf)
    return bound + direction


def _cases():
    """(command, params, key, admitted values, refused values)."""
    out = []
    for command, params in DECLARATIONS:
        for key, p in params.items():
            good, bad = [], []
            if p.kind == "str":
                good += list(p.allowed)
                bad.append("no-such-choice")
            else:
                for bound, closed in ((p.lo, p.closed[0]),
                                      (p.hi, p.closed[1])):
                    if not math.isfinite(bound):
                        continue
                    if p.kind != "float":
                        bound = int(bound)
                    if closed:
                        good.append(bound)
                        bad.append(_step(p, bound, outward=True))
                    else:
                        good.append(_step(p, bound, outward=False))
                        bad.append(bound)
                if p.kind in ("int", "ints"):
                    bad.append(int(p.lo if math.isfinite(p.lo) else 0) + 0.5)
            out.append((command, params, key,
                        [_value(p, v) for v in good],
                        [_value(p, v) for v in bad]))
    return out


CASES = _cases()
IDS = ["%s:%s" % (command, key) for command, _, key, _, _ in CASES]


def _fail(*args, **kwargs):
    raise AssertionError("a model was built for a refused parameter")


@pytest.fixture
def no_build(monkeypatch):
    """Every runner and solve builder, and the diagnose families, fail."""
    for entry in EXPERIMENTS.values():
        monkeypatch.setitem(entry, "runner", _fail)
    for name, (_, keys) in list(cli.SOLVE_PROBLEMS.items()):
        monkeypatch.setitem(cli.SOLVE_PROBLEMS, name, (_fail, keys))
    for attr in ("_run_schedule", "_diag_family", "codim_growth_verdict",
                 "elliptic_sweep"):
        monkeypatch.setattr(cli, attr, _fail)


def _refusal(command, key, value, tmp_path, capsys):
    """The error message for key=value, given as command-line text."""
    out = tmp_path / "out.json"
    if command.startswith("example "):
        name = command.split()[1]
        with pytest.raises(ValueError) as exc:
            run_experiment(name, {key: _text(value)})
        msg = str(exc.value)
        assert main(["example", name, "--set", "%s=%s" % (key, _text(value)),
                     "--out", str(out)]) == 2
    elif command == "solve":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = scalar\n%s = %s\n" % (key, _text(value)))
        assert main(["solve", "--problem", str(cfg), "--out", str(out)]) == 2
        msg = capsys.readouterr().err
    else:
        flag = "--" + key.replace("_", "-")
        assert main(["diagnose", "--family", "diag", flag, _text(value),
                     "--out", str(out)]) == 2
        msg = capsys.readouterr().err
    assert not out.exists()
    return msg


@pytest.mark.parametrize("command, params, key, good, bad", CASES, ids=IDS)
def test_bounds_and_choices_pass(command, params, key, good, bad):
    p = params[key]
    assert p.check(key, p.default) == p.default
    for value in good:
        assert validate(params, {key: value})[key] == value
        assert validate(params, {key: _text(value)})[key] == value


@pytest.mark.parametrize("command, params, key, good, bad", CASES, ids=IDS)
def test_outside_values_refused_before_build(command, params, key, good, bad,
                                             no_build, tmp_path, capsys):
    p = params[key]
    for value in bad:
        msg = _refusal(command, key, value, tmp_path, capsys)
        assert re.search(r"%s must (lie in \S|be )" % re.escape(key), msg), msg
        if p.kind == "int" and isinstance(value, float):
            assert "%s must be a single integer" % key in msg
        if p.kind == "ints" and isinstance(value[0], float):
            assert "%s must be a comma list" % key in msg
        if p.kind == "str":
            assert "%s must lie in %s" % (key, p.describe()[2]) in msg


def test_readme_table_matches_declarations():
    rows = []
    for line in README.read_text().splitlines():
        m = re.match(r"\| `((?:example [\w-]+)|solve|diagnose)` \| `(\w+)` \|"
                     r" (.+?) \| (.+?) \| (.+?) \|$", line)
        if m:
            rows.append(m.groups())
    expected = [(command, key) + p.describe() for command, params in
                DECLARATIONS for key, p in params.items()]
    assert rows == expected
