"""Smoke test: every narrative script under demos/ runs to completion."""

import glob
import os
import subprocess
import sys

import pytest

import fcopt

DEMOS = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "demos", "*.py")))


def test_demos_found():
    # an empty list would leave the parametrized test below with no cases
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_exits_zero(script):
    src = os.path.dirname(os.path.dirname(os.path.abspath(fcopt.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
