import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from fcopt.cli import main
from fcopt.penalty import default_schedule


# -------------------------------------------------------------------- list


def test_list_exit_and_contents(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "l2-fritz-john" in out
    assert "wave-obs" in out
    listed = [ln for ln in out.splitlines() if ln.startswith("  ")]
    assert len(listed) >= 7


def test_no_command_shows_help(capsys):
    assert main([]) == 2


def test_bad_flag_exit_2():
    assert main(["example", "wave-obs", "--steps", "notanint"]) == 2


# ------------------------------------------------------------------- solve


def test_solve_writes_trace_and_csv(tmp_path, capsys):
    out = tmp_path / "trace.json"
    rc = main(["solve", "--problem", "l2-fritz-john", "--eps0", "0.1",
               "--steps", "12", "--seed", "7", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "fcopt-trace/1"
    assert payload["problem"] == "l2-fritz-john"
    assert len(payload["records"]) == 12
    assert payload["pair"]["z0"] <= 1e-3
    assert payload["kkt"]["normal"] is False
    rec = payload["records"][0]
    assert set(rec) >= {"eps", "a", "b_norm", "dist", "gap", "u", "b"}
    csv_lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert csv_lines[0] == "eps,a,b_norm,dist,gap"
    assert len(csv_lines) == 13


def test_solve_identical_runs_identical_csv(tmp_path):
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / ("%s.json" % tag)
        assert main(["solve", "--problem", "scalar", "--steps", "8",
                     "--out", str(out)]) == 0
        paths.append((tmp_path / ("%s.csv" % tag)).read_bytes())
    assert paths[0] == paths[1]


def test_solve_from_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = scalar\nsteps = 8\nseed = 3\n")
    out = tmp_path / "trace.json"
    assert main(["solve", "--problem", str(cfg), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["problem"] == "scalar"
    assert payload["inputs"]["steps"] == 8


def test_solve_unknown_problem(tmp_path):
    rc = main(["solve", "--problem", "nope", "--out",
               str(tmp_path / "t.json")])
    assert rc == 2


def test_solve_bad_eps0(tmp_path):
    rc = main(["solve", "--problem", "scalar", "--eps0", "3.0",
               "--out", str(tmp_path / "t.json")])
    assert rc == 2


def test_eps0_one_rejected_up_front(tmp_path, capsys):
    # the penalty schedule lives in (0, 1); its closed end is refused
    # before any work, with the range every check states
    for args in (["solve", "--problem", "scalar"],
                 ["example", "l2-fritz-john"], ["example", "lq-endpoint"]):
        out = tmp_path / "t.json"
        assert main(args + ["--eps0", "1", "--out", str(out)]) == 2
        assert "eps0 must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        default_schedule(1.0)


# ---------------------------------------------------------------- diagnose


def test_diagnose_diag_family(tmp_path):
    out = tmp_path / "diag.json"
    rc = main(["diagnose", "--family", "diag", "--levels", "8,16,32,64",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["verdict"] == "growing"
    csv_lines = (tmp_path / "diag.csv").read_text().splitlines()
    assert csv_lines[0] == "n,constant,kernel_dim"
    assert len(csv_lines) == 5


def test_diagnose_elliptic_families(tmp_path):
    out = tmp_path / "e.json"
    assert main(["diagnose", "--family", "elliptic-h1",
                 "--levels", "7,15,31", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["verdict"] == "bounded"
    assert main(["diagnose", "--family", "elliptic-l2",
                 "--levels", "7,15,31", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["verdict"] == "growing"


def test_diagnose_custom_npz(tmp_path):
    ops = {str(n): np.diag(1.0 / np.arange(1.0, n + 1))
           for n in (8, 16, 32)}
    npz = tmp_path / "fam.npz"
    np.savez(npz, **ops)
    out = tmp_path / "fam.json"
    assert main(["diagnose", "--family", str(npz), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["verdict"] == "growing"


def test_diagnose_bad_family(tmp_path):
    rc = main(["diagnose", "--family", "spectral", "--out",
               str(tmp_path / "x.json")])
    assert rc == 2


def test_diagnose_too_few_levels(tmp_path):
    rc = main(["diagnose", "--family", "diag", "--levels", "8,16",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2


@pytest.mark.parametrize("factor", ["1", "0.5", "nan", "inf"])
def test_diagnose_bad_growth_factor_exit_2(tmp_path, factor):
    out = tmp_path / "x.json"
    rc = main(["diagnose", "--family", "elliptic-h1", "--growth-factor",
               factor, "--out", str(out)])
    assert rc == 2
    assert not out.exists()


# ----------------------------------------------------------------- example


def test_example_wave_bounded(tmp_path, capsys):
    out = tmp_path / "wave.json"
    rc = main(["example", "wave-obs", "--modes", "8,16,32", "--out",
               str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["experiment"] == "wave-obs"
    assert (tmp_path / "wave.csv").exists()
    assert "PASS" in capsys.readouterr().out


def test_example_sde_rank_identity(tmp_path):
    rc = main(["example", "sde-rank", "--depth", "4,5,6", "--c2",
               "identity", "--out", str(tmp_path / "r.json")])
    assert rc == 0
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["results"]["verdict"] == "bounded"


@pytest.mark.parametrize("c2", ["identity", "deficient"])
def test_example_sde_rank_deepest_documented_depths(tmp_path, c2):
    rc = main(["example", "sde-rank", "--set", "depths=12,13,14", "--c2",
               c2, "--out", str(tmp_path / "r.json")])
    assert rc == 0
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["passed"] is True


@pytest.mark.parametrize("c2", ["identity", "deficient"])
def test_example_sde_rank_rejects_g_mode_up_front(tmp_path, c2):
    out = tmp_path / "r.json"
    rc = main(["example", "sde-rank", "--set", "g_mode=none", "--c2", c2,
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert not (tmp_path / "r.csv").exists()


def test_example_criterion_failure_exit_1(tmp_path, capsys):
    # forcing the bounded criteria onto a short-horizon sweep must fail
    rc = main(["example", "wave-obs", "--modes", "8,16,32", "--T", "0.2",
               "--expect", "bounded", "--out", str(tmp_path / "w.json")])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out
    payload = json.loads((tmp_path / "w.json").read_text())
    assert payload["passed"] is False


def test_example_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "w.cfg"
    cfg.write_text("modes = 8,16,32\nT = 0.2\n")
    out = tmp_path / "w.json"
    # flag overrides the config horizon back to the bounded regime
    rc = main(["example", "wave-obs", "--config", str(cfg), "--T", "3.0",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["inputs"]["T"] == 3.0
    assert payload["results"]["regime_checked"] == "bounded"


def test_example_unknown_name():
    assert main(["example", "not-a-thing"]) == 2


def test_example_bad_set_syntax():
    assert main(["example", "wave-obs", "--set", "oops"]) == 2


def test_example_bad_growth_factor_exit_2(tmp_path):
    out = tmp_path / "e.json"
    assert main(["example", "elliptic-h1", "--set", "growth_factor=0.5",
                 "--out", str(out)]) == 2
    assert not out.exists()


# --------------------------------------------------------------- processes


def _checkout_env():
    """Environment whose PYTHONPATH leads to the fcopt under test."""
    import fcopt

    src = os.path.dirname(os.path.dirname(os.path.abspath(fcopt.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_installed_entry_point():
    exe = shutil.which("fcopt")
    cmd = [exe] if exe else [sys.executable, "-m", "fcopt.cli"]
    proc = subprocess.run(cmd + ["list"], capture_output=True, text=True,
                          env=_checkout_env())
    assert proc.returncode == 0
    assert "wave-obs" in proc.stdout


# the 15 commands a user types most: list, every solve problem, every
# diagnose family and every example at its defaults
COLD_COMMANDS = (
    [["list"]]
    + [["solve", "--problem", p]
       for p in ("scalar", "l2-fritz-john", "equality-qp", "lq-endpoint")]
    + [["diagnose", "--family", f]
       for f in ("diag", "elliptic-l2", "elliptic-h1")]
    + [["example", e]
       for e in ("l2-fritz-john", "lq-endpoint", "elliptic-l2", "elliptic-h1",
                 "sde-rank", "sde-witness", "wave-obs")])


def test_cli_import_leaves_optional_scipy_unloaded(tmp_path):
    # every command runs on numpy alone; scipy.optimize is imported only
    # on paths no registered command reaches (non-diagonal grams, L-BFGS)
    code = ("import json, sys\n"
            "from fcopt.cli import main\n"
            "out, cmds = sys.argv[1], json.loads(sys.argv[2])\n"
            "codes = [main(c if c == ['list'] else\n"
            "              c + ['--out', '%s/%d.json' % (out, i)])\n"
            "         for i, c in enumerate(cmds)]\n"
            "loaded = sorted(m for m in ('scipy.linalg', 'scipy.stats',\n"
            "                            'scipy.optimize') if m in sys.modules)\n"
            "print(json.dumps([codes, loaded]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), json.dumps(COLD_COMMANDS)],
        capture_output=True, text=True, env=_checkout_env())
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert codes == [0] * len(COLD_COMMANDS)
    assert loaded == []
