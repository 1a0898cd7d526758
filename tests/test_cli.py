import json
import os
import shutil
import subprocess
import sys
import warnings

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


@pytest.mark.parametrize("problem, steps", [
    ("scalar", 15), ("l2-fritz-john", 15), ("equality-qp", 15),
    ("lq-endpoint", 15), ("lq-endpoint", 55)])
def test_solve_exits_0_only_with_normalized_pairs(problem, steps, tmp_path,
                                                  capsys):
    # every record's pair has a^2 + |b|^2 = 1 by construction, up to
    # roundoff; a pair below the resolution of Phi_eps loses it, and solve
    # then exits 1, as the experiments' normalization criterion does.
    # lq-endpoint run to 55 steps would reach that floor (|z| = 0 on its
    # last records); its extrapolated pair ends the schedule at 14 records
    out = tmp_path / "t.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["solve", "--problem", problem, "--steps", str(steps),
                   "--out", str(out)])
    records = json.loads(out.read_text())["records"]
    dev = max(abs(r["a"] ** 2 + r["b_norm"] ** 2 - 1.0) for r in records
              if r["phi"] > 0)
    assert rc == (0 if dev <= 1e-9 else 1)
    if steps == 55:
        assert rc == 0
        assert len(records) < 55
        assert "pair not normalized" not in capsys.readouterr().err


@pytest.mark.parametrize("problem, steps", [
    ("equality-qp", 2), ("l2-fritz-john", 2), ("lq-endpoint", 2),
    ("lq-endpoint", 3)])
def test_solve_exits_1_on_a_pair_that_is_not_cauchy(problem, steps, tmp_path,
                                                    capsys):
    # too short a schedule ends before the pairs settle: the report is
    # written, flagged not converged, and solve exits 1
    out = tmp_path / "t.json"
    with pytest.warns(RuntimeWarning, match="not Cauchy"):
        rc = main(["solve", "--problem", problem, "--steps", str(steps),
                   "--out", str(out)])
    assert rc == 1
    assert "pair not converged" in capsys.readouterr().err
    pair = json.loads(out.read_text())["pair"]
    assert pair["converged"] is False and pair["cauchy_gap"] > 1e-2


def test_solve_l2_at_17_steps_stays_in_the_ball(tmp_path):
    # the 17th eps meets its inner tolerance with 0 iterations at the 16th
    # near-minimizer.  Warm-started from the previous point at every eps,
    # that point was 1.441e-3 from u_bar, outside the sqrt(eps) = 1.2353e-3
    # ball; on the path the secant predictions lead along it is 1.2350e-3
    # away.  At 30 and 40 steps the ball still fails (the plain minimizer
    # of Phi_eps^2 need not lie in it)
    out = tmp_path / "t.json"
    assert main(["solve", "--problem", "l2-fritz-john", "--steps", "17",
                 "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["records"]) == 17


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


@pytest.mark.parametrize("interval", [(0.4, 0.6), (0.2, 0.5), (0.1, 0.3)])
def test_example_wave_near_travel_time_exit_2(interval, tmp_path, capsys):
    lo, hi = interval
    t_star = 2.0 * max(lo, 1.0 - hi)
    out = tmp_path / "w.json"
    rc = main(["example", "wave-obs", "--set", "x_lo=%r" % lo,
               "--set", "x_hi=%r" % hi, "--set", "T=%r" % t_star,
               "--out", str(out)])
    assert rc == 2
    assert "expect=" in capsys.readouterr().err
    assert not out.exists()
    rc = main(["example", "wave-obs", "--set", "x_lo=%r" % lo,
               "--set", "x_hi=%r" % hi, "--set", "T=%r" % t_star,
               "--set", "expect=growing", "--out", str(out)])
    assert rc in (0, 1) and out.exists()


def test_example_wave_coarse_sweep_exit_2(tmp_path, capsys):
    out = tmp_path / "w.json"
    rc = main(["example", "wave-obs", "--set", "modes=4,8,16",
               "--out", str(out)])
    assert rc == 2
    assert "too coarse" in capsys.readouterr().err
    assert not out.exists()
    rc = main(["example", "wave-obs", "--set", "modes=4,8,16",
               "--set", "expect=bounded", "--out", str(out)])
    assert rc in (0, 1) and out.exists()


def test_example_wave_large_potential_exit_2(tmp_path, capsys):
    # beyond a = 12 the travel time no longer tells the regime at the band
    # edges on (0.4, 0.6); a = 12 at 1.05 T* still passes
    out = tmp_path / "w.json"
    rc = main(["example", "wave-obs", "--set", "a=14", "--out", str(out)])
    assert rc == 2
    assert "potential a = 14" in capsys.readouterr().err
    assert not out.exists()
    rc = main(["example", "wave-obs", "--set", "a=14",
               "--set", "expect=bounded", "--out", str(out)])
    assert rc in (0, 1) and out.exists()
    rc = main(["example", "wave-obs", "--set", "a=12", "--modes", "8,16,32",
               "--set", "T=%r" % (1.05 * 0.8), "--out", str(out)])
    assert rc == 0


def test_example_lq_infinite_horizon_exit_2(tmp_path, capsys):
    # rejected when the system is built, before any arithmetic on dt = inf
    out = tmp_path / "lq.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["example", "lq-endpoint", "--set", "T=inf",
                   "--out", str(out)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_lq_mesh_list_exit_2(tmp_path, capsys):
    # lq-endpoint runs one mesh per call: a comma list of meshes, from the
    # --mesh flag or a solve config, is refused up front, not at int()
    out = tmp_path / "lq.json"
    rc = main(["example", "lq-endpoint", "--mesh", "100,200",
               "--out", str(out)])
    assert rc == 2
    assert "mesh must be a single integer, got 100,200" in (
        capsys.readouterr().err)
    cfg = tmp_path / "lq.cfg"
    cfg.write_text("problem = lq-endpoint\nmesh = 100,200\n")
    assert main(["solve", "--problem", str(cfg), "--out", str(out)]) == 2
    assert "mesh must be a single integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mesh", [1, 5000])
def test_solve_mesh_out_of_range_exit_2_before_build(mesh, tmp_path, capsys,
                                                     monkeypatch):
    # solve takes the mesh declaration of the lq-endpoint experiment: a mesh
    # of 1 (a singular system) or 5000 (a 10000^2 Hessian) is refused before
    # the problem is built
    import fcopt.cli as cli
    built = []
    monkeypatch.setitem(cli.SOLVE_PROBLEMS, "lq-endpoint",
                        (lambda *args: built.append(args), ("mesh",)))
    cfg = tmp_path / "lq.cfg"
    cfg.write_text("problem = lq-endpoint\nmesh = %d\n" % mesh)
    out = tmp_path / "lq.json"
    assert main(["solve", "--problem", str(cfg), "--out", str(out)]) == 2
    assert "mesh must lie in [2, 2000]" in capsys.readouterr().err
    assert built == []
    assert not out.exists()


# each of these once ran truncated (depth=3.5 as depth 3), crashed (a
# TypeError on a list, a numpy allocation of 74.5 GiB) or failed after the
# whole schedule (samples=0); the declarations refuse them before any build
REFUSED_UP_FRONT = [
    pytest.param(["example", "sde-witness", "--set", "depth=3.5"],
                 "depth must be a single integer, got 3.5", id="depth=3.5"),
    pytest.param(["example", "sde-witness", "--set", "depth=3,4"],
                 "depth must be a single integer, got 3,4", id="depth=3,4"),
    pytest.param(["example", "l2-fritz-john", "--set", "steps=2.5"],
                 "steps must be a single integer, got 2.5", id="steps=2.5"),
    pytest.param(["example", "l2-fritz-john", "--set", "samples=2.5"],
                 "samples must be a single integer, got 2.5",
                 id="samples=2.5"),
    pytest.param(["example", "l2-fritz-john", "--set", "seed=1.5"],
                 "seed must be a single integer, got 1.5", id="seed=1.5"),
    pytest.param("problem = equality-qp\nsteps = 2.5\n",
                 "steps must be a single integer, got 2.5",
                 id="solve-steps=2.5"),
    pytest.param("problem = equality-qp\ndim = 6.0\n",
                 "dim must be a single integer, got 6.0", id="solve-dim=6.0"),
    pytest.param(["example", "l2-fritz-john", "--set", "dim=100000"],
                 "dim must lie in [4, ", id="dim=100000"),
    pytest.param(["example", "wave-obs", "--set", "modes=8,16,32,100000"],
                 "modes must lie in [1, ", id="modes=8,16,32,100000"),
    pytest.param("problem = lq-endpoint\nsamples = 0\n",
                 "samples must lie in [1, ", id="solve-samples=0"),
]


@pytest.mark.parametrize("command, message", REFUSED_UP_FRONT)
def test_refused_up_front_exit_2(command, message, tmp_path, capsys,
                                 monkeypatch):
    import fcopt.cli as cli
    from fcopt.experiments import EXPERIMENTS

    def build(*args):
        raise AssertionError("built before the parameters were checked")

    for entry in EXPERIMENTS.values():
        monkeypatch.setitem(entry, "runner", build)
    for name, (_, keys) in list(cli.SOLVE_PROBLEMS.items()):
        monkeypatch.setitem(cli.SOLVE_PROBLEMS, name, (build, keys))
    out = tmp_path / "out.json"
    if isinstance(command, str):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(command)
        command = ["solve", "--problem", str(cfg)]
    assert main(command + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


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


def test_python_m_fcopt():
    # python -m fcopt runs the same main as the console script
    proc = subprocess.run([sys.executable, "-m", "fcopt", "list"],
                          capture_output=True, text=True, env=_checkout_env())
    assert proc.returncode == 0, proc.stderr
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


def test_cli_and_fallback_paths_run_with_scipy_blocked(tmp_path):
    # numpy is the only runtime dependency: with every scipy module made
    # unimportable, each cold command runs
    code = ("import json, sys\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ImportError('scipy is blocked: ' + name)\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "from fcopt.cli import main\n"
            "out, cmds = sys.argv[1], json.loads(sys.argv[2])\n"
            "codes = [main(c if c == ['list'] else\n"
            "              c + ['--out', '%s/%d.json' % (out, i)])\n"
            "         for i, c in enumerate(cmds)]\n"
            "try:\n"
            "    import scipy\n"
            "    blocked = False\n"
            "except ImportError:\n"
            "    blocked = True\n"
            "print(json.dumps([codes, blocked]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), json.dumps(COLD_COMMANDS)],
        capture_output=True, text=True, env=_checkout_env())
    assert proc.returncode == 0, proc.stderr
    codes, blocked = json.loads(proc.stdout.strip().splitlines()[-1])
    assert blocked
    assert codes == [0] * len(COLD_COMMANDS)
