import json

import numpy as np
import pytest

from fcopt.experiments import (EXPERIMENTS, RunReport, list_experiments,
                               run_experiment, format_table, write_report,
                               _successive_ratios, _expected_wave_regime)


# ---------------------------------------------------------------- registry


def test_registry_contents():
    names = [name for name, _ in list_experiments()]
    assert names == list(EXPERIMENTS)
    assert len(names) >= 7
    assert "l2-fritz-john" in names
    assert "wave-obs" in names
    for name, desc in list_experiments():
        assert isinstance(desc, str) and desc
        assert set(EXPERIMENTS[name]) == {"describe", "params", "runner"}


def test_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("no-such-thing")


def test_unknown_parameter():
    with pytest.raises(ValueError, match="unknown parameter"):
        run_experiment("elliptic-h1", {"bogus": 1})


def test_parameter_range_validation():
    with pytest.raises(ValueError, match="dim"):
        run_experiment("l2-fritz-john", {"dim": 3})
    with pytest.raises(ValueError, match="depth"):
        run_experiment("sde-witness", {"depth": 1})
    with pytest.raises(ValueError, match="levels"):
        run_experiment("elliptic-l2", {"levels": (15, 31)})
    with pytest.raises(ValueError, match="c2"):
        run_experiment("sde-rank", {"c2": "full"})
    with pytest.raises(ValueError, match="expect"):
        run_experiment("wave-obs", {"expect": "maybe"})


# ------------------------------------------------------------- run reports


def test_report_structure():
    rep = run_experiment("elliptic-h1")
    assert isinstance(rep, RunReport)
    assert rep.experiment == "elliptic-h1"
    assert rep.passed
    assert rep.wall_clock_s >= 0.0
    assert rep.version
    for c in rep.criteria:
        assert set(c) == {"name", "passed", "value", "threshold"}
    d = rep.to_dict()
    assert d["schema"] == "fcopt-report/1"
    assert d["inputs"]["levels"] == [15, 31, 63, 127]
    assert d["passed"] is True
    json.dumps(d)  # payload must be strict JSON


def test_l2_experiment_passes():
    rep = run_experiment("l2-fritz-john", {"samples": 100})
    assert rep.passed
    by_name = {c["name"]: c for c in rep.criteria}
    assert by_name["z0-degenerate"]["value"] <= 1e-3
    assert by_name["z-direction-cosine"]["value"] >= 0.999
    assert by_name["kkt-abnormal"]["value"] is False
    header, rows = rep.tables["trace"]
    assert header == ("eps", "a", "b_norm", "dist", "gap")
    assert len(rows) == rep.results["records"]


@pytest.mark.parametrize("mesh", [250, 400, 800])
def test_lq_endpoint_passes_on_fine_meshes(mesh):
    # the sqrt(eps) ball and the Ekeland probes are measured in the L2(0,T)
    # control norm, which does not grow with the mesh; in the l2 norm of
    # the control samples these meshes left the ball at the first eps
    rep = run_experiment("lq-endpoint", {"mesh": mesh})
    assert rep.passed
    assert rep.results["pair_error"] <= 1e-8
    assert rep.results["stationarity"] <= 1e-8


def test_elliptic_l2_experiment_passes():
    rep = run_experiment("elliptic-l2", {"levels": (8, 16, 32, 64)})
    assert rep.passed
    assert rep.results["verdict"] == "growing"
    assert min(rep.results["ratios"]) >= 3.0


def test_sde_rank_both_branches():
    rep = run_experiment("sde-rank", {"depths": (4, 5, 6)})
    assert rep.passed
    assert rep.results["verdict"] == "bounded"
    rep = run_experiment("sde-rank", {"depths": (4, 5, 6), "c2": "deficient"})
    assert rep.passed
    assert rep.results["verdict"] == "growing"
    assert rep.results["kernel_dims"] == [15, 31, 63]
    d = rep.to_dict()
    assert d["results"]["constants"] == ["inf", "inf", "inf"]


def test_sde_witness_experiment():
    rep = run_experiment("sde-witness", {"depth": 6})
    assert rep.passed
    header, rows = rep.tables["witness"]
    assert header[0] == "k"
    assert len(rows) == 6
    inv = np.array(rep.results["inverse"])
    assert np.all(np.diff(inv) >= -1e-12 * inv[:-1])


def test_wave_obs_regimes():
    # sweeps from 8 modes that at least double per step run under auto
    for modes in [(8, 16, 32), (9, 18, 36), (8, 32, 64)]:
        rep = run_experiment("wave-obs", {"modes": modes})
        assert rep.passed
        assert rep.results["regime_checked"] == "bounded"
        rep = run_experiment("wave-obs", {"modes": modes, "T": 0.2})
        assert rep.passed
        assert rep.results["regime_checked"] == "growing"


WAVE_INTERVALS = [(0.4, 0.6), (0.2, 0.5), (0.1, 0.3)]


@pytest.mark.parametrize("interval", WAVE_INTERVALS)
def test_wave_obs_auto_rejects_horizons_near_travel_time(interval,
                                                         monkeypatch):
    # inside (0.9, 1.05) x T* the default sweep fails the criteria the
    # travel-time rule picks; the band edges pass
    lo, hi = interval
    t_star = 2.0 * max(lo, 1.0 - hi)
    base = {"x_lo": lo, "x_hi": hi}
    for f in (0.9, 1.05):
        assert run_experiment("wave-obs", dict(base, T=f * t_star)).passed
    rep = run_experiment("wave-obs", dict(base, T=t_star, expect="bounded"))
    assert rep.results["regime_checked"] == "bounded"

    def no_sweep(*args, **kwargs):
        raise AssertionError("the band is rejected before any sweep")

    monkeypatch.setattr("fcopt.experiments.wave_sweep", no_sweep)
    for f in (0.95, 0.98, 1.0, 1.02):
        with pytest.raises(ValueError, match="expect=auto"):
            run_experiment("wave-obs", dict(base, T=f * t_star))


@pytest.mark.parametrize("modes", [(4, 8, 16), (7, 14, 28), (8, 12, 16),
                                   (8, 10, 32), (2, 4, 8)])
def test_wave_obs_auto_rejects_coarse_sweeps(modes, monkeypatch):
    # each of these fails expect=auto somewhere outside the band;
    # bounded and growing still run them
    for expect in ("bounded", "growing"):
        rep = run_experiment("wave-obs", {"modes": modes, "expect": expect})
        assert rep.results["regime_checked"] == expect

    def no_sweep(*args, **kwargs):
        raise AssertionError("a coarse sweep is rejected before it runs")

    monkeypatch.setattr("fcopt.experiments.wave_sweep", no_sweep)
    with pytest.raises(ValueError, match="too coarse for expect=auto"):
        run_experiment("wave-obs", {"modes": modes})


def test_wave_expected_regime_rule():
    assert _expected_wave_regime(0.4, 0.6, 3.0) == "bounded"
    assert _expected_wave_regime(0.4, 0.6, 0.2) == "growing"
    assert _expected_wave_regime(0.4, 0.6, 0.8) == "bounded"
    assert _expected_wave_regime(0.0, 0.5, 1.0) == "bounded"


def test_successive_ratios_inf_handling():
    out = _successive_ratios([1.0, 4.0, np.inf, np.inf])
    assert out[0] == 4.0
    assert out[1] == np.inf
    assert np.isnan(out[2])


# ------------------------------------------------------------ serialization


def test_format_table_cells():
    text = format_table(("n", "c", "flag"),
                        [[4, 0.5, True], [8, np.inf, False]])
    lines = text.splitlines()
    assert lines[0] == "n,c,flag"
    assert lines[1] == "4,0.5,true"
    assert lines[2] == "8,inf,false"


def test_write_report_files(tmp_path):
    rep = run_experiment("elliptic-h1", {"levels": (7, 15, 31)})
    out = tmp_path / "report.json"
    written = write_report(rep, str(out))
    assert written[0] == str(out)
    payload = json.loads(out.read_text())
    assert payload["schema"] == "fcopt-report/1"
    assert payload["tables"] == {"sweep": "report.csv"}
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.splitlines()[0] == "N,dim,constant,kernel_dim,h"


def test_rerun_reproduces_csv_bytes(tmp_path):
    """Identical parameters must reproduce result values bitwise."""
    texts = []
    for tag in ("one", "two"):
        rep = run_experiment("l2-fritz-john",
                             {"samples": 50, "steps": 10})
        out = tmp_path / ("%s.json" % tag)
        write_report(rep, str(out))
        texts.append((tmp_path / ("%s.csv" % tag)).read_bytes())
    assert texts[0] == texts[1]


def test_rerun_reproduces_random_model_results():
    a = run_experiment("sde-witness", {"depth": 5})
    b = run_experiment("sde-witness", {"depth": 5})
    assert np.array_equal(a.results["inverse"], b.results["inverse"])
    assert np.array_equal(a.results["scaled"], b.results["scaled"])
