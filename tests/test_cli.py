import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from osaas_probe.catalog import load_catalog, resolve_catalog
from osaas_probe.cli import main
from osaas_probe.errors import FitRejectedError, ScenarioError
from osaas_probe.linesystem import FilterElement, LinkSpec, SpanSpec
from osaas_probe.modem import CharacterizationCurve, curve_from_dict
from osaas_probe.scenario import Scenario, scenario_from_dict
from osaas_probe.spectrum import MediaChannel, PltConfig, PowerPolicy

from conftest import (
    REPO_ROOT,
    SCENARIO_NAMES,
    catalog_records,
    make_huge_residual,
    make_non_monotone,
    shipped_data,
)

SCENARIOS = REPO_ROOT / "scenarios"


@pytest.fixture(scope="module")
def curves_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("curves")
    assert main(["characterize", "--out", str(out)]) == 0
    return out


def run(args):
    return main([str(a) for a in args])


def _child_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p))


def run_process(args, cwd):
    """The CLI in a fresh interpreter: (exit code, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "osaas_probe.cli"] + [str(a) for a in args],
        cwd=cwd, env=_child_env(), capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stderr


def test_cli_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, osaas_probe.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=_child_env(), capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_characterize_writes_eleven_curves(curves_dir):
    files = sorted(p.name for p in curves_dir.glob("*.json"))
    assert len(files) == 11
    assert "DP-QPSK-69.4.json" in files


def test_characterize_empty_catalog(tmp_path):
    catalog_path = tmp_path / "empty.json"
    catalog_path.write_text("[]")
    out = tmp_path / "curves"
    assert run(["characterize", "--catalog", catalog_path, "--out", out]) == 0
    assert list(out.glob("*.json")) == []


def _counting_check_fit(monkeypatch):
    """Count the calls of modem._check_fit, the fit gates, in a list."""
    from osaas_probe import modem
    checks = [0]
    check_fit = modem._check_fit

    def counting(*args):
        checks[0] += 1
        return check_fit(*args)
    monkeypatch.setattr(modem, "_check_fit", counting)
    return checks


def test_characterize_gates_each_curve_once(tmp_path, monkeypatch):
    """The fit and the curve it builds share one gate path, run once per
    configuration."""
    checks = _counting_check_fit(monkeypatch)
    assert run(["characterize", "--out", tmp_path / "curves"]) == 0
    assert checks[0] == 11


def test_characterize_insufficient_grid_fails(tmp_path):
    out = tmp_path / "curves"
    code = run(["characterize", "--out", out, "--grid-step-db", "7.5"])
    assert code == 3


def test_characterize_grid_step_must_be_positive(tmp_path):
    code, stderr = run_process(["characterize", "--out", tmp_path / "curves",
                                "--grid-step-db", "0"], tmp_path)
    assert code == 3
    assert "Traceback" not in stderr
    assert "--grid-step-db must be finite and in [0.01, 15] dB, got 0.0" in stderr
    assert not (tmp_path / "curves").exists()


@pytest.mark.parametrize("flags", [["--degree", "-1"], ["--modem-snr-db", "-3"],
                                   ["--grid-step-db", "1e-300"], ["--degree", "13"]])
def test_characterize_bad_flags_are_config_errors(tmp_path, capsys, flags):
    """Each is exit 3 with one line. A degree above 12 used to fit (at 20
    with numpy RankWarnings on stderr); the exact fit's cost grows fast
    with the degree."""
    assert run(["characterize", "--out", tmp_path / "curves"] + flags) == 3
    stderr = capsys.readouterr().err.splitlines()
    assert len(stderr) == 1 and stderr[0].startswith(f"error: {flags[0]}")
    assert not (tmp_path / "curves").exists()


BROKEN_CURVES = {"malformed": lambda data: {"bad": 1},
                 "non-monotone": make_non_monotone,
                 "residual": make_huge_residual}


@pytest.mark.parametrize("kind", sorted(BROKEN_CURVES))
def test_broken_curve_file_is_config_error(tmp_path, curves_dir, kind):
    curves = tmp_path / "curves"
    shutil.copytree(curves_dir, curves)
    path = curves / "DP-QPSK-31.5.json"
    path.write_text(json.dumps(BROKEN_CURVES[kind](json.loads(path.read_text()))))
    code, stderr = run_process(["probe", "--scenario", SCENARIOS / "B-485.json",
                                "--curves", curves, "--out", tmp_path / "out"],
                               tmp_path)
    assert code == 3
    assert "Traceback" not in stderr
    assert len(stderr.strip().splitlines()) == 1
    assert "DP-QPSK-31.5.json" in stderr


def test_curve_file_of_another_config_is_config_error(tmp_path, curves_dir,
                                                      capsys):
    """A curve file copied over another configuration's was once used:
    probe B-485 exited 0 with the link estimate off by 0.4 dB."""
    curves = tmp_path / "curves"
    shutil.copytree(curves_dir, curves)
    shutil.copy(curves / "DP-P-16QAM-34.5.json", curves / "DP-16QAM-34.5.json")
    assert run(["probe", "--scenario", SCENARIOS / "B-485.json",
                "--curves", curves, "--out", tmp_path / "out"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: characterization curve {curves / 'DP-16QAM-34.5.json'} holds "
        "'DP-P-16QAM-34.5', not 'DP-16QAM-34.5'"]


def test_probe_command_and_exit_codes(tmp_path, curves_dir):
    out = tmp_path / "out"
    code = run(["probe", "--scenario", SCENARIOS / "LH-1016.json",
                "--curves", curves_dir, "--out", out])
    assert code == 0
    report = json.loads((out / "LH-1016-report.json").read_text())
    assert report["schema_version"] == 1
    assert report["symbol_rate_cap_gbd"] == 69.4
    assert report["best_config"]
    assert report["seed"] == 7
    assert len(report["evidence"]["results"]) == 11
    assert report["estimate_spread_db"] <= 0.8


def test_probe_missing_curves_is_config_error(tmp_path):
    assert run(["probe", "--scenario", SCENARIOS / "LH-1016.json",
                "--curves", tmp_path / "nope", "--out", tmp_path]) == 3


def test_probe_invalid_scenario_exit_4(tmp_path, curves_dir):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1, "name": "x"}))
    assert run(["probe", "--scenario", bad, "--curves", curves_dir,
                "--out", tmp_path]) == 4


def test_probe_no_signal_exit_2(tmp_path, curves_dir):
    # an absurdly long link: every configuration sees post-FEC errors
    scenario = json.loads((SCENARIOS / "B-621.json").read_text())
    for span in scenario["spans"]:
        span["loss_db"] = 30.0
    dead = tmp_path / "dead.json"
    dead.write_text(json.dumps(scenario))
    assert run(["probe", "--scenario", dead, "--curves", curves_dir,
                "--out", tmp_path]) == 2


def test_missing_scenario_flag_is_config_error(curves_dir, capsys):
    """A flag argparse rejects is one stderr line, without the usage block."""
    for args, message in [
            (["probe"], "the following arguments are required: --scenario"),
            (["throughput"], "the following arguments are required: --scenario"),
            (["probe", "--scenario", SCENARIOS / "B-485.json", "--seed", "abc"],
             "argument --seed: invalid int value: 'abc'")]:
        assert run(args + ["--curves", curves_dir]) == 3, args
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_characterize_takes_no_seed(tmp_path, capsys):
    """Characterization draws no noise, so it has no seed to set."""
    assert run(["characterize", "--out", tmp_path / "curves", "--seed", 1]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: unrecognized arguments: --seed 1"]
    assert not (tmp_path / "curves").exists()


def test_probe_deterministic_bytes(tmp_path, curves_dir):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["probe", "--scenario", SCENARIOS / "B-485.json",
                    "--curves", curves_dir, "--seed", 42, "--out", out]) == 0
    assert (out1 / "B-485-report.json").read_bytes() == \
        (out2 / "B-485-report.json").read_bytes()


def test_seed_env_fallback(tmp_path, curves_dir, monkeypatch):
    """--seed is the one way to override the scenario seed: the
    OSAAS_PROBE_SEED variable earlier versions read is ignored."""
    out1, out2 = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("OSAAS_PROBE_SEED", "99")
    assert run(["probe", "--scenario", SCENARIOS / "B-485.json",
                "--curves", curves_dir, "--out", out1]) == 0
    report = json.loads((out1 / "B-485-report.json").read_text())
    assert report["seed"] == 11
    assert run(["probe", "--scenario", SCENARIOS / "B-485.json",
                "--curves", curves_dir, "--seed", -1, "--out", out2]) == 3
    assert not out2.exists()


def test_sweep_command(tmp_path, curves_dir):
    out = tmp_path / "out"
    code = run(["sweep", "--scenario", SCENARIOS / "C-284-sweep.json",
                "--curves", curves_dir, "--out", out,
                "--configs", "DP-QPSK-69.4,DP-P-16QAM-46.3,DP-16QAM-34.5"])
    assert code == 0
    csv_text = (out / "C-284-sweep-profile.csv").read_text()
    assert csv_text.splitlines()[0] == "freq_thz,config_id,gsnr_db"
    assert "OUTAGE" in csv_text
    summary = json.loads((out / "C-284-sweep-sweep-summary.json").read_text())
    assert abs(summary["misalignment_ghz"] - 6.25) <= 3.13
    assert not summary["misalignment_indeterminate"]


def test_sweep_bad_step_is_invalid_scenario(tmp_path, curves_dir):
    for step in ("7.3", "0", "-6.25", "3.125", "1e308"):
        assert run(["sweep", "--scenario", SCENARIOS / "LH-1792.json",
                    "--curves", curves_dir, "--out", tmp_path,
                    "--step-ghz", step]) == 4, step
    scenario = json.loads((SCENARIOS / "LH-1792.json").read_text())
    scenario["sweep_step_ghz"] = 0
    bad = tmp_path / "zero-step.json"
    bad.write_text(json.dumps(scenario))
    assert run(["probe", "--scenario", bad, "--curves", curves_dir,
                "--out", tmp_path]) == 4


def test_sweep_unknown_config_is_config_error(tmp_path, curves_dir):
    assert run(["sweep", "--scenario", SCENARIOS / "LH-1792.json",
                "--curves", curves_dir, "--out", tmp_path,
                "--configs", "DP-QPSK-11.1"]) == 3


def test_regime_command(tmp_path, curves_dir):
    out = tmp_path / "out"
    assert run(["regime", "--scenario", SCENARIOS / "LH-5738.json",
                "--curves", curves_dir, "--out", out]) == 0
    report = json.loads((out / "LH-5738-regime.json").read_text())
    assert report["entries"]["DP-QPSK-31.5"]["classification"] == "nonlinear"
    assert report["entries"]["DP-QPSK-69.4"]["classification"] == "near_optimum"


@pytest.mark.parametrize("flags", [[], ["--rs-ref", "30"]])
def test_regime_empty_catalog_is_no_signal(tmp_path, curves_dir, capsys, flags):
    """An empty catalog ended in a max() or min() traceback, exit 1."""
    catalog_path = tmp_path / "empty.json"
    catalog_path.write_text("[]")
    assert run(["regime", "--scenario", SCENARIOS / "LH-5738.json",
                "--catalog", catalog_path, "--curves", curves_dir,
                "--out", tmp_path] + flags) == 2
    assert capsys.readouterr().err.splitlines() == [
        "no signal: the catalog holds no configuration"]


def test_throughput_command(tmp_path, curves_dir):
    out = tmp_path / "out"
    assert run(["throughput",
                "--scenario", SCENARIOS / "B-621.json",
                "--scenario", SCENARIOS / "B-1302.json",
                "--curves", curves_dir, "--out", out]) == 0
    report = json.loads((out / "throughput.json").read_text())
    by_name = {e["scenario"]: e for e in report["links"]}
    assert by_name["B-621"]["gain_percent"] == 100.0
    for entry in report["links"]:
        assert entry["potential_gbps"] >= entry["achievable_gbps"]
        assert entry["c_band_40ch_gain_gbps"] == pytest.approx(
            40.0 * (entry["potential_gbps"] - entry["achievable_gbps"]))
    assert "what-if" in report["note"]



def test_throughput_reads_each_curve_file_once(tmp_path, curves_dir,
                                               monkeypatch):
    """B-621 and B-1302 share the 9 curves of the regional catalog: each
    file is read and gated once per command, not once per route."""
    checks = _counting_check_fit(monkeypatch)
    assert run(["throughput", "--scenario", SCENARIOS / "B-621.json",
                "--scenario", SCENARIOS / "B-1302.json",
                "--curves", curves_dir, "--out", tmp_path]) == 0
    assert checks[0] == 9

def test_monitor_command(tmp_path, curves_dir):
    out = tmp_path / "out"
    assert run(["monitor", "--scenario",
                SCENARIOS / "LH-3751-monitor-summer.json",
                "--curves", curves_dir, "--out", out,
                "--duration-h", 48, "--interval-h", 1]) == 0
    summary = json.loads(
        (out / "LH-3751-monitor-summer-monitor-summary.json").read_text())
    assert abs(summary["peak_to_peak_db"] - 1.5) <= 0.1
    assert summary["upgrade"]["window_h"]
    csv_text = (out / "LH-3751-monitor-summer-monitor.csv").read_text()
    assert csv_text.splitlines()[0] == "sim_time_h,gsnr_est_db"
    assert len(csv_text.splitlines()) == 50


def test_monitor_at_an_infinite_interval_takes_one_sample(tmp_path, curves_dir):
    """--interval-h inf is one sample, at t = 0; it used to probe nothing
    and exit 2 as a configuration that never worked."""
    out = tmp_path / "out"
    assert run(["monitor", "--scenario",
                SCENARIOS / "LH-3751-monitor-summer.json",
                "--curves", curves_dir, "--out", out,
                "--interval-h", "inf"]) == 0
    rows = (out / "LH-3751-monitor-summer-monitor.csv").read_text().splitlines()
    assert rows[0] == "sim_time_h,gsnr_est_db"
    assert len(rows) == 2 and rows[1].startswith("0.000,")
    summary = json.loads(
        (out / "LH-3751-monitor-summer-monitor-summary.json").read_text())
    assert summary["samples"] == 1


def test_monitor_bad_interval(tmp_path, curves_dir):
    assert run(["monitor", "--scenario",
                SCENARIOS / "LH-3751-monitor-summer.json",
                "--curves", curves_dir, "--out", tmp_path,
                "--interval-h", 0]) == 3


def test_all_commands_deterministic(tmp_path, curves_dir):
    """Same seed, same bytes, for every report-producing command."""
    specs = [
        (["probe", "--scenario", SCENARIOS / "A-144.json"],
         ["A-144-report.json"]),
        (["sweep", "--scenario", SCENARIOS / "A-241-sweep.json",
          "--configs", "DP-16QAM-34.5,DP-P-16QAM-46.3"],
         ["A-241-sweep-profile.csv", "A-241-sweep-sweep-summary.json"]),
        (["regime", "--scenario", SCENARIOS / "A-144.json"],
         ["A-144-regime.json"]),
        (["monitor", "--scenario", SCENARIOS / "LH-3751-monitor-winter.json",
          "--duration-h", 24],
         ["LH-3751-monitor-winter-monitor.csv",
          "LH-3751-monitor-winter-monitor-summary.json"]),
        (["throughput", "--scenario", SCENARIOS / "B-822.json"],
         ["throughput.json"]),
    ]
    for args, outputs in specs:
        runs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert run(args + ["--curves", curves_dir, "--seed", 7,
                               "--out", out]) == 0
            runs.append([(out / name).read_bytes() for name in outputs])
        assert runs[0] == runs[1], args[0]


def _variant(tmp_path, name, edit):
    """A copy of B-621 changed by ``edit``, written as ``name``.json."""
    scenario = json.loads((SCENARIOS / "B-621.json").read_text())
    scenario["name"] = name
    edit(scenario)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(scenario))
    return path


def _dead_spans(scenario):
    for span in scenario["spans"]:
        span["loss_db"] = 30.0


def test_blocked_carrier_is_no_signal(tmp_path, curves_dir):
    """Filters 150 GHz off the carrier pass no power: every probe is an
    outage, so the probe command ends in one no-signal line."""
    blocked = _variant(tmp_path, "B-621-blocked",
                       lambda s: s.update(filter_misalignment_ghz=150.0))
    out = tmp_path / "out"
    code, stderr = run_process(["probe", "--scenario", blocked, "--curves",
                                curves_dir, "--out", out], tmp_path)
    assert code == 2
    assert stderr.splitlines() == [
        "no signal: no working probe result in campaign"]
    assert not out.exists()
    assert run(["sweep", "--scenario", blocked, "--curves", curves_dir,
                "--out", out]) == 0
    for path in out.iterdir():
        text = path.read_text()
        assert "Infinity" not in text and "NaN" not in text
    assert "OUTAGE" in (out / "B-621-blocked-profile.csv").read_text()


def test_throughput_records_dead_link_and_goes_on(tmp_path, curves_dir):
    dead = _variant(tmp_path, "B-621-dead", _dead_spans)
    batch, alone = tmp_path / "batch", tmp_path / "alone"
    assert run(["throughput", "--scenario", SCENARIOS / "B-621.json",
                "--scenario", dead, "--scenario", SCENARIOS / "B-1302.json",
                "--curves", curves_dir, "--out", batch]) == 0
    assert run(["throughput", "--scenario", SCENARIOS / "B-621.json",
                "--scenario", SCENARIOS / "B-1302.json",
                "--curves", curves_dir, "--out", alone]) == 0
    links = json.loads((batch / "throughput.json").read_text())["links"]
    working = json.loads((alone / "throughput.json").read_text())["links"]
    assert [e["scenario"] for e in links] == ["B-621", "B-621-dead", "B-1302"]
    assert [links[0], links[2]] == working
    assert links[1] == {
        "scenario": "B-621-dead", "achievable_gbps": None,
        "potential_gbps": None, "gain_percent": None,
        "c_band_40ch_gain_gbps": None,
        "no_signal": "no working probe result in campaign"}


def test_throughput_without_any_working_link_exit_2(tmp_path, curves_dir):
    dead = _variant(tmp_path, "B-621-dead", _dead_spans)
    code, stderr = run_process(["throughput", "--scenario", dead,
                                "--curves", curves_dir, "--out", tmp_path],
                               tmp_path)
    assert code == 2
    assert stderr.splitlines() == [
        "B-621-dead: no signal: no working probe result in campaign"]
    assert not (tmp_path / "throughput.json").exists()


def test_negative_isi_factor_is_invalid_scenario(tmp_path, curves_dir):
    """A negative ISI factor would turn the filter cascade into a gain."""
    gain = _variant(tmp_path, "B-621-gain",
                    lambda s: s.update(isi_factor=-7.0))
    code, stderr = run_process(["throughput", "--scenario", gain, "--curves",
                                curves_dir, "--out", tmp_path], tmp_path)
    assert code == 4
    assert stderr.splitlines() == [
        "invalid scenario: ISI factor must be finite and in [0, inf), got -7.0"]
    assert not (tmp_path / "throughput.json").exists()


def test_policy_value_out_of_range_is_invalid_scenario(tmp_path, curves_dir):
    low = _variant(tmp_path, "B-621-low",
                   lambda s: s["policy"].update(value=-1000.0))
    code, stderr = run_process(["probe", "--scenario", low, "--curves",
                                curves_dir, "--out", tmp_path], tmp_path)
    assert code == 4
    assert stderr.splitlines() == [
        "invalid scenario: policy value must be finite and in [-100, 100] "
        "dBm/GHz, got -1000.0"]
    assert not (tmp_path / "B-621-low-report.json").exists()


def test_nan_noise_sigma_is_invalid_scenario(tmp_path, curves_dir):
    """A NaN sigma is a bad scenario, not a line on which no probe works."""
    scenario = json.loads((SCENARIOS / "B-485.json").read_text())
    scenario["noise_sigma_q_db"] = math.nan
    path = tmp_path / "B-485-nan.json"
    path.write_text(json.dumps(scenario))
    code, stderr = run_process(["probe", "--scenario", path, "--curves",
                                curves_dir, "--out", tmp_path], tmp_path)
    assert code == 4
    assert stderr.splitlines() == [
        "invalid scenario: noise sigma must be finite and in [0, 1] dB, got nan"]
    assert not (tmp_path / "B-485-report.json").exists()


@pytest.mark.parametrize("window", [math.nan, math.inf, 0.0, -75.0, 1000.0])
def test_bad_equalizer_window_is_invalid_scenario(tmp_path, curves_dir, capsys,
                                                  window):
    scenario = json.loads((SCENARIOS / "LH-1792-5x75.json").read_text())
    scenario["equalizer_window_ghz"] = window
    path = tmp_path / "bad-window.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    assert run(["sweep", "--scenario", path, "--curves", curves_dir,
                "--out", out]) == 4
    stderr = capsys.readouterr().err.splitlines()
    assert len(stderr) == 1
    assert stderr[0].startswith("invalid scenario: equalizer window")
    assert not out.exists()


def _filters(key, value):
    return lambda s: [f.update({key: value}) for f in s["filters"]]


def _spans(key, value):
    return lambda s: [span.update({key: value}) for span in s["spans"]]


@pytest.mark.parametrize("edit, message", [
    (_filters("center_offset_ghz", math.nan),
     "filter centre offset must be finite and in [-4800, 4800] GHz, got nan"),
    (_filters("center_offset_ghz", math.inf),
     "filter centre offset must be finite and in [-4800, 4800] GHz, got inf"),
    (_filters("order", 3.7), "filter order must be an integer, got 3.7"),
    (_filters("order", math.inf), "filter order must be an integer, got inf"),
    (_spans("amp_noise_figure_db", math.nan),
     "amplifier noise figure must be finite and in [0, 20] dB, got nan"),
    (_spans("amp_noise_figure_db", 1e6),
     "amplifier noise figure must be finite and in [0, 20] dB, got 1000000.0"),
    (_spans("amp_noise_figure_db", 1e308),
     "amplifier noise figure must be finite and in [0, 20] dB, got 1e+308"),
    (_spans("amp_noise_figure_db", -1e308),
     "amplifier noise figure must be finite and in [0, 20] dB, got -1e+308"),
    (lambda s: s.update(seed=math.inf), "seed must be an integer, got inf"),
    (lambda s: s.update(seed=3.7), "seed must be an integer, got 3.7"),
    (lambda s: s["media_channel"].update(max_total_power_dbm=math.nan),
     "malformed scenario: media channel power limit must be finite, got nan"),
    (lambda s: s["media_channel"].update(max_psd_dbm_per_ghz=math.nan),
     "malformed scenario: media channel PSD limit must be finite, got nan"),
    (_spans("loss_db", 1e6),
     "span loss must be finite and in [0, 50] dB, got 1000000.0"),
    (_spans("loss_db", 1e308),
     "span loss must be finite and in [0, 50] dB, got 1e+308"),
    (lambda s: s.update(noise_sigma_q_db=1e6),
     "noise sigma must be finite and in [0, 1] dB, got 1000000.0"),
    (lambda s: s.update(noise_sigma_q_db=1e308),
     "noise sigma must be finite and in [0, 1] dB, got 1e+308"),
    (_spans("nli_coeff_per_mw2", 1e308),
     "nonlinear coefficient must be finite and in [0, 10] /mW^2, got 1e+308"),
    (lambda s: s.update(sweep_step_ghz=1e308),
     "sweep step must be finite and in [0.25, 100] GHz, got 1e+308"),
    (lambda s: s.update(sweep_step_ghz=1e-300),
     "sweep step must be finite and in [0.25, 100] GHz, got 1e-300"),
    (_spans("loss_db", 10 ** 400),
     "malformed scenario: int too large to convert to float"),
    (_filters("order", 4800), "filter order must be finite and in [1, 20], got 4800"),
    (_filters("bandwidth_3db_ghz", 1e-300),
     "filter 3-dB bandwidth must be finite and in [0.25, inf) GHz, got 1e-300"),
    (_filters("center_offset_ghz", 1e308),
     "filter centre offset must be finite and in [-4800, 4800] GHz, got 1e+308"),
    (lambda s: s.update(filter_misalignment_ghz=-1e308),
     "filter misalignment must be finite and in [-4800, 4800] GHz, got -1e+308"),
    (lambda s: s.update(tilt_db_per_mc=1e308),
     "tilt must be finite and in [-100, 100] dB, got 1e+308"),
    (lambda s: s.update(diurnal_period_h=5e-324),
     "diurnal period must be finite and in [1, inf) h, got 5e-324"),
    (lambda s: s["media_channel"].update(width_ghz=1e6),
     "malformed scenario: media channel width must be finite and in (0, 4800] "
     "GHz, got 1000000.0"),
    (lambda s: s.update(tilt_db_per_MC=s.pop("tilt_db_per_mc")),
     "unknown key 'tilt_db_per_MC'"),
    (_spans("length_km", 80.0), "unknown key 'length_km'"),
    (_filters("offset_ghz", 0.0), "unknown key 'offset_ghz'"),
    (lambda s: s["media_channel"].update(grid_ghz=6.25),
     "unknown key 'grid_ghz'"),
    (lambda s: s["policy"].update(unit="dBm/GHz"), "unknown key 'unit'"),
    (lambda s: s["spans"].__setitem__(0, "loss_db"),
     "malformed scenario: expected an object, got str"),
], ids=["centre-nan", "centre-inf", "order-3.7", "order-inf",
        "noise-figure-nan", "noise-figure-1e6", "noise-figure-1e308",
        "noise-figure--1e308", "seed-inf", "seed-3.7", "total-power-nan",
        "psd-nan", "loss-1e6", "loss-1e308", "noise-sigma-1e6",
        "noise-sigma-1e308", "nli-1e308", "sweep-step-1e308",
        "sweep-step-1e-300", "loss-1e400-int", "order-4800", "bandwidth-1e-300",
        "centre-1e308", "misalignment--1e308", "tilt-1e308",
        "diurnal-period-5e-324", "width-1e6", "unknown-top-level-key",
        "unknown-span-key", "unknown-filter-key", "unknown-media-channel-key",
        "unknown-policy-key", "span-not-object"])
def test_bad_element_or_limit_is_invalid_scenario(tmp_path, curves_dir, capsys,
                                                  edit, message):
    """Each once loaded: a NaN centre read "no signal", a NaN noise figure or
    limit made up a report, order or seed 3.7 was cut to 3, and an infinite
    order or seed, a huge noise figure, span loss, noise sigma, NLI
    coefficient or sweep step, or an integer no float holds, ended in a
    traceback. A tiny sweep step asked for memory without end; filter
    values far out and a huge tilt printed numpy overflow warnings, a
    period of 5e-324 h ended a monitor run in a traceback, and a key that
    names no field, such as a misspelt optional one, was dropped."""
    scenario = json.loads((SCENARIOS / "B-485.json").read_text())
    edit(scenario)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    assert run(["probe", "--scenario", path, "--curves", curves_dir,
                "--out", out]) == 4
    assert capsys.readouterr().err.splitlines() == [
        f"invalid scenario: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("command, name, flags, message", [
    ("monitor", "LH-3751-monitor-summer", ["--duration-h", "1e12"],
     "error: --duration-h/--interval-h: monitor duration 1e+12 h at interval "
     "1 h asks for more than 100000 samples"),
    ("monitor", "LH-3751-monitor-summer", ["--interval-h", "1e-300"],
     "error: --duration-h/--interval-h: monitor duration 48 h at interval "
     "1e-300 h asks for more than 100000 samples"),
    ("regime", "LH-5738", ["--rs-ref", "1e300"],
     "error: --rs-ref must be finite and in [31.5, 400] GBd, got 1e+300"),
    ("regime", "LH-5738", ["--rs-ref", "400.5"],
     "error: --rs-ref must be finite and in [31.5, 400] GBd, got 400.5"),
    ("regime", "LH-5738", ["--rs-ref", "10"],
     "error: --rs-ref must be finite and in [31.5, 400] GBd, got 10.0"),
], ids=["duration-h-1e12", "interval-h-1e-300", "rs-ref-1e300",
        "rs-ref-400.5", "rs-ref-10"])
def test_unbounded_flag_is_config_error(tmp_path, curves_dir, command, name,
                                        flags, message):
    """A monitor span of more than 100 000 samples used to run without end,
    a reference rate no carrier fits was reported as a power change, and
    one below every catalog rate tested nothing and ended in exit 2; each
    is one line and exit 3, in a fresh interpreter."""
    out = tmp_path / "out"
    code, stderr = run_process(
        [command, "--scenario", SCENARIOS / f"{name}.json", "--curves",
         curves_dir, "--out", out] + flags, tmp_path)
    assert (code, stderr.splitlines()) == (3, [message])
    assert not out.exists()


@pytest.mark.parametrize("command, name, flags", [
    ("regime", "LH-5738", ["--psd-ref", "-1000"]),
    ("regime", "LH-5738", ["--psd-ref", "nan"]),
    ("regime", "LH-5738", ["--rs-ref", "0"]),
    ("regime", "LH-5738", ["--rs-ref", "nan"]),
    ("monitor", "LH-3751-monitor-summer", ["--duration-h", "nan"]),
    ("monitor", "LH-3751-monitor-summer", ["--duration-h", "-5"]),
    ("monitor", "LH-3751-monitor-summer", ["--duration-h", "inf"]),
    ("probe", "B-485", ["--seed", "-1"]),
    ("probe", "B-485", ["--theta-db", "nan"]),
    ("probe", "B-485", ["--theta-db=-inf"]),
    ("throughput", "B-621", ["--theta-db", "nan"]),
    ("sweep", "C-284-sweep", ["--configs", ","]),
    ("sweep", "C-284-sweep", ["--configs", "DP-QPSK-31.5,DP-QPSK-31.5"]),
    pytest.param("throughput", "B-621", ["--scenario", SCENARIOS / "B-621.json"],
                 id="throughput-B-621---scenario B-621"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_bad_flag_is_config_error(tmp_path, curves_dir, capsys, command, name,
                                  flags):
    out = tmp_path / "out"
    assert run([command, "--scenario", SCENARIOS / f"{name}.json",
                "--curves", curves_dir, "--out", out] + flags) == 3
    stderr = capsys.readouterr().err.splitlines()
    assert len(stderr) == 1
    assert stderr[0].startswith(f"error: {flags[0].split('=')[0]}")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["characterize"],
    ["probe", "--scenario", SCENARIOS / "B-485.json"],
    ["sweep", "--scenario", SCENARIOS / "LH-1792.json", "--configs", "DP-QPSK-69.4"],
    ["regime", "--scenario", SCENARIOS / "LH-5738.json"],
    ["throughput", "--scenario", SCENARIOS / "B-621.json"],
    ["monitor", "--scenario", SCENARIOS / "LH-3751-monitor-summer.json",
     "--duration-h", "2"],
], ids=lambda args: args[0])
def test_unwritable_out_is_config_error(tmp_path, curves_dir, args):
    """An --out that names an existing file is exit 3 with one line, in a
    fresh interpreter; it used to end in a FileExistsError traceback."""
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    if args[0] != "characterize":
        args = args + ["--curves", curves_dir]
    code, stderr = run_process(args + ["--out", taken], tmp_path)
    assert code == 3 and "Traceback" not in stderr
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write output: ")
    assert taken.read_text() == "kept\n"


def _value_paths(node, path=()):
    """(path, value) for every value of every object and array in a parsed
    JSON document, at any depth, each before the values inside it."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,), child
        yield from _value_paths(child, path + (key,))


def _number_paths(node):
    """The path to every number in a parsed JSON document."""
    return [path for path, value in _value_paths(node)
            if isinstance(value, (int, float)) and not isinstance(value, bool)]


# Values at and beyond every range end: zero, signs, the float extremes and
# an integer no float holds.
EDGE_NUMBERS = (0, -1, 1e-300, 1e6, 1e308, -1e308, 10 ** 400, math.nan,
                math.inf, -math.inf)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_numeric_mutation_ends_in_its_exit_code(curves_dir, data):
    """One number of a shipped scenario or of a catalog record changed to
    any value: probe and sweep end in exit 0, 2, 3 or 4, print one stderr
    line on failure, raise nothing, warn nothing and write no NaN or
    Infinity. The sweep takes the narrowest configuration only, which keeps
    a wide media channel cheap."""
    scenario = shipped_data(data.draw(st.sampled_from(SCENARIO_NAMES)))
    records = catalog_records(resolve_catalog(scenario["catalog"]))
    document = data.draw(st.sampled_from([scenario, records]))
    *parents, key = data.draw(st.sampled_from(_number_paths(document)))
    for parent in parents:
        document = document[parent]
    document[key] = data.draw(st.one_of(st.sampled_from(EDGE_NUMBERS),
                                        st.floats(), st.integers()))
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        (work / "scenario.json").write_text(json.dumps(scenario))
        (work / "catalog.json").write_text(json.dumps(records))
        for command in (["probe"], ["sweep", "--configs", "DP-QPSK-31.5"]):
            out, stderr = work / command[0], io.StringIO()
            with warnings.catch_warnings(), redirect_stderr(stderr), \
                    redirect_stdout(io.StringIO()):
                warnings.simplefilter("error")
                code = run(command + [
                    "--scenario", work / "scenario.json", "--catalog",
                    work / "catalog.json", "--curves", curves_dir, "--out", out])
            assert code in (0, 2, 3, 4)
            assert len(stderr.getvalue().splitlines()) == (code != 0)
            for written in out.glob("*") if out.exists() else ():
                text = written.read_text()
                assert "NaN" not in text and "Infinity" not in text


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_curve_number_mutation_ends_in_its_exit_code(curves_dir, data):
    """One number of a written curve file (a point, a coefficient, the
    valid range, the modem SNR, the schema version) changed to any value:
    probe ends in exit 0 or 3 with one stderr line on failure and raises
    nothing. An integer literal beyond float range used to end in an
    OverflowError traceback."""
    name = data.draw(st.sampled_from(
        sorted(path.name for path in curves_dir.glob("*.json"))))
    curve = json.loads((curves_dir / name).read_text())
    *parents, key = data.draw(st.sampled_from(_number_paths(curve)))
    node = curve
    for parent in parents:
        node = node[parent]
    node[key] = data.draw(st.one_of(st.sampled_from(EDGE_NUMBERS),
                                    st.floats(), st.integers()))
    with tempfile.TemporaryDirectory() as work:
        curves = Path(work) / "curves"
        shutil.copytree(curves_dir, curves)
        (curves / name).write_text(json.dumps(curve))
        stderr = io.StringIO()
        with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
            code = run(["probe", "--scenario", SCENARIOS / "B-485.json",
                        "--curves", curves, "--out", Path(work) / "out"])
    assert code in (0, 3)
    assert len(stderr.getvalue().splitlines()) == (code != 0)


def _key_paths(node):
    """The path to every key of every object in a parsed JSON document."""
    return [path for path, _ in _value_paths(node) if isinstance(path[-1], str)]


def _rename_a_key(data, document, keys):
    """Rename one key of ``document``, at any depth, to a name not in
    ``keys``."""
    *parents, key = data.draw(st.sampled_from(_key_paths(document)))
    for parent in parents:
        document = document[parent]
    new_key = data.draw(st.text().filter(lambda k: k not in keys))
    document[new_key] = document.pop(key)


# Every key a scenario file may hold, at any depth.
SCENARIO_KEYS = {"schema_version"} | {
    f.name for cls in (Scenario, LinkSpec, MediaChannel, SpanSpec,
                       FilterElement, PowerPolicy) for f in fields(cls)}
CURVE_KEYS = {"schema_version"} | {f.name for f in fields(CharacterizationCurve)}
CATALOG_KEYS = {f.name for f in fields(PltConfig)}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_renamed_key_is_invalid_scenario(data):
    """One key of a shipped scenario, at any depth, renamed to a name no
    field has: the reader rejects it, where it once dropped a misspelt
    optional key and took the default."""
    scenario = shipped_data(data.draw(st.sampled_from(SCENARIO_NAMES)))
    _rename_a_key(data, scenario, SCENARIO_KEYS)
    with pytest.raises(ScenarioError):
        scenario_from_dict(scenario)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), renamed=st.sampled_from(["curve", "catalog"]))
def test_renamed_curve_or_catalog_key_is_config_error(curves_dir, data, renamed):
    """One key of a written curve file or of a catalog record renamed to a
    name no field has: the reader rejects it, and probe ends in exit 3 with
    one stderr line. Both readers once ignored an unknown key, so a
    misspelt snr_modem_db read as an ideal modem."""
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        curves = work / "curves"
        shutil.copytree(curves_dir, curves)
        records = catalog_records(resolve_catalog("default"))
        catalog = work / "catalog.json"
        if renamed == "curve":
            path = curves / data.draw(st.sampled_from(
                sorted(path.name for path in curves.glob("*.json"))))
            curve = json.loads(path.read_text())
            _rename_a_key(data, curve, CURVE_KEYS)
            path.write_text(json.dumps(curve))
            with pytest.raises(FitRejectedError):
                curve_from_dict(curve)
            catalog.write_text(json.dumps(records))
        else:
            _rename_a_key(data, records, CATALOG_KEYS)
            catalog.write_text(json.dumps(records))
            with pytest.raises(ScenarioError):
                load_catalog(catalog)
        stderr = io.StringIO()
        with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
            code = run(["probe", "--scenario", SCENARIOS / "B-485.json",
                        "--catalog", catalog, "--curves", curves,
                        "--out", work / "out"])
    assert code == 3
    assert len(stderr.getvalue().splitlines()) == 1


@pytest.mark.parametrize("key, value, message", [
    ("seed", True, "seed must be a number, got True"),
    ("isi_factor", "7.0", "isi_factor must be a number, got '7.0'"),
    ("noise_sigma_q_db", True, "noise_sigma_q_db must be a number, got True"),
    ("name", ["a"], "name must be a string, got ['a']"),
    ("catalog", None, "catalog must be a string, got None"),
    ("monitor_config_id", 69.4, "monitor_config_id must be a string, got 69.4"),
    ("spans", "", "spans must be an array, got ''"),
    ("filters", {}, "filters must be an array, got {}"),
    ("ripple", "", "ripple must be an array, got ''"),
], ids=["seed-true", "isi-factor-text", "noise-sigma-true", "name-list",
        "catalog-null", "monitor-config-number", "spans-empty-text",
        "filters-empty-object", "ripple-empty-text"])
def test_value_of_another_type_is_invalid_scenario(tmp_path, curves_dir, capsys,
                                                   key, value, message):
    """Each once ran: true read as seed 1 or a 1 dB noise sigma, "7.0" as
    7, any value as text (a list name wrote ``['a']-report.json``), and an
    empty string or object as no spans, filters or ripple points. A null
    catalog looked for a catalog file named None (exit 3)."""
    scenario = shipped_data("B-485")
    scenario[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    assert run(["probe", "--scenario", path, "--curves", curves_dir,
                "--out", out]) == 4
    assert capsys.readouterr().err.splitlines() == [
        f"invalid scenario: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("document, edit", [
    ("catalog", lambda records: records[0].update(required_gsnr_db=True)),
    ("catalog", lambda records: records[0].update(symbol_rate_gbd="31.5")),
    ("curve", lambda curve: curve.update(
        snr_modem_db=str(curve["snr_modem_db"]))),
    ("curve", lambda curve: curve.update(schema_version=True)),
    ("curve", lambda curve: curve.update(
        coefficients=[str(c) for c in curve["coefficients"]])),
], ids=["catalog-gsnr-true", "catalog-rate-text", "curve-modem-snr-text",
        "curve-schema-true", "curve-coefficients-text"])
def test_value_of_another_type_in_catalog_or_curve_is_config_error(
        tmp_path, curves_dir, capsys, document, edit):
    """Each once probed B-485 with exit 0: true read as 1 (a 1 dB required
    GSNR, curve schema 1) and numeric text as a number."""
    curves = tmp_path / "curves"
    shutil.copytree(curves_dir, curves)
    records = catalog_records(resolve_catalog("default"))
    curve_path = curves / "DP-QPSK-31.5.json"
    curve = json.loads(curve_path.read_text())
    edit(records if document == "catalog" else curve)
    (tmp_path / "catalog.json").write_text(json.dumps(records))
    curve_path.write_text(json.dumps(curve))
    assert run(["probe", "--scenario", SCENARIOS / "B-485.json", "--catalog",
                tmp_path / "catalog.json", "--curves", curves,
                "--out", tmp_path / "out"]) == 3
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def _json_type(value):
    if value is None or isinstance(value, (bool, str, list, dict)):
        return type(value)
    return float  # an int or a float: both a JSON number


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6)
# Fields that take null as well as a number.
NULLABLE_KEYS = {"equalizer_window_ghz", "snr_modem_db"}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), document=st.sampled_from(["scenario", "catalog", "curve"]))
def test_value_of_another_json_type_ends_in_its_exit_code(curves_dir, data,
                                                          document):
    """Any one value of a shipped scenario, of a catalog record or of a
    written curve file, at any depth, set to a value of another JSON type:
    probe ends in exit 4 for the scenario and exit 3 for the others, with
    one stderr line."""
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        curves = work / "curves"
        shutil.copytree(curves_dir, curves)
        scenario = shipped_data(data.draw(st.sampled_from(SCENARIO_NAMES)))
        catalog = resolve_catalog(scenario["catalog"])
        records = catalog_records(catalog)
        # a curve the probe reads: one of the scenario's catalog
        curve_path = curves / data.draw(st.sampled_from(
            sorted(f"{cfg.config_id}.json" for cfg in catalog)))
        curve = json.loads(curve_path.read_text())
        node = {"scenario": scenario, "catalog": records, "curve": curve}[document]
        *parents, key = data.draw(st.sampled_from(
            [path for path, _ in _value_paths(node)]))
        for parent in parents:
            node = node[parent]
        kept = {_json_type(node[key])}
        if key in NULLABLE_KEYS:
            kept |= {float, type(None)}
        node[key] = data.draw(JSON_VALUES.filter(
            lambda value: _json_type(value) not in kept))
        (work / "scenario.json").write_text(json.dumps(scenario))
        (work / "catalog.json").write_text(json.dumps(records))
        curve_path.write_text(json.dumps(curve))
        stderr = io.StringIO()
        with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
            code = run(["probe", "--scenario", work / "scenario.json",
                        "--catalog", work / "catalog.json", "--curves", curves,
                        "--out", work / "out"])
    assert code == (4 if document == "scenario" else 3)
    assert len(stderr.getvalue().splitlines()) == 1
