"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a single PASS line when its criterion holds (run with -s to
see them); a failing criterion fails the corresponding test.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from osaas_probe.catalog import regional_catalog, resolve_catalog
from osaas_probe.cli import main
from osaas_probe.linesystem import (
    LineSystem,
    LinkSpec,
    SpanSpec,
    cascade_osnr_at_0dbm,
)
from osaas_probe.modem import ModemModel, characterize
from osaas_probe.probing import (
    Regime,
    detect_misalignment,
    detect_operation_regime,
    probe_once,
    profile_tilt_ripple,
    run_extended_probe,
    run_frequency_sweep,
    run_monitor,
    run_probe_workflow,
    verify_margin_accuracy,
    what_if_line_rates,
)
from osaas_probe.spectrum import (
    C_BAND_WIDTH_GHZ,
    MediaChannel,
    PolicyKind,
    PowerPolicy,
)
from osaas_probe.units import dbm_to_mw, osnr_to_snr_db

from conftest import REPO_ROOT, ProbeSurface, shipped_scenario

POLICY = PowerPolicy(PolicyKind.CONSTANT_PSD, -26.0)
SCENARIOS = REPO_ROOT / "scenarios"


def report_pass(n, text):
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def ase_only_link(total_gsnr_db, modem_db, rate, name="synthetic",
                  psd=-26.0, width=400.0):
    """Single transparent span whose carrier sees the requested total GSNR."""
    if math.isinf(modem_db):
        optical = total_gsnr_db
    else:
        noise = 10 ** (-total_gsnr_db / 10) - 10 ** (-modem_db / 10)
        optical = -10 * math.log10(noise)
    launch = psd + 10 * math.log10(rate)
    loss = launch + 58.0 - 5.0 - (optical - 10 * math.log10(12.5 / rate))
    mc = MediaChannel(193.95, width, 9.0, -20.0)
    return LinkSpec(name, mc, (SpanSpec(loss, 5.0, 0.0),))


def line_for(name, sigma=None, seed=None, modem=None):
    link = shipped_scenario(name).link
    if sigma is not None:
        link = replace(link, noise_sigma_q_db=sigma)
    if seed is not None:
        link = replace(link, seed=seed)
    return LineSystem(link, modem if modem else ModemModel(26.0))


def test_criterion_01_characterization_round_trip(catalog):
    for modem_db in (math.inf, 26.0, 20.0):
        model = ModemModel(modem_db)
        for config in catalog:
            curve = characterize(model, config)
            lo, hi = curve.valid_range
            # below the FEC threshold the black box reports outage, not a
            # Q reading, so the usable range starts at the threshold
            lo = max(lo, config.required_gsnr_db) + 0.05
            for target in np.linspace(lo, hi - 0.05, 5):
                line = LineSystem(
                    ase_only_link(float(target), modem_db,
                                  config.symbol_rate_gbd), model)
                truth = line.ground_truth_gsnr(config, POLICY)
                assert truth == pytest.approx(float(target), abs=1e-6)
                result = probe_once(line, config, curve, POLICY)
                assert result.gsnr_est_db == pytest.approx(truth, abs=0.02)
    report_pass(1, "known-GSNR lines recovered within 0.02 dB across every "
                   "catalog config and modem model")


def test_criterion_02_noise_decomposition_identity(catalog):
    config = next(c for c in catalog if c.config_id == "DP-QPSK-31.5")
    model = ModemModel(math.inf)
    curve = characterize(model, config)
    # ASE = NLI = 20 dB: set the span so ASE alone gives 20 dB, then add the
    # cubic coefficient that makes NLI noise equal to the ASE noise.
    link = ase_only_link(20.0, math.inf, config.symbol_rate_gbd)
    power_dbm = POLICY.value + 10 * math.log10(config.symbol_rate_gbd)
    power_mw = dbm_to_mw(power_dbm)
    osnr = power_dbm + cascade_osnr_at_0dbm(link.spans)
    ase_mw = power_mw / 10 ** (osnr_to_snr_db(osnr, config.symbol_rate_gbd) / 10)
    eta = ase_mw / power_mw ** 3
    span = link.spans[0]
    link = replace(link, spans=(replace(span, nli_coeff_per_mw2=eta),))
    line = LineSystem(link, model)
    result = probe_once(line, config, curve, POLICY)
    assert result.gsnr_est_db == pytest.approx(16.9897, abs=0.02)
    report_pass(2, "ASE 20 dB + NLI 20 dB probes as 16.99 dB estimated GSNR")


def test_criterion_03_wide_band_accuracy(catalog, curves):
    line = line_for("LH-1016", sigma=0.0)
    truths = [line.ground_truth_gsnr(c, POLICY) for c in catalog]
    report = run_probe_workflow(line, catalog, curves, POLICY)
    zero_noise_err = max(abs(report.gsnr_est_link_db - t) for t in truths)
    assert zero_noise_err <= 0.05
    worst = 0.0
    for seed in range(100):
        noisy = line_for("LH-1016", sigma=0.05, seed=seed + 1)
        rep = run_probe_workflow(noisy, catalog, curves, POLICY)
        worst = max(worst, max(abs(rep.gsnr_est_link_db - t) for t in truths))
    assert worst <= 0.1
    report_pass(3, f"wide-band estimate within {zero_noise_err:.3f} dB of "
                   f"ground truth (0.05 limit), {worst:.3f} dB with noise "
                   f"(0.1 limit)")


def test_criterion_04_narrow_band_accuracy(curves):
    capped_worst = {}
    for name in ("B-485", "B-822", "B-1182", "B-1302"):
        catalog = resolve_catalog(shipped_scenario(name).catalog)
        worst = 0.0
        for seed in range(100):
            line = line_for(name, seed=seed + 1)
            rep = run_probe_workflow(line, catalog, curves, POLICY)
            worst = max(worst, rep.accuracy_bound_db)
        capped_worst[name] = worst
        assert worst <= 0.35, f"{name}: {worst}"
    # without the cap the same verification exceeds 1 dB
    catalog = resolve_catalog(shipped_scenario("B-485").catalog)
    uncapped_min = math.inf
    for seed in range(100):
        line = line_for("B-485", seed=seed + 1)
        campaign = run_extended_probe(line, catalog, curves, POLICY)
        est = float(np.mean([r.gsnr_est_db for r in campaign.working()]))
        margins = {c.config_id: est - c.required_gsnr_db for c in catalog}
        bound, _ = verify_margin_accuracy(campaign, margins)
        uncapped_min = min(uncapped_min, bound)
    assert uncapped_min > 1.0
    report_pass(4, f"cap-filtered verification bounds {capped_worst} all "
                   f"<= 0.35 dB; uncapped bound at least "
                   f"{uncapped_min:.2f} dB on B-485")


def test_criterion_05_constant_psd_scatter(catalog, curves):
    worst = 0.0
    for seed in range(100):
        line = line_for("LH-1016", sigma=0.05, seed=seed + 1)
        campaign = run_extended_probe(line, catalog, curves, POLICY)
        values = [r.gsnr_est_db for r in campaign.working()]
        assert len(values) == 11
        worst = max(worst, max(values) - min(values))
    assert worst <= 0.8
    report_pass(5, f"all 11 constant-PSD estimates concentrated within "
                   f"{worst:.2f} dB (0.8 limit)")


def test_criterion_06_filtering_envelope(curves):
    catalog = resolve_catalog(shipped_scenario("b2b").catalog)
    line = line_for("b2b", sigma=0.0)
    campaign = run_extended_probe(line, catalog, curves, POLICY)
    ests = {r.config_id: r.gsnr_est_db for r in campaign.working()}
    d55 = ests["DP-P-16QAM-34.5"] - ests["DP-16QAM-55.5"]
    d69 = ests["DP-P-16QAM-34.5"] - ests["DP-QPSK-69.4"]
    assert d55 <= 1.0
    assert 1.5 <= d69 <= 3.0
    report_pass(6, f"back-to-back penalties: 55.5 GBd {d55:.2f} dB (<= 1.0), "
                   f"69.4 GBd {d69:.2f} dB (in [1.5, 3.0])")


def test_criterion_07_symbol_rate_caps(curves):
    expected = {"A-144": 55.5, "B-485": 52.0, "B-1182": 46.3, "B-1302": 46.3}
    for name, want in expected.items():
        catalog = resolve_catalog(shipped_scenario(name).catalog)
        for seed in range(25):
            line = line_for(name, seed=seed + 1)
            rep = run_probe_workflow(line, catalog, curves, POLICY, theta_db=2.0)
            assert rep.symbol_rate_cap_gbd == want, \
                f"{name} seed {seed}: {rep.symbol_rate_cap_gbd}"
    report_pass(7, f"symbol-rate caps reproduced with theta=2.0: {expected}")


def _sweep_trio(catalog):
    wanted = ("DP-QPSK-69.4", "DP-P-16QAM-46.3", "DP-16QAM-34.5")
    return tuple(c for c in catalog if c.config_id in wanted)


def _value_at(profile, cid, offset_ghz):
    center = profile.media_channel.center_thz
    for freq, value in profile.points[cid]:
        if abs((freq - center) * 1000.0 - offset_ghz) < 1e-6:
            return value
    raise AssertionError(f"{cid} has no point at {offset_ghz} GHz")


def test_criterion_08_sweep_penalties(curves):
    scenario = shipped_scenario("A-241-sweep")
    line = line_for("A-241-sweep")
    catalog = resolve_catalog(scenario.catalog)
    profile = run_frequency_sweep(line, _sweep_trio(catalog), curves,
                                  scenario.sweep_step_ghz, scenario.policy)
    s0 = _value_at(profile, "DP-16QAM-34.5", 0.0)
    s18 = _value_at(profile, "DP-16QAM-34.5", 18.75)
    assert s0 is not None and s18 is not None
    assert s0 - s18 >= 2.0
    assert _value_at(profile, "DP-P-16QAM-46.3", 18.75) is None
    assert _value_at(profile, "DP-QPSK-69.4", 18.75) is None
    assert _value_at(profile, "DP-P-16QAM-46.3", 0.0) is not None
    assert _value_at(profile, "DP-QPSK-69.4", 0.0) is not None
    report_pass(8, f"34 GBd degrades {s0 - s18:.2f} dB at 18.75 GHz offset "
                   f"(>= 2); 46.3 and 69.4 GBd report outage there")


def test_criterion_09_misalignment(curves):
    scenario = shipped_scenario("C-284-sweep")
    line = line_for("C-284-sweep")
    catalog = resolve_catalog(scenario.catalog)
    profile = run_frequency_sweep(line, _sweep_trio(catalog), curves,
                                  scenario.sweep_step_ghz, scenario.policy)
    offset, indeterminate = detect_misalignment(profile)
    assert not indeterminate
    assert abs(offset - 6.25) <= 3.13
    report_pass(9, f"injected +6.25 GHz cascade offset detected at "
                   f"{offset:+.1f} GHz (half-step tolerance)")


def test_criterion_10_tilt(curves):
    scenario = shipped_scenario("LH-1792")
    catalog = resolve_catalog(scenario.catalog)
    line = line_for("LH-1792")
    profile = run_frequency_sweep(line, _sweep_trio(catalog), curves,
                                  scenario.sweep_step_ghz, scenario.policy)
    tilt, _ = profile_tilt_ripple(profile, "DP-QPSK-69.4")
    assert abs(tilt - 2.5) <= 0.2
    equalized = line_for("LH-1792-5x75")
    profile2 = run_frequency_sweep(equalized, _sweep_trio(catalog), curves,
                                   scenario.sweep_step_ghz, scenario.policy)
    tilt2, _ = profile_tilt_ripple(profile2, "DP-QPSK-69.4")
    assert tilt2 <= 0.35
    report_pass(10, f"400 GHz channel tilt {tilt:.2f} dB (2.5 +- 0.2); "
                    f"per-NMC equalized tilt {tilt2:.2f} dB (<= 0.35)")


def test_criterion_11_operation_regime(catalog, curves):
    # launch power sweep peaks where ASE noise is twice the NLI noise
    eta = 0.05
    span = SpanSpec(16.0, 5.0, eta)
    mc = MediaChannel(193.2, 100.0, 9.0, -5.0)
    line = LineSystem(LinkSpec("opt", mc, (span,)), ModemModel(math.inf))
    config = next(c for c in catalog if c.config_id == "DP-QPSK-31.5")

    def gsnr(p_dbm):
        return line.ground_truth_gsnr(
            config, PowerPolicy(PolicyKind.CONSTANT_TOTAL_POWER, p_dbm))

    phi = (math.sqrt(5) - 1) / 2
    a, b = -15.0, 8.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    for _ in range(100):
        if gsnr(c) > gsnr(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    p_star = dbm_to_mw(0.5 * (a + b))
    osnr = 0.5 * (a + b) + cascade_osnr_at_0dbm((span,))
    ase_mw = p_star / 10 ** (osnr_to_snr_db(osnr, config.symbol_rate_gbd) / 10)
    p_analytic = (ase_mw / (2 * eta)) ** (1 / 3)
    assert abs(p_star - p_analytic) / p_analytic <= 0.01

    regional = regional_catalog()
    for name, want in [("A-144", Regime.LINEAR), ("B-70", Regime.LINEAR),
                       ("A-652", Regime.NONLINEAR),
                       ("LH-5738", Regime.NONLINEAR)]:
        line = line_for(name)
        cat = resolve_catalog(shipped_scenario(name).catalog)
        report = detect_operation_regime(line, cat, curves, -26.0, 69.4)
        assert report.entries["DP-QPSK-31.5"].classification is want, name
    report_pass(11, f"optimum launch power at ASE=2xNLI within "
                    f"{abs(p_star - p_analytic) / p_analytic * 100:.2f}% of "
                    f"analytic; short routes linear, longest nonlinear")


def test_criterion_12_throughput_gain(curves):
    gains = {}
    for name in ("B-485", "B-621", "B-822", "B-1182", "B-1302"):
        catalog = resolve_catalog(shipped_scenario(name).catalog)
        achievable, potential = what_if_line_rates(line_for(name), catalog,
                                                   curves, POLICY)
        assert potential >= achievable
        gains[name] = 100.0 * (potential - achievable) / achievable
        # 40-channel extrapolation is exact arithmetic
        assert 40.0 * (potential - achievable) == pytest.approx(
            40 * potential - 40 * achievable, abs=1e-12)
    assert max(gains.values()) == 100.0
    report_pass(12, f"per-channel throughput gains {gains} reach 100%")


def test_criterion_13_monitoring(catalog, curves):
    for name, amplitude in (("LH-3751-monitor-summer", 1.5),
                            ("LH-3751-monitor-winter", 0.4)):
        scenario = shipped_scenario(name)
        line = line_for(name)
        config = next(c for c in catalog
                      if c.config_id == scenario.monitor_config_id)
        series = [v for _, v in run_monitor(line, config, curves[config.config_id],
                                            scenario.policy, 48.0, 1.0)]
        swing = max(series) - min(series)
        assert abs(swing - amplitude) <= 0.1, name
    # the capacity arithmetic of a slot-narrowing upgrade is exact
    from osaas_probe.probing import monitor_upgrade
    q69 = next(c for c in catalog if c.config_id == "DP-QPSK-69.4")
    p58 = next(c for c in catalog if c.config_id == "DP-P-16QAM-58")
    upgrade = monitor_upgrade((q69, p58), q69, peak_est_db=11.5)
    assert upgrade is p58
    gain = (p58.line_rate_gbps * C_BAND_WIDTH_GHZ / p58.slot_width_ghz
            - q69.line_rate_gbps * C_BAND_WIDTH_GHZ / q69.slot_width_ghz)
    assert gain == pytest.approx(2560.0, abs=1e-9)
    report_pass(13, "diurnal swings 1.5 and 0.4 dB recovered within 0.1 dB; "
                    "75 -> 62.5 GHz upgrade gains exactly 2560 Gbit/s")


def test_criterion_14_determinism_and_black_box(tmp_path, catalog, curves):
    curves_dir = tmp_path / "curves"
    assert main(["characterize", "--out", str(curves_dir)]) == 0
    command_sets = [
        (["probe", "--scenario", str(SCENARIOS / "B-485.json")],
         ["B-485-report.json"]),
        (["sweep", "--scenario", str(SCENARIOS / "LH-1792.json"),
          "--configs", "DP-QPSK-69.4,DP-P-16QAM-46.3,DP-16QAM-34.5"],
         ["LH-1792-profile.csv", "LH-1792-sweep-summary.json"]),
        (["regime", "--scenario", str(SCENARIOS / "LH-5738.json")],
         ["LH-5738-regime.json"]),
        (["throughput", "--scenario", str(SCENARIOS / "B-621.json")],
         ["throughput.json"]),
        (["monitor", "--scenario",
          str(SCENARIOS / "LH-3751-monitor-summer.json")],
         ["LH-3751-monitor-summer-monitor.csv",
          "LH-3751-monitor-summer-monitor-summary.json"]),
    ]
    for args, outputs in command_sets:
        blobs = []
        for attempt in ("one", "two"):
            out = tmp_path / f"{args[0]}-{attempt}"
            code = main(args + ["--curves", str(curves_dir), "--seed", "123",
                                "--out", str(out)])
            assert code == 0
            blobs.append([(out / name).read_bytes() for name in outputs])
        assert blobs[0] == blobs[1], f"{args[0]} output not bit-identical"

    # black-box discipline: the probing engine sees only the probe surface
    import inspect
    import osaas_probe.probing as probing
    source = inspect.getsource(probing)
    assert "ground_truth" not in source

    line = line_for("LH-1016")
    report = run_probe_workflow(ProbeSurface(line), catalog, curves, POLICY)
    assert report.best_config is not None
    report_pass(14, "every CLI command bit-identical under a fixed seed; "
                    "probing engine runs against the bare probe surface")
