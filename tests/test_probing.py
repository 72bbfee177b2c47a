import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from osaas_probe.catalog import default_catalog, regional_catalog, resolve_catalog
from osaas_probe.errors import (
    CarrierRejectedError,
    InsufficientDataError,
    LimitViolationError,
    NoSignalError,
)
from osaas_probe.linesystem import (
    BerReading,
    LineSystem,
    LinkSpec,
    SpanSpec,
)
from osaas_probe.modem import ModemModel, characterize
from osaas_probe.probing import (
    MAX_MONITOR_SAMPLES,
    GsnrProfile,
    ProbeCampaign,
    ProbeResult,
    ProbeStatus,
    Regime,
    VerificationFlag,
    _line_fit,
    _parabola_vertex,
    check_monitor_span,
    compute_margins,
    compute_penalties,
    detect_misalignment,
    detect_operation_regime,
    detect_symbol_rate_cap,
    estimate_link_gsnr,
    probe_once,
    profile_tilt_ripple,
    run_extended_probe,
    run_frequency_sweep,
    run_monitor,
    run_probe_workflow,
    select_best_config,
    verify_margin_accuracy,
    what_if_line_rates,
)
from osaas_probe.spectrum import (
    MediaChannel,
    ModulationFormat,
    PltConfig,
    PolicyKind,
    PowerPolicy,
)
from osaas_probe.reports import probe_result_to_dict

from conftest import SCENARIO_NAMES, ProbeSurface, shipped_scenario

POLICY = PowerPolicy.constant_psd(-26.0)
MC = MediaChannel(193.2, 100.0, 9.0, -20.0)


def mk_campaign(entries):
    """entries: list of (rate, format, status, gsnr_est)."""
    configs = {}
    campaign = None
    results = []
    for i, (rate, fmt, status, est) in enumerate(entries):
        cfg = PltConfig(fmt, rate, min(100.0, 4 * rate), 6.2509)
        configs[cfg.config_id] = cfg
        results.append(ProbeResult(
            cfg.config_id, MC.center_thz, POLICY, status,
            gsnr_est_db=est, q_db=est))
    campaign = ProbeCampaign("synthetic", MC, configs)
    for r in results:
        campaign.add(r)
    return campaign


def test_campaign_rejects_duplicates():
    campaign = mk_campaign([(31.5, ModulationFormat.DP_QPSK,
                             ProbeStatus.WORKING, 15.0)])
    dup = campaign.results[0]
    with pytest.raises(ValueError):
        campaign.add(dup)


def test_compute_penalties_all_equal():
    campaign = mk_campaign([
        (31.5, ModulationFormat.DP_QPSK, ProbeStatus.WORKING, 17.0),
        (46.3, ModulationFormat.DP_QPSK, ProbeStatus.WORKING, 17.0),
    ])
    assert set(compute_penalties(campaign).values()) == {0.0}


def test_compute_penalties_reference_values():
    campaign = mk_campaign([
        (34.5, ModulationFormat.DP_QPSK, ProbeStatus.WORKING, 18.0),
        (55.5, ModulationFormat.DP_QPSK, ProbeStatus.WORKING, 17.4),
        (69.4, ModulationFormat.DP_QPSK, ProbeStatus.WORKING, 15.5),
    ])
    pens = compute_penalties(campaign)
    assert pens["DP-QPSK-34.5"] == pytest.approx(0.0)
    assert pens["DP-QPSK-55.5"] == pytest.approx(0.6)
    assert pens["DP-QPSK-69.4"] == pytest.approx(2.5)


def test_compute_penalties_outage_marker():
    campaign = mk_campaign([
        (34.5, ModulationFormat.DP_QPSK, ProbeStatus.WORKING, 18.0),
        (69.4, ModulationFormat.DP_QPSK, ProbeStatus.OUTAGE, None),
    ])
    assert compute_penalties(campaign)["DP-QPSK-69.4"] == math.inf


def test_compute_penalties_requires_working():
    campaign = mk_campaign([
        (34.5, ModulationFormat.DP_QPSK, ProbeStatus.OUTAGE, None)])
    with pytest.raises(NoSignalError):
        compute_penalties(campaign)


def test_symbol_rate_cap_rules():
    campaign = mk_campaign([
        (31.5, ModulationFormat.DP_QPSK, ProbeStatus.WORKING, 17.8),
        (34.5, ModulationFormat.DP_P16QAM, ProbeStatus.WORKING, 18.0),
        (46.3, ModulationFormat.DP_QPSK, ProbeStatus.WORKING, 17.5),
        (55.5, ModulationFormat.DP_16QAM, ProbeStatus.WORKING, 16.9),
        (69.4, ModulationFormat.DP_QPSK, ProbeStatus.WORKING, 10.9),
    ])
    pens = compute_penalties(campaign)
    assert pens["DP-QPSK-69.4"] == pytest.approx(7.1)
    assert detect_symbol_rate_cap(campaign, pens, 2.0) == 55.5
    # all-zero penalties cap at the highest rate
    flat = mk_campaign([
        (31.5, ModulationFormat.DP_QPSK, ProbeStatus.WORKING, 15.0),
        (69.4, ModulationFormat.DP_QPSK, ProbeStatus.WORKING, 15.0),
    ])
    assert detect_symbol_rate_cap(flat, compute_penalties(flat), 2.0) == 69.4
    # the longest-link shape: two working configurations, 1.3 dB apart
    two = mk_campaign([
        (31.5, ModulationFormat.DP_QPSK, ProbeStatus.WORKING, 10.2),
        (46.3, ModulationFormat.DP_QPSK, ProbeStatus.WORKING, 8.9),
    ])
    assert detect_symbol_rate_cap(two, compute_penalties(two), 2.0) == 46.3


def test_symbol_rate_cap_fallback_to_min_penalty():
    campaign = mk_campaign([
        (31.5, ModulationFormat.DP_QPSK, ProbeStatus.WORKING, 15.0),
        (46.3, ModulationFormat.DP_QPSK, ProbeStatus.WORKING, 11.0),
    ])
    pens = compute_penalties(campaign)
    # theta below every nonzero penalty: only the best config remains
    assert detect_symbol_rate_cap(campaign, pens, -0.5) == 31.5


def test_estimate_link_gsnr_mean_and_filtering():
    campaign = mk_campaign([
        (31.5, ModulationFormat.DP_QPSK, ProbeStatus.WORKING, 17.2),
        (46.3, ModulationFormat.DP_QPSK, ProbeStatus.WORKING, 17.4),
        (52.0, ModulationFormat.DP_QPSK, ProbeStatus.WORKING, 17.3),
        (69.4, ModulationFormat.DP_QPSK, ProbeStatus.WORKING, 10.0),
    ])
    assert estimate_link_gsnr(campaign, 52.0) == pytest.approx(17.3)
    assert estimate_link_gsnr(campaign, 31.5) == pytest.approx(17.2)
    with pytest.raises(NoSignalError):
        estimate_link_gsnr(campaign, 20.0)


def test_estimate_within_min_max():
    campaign = mk_campaign([
        (31.5, ModulationFormat.DP_QPSK, ProbeStatus.WORKING, 16.0),
        (46.3, ModulationFormat.DP_QPSK, ProbeStatus.WORKING, 17.0),
    ])
    est = estimate_link_gsnr(campaign, 69.4)
    assert 16.0 <= est <= 17.0


def test_compute_margins():
    catalog = (
        PltConfig(ModulationFormat.DP_QPSK, 31.5, 100.0, 15.0),
        PltConfig(ModulationFormat.DP_QPSK, 69.4, 200.0, 15.0),
    )
    margins = compute_margins(17.5, catalog, 31.5)
    assert margins == {"DP-QPSK-31.5": pytest.approx(2.5)}
    margins = compute_margins(14.0, catalog, 69.4)
    assert margins["DP-QPSK-69.4"] == pytest.approx(-1.0)


def test_select_best_config_rules():
    catalog = (
        PltConfig(ModulationFormat.DP_QPSK, 55.5, 200.0, 10.0),
        PltConfig(ModulationFormat.DP_16QAM, 46.3, 300.0, 14.0),
        PltConfig(ModulationFormat.DP_16QAM, 58.0, 400.0, 15.0),
    )
    margins = {"DP-QPSK-55.5": 3.1, "DP-16QAM-46.3": 0.4, "DP-16QAM-58": -0.6}
    assert select_best_config(margins, catalog) == "DP-16QAM-46.3"
    assert select_best_config({k: -1.0 for k in margins}, catalog) is None
    # line-rate tie: larger margin wins
    catalog_tie = (
        PltConfig(ModulationFormat.DP_16QAM, 46.3, 300.0, 14.0),
        PltConfig(ModulationFormat.DP_16QAM, 52.0, 300.0, 14.0),
    )
    assert select_best_config({"DP-16QAM-46.3": 0.4, "DP-16QAM-52": 1.0},
                              catalog_tie) == "DP-16QAM-52"
    # margin tie: smaller spectral footprint wins
    assert select_best_config({"DP-16QAM-46.3": 1.0, "DP-16QAM-52": 1.0},
                              catalog_tie) == "DP-16QAM-46.3"


def test_select_best_invariant_under_nonpositive_additions():
    catalog = (
        PltConfig(ModulationFormat.DP_QPSK, 55.5, 200.0, 10.0),
        PltConfig(ModulationFormat.DP_16QAM, 46.3, 300.0, 14.0),
    )
    margins = {"DP-QPSK-55.5": 2.0}
    best = select_best_config(margins, catalog)
    margins["DP-16QAM-46.3"] = 0.0
    assert select_best_config(margins, catalog) == best


@pytest.fixture(scope="module")
def lh_line_and_curves():
    modem = ModemModel(26.0)
    catalog = default_catalog()
    curves = {c.config_id: characterize(modem, c) for c in catalog}
    line = LineSystem(shipped_scenario("LH-1016").link, modem)
    return line, catalog, curves


def test_engine_runs_against_black_box_proxy(lh_line_and_curves):
    line, catalog, curves = lh_line_and_curves
    proxy = ProbeSurface(line)
    report = run_probe_workflow(proxy, catalog, curves, POLICY)
    assert report.best_config is not None
    assert report.symbol_rate_cap_gbd == 69.4
    profile = run_frequency_sweep(proxy, catalog[:2], curves, 6.25, POLICY)
    assert profile.points
    regime = detect_operation_regime(proxy, catalog, curves, -26.0, 69.4)
    assert regime.entries


def test_probing_module_has_no_ground_truth_access():
    import inspect
    import osaas_probe.probing as probing
    source = inspect.getsource(probing)
    assert "ground_truth" not in source
    assert "effective_filters" not in source
    assert ".link" not in source
    # probe_once is the one probe path
    assert source.count(".probe(") == 1


def test_empty_catalog_gives_empty_campaign(lh_line_and_curves):
    line, _, curves = lh_line_and_curves
    campaign = run_extended_probe(line, (), curves, POLICY)
    assert campaign.results == []


def test_campaign_permutation_invariance(lh_line_and_curves):
    line, catalog, curves = lh_line_and_curves
    noisy = LineSystem(replace(line.link, noise_sigma_q_db=0.05, seed=21),
                       line.modem)
    forward = run_extended_probe(noisy, catalog, curves, POLICY)
    backward = run_extended_probe(noisy, tuple(reversed(catalog)), curves, POLICY)
    fwd = {r.config_id: r.gsnr_est_db for r in forward.working()}
    bwd = {r.config_id: r.gsnr_est_db for r in backward.working()}
    assert fwd == bwd
    pens_f = compute_penalties(forward)
    cap_f = detect_symbol_rate_cap(forward, pens_f)
    pens_b = compute_penalties(backward)
    cap_b = detect_symbol_rate_cap(backward, pens_b)
    assert cap_f == cap_b
    assert estimate_link_gsnr(forward, cap_f) == \
        pytest.approx(estimate_link_gsnr(backward, cap_b), abs=1e-12)


def test_verify_margin_accuracy_flags(lh_line_and_curves):
    line, catalog, curves = lh_line_and_curves
    report = run_probe_workflow(line, catalog, curves, POLICY)
    # all margins far from zero: nothing to verify
    margins = {c.config_id: 5.0 for c in catalog}
    bound, flag = verify_margin_accuracy(report.campaign, margins)
    assert bound == 0.0 and flag is VerificationFlag.UNVERIFIED
    # correct near-zero predictions: no false predictions
    near = {cid: m for cid, m in report.margins_db.items() if abs(m) <= 1.5}
    assert near  # the route is tuned to exercise verification
    bound, flag = verify_margin_accuracy(report.campaign, report.margins_db)
    assert bound == 0.0 and flag is VerificationFlag.NO_FALSE_PREDICTIONS
    # force a wrong prediction: positive margin on an impossible config
    wrong = {"DP-16QAM-58": 0.32}
    dead = LineSystem(shipped_scenario("B-621").link, line.modem)
    campaign = run_extended_probe(dead, catalog, curves, POLICY)
    bound, flag = verify_margin_accuracy(campaign, wrong)
    assert bound == pytest.approx(0.32)
    assert flag is VerificationFlag.FALSE_PREDICTIONS


def test_verification_reads_the_post_fec_status():
    """An error-free or off-curve reading has no estimate but works; a
    rejected carrier does not. A margin of exactly zero is never false."""
    works = PltConfig(ModulationFormat.DP_QPSK, 31.5, 37.5, 6.2509)
    rejected = PltConfig(ModulationFormat.DP_16QAM, 31.5, 37.5, 12.0)
    campaign = ProbeCampaign("synthetic", MC, {c.config_id: c
                                               for c in (works, rejected)})
    campaign.add(ProbeResult(works.config_id, MC.center_thz, POLICY,
                             ProbeStatus.UNUSABLE, post_fec_ok=True))
    campaign.add(ProbeResult(rejected.config_id, MC.center_thz, POLICY,
                             ProbeStatus.UNUSABLE))
    assert verify_margin_accuracy(campaign, {works.config_id: -0.4,
                                             rejected.config_id: 0.3}) == (
        0.4, VerificationFlag.FALSE_PREDICTIONS)
    assert verify_margin_accuracy(campaign, {works.config_id: 0.4,
                                             rejected.config_id: -0.3}) == (
        0.0, VerificationFlag.NO_FALSE_PREDICTIONS)
    assert verify_margin_accuracy(campaign, {works.config_id: 0.0,
                                             rejected.config_id: 0.0}) == (
        0.0, VerificationFlag.NO_FALSE_PREDICTIONS)


class _StubLine:
    """A probe surface that answers every probe with ``outcome``, or raises
    it when it is an exception."""

    media_channel = MC
    name = "stub"

    def __init__(self, outcome):
        self.outcome = outcome

    def probe(self, config, policy, carrier_center_thz=None, sim_time_h=0.0):
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome


@pytest.mark.parametrize("outcome, status, post_fec_ok", [
    (BerReading(1e-3, True, 0.0), ProbeStatus.WORKING, True),
    (BerReading(0.0, True, 0.0), ProbeStatus.UNUSABLE, True),  # error-free
    (BerReading(1e-30, True, 0.0), ProbeStatus.UNUSABLE, True),  # off the curve
    (BerReading(0.1, False, 0.0), ProbeStatus.OUTAGE, False),
    (CarrierRejectedError("rejected"), ProbeStatus.UNUSABLE, False),
    (LimitViolationError("over the limit"), ProbeStatus.UNUSABLE, False),
])
def test_probe_once_keeps_the_post_fec_status(catalog, curves, outcome, status,
                                              post_fec_ok):
    config = catalog[0]
    result = probe_once(_StubLine(outcome), config, curves[config.config_id],
                        POLICY)
    assert result.status is status
    assert result.post_fec_ok is post_fec_ok
    # the report holds every field but post_fec_ok, in field order
    assert list(probe_result_to_dict(result)) == [
        "config_id", "carrier_center_thz", "policy", "status", "sim_time_h",
        "q_db", "gsnr_est_db", "note"]


def test_probe_records_are_immutable_named_tuples():
    """A probe's BerReading and probe_once's ProbeResult keep their fields
    and defaults, refuse assignment and hash by value."""
    reading = BerReading(1e-3, True, -3.5)
    assert BerReading._fields == ("pre_fec_ber", "post_fec_ok", "rx_power_dbm")
    assert reading == BerReading(pre_fec_ber=1e-3, post_fec_ok=True,
                                 rx_power_dbm=-3.5)
    config = default_catalog()[0]
    result = ProbeResult(config.config_id, MC.center_thz, POLICY,
                         ProbeStatus.OUTAGE)
    assert ProbeResult._fields == (
        "config_id", "carrier_center_thz", "policy", "status", "sim_time_h",
        "q_db", "gsnr_est_db", "note", "post_fec_ok")
    assert result.sim_time_h == 0.0
    assert result.q_db is None and result.gsnr_est_db is None
    assert result.note == ""
    assert result.post_fec_ok is False
    for record, name in ((reading, "pre_fec_ber"), (result, "status"),
                         (result, "post_fec_ok")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1  # no __dict__
        assert hash(record) == hash(type(record)(*record))
    assert len({reading, BerReading(1e-3, True, -3.5)}) == 1


def test_workflow_probes_each_carrier_once(curves):
    """B-485's workflow probes each of its 9 configurations once; the
    verification reads the campaign."""
    sc = shipped_scenario("B-485")
    proxy = ProbeSurface(LineSystem(sc.link, ModemModel(26.0)))
    report = run_probe_workflow(proxy, resolve_catalog(sc.catalog), curves,
                                sc.policy)
    assert report.accuracy_flag is not VerificationFlag.UNVERIFIED
    assert len(proxy.probes) == 9
    assert len(set(proxy.probes)) == 9


# Routes whose margins never fall within the near-zero band, on any seed.
UNVERIFIED_ROUTES = {"A-144", "A-241", "A-241-sweep", "A-4", "B-621", "B-70",
                     "C-284-sweep", "b2b"}


def _reverify(line, catalog, margins_db, policy):
    """Reference verification that probes each near-zero configuration
    again on ``line``, a rejected carrier counting as not working."""
    by_id = {cfg.config_id: cfg for cfg in catalog}
    verified = False
    worst = 0.0
    for cid, margin in margins_db.items():
        if abs(margin) > 1.5:
            continue
        verified = True
        try:
            works = line.probe(by_id[cid], policy).post_fec_ok
        except (CarrierRejectedError, LimitViolationError):
            works = False
        if (margin > 0 and not works) or (margin < 0 and works):
            worst = max(worst, abs(margin))
    if not verified:
        return 0.0, VerificationFlag.UNVERIFIED
    if worst > 0.0:
        return worst, VerificationFlag.FALSE_PREDICTIONS
    return 0.0, VerificationFlag.NO_FALSE_PREDICTIONS


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_verification_on_every_shipped_route(curves, modem, name):
    """Seeds 1-100: the campaign-read verification equals a fresh re-probe,
    stays within criterion 4's 0.35 dB wherever it verifies, and verifies on
    every seed except on the routes pinned as unverified."""
    sc = shipped_scenario(name)
    catalog = resolve_catalog(sc.catalog)
    flags = set()
    for seed in range(1, 101):
        link = replace(sc.link, seed=seed)
        report = run_probe_workflow(LineSystem(link, modem), catalog, curves,
                                    sc.policy)
        got = (report.accuracy_bound_db, report.accuracy_flag)
        assert got == _reverify(LineSystem(link, modem), catalog,
                                report.margins_db, sc.policy), seed
        if report.accuracy_flag is not VerificationFlag.UNVERIFIED:
            assert report.accuracy_bound_db <= 0.35, seed
        flags.add(report.accuracy_flag)
    if name in UNVERIFIED_ROUTES:
        assert flags == {VerificationFlag.UNVERIFIED}
    else:
        assert VerificationFlag.UNVERIFIED not in flags



def test_what_if_equals_achievable_without_filters(lh_line_and_curves):
    """LH-1016 has no filters and no DCG spans: its what-if copy is itself."""
    line, catalog, curves = lh_line_and_curves
    achievable, potential = what_if_line_rates(line, catalog, curves, POLICY)
    assert achievable > 0.0
    assert achievable == potential


def test_what_if_line_rates_of_b1302(curves, make_line):
    sc = shipped_scenario("B-1302")
    rates = what_if_line_rates(make_line("B-1302", seed=123),
                               resolve_catalog(sc.catalog), curves, sc.policy)
    assert rates == (200.0, 300.0)


def test_what_if_without_working_probe_raises(curves, modem):
    link = shipped_scenario("B-621").link
    dead = replace(link, spans=tuple(replace(s, loss_db=30.0)
                                     for s in link.spans))
    with pytest.raises(NoSignalError):
        what_if_line_rates(LineSystem(dead, modem), regional_catalog(), curves,
                           POLICY)


def test_quick_start_what_if_issues_36_probes(curves, make_line, monkeypatch):
    """Both quick-start throughput routes: each probe workflow on the line and
    on its filter-free copy, 36 probes in all."""
    count = [0]
    probe = LineSystem.probe

    def counting(self, *args, **kwargs):
        count[0] += 1
        return probe(self, *args, **kwargs)
    monkeypatch.setattr(LineSystem, "probe", counting)
    for name in ("B-621", "B-1302"):
        sc = shipped_scenario(name)
        what_if_line_rates(make_line(name), resolve_catalog(sc.catalog), curves,
                           sc.policy)
    assert count[0] == 36

def test_sweep_profile_shape_and_symmetry(lh_line_and_curves):
    noisy, catalog, curves = lh_line_and_curves
    line = LineSystem(replace(noisy.link, noise_sigma_q_db=0.0), noisy.modem)
    config = next(c for c in catalog if c.config_id == "DP-16QAM-34.5")
    profile = run_frequency_sweep(line, (config,), curves, 6.25, POLICY)
    series = profile.points["DP-16QAM-34.5"]
    freqs = [f for f, _ in series]
    assert freqs == sorted(freqs)
    steps = {round((b - a) * 1000, 3) for a, b in zip(freqs, freqs[1:])}
    assert steps == {6.25}
    # symmetric unfiltered link: profile symmetric about the center
    values = [v for _, v in series]
    assert all(v is not None for v in values)
    for left, right in zip(values, reversed(values)):
        assert left == pytest.approx(right, abs=0.05)


def test_sweep_skips_oversized_config(lh_line_and_curves):
    line, catalog, curves = lh_line_and_curves
    narrow = LineSystem(
        replace(line.link, media_channel=MediaChannel(193.95, 50.0, 9.0, -20.0)),
        line.modem)
    config = next(c for c in catalog if c.config_id == "DP-QPSK-69.4")
    profile = run_frequency_sweep(narrow, (config,), curves, 6.25, POLICY)
    assert "DP-QPSK-69.4" in profile.skipped
    assert "DP-QPSK-69.4" not in profile.points


def synthetic_profile(points_by_config, configs, width=100.0):
    mc = MediaChannel(193.2, width, 9.0, -20.0)
    return GsnrProfile(
        media_channel=mc, step_ghz=6.25,
        points={cid: [(mc.center_thz + off / 1000.0, val) for off, val in pts]
                for cid, pts in points_by_config.items()},
        configs={c.config_id: c for c in configs},
    )


def with_outage_edges(pts):
    """A sweep series that ends in an outage at both channel edges."""
    return [(pts[0][0] - 6.25, None)] + pts + [(pts[-1][0] + 6.25, None)]


def test_detect_misalignment_symmetric_is_zero():
    cfg = PltConfig(ModulationFormat.DP_16QAM, 34.5, 200.0, 12.71)
    pts = [(off, 15.0 - 0.01 * off ** 2) for off in
           (-12.5, -6.25, 0.0, 6.25, 12.5)]
    profile = synthetic_profile({cfg.config_id: pts}, [cfg])
    offset, indeterminate = detect_misalignment(profile)
    assert not indeterminate
    assert offset == pytest.approx(0.0, abs=0.1)


@pytest.mark.parametrize("vertex, expected", [(-0.04, 0.0), (0.04, 0.0),
                                              (-6.3, -6.3), (6.3, 6.3)])
def test_detect_misalignment_returns_a_float_never_minus_zero(vertex, expected):
    cfg = PltConfig(ModulationFormat.DP_16QAM, 34.5, 200.0, 12.71)
    pts = [(off, 15.0 - 0.01 * (off - vertex) ** 2) for off in
           (-12.5, -6.25, 0.0, 6.25, 12.5)]
    profile = synthetic_profile({cfg.config_id: with_outage_edges(pts)}, [cfg])
    offset, indeterminate = detect_misalignment(profile)
    assert not indeterminate
    assert type(offset) is float
    assert offset == expected
    assert math.copysign(1.0, offset) == math.copysign(1.0, expected)


def test_detect_misalignment_flat_profile_indeterminate():
    cfg = PltConfig(ModulationFormat.DP_16QAM, 34.5, 200.0, 12.71)
    pts = [(off, 15.0) for off in (-6.25, 0.0, 6.25)]
    profile = synthetic_profile({cfg.config_id: pts}, [cfg])
    offset, indeterminate = detect_misalignment(profile)
    assert indeterminate and offset == 0.0


def test_detect_misalignment_uses_narrowest_config():
    narrow = PltConfig(ModulationFormat.DP_16QAM, 34.5, 200.0, 12.71)
    wide = PltConfig(ModulationFormat.DP_QPSK, 69.4, 200.0, 6.25)
    pts_narrow = [(off, 15.0 - 0.02 * (off - 6.25) ** 2)
                  for off in (-12.5, -6.25, 0.0, 6.25, 12.5)]
    pts_wide = [(off, 14.0 - 0.02 * (off + 6.25) ** 2)
                for off in (-12.5, -6.25, 0.0, 6.25, 12.5)]
    profile = synthetic_profile(
        {narrow.config_id: with_outage_edges(pts_narrow),
         wide.config_id: pts_wide},
        [narrow, wide])
    offset, indeterminate = detect_misalignment(profile)
    assert not indeterminate
    assert offset == pytest.approx(6.25, abs=0.1)


@pytest.mark.parametrize("first, last, indeterminate", [
    (None, None, False), (14.0, None, False), (None, 14.0, False),
    (14.0, 14.0, False), (14.01, None, True), (None, 14.01, True),
    (15.0, 15.0, True)])
def test_detect_misalignment_needs_both_edges(first, last, indeterminate):
    """Determinate only when the first and last sweep points are each an
    outage or at least 1 dB below the peak."""
    cfg = PltConfig(ModulationFormat.DP_16QAM, 34.5, 200.0, 12.71)
    pts = [(-12.5, first), (-6.25, 14.8), (0.0, 15.0), (6.25, 14.9),
           (12.5, last)]
    profile = synthetic_profile({cfg.config_id: pts}, [cfg])
    assert detect_misalignment(profile)[1] is indeterminate


@pytest.mark.parametrize("name", [n for n in SCENARIO_NAMES if n.startswith("LH-")]
                         + ["C-284-sweep"])
def test_preset_sweeps_find_misalignment_only_where_injected(name, curves):
    """Filterless long-haul lines show no filter edge, so their sweeps are
    indeterminate; the +6.25 GHz cascade offset of C-284-sweep is found
    within half a sweep step."""
    for seed in (1, 123, 424242):
        sc = shipped_scenario(name).with_seed(seed)
        line = LineSystem(sc.link, ModemModel(26.0))
        profile = run_frequency_sweep(line, resolve_catalog(sc.catalog), curves,
                                      sc.sweep_step_ghz, sc.policy)
        offset, indeterminate = detect_misalignment(profile)
        if sc.link.filter_misalignment_ghz:
            assert not indeterminate and abs(offset - 6.25) <= 3.13, seed
        else:
            assert not sc.link.filters
            assert indeterminate and offset == 0.0, seed


def test_detect_misalignment_needs_three_points():
    cfg = PltConfig(ModulationFormat.DP_16QAM, 34.5, 200.0, 12.71)
    profile = synthetic_profile({cfg.config_id: [(0.0, 15.0), (6.25, None)]},
                                [cfg])
    with pytest.raises(InsufficientDataError):
        detect_misalignment(profile)


def test_profile_tilt_ripple_constructed_line():
    cfg = PltConfig(ModulationFormat.DP_QPSK, 31.5, 100.0, 6.25)
    width = 400.0
    # exact 2.5 dB end-to-end drop across the full channel
    pts = [(off, 15.0 + 2.5 * off / width)
           for off in np.arange(-200.0, 200.1, 25.0)]
    profile = synthetic_profile({cfg.config_id: pts}, [cfg], width=width)
    tilt, ripple = profile_tilt_ripple(profile, cfg.config_id)
    assert tilt == pytest.approx(2.5, abs=1e-9)
    assert ripple == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(InsufficientDataError):
        profile_tilt_ripple(
            synthetic_profile({cfg.config_id: pts[:3]}, [cfg], width), cfg.config_id)


def sweep_offsets(min_size, max_size):
    """Distinct carrier offsets on the 0.25 GHz grid, ascending, in GHz."""
    return st.lists(st.integers(-800, 800), min_size=min_size,
                    max_size=max_size, unique=True).map(
        lambda ticks: [t * 0.25 for t in sorted(ticks)])


@settings(max_examples=200, deadline=None)
@given(xs=sweep_offsets(3, 3),
       ys=st.lists(st.floats(0.0, 30.0), min_size=3, max_size=3))
def test_parabola_vertex_matches_numpy_polyfit(xs, ys):
    a, b, _ = np.polyfit(xs, ys, 2)
    assume(abs(a) > 1e-6)
    assert math.isclose(_parabola_vertex(list(zip(xs, ys))), -b / (2.0 * a),
                        rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_line_fit_matches_numpy_polyfit(data):
    xs = data.draw(sweep_offsets(4, 65))
    ys = data.draw(st.lists(st.floats(0.0, 30.0), min_size=len(xs),
                            max_size=len(xs)))
    slope, intercept = _line_fit(xs, ys)
    reference_slope, reference_intercept = np.polyfit(xs, ys, 1)
    assert math.isclose(slope, reference_slope, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(intercept, reference_intercept, rel_tol=1e-9,
                        abs_tol=1e-9)


def test_regime_eta_zero_all_linear(lh_line_and_curves):
    _, catalog, curves = lh_line_and_curves
    spans = tuple(SpanSpec(14.0, 5.0, 0.0) for _ in range(10))
    line = LineSystem(LinkSpec("linear", MediaChannel(193.95, 400.0, 9.0, -20.0),
                               spans), ModemModel(26.0))
    report = detect_operation_regime(line, catalog, curves, -26.0, 69.4)
    below_ref = [cid for cid, e in report.entries.items()
                 if report.rs_ref_gbd > catalog_rate(catalog, cid)]
    assert below_ref
    for cid in below_ref:
        assert report.entries[cid].classification is Regime.LINEAR
        assert report.entries[cid].recommended_power_delta_db > 0


def catalog_rate(catalog, cid):
    return next(c.symbol_rate_gbd for c in catalog if c.config_id == cid)


def test_regime_reference_rate_is_near_optimum(lh_line_and_curves):
    line, catalog, curves = lh_line_and_curves
    noisy = LineSystem(replace(line.link, noise_sigma_q_db=0.05), line.modem)
    report = detect_operation_regime(noisy, catalog, curves, -26.0, 69.4)
    for cid, entry in report.entries.items():
        if catalog_rate(catalog, cid) == 69.4:
            assert entry.delta_db == 0.0
            assert entry.classification is Regime.NEAR_OPTIMUM


def test_regime_nonlinear_preset(lh_line_and_curves):
    _, catalog, curves = lh_line_and_curves
    line = LineSystem(shipped_scenario("LH-5738").link, ModemModel(26.0))
    report = detect_operation_regime(line, catalog, curves, -26.0, 69.4)
    assert report.entries["DP-QPSK-31.5"].classification is Regime.NONLINEAR
    assert report.entries["DP-QPSK-31.5"].recommended_power_delta_db < 0


def test_regime_stability_under_noise(lh_line_and_curves):
    _, catalog, curves = lh_line_and_curves
    base = shipped_scenario("A-144").link
    flips = 0
    trials = 200
    qpsk = tuple(c for c in regional_catalog() if c.format is ModulationFormat.DP_QPSK)
    for seed in range(trials):
        line = LineSystem(replace(base, noise_sigma_q_db=0.03, seed=seed + 1),
                          ModemModel(26.0))
        report = detect_operation_regime(line, qpsk, curves, -26.0, 69.4)
        if report.entries["DP-QPSK-31.5"].classification is not Regime.LINEAR:
            flips += 1
    assert flips / trials < 0.01


@pytest.mark.parametrize("duration_h", [math.nan, -5.0, math.inf])
def test_monitor_duration_must_be_finite_and_non_negative(lh_line_and_curves,
                                                          duration_h):
    line, catalog, curves = lh_line_and_curves
    config = catalog[0]
    with pytest.raises(ValueError, match="duration"):
        run_monitor(line, config, curves[config.config_id], POLICY,
                    duration_h, 1.0)


@pytest.mark.parametrize("duration_h, interval_h", [
    (1e12, 1.0), (48.0, 1e-300), (48.0, 5e-324), (MAX_MONITOR_SAMPLES, 1.0)])
def test_monitor_sample_count_is_bounded(catalog, curves, duration_h,
                                         interval_h):
    """A finite span that asks for more than MAX_MONITOR_SAMPLES samples is
    refused before the first probe (the line here has no probe surface)."""
    config = catalog[0]
    with pytest.raises(ValueError, match="samples"):
        run_monitor(None, config, curves[config.config_id], POLICY,
                    duration_h, interval_h)


def test_monitor_sample_bound_is_inclusive(catalog, curves):
    """The span check and the series agree: a span of exactly
    MAX_MONITOR_SAMPLES samples runs them all, and an infinite interval is
    one sample, at t = 0."""
    config = catalog[0]
    line = _StubLine(BerReading(1e-3, True, 0.0))
    check_monitor_span(MAX_MONITOR_SAMPLES - 1.0, 1.0)  # exactly the bound
    series = run_monitor(line, config, curves[config.config_id], POLICY,
                         MAX_MONITOR_SAMPLES - 1.0, 1.0)
    assert len(series) == MAX_MONITOR_SAMPLES
    assert series[-1][0] == MAX_MONITOR_SAMPLES - 1.0
    check_monitor_span(48.0, math.inf)
    assert [t for t, _ in run_monitor(line, config, curves[config.config_id],
                                      POLICY, 48.0, math.inf)] == [0.0]


@pytest.mark.parametrize("duration_h", [0.0, 1e-9, 1.0, 48.0, 1e6])
def test_monitor_at_an_infinite_interval_samples_t0_once(lh_line_and_curves,
                                                         duration_h):
    """0 * inf is NaN, so a series at an infinite interval used to be
    empty; it is the one sample at t = 0, the same reading as a finite
    interval's first."""
    line, catalog, curves = lh_line_and_curves
    config = catalog[0]
    curve = curves[config.config_id]
    proxy = ProbeSurface(line)
    series = run_monitor(proxy, config, curve, POLICY, duration_h, math.inf)
    assert series == run_monitor(line, config, curve, POLICY, 0.0, 1.0)
    assert len(series) == 1 and series[0][0] == 0.0
    assert series[0][1] is not None
    assert proxy.probes == [(config, POLICY, None, 0.0)]


def test_regime_probes_the_reference_rate_once(curves):
    """LH-5738's catalog has two 69.4 GBd configurations, which get the same
    carrier under both policies: 11 constant-PSD probes and 9
    constant-power probes, where probing both policies would take 22."""
    sc = shipped_scenario("LH-5738")
    catalog = resolve_catalog(sc.catalog)
    rs_ref = max(c.symbol_rate_gbd for c in catalog)
    line = LineSystem(sc.link, ModemModel(26.0))
    proxy = ProbeSurface(line)
    report = detect_operation_regime(proxy, catalog, curves, sc.policy.value,
                                     rs_ref)
    reference_rate = [c for c in catalog if c.symbol_rate_gbd == rs_ref]
    assert len(catalog) == 11 and len(reference_rate) == 2
    kinds = [policy.kind for _, policy, *_ in proxy.probes]
    assert len(kinds) == 20
    assert kinds.count(PolicyKind.CONSTANT_PSD) == 11
    entry = report.entries["DP-QPSK-69.4"]
    assert entry.delta_db == 0.0
    assert entry.classification is Regime.NEAR_OPTIMUM
    assert report.excluded["DP-P-16QAM-69.4"] == "outage under both power policies"
    # the reading reused for the constant-power policy is the one it gets
    assert sc.link.noise_sigma_q_db > 0
    power = PowerPolicy.constant_total_power(
        sc.policy.value + 10.0 * math.log10(rs_ref))
    for config in reference_rate:
        assert line.probe(config, sc.policy) == line.probe(config, power)
        # the reused entry is the constant-PSD result with only its policy
        # replaced, and equals a constant-power probe
        curve = curves[config.config_id]
        at_psd = probe_once(line, config, curve, sc.policy)
        reused = at_psd._replace(policy=power)
        assert reused.policy is power and at_psd.policy is sc.policy
        assert reused[:2] == at_psd[:2] and reused[3:] == at_psd[3:]
        assert reused == probe_once(line, config, curve, power)
