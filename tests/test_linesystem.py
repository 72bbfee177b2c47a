import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from osaas_probe import linesystem
from osaas_probe.catalog import regional_catalog
from osaas_probe.errors import CarrierRejectedError, LimitViolationError, ScenarioError
from osaas_probe.linesystem import (
    DISPERSION_COMP_NLI_FACTOR,
    DispersionComp,
    FilterElement,
    LineSystem,
    LinkSpec,
    SpanSpec,
    _penalty_cached,
    cascade_osnr_at_0dbm,
    filter_transfer,
    filtering_penalty_db,
    nli_eta_per_mw2,
)
from osaas_probe.modem import ModemModel, ber_from_snr
from osaas_probe.probing import run_frequency_sweep
from osaas_probe.scenario import load_scenario
from osaas_probe.spectrum import (
    MediaChannel,
    ModulationFormat,
    PltConfig,
    PowerPolicy,
    carrier_power_dbm,
    to_grid_units,
)
from osaas_probe.units import (
    ASE_BUDGET_CONSTANT_DB,
    dbm_to_mw,
    osnr_to_snr_db,
    q_db_from_ber,
)

from conftest import cold_line, shipped_scenario

MC = MediaChannel(193.2, 100.0, 9.0, -20.0)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIO_FILES = sorted(SCENARIOS.glob("*.json"))


def span(loss=20.0, nf=5.0, eta=0.0, comp=DispersionComp.NONE):
    return SpanSpec(loss, nf, eta, comp)


def config(fmt=ModulationFormat.DP_QPSK, rate=31.5, line=100.0, req=6.2509):
    return PltConfig(fmt, rate, line, req)


def test_single_span_osnr():
    assert cascade_osnr_at_0dbm((span(20.0, 5.0),)) == pytest.approx(33.0)


def test_cascade_osnr_ten_identical_spans():
    spans = (span(20.0, 5.0),) * 10
    assert cascade_osnr_at_0dbm(spans) == pytest.approx(23.0, abs=1e-9)


def test_zero_spans_infinite_osnr():
    assert cascade_osnr_at_0dbm(()) == math.inf


def test_nli_power():
    assert nli_eta_per_mw2((span(eta=0.0),) * 3) == 0.0
    assert nli_eta_per_mw2((span(eta=0.01),)) == pytest.approx(0.01)
    # dispersion-compensated spans carry the coherence surcharge
    assert nli_eta_per_mw2((span(eta=0.01, comp=DispersionComp.DCF),)) == \
        pytest.approx(0.015)
    assert nli_eta_per_mw2((span(eta=0.01), span(eta=0.02))) * 2.0 ** 3 == \
        pytest.approx((0.01 + 0.02) * 8.0)


def test_filter_transfer_points():
    filt = FilterElement(0.0, 80.0, 2)
    center, upper, lower = filter_transfer((filt,), np.array([0.0, 40.0, -40.0]))
    assert center == pytest.approx(1.0)
    assert upper == pytest.approx(0.5, abs=1e-12)
    assert lower == pytest.approx(0.5, abs=1e-12)
    assert filter_transfer((filt, filt), np.array([40.0]))[0] == \
        pytest.approx(0.25, abs=1e-12)
    shifted = FilterElement(10.0, 80.0, 2)
    assert filter_transfer((shifted,), np.array([50.0]))[0] == \
        pytest.approx(0.5, abs=1e-12)


def test_filtering_penalty_no_filters():
    assert filtering_penalty_db((), config(), 0.0) == 0.0


def test_filtering_penalty_monotone_in_rate():
    cascade = (FilterElement(0.0, 70.0, 3),)
    rates = [31.5, 34.5, 46.3, 52.0, 55.5, 58.0, 69.4]
    pens = [filtering_penalty_db(cascade, config(rate=r, line=80.0), 0.0)
            for r in rates]
    assert all(b >= a for a, b in zip(pens, pens[1:]))


def test_filtering_penalty_grows_with_cascade():
    cfg = config(rate=55.5, line=200.0)
    one = (FilterElement(0.0, 70.0, 3),)
    two = one * 2
    assert filtering_penalty_db(two, cfg, 0.0) >= filtering_penalty_db(one, cfg, 0.0)


def line_with(spans, modem=None, **kwargs):
    link = LinkSpec("test", MC, spans, **kwargs)
    return LineSystem(link, modem if modem else ModemModel(math.inf))


def ase_only_line(snr_ase_db, rate, psd=-26.0, modem=None):
    """Single span tuned so the carrier sees the requested ASE SNR."""
    launch = psd + 10 * math.log10(rate)
    loss = launch + 58.0 - 5.0 - (snr_ase_db - 10 * math.log10(12.5 / rate))
    return line_with((span(loss, 5.0),), modem=modem)


def test_probe_linear_link_matches_ase_only_gsnr():
    cfg = config()
    line = ase_only_line(17.0, cfg.symbol_rate_gbd)
    policy = PowerPolicy.constant_psd(-26.0)
    gt = line.ground_truth_gsnr(cfg, policy)
    assert gt == pytest.approx(17.0, abs=1e-9)
    reading = line.probe(cfg, policy)
    assert q_db_from_ber(reading.pre_fec_ber) == pytest.approx(
        q_db_from_ber(ber_from_snr(cfg.format, gt)), abs=1e-9)


def test_probe_applies_modem_noise_harmonically():
    cfg = config()
    line = ase_only_line(20.0, cfg.symbol_rate_gbd, modem=ModemModel(20.0))
    gt = line.ground_truth_gsnr(cfg, PowerPolicy.constant_psd(-26.0))
    assert gt == pytest.approx(16.9897, abs=1e-4)


def test_probe_rejects_misplaced_carrier():
    cfg = config(rate=69.4, line=200.0)
    line = ase_only_line(17.0, 69.4)
    with pytest.raises(CarrierRejectedError):
        line.probe(cfg, PowerPolicy.constant_psd(-26.0),
                   carrier_center_thz=MC.center_thz + 0.02)
    with pytest.raises(LimitViolationError):
        line.probe(cfg, PowerPolicy.constant_psd(-15.0))


def test_post_fec_threshold():
    cfg = config(req=6.2509)
    # tune the line right below the FEC limit: BER above threshold
    line = ase_only_line(cfg.required_gsnr_db - 0.5, cfg.symbol_rate_gbd)
    reading = line.probe(cfg, PowerPolicy.constant_psd(-26.0))
    assert reading.pre_fec_ber > cfg.fec_threshold_ber
    assert not reading.post_fec_ok
    line = ase_only_line(cfg.required_gsnr_db + 0.5, cfg.symbol_rate_gbd)
    reading = line.probe(cfg, PowerPolicy.constant_psd(-26.0))
    assert reading.post_fec_ok


def test_error_free_line_reads_zero_ber():
    # zero spans, ideal modem: nothing degrades the carrier
    line = line_with(())
    reading = line.probe(config(), PowerPolicy.constant_psd(-26.0))
    assert reading.pre_fec_ber == 0.0
    assert reading.post_fec_ok


def test_probe_deterministic_and_order_free():
    cfg = config()
    link = replace(ase_only_line(15.0, 31.5).link, noise_sigma_q_db=0.05, seed=9)
    policy = PowerPolicy.constant_psd(-26.0)
    first = LineSystem(link, ModemModel(26.0)).probe(cfg, policy)
    other_cfg = config(rate=46.3, line=150.0)
    line2 = LineSystem(link, ModemModel(26.0))
    line2.probe(other_cfg, policy)  # interleave another probe
    second = line2.probe(cfg, policy)
    assert first == second
    # different seed changes the reading
    line3 = LineSystem(replace(link, seed=10), ModemModel(26.0))
    assert line3.probe(cfg, policy) != first


def test_noise_keyed_on_realized_power_not_policy():
    cfg = config(rate=69.4, line=200.0)
    link = replace(ase_only_line(15.0, 69.4).link, noise_sigma_q_db=0.05, seed=3)
    line = LineSystem(link, ModemModel(26.0))
    psd_reading = line.probe(cfg, PowerPolicy.constant_psd(-26.0))
    power = -26.0 + 10 * math.log10(69.4)
    power_reading = line.probe(cfg, PowerPolicy.constant_total_power(power))
    assert psd_reading == power_reading


def test_tilt_and_diurnal_offsets():
    cfg = config(rate=31.5)
    base = ase_only_line(15.0, 31.5).link
    policy = PowerPolicy.constant_psd(-26.0)
    tilted = LineSystem(replace(base, tilt_db_per_mc=2.5), ModemModel(math.inf))
    low = tilted.ground_truth_gsnr(cfg, policy, MC.center_thz - 0.030)
    high = tilted.ground_truth_gsnr(cfg, policy, MC.center_thz + 0.030)
    assert high - low == pytest.approx(2.5 * 60.0 / 100.0, abs=0.01)
    diurnal = LineSystem(replace(base, diurnal_amplitude_db=1.5),
                         ModemModel(math.inf))
    peak = diurnal.ground_truth_gsnr(cfg, policy, sim_time_h=6.0)
    trough = diurnal.ground_truth_gsnr(cfg, policy, sim_time_h=18.0)
    assert peak - trough == pytest.approx(1.5, abs=0.01)


def test_equalizer_granularity():
    cfg = config(rate=31.5)
    policy = PowerPolicy.constant_psd(-26.0)
    base = replace(ase_only_line(15.0, 31.5).link, tilt_db_per_mc=2.0)
    per_mc = LineSystem(replace(base, equalizer_window_ghz=MC.width_ghz),
                        ModemModel(math.inf))
    lo = per_mc.ground_truth_gsnr(cfg, policy, MC.center_thz - 0.030)
    hi = per_mc.ground_truth_gsnr(cfg, policy, MC.center_thz + 0.030)
    # per-MC equalization recenters but keeps the intra-channel tilt
    assert hi - lo == pytest.approx(2.0 * 60.0 / 100.0, abs=0.01)
    per_nmc = LineSystem(replace(base, equalizer_window_ghz=25.0),
                         ModemModel(math.inf))
    offsets = np.arange(-31.25, 31.26, 6.25)
    values = [per_nmc.ground_truth_gsnr(cfg, policy, MC.center_thz + o / 1000.0)
              for o in offsets]
    slope = np.polyfit(offsets, values, 1)[0]
    assert abs(slope) * MC.width_ghz <= 0.35


def test_adding_span_never_improves_gsnr():
    cfg = config()
    policy = PowerPolicy.constant_psd(-26.0)
    for n in range(1, 6):
        shorter = line_with((span(16.0, 5.0, 1e-4),) * n)
        longer = line_with((span(16.0, 5.0, 1e-4),) * (n + 1))
        assert longer.ground_truth_gsnr(cfg, policy) < \
            shorter.ground_truth_gsnr(cfg, policy)


def test_ground_truth_consistency_with_probe():
    cfg = config(rate=46.3, line=150.0)
    line = line_with((span(18.0, 5.0, 5e-4),) * 4,
                     filters=(FilterElement(0.0, 60.0, 3),))
    policy = PowerPolicy.constant_psd(-26.0)
    gt = line.ground_truth_gsnr(cfg, policy)
    reading = line.probe(cfg, policy)
    assert reading.pre_fec_ber == pytest.approx(
        ber_from_snr(cfg.format, gt), rel=1e-12)


def test_without_filters_removes_all_filtering():
    line = line_with((span(18.0, 5.0, 0.0, DispersionComp.DCG),) * 2,
                     filters=(FilterElement(0.0, 70.0, 3),))
    assert len(line.effective_filters) == 3
    clean = line.without_filters()
    assert clean.effective_filters == ()
    cfg = config(rate=55.5, line=200.0)
    policy = PowerPolicy.constant_psd(-26.0)
    assert clean.ground_truth_gsnr(cfg, policy) > \
        line.ground_truth_gsnr(cfg, policy)


def test_launch_power_optimum_at_ase_twice_nli():
    """Golden-section peak of GSNR(P) sits at the analytic optimum."""
    eta = 0.05
    one_span = (span(16.0, 5.0, eta),)
    open_mc = MediaChannel(193.2, 100.0, 9.0, -5.0)
    line = LineSystem(LinkSpec("opt", open_mc, one_span), ModemModel(math.inf))
    cfg = config()

    def gsnr(p_dbm):
        return line.ground_truth_gsnr(
            cfg, PowerPolicy.constant_total_power(p_dbm))

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
    p_star_mw = dbm_to_mw(0.5 * (a + b))
    osnr = 0.5 * (a + b) + cascade_osnr_at_0dbm(one_span)
    ase_mw = p_star_mw / 10 ** (osnr_to_snr_db(osnr, cfg.symbol_rate_gbd) / 10)
    p_analytic = (ase_mw / (2 * eta)) ** (1 / 3)
    assert abs(p_star_mw - p_analytic) / p_analytic <= 0.01
    # and the noise balance at the optimum is ASE = 2 x NLI
    assert ase_mw == pytest.approx(2 * eta * p_star_mw ** 3, rel=0.02)


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.stem)
def test_line_constants_match_per_span_sums(path):
    """The per-line ASE and NLI terms equal the span-by-span sums."""
    line = LineSystem(load_scenario(path).link)
    spans = line.link.spans
    for launch_dbm in (-12.0, -3.5, 0.0, 4.0):
        launch_mw = dbm_to_mw(launch_dbm)
        if spans:
            reference_osnr = -10.0 * math.log10(sum(
                10.0 ** (-(launch_dbm + ASE_BUDGET_CONSTANT_DB - s.loss_db
                           - s.amp_noise_figure_db) / 10.0) for s in spans))
        else:
            reference_osnr = math.inf
        osnr = launch_dbm + line._osnr_at_0dbm
        assert osnr == reference_osnr or abs(osnr - reference_osnr) <= 1e-9
        reference_nli = sum(
            s.nli_coeff_per_mw2 * launch_mw ** 3
            * (1.0 if s.dispersion_comp is DispersionComp.NONE
               else DISPERSION_COMP_NLI_FACTOR)
            for s in spans)
        assert line._nli_eta_per_mw2 * launch_mw ** 3 == pytest.approx(
            reference_nli, rel=1e-9, abs=1e-30)


def test_cold_sweep_integrates_each_placement_once(curves):
    """One penalty integral per distinct (symbol rate, roll-off, offset):
    the ISI-amplified penalty and the received power share it."""
    sc = load_scenario(SCENARIOS / "C-284-sweep.json")
    line = cold_line(sc.link, ModemModel(26.0))
    _penalty_cached.cache_clear()
    profile = run_frequency_sweep(line, regional_catalog(), curves,
                                  sc.sweep_step_ghz, sc.policy)
    mc = line.media_channel
    placements = {
        (cfg.symbol_rate_gbd, cfg.roll_off,
         to_grid_units((center - mc.center_thz) * 1000.0))
        for cid, cfg in profile.configs.items()
        for center, _ in profile.points[cid]
    }
    assert len(placements) == 66
    assert _penalty_cached.cache_info().misses == len(placements)


@pytest.mark.parametrize("name, config_id, offset, power, hours, expected", [
    ("B-485", "DP-16QAM-34.5", 0.0, -1.0, 0.0, -0.004570120030011185),
    ("B-1302", "DP-QPSK-69.4", 6.25, 0.5, 0.0, -0.003586733798898486),
    ("LH-5738", "DP-P-16QAM-46.3", -12.5, -2.25, 3.0, 0.017825178083964135),
])
def test_noise_draws_are_pinned(catalog, name, config_id, offset, power, hours,
                                expected):
    """The per-probe noise draw is part of every seeded report; its entropy
    and generator must not change."""
    line = LineSystem(shipped_scenario(name).link)
    config = {c.config_id: c for c in catalog}[config_id]
    assert line._keyed_noise_db(line._noise_key(config, offset, power),
                                hours) == expected


@pytest.mark.parametrize("isi_factor", [-7.0, -1e-9, math.inf, math.nan])
def test_isi_factor_must_be_finite_and_non_negative(isi_factor):
    with pytest.raises(ScenarioError, match="ISI factor"):
        replace(shipped_scenario("B-621").link, isi_factor=isi_factor)


def test_probe_looks_the_penalty_up_once(catalog_regional, monkeypatch):
    """One lookup per probe serves the SNR and the rx power."""
    calls = []

    def counting(*args):
        calls.append(args)
        return filtering_penalty_db(*args)

    monkeypatch.setattr(linesystem, "filtering_penalty_db", counting)
    sc = shipped_scenario("B-621")
    line = cold_line(sc.link, ModemModel(26.0))
    cfg = catalog_regional[0]
    reading = line.probe(cfg, sc.policy)
    assert len(calls) == 1
    loss = filtering_penalty_db(line.effective_filters, cfg, 0.0)
    power = carrier_power_dbm(sc.policy, cfg, sc.link.media_channel)
    assert loss > 0.0
    assert reading.rx_power_dbm == power - loss



def test_repeated_probe_is_a_memo_hit(catalog_regional, monkeypatch):
    """A carrier probed again reads equal, adds no memo entry and looks no
    penalty up."""
    calls = []

    def counting(*args):
        calls.append(args)
        return filtering_penalty_db(*args)

    monkeypatch.setattr(linesystem, "filtering_penalty_db", counting)
    sc = shipped_scenario("B-621")
    assert sc.link.noise_sigma_q_db > 0
    line = cold_line(sc.link, ModemModel(26.0))
    cfg = catalog_regional[0]
    center = sc.link.media_channel.center_thz + 0.00625
    first = line.probe(cfg, sc.policy, center)
    assert len(line._carriers) == 1 and len(calls) == 1
    assert line.probe(cfg, sc.policy, center) == first
    assert len(line._carriers) == 1 and len(calls) == 1
    assert cold_line(sc.link, ModemModel(26.0)).probe(cfg, sc.policy,
                                                      center) == first


def test_memo_keys_on_the_config_not_its_id(catalog_regional):
    """Roll-off and FEC threshold are not part of the configuration id, so
    configs that share an id are distinct carriers; so are a config and
    policy that hash as another, equal in all but the enum field."""
    sc = shipped_scenario("B-621")
    line = cold_line(sc.link, ModemModel(26.0))
    cfg = catalog_regional[0]
    assert cfg.format is ModulationFormat.DP_QPSK
    base = line.probe(cfg, sc.policy)
    narrow = replace(cfg, roll_off=0.05)
    strict = replace(cfg, fec_threshold_ber=base.pre_fec_ber / 2.0)
    assert narrow.config_id == strict.config_id == cfg.config_id
    other_format = replace(cfg, format=ModulationFormat.DP_16QAM)
    total_power = PowerPolicy.constant_total_power(sc.policy.value)
    assert hash(other_format) == hash(cfg) and other_format != cfg
    assert hash(total_power) == hash(sc.policy) and total_power != sc.policy
    probes = [(narrow, sc.policy), (strict, sc.policy),
              (other_format, sc.policy), (cfg, total_power)]
    readings = [line.probe(*args) for args in probes]
    assert len(line._carriers) == 5
    assert readings == [cold_line(sc.link, ModemModel(26.0)).probe(*args)
                        for args in probes]
    assert readings[0].rx_power_dbm != base.rx_power_dbm
    assert base.post_fec_ok and not readings[1].post_fec_ok
    assert readings[2].pre_fec_ber != base.pre_fec_ber
    assert readings[3].rx_power_dbm != base.rx_power_dbm


def test_rejected_probes_are_not_memoized():
    """A carrier that leaves the slot and a policy over the channel limit
    raise on every call and leave the memo empty."""
    cfg = config(rate=69.4, line=200.0)
    line = ase_only_line(17.0, 69.4)
    for _ in range(2):
        with pytest.raises(CarrierRejectedError):
            line.probe(cfg, PowerPolicy.constant_psd(-26.0),
                       carrier_center_thz=MC.center_thz + 0.02)
        with pytest.raises(LimitViolationError):
            line.probe(cfg, PowerPolicy.constant_psd(-15.0))
    assert line._carriers == {}


@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_diurnal_line_reuses_static_terms(catalog, monkeypatch, sigma):
    """On a drifting line one carrier memo entry and one penalty lookup
    serve every hour, and each hour reads as on a fresh line."""
    calls = []

    def counting(*args):
        calls.append(args)
        return filtering_penalty_db(*args)

    sc = shipped_scenario("LH-3751-monitor-summer")
    assert sc.link.diurnal_amplitude_db > 0
    link = replace(sc.link, noise_sigma_q_db=sigma)
    cfg = {c.config_id: c for c in catalog}[sc.monitor_config_id]
    hours = [float(h) for h in range(49)]
    fresh = [cold_line(link, ModemModel(26.0)).probe(cfg, sc.policy, None, h)
             for h in hours]
    monkeypatch.setattr(linesystem, "filtering_penalty_db", counting)
    line = cold_line(link, ModemModel(26.0))
    assert [line.probe(cfg, sc.policy, None, h) for h in hours] == fresh
    assert len(line._carriers) == 1 and len(calls) == 1
    assert len({r.pre_fec_ber for r in fresh}) > 10

def reference_gsnr_offset_db(line, f_offset_ghz):
    """Tilt/ripple offset as computed from the link on every call."""
    link = line.link
    mc = link.media_channel

    def raw(f):
        tilt = link.tilt_db_per_mc * np.asarray(f) / mc.width_ghz
        if link.ripple:
            pts = sorted(link.ripple)
            tilt = tilt + np.interp(f, [p[0] for p in pts], [p[1] for p in pts])
        return tilt

    def mean(lo, hi):
        return float(np.mean(raw(np.arange(lo, hi + 0.125, 0.25))))

    value = float(raw(f_offset_ghz))
    width = link.equalizer_window_ghz
    if width is None:
        return value
    if width == mc.width_ghz:
        return value - mean(mc.lower_edge_ghz, mc.upper_edge_ghz)
    index = math.floor((f_offset_ghz - mc.lower_edge_ghz) / width)
    index = min(max(index, 0), int(round(mc.width_ghz / width)) - 1)
    lo = mc.lower_edge_ghz + index * width
    return value - mean(lo, lo + width)


# Every scenario file, then LH-1792 (tilt and ripple) re-levelled per media
# channel and per NMC of several widths, one of them not dividing the channel.
OFFSET_CASES = ([(path, None) for path in SCENARIO_FILES]
                + [(SCENARIOS / "LH-1792.json", window)
                   for window in (400.0, 75.0, 33.25, 0.25)])


@pytest.mark.parametrize(
    "path, window", OFFSET_CASES,
    ids=[path.stem if window is None else f"{path.stem}-window-{window:g}"
         for path, window in OFFSET_CASES])
def test_gsnr_offset_matches_per_call_formula(path, window):
    """Bit for bit at every 0.25 GHz offset, LH-1792 (ripple) and
    LH-1792-5x75 (per-NMC equalizer) among the files."""
    link = load_scenario(path).link
    if window is not None:
        link = replace(link, equalizer_window_ghz=window)
    line = LineSystem(link)
    mc = line.media_channel
    units = to_grid_units(mc.width_ghz / 2.0)
    for k in range(-units, units + 1):
        offset = k * 0.25
        assert line.gsnr_offset_db(offset) == reference_gsnr_offset_db(line, offset)


@pytest.mark.parametrize("misalignment", [60.0, 70.0, 90.0, 150.0])
def test_blocked_carrier_reads_failed(catalog_regional, misalignment):
    """Filters moved off the carrier leave it little or no power: every
    probe reads a failed FEC; with no power at all every format reads coin
    flips, and the noisy line draws no noise for them."""
    sc = shipped_scenario("B-621")
    assert sc.link.noise_sigma_q_db > 0
    line = LineSystem(replace(sc.link, filter_misalignment_ghz=misalignment),
                      ModemModel(26.0))
    blocked = misalignment == 150.0
    linesystem._standard_normal.cache_clear()
    for cfg in catalog_regional:
        reading = line.probe(cfg, sc.policy)
        assert not reading.post_fec_ok
        assert 0.0 < reading.pre_fec_ber <= 0.5
        if blocked:
            assert reading.pre_fec_ber == 0.5
            assert filtering_penalty_db(line.effective_filters, cfg,
                                        0.0) == math.inf
    assert {cfg.format for cfg in catalog_regional} == set(ModulationFormat)
    if blocked:
        assert linesystem._standard_normal.cache_info().misses == 0
