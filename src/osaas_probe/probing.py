"""Probing algorithms: extended symbol-rate-variable probing, penalties and
symbol-rate cap, link GSNR estimation, margins and configuration selection,
the throughput what-if, frequency sweeps with profile analytics, regime
detection, and monitoring over time with the slot-narrowing upgrade it reveals.

Everything here drives a line exclusively through its black-box probe surface
(:meth:`LineSystem.probe` or anything with the same signature) plus published
channel metadata. Ground-truth oracles of the simulator are off limits.

The analytics are closed-form float arithmetic in a fixed order (the
vertex of a parabola through three points, a least-squares line and a mean
over ``math.fsum`` sums), so their results do not depend on the platform's
BLAS, and this module does not import numpy.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    CarrierRejectedError,
    CurveRangeError,
    InsufficientDataError,
    LimitViolationError,
    NoSignalError,
    check_range,
)
from .modem import CharacterizationCurve, gsnr_from_q
from .spectrum import (
    MediaChannel,
    PltConfig,
    PolicyKind,
    PowerPolicy,
    admissible_offsets_ghz,
    carrier_power_dbm,
)
from .units import q_db_from_ber

NEAR_ZERO_MARGIN_DB = 1.5
DEFAULT_CAP_THETA_DB = 2.0
REGIME_DEADBAND_DB = 0.1
MISALIGNMENT_EDGE_DROP_DB = 1.0
MAX_MONITOR_SAMPLES = 100_000


class ProbeStatus(Enum):
    WORKING = "working"
    OUTAGE = "outage"
    UNUSABLE = "unusable"


class Regime(Enum):
    LINEAR = "linear"
    NONLINEAR = "nonlinear"
    NEAR_OPTIMUM = "near_optimum"


class VerificationFlag(Enum):
    NO_FALSE_PREDICTIONS = "no_false_predictions"
    FALSE_PREDICTIONS = "false_predictions"
    UNVERIFIED = "unverified"


class ProbeResult(namedtuple(
        "ProbeResult", "config_id carrier_center_thz policy status sim_time_h"
        " q_db gsnr_est_db note post_fec_ok",
        defaults=(0.0, None, None, "", False))):
    """Outcome of one probe measurement.

    ``gsnr_est_db`` is set only when the status is WORKING; ``post_fec_ok``
    is False too for a rejected carrier.
    """

    __slots__ = ()


@dataclass
class ProbeCampaign:
    """Ordered probe results against one line, sharing one catalog."""

    link_name: str
    media_channel: MediaChannel
    configs: dict[str, PltConfig]
    results: list[ProbeResult] = field(default_factory=list)
    _keys: set = field(default_factory=set, repr=False, init=False)

    def add(self, result: ProbeResult) -> None:
        if result.config_id not in self.configs:
            raise KeyError(f"{result.config_id} not in campaign catalog")
        key = (result.config_id, round(result.carrier_center_thz, 6),
               result.policy, round(result.sim_time_h, 9))
        if key in self._keys:
            raise ValueError(f"duplicate probe {key}")
        self._keys.add(key)
        self.results.append(result)

    def working(self) -> list[ProbeResult]:
        return [r for r in self.results if r.status is ProbeStatus.WORKING]


@dataclass
class GsnrProfile:
    """Estimated GSNR against carrier center frequency, per configuration."""

    media_channel: MediaChannel
    step_ghz: float
    points: dict[str, list[tuple[float, float | None]]]
    configs: dict[str, PltConfig]
    skipped: dict[str, str] = field(default_factory=dict)


@dataclass
class MarginReport:
    gsnr_est_link_db: float
    symbol_rate_cap_gbd: float
    theta_db: float
    margins_db: dict[str, float]
    best_config: str | None
    accuracy_bound_db: float
    accuracy_flag: VerificationFlag
    estimate_spread_db: float
    campaign: ProbeCampaign


@dataclass
class RegimeEntry:
    classification: Regime
    delta_db: float | None
    recommended_power_delta_db: float
    note: str = ""


@dataclass
class RegimeReport:
    psd_ref_dbm_per_ghz: float
    rs_ref_gbd: float
    entries: dict[str, RegimeEntry]
    excluded: dict[str, str] = field(default_factory=dict)


def _classify_reading(reading, curve: CharacterizationCurve
                      ) -> tuple[ProbeStatus, float | None, float | None, str]:
    if not reading.post_fec_ok:
        return ProbeStatus.OUTAGE, None, None, "post-FEC errors"
    if reading.pre_fec_ber <= 0.0:
        return ProbeStatus.UNUSABLE, None, None, "error-free reading, no Q estimate"
    q = q_db_from_ber(reading.pre_fec_ber)
    try:
        gsnr = gsnr_from_q(curve, q)
    except CurveRangeError as exc:
        return ProbeStatus.UNUSABLE, q, None, str(exc)
    return ProbeStatus.WORKING, q, gsnr, ""


def probe_once(line, config: PltConfig, curve: CharacterizationCurve,
               policy: PowerPolicy, carrier_center_thz: float | None = None,
               sim_time_h: float = 0.0) -> ProbeResult:
    """Run one probe and convert the BER reading into a GSNR estimate."""
    center = (carrier_center_thz if carrier_center_thz is not None
              else line.media_channel.center_thz)
    try:
        reading = line.probe(config, policy, carrier_center_thz, sim_time_h)
    except (CarrierRejectedError, LimitViolationError) as exc:
        return ProbeResult(config.config_id, center, policy,
                           ProbeStatus.UNUSABLE, sim_time_h, note=str(exc))
    status, q, gsnr, note = _classify_reading(reading, curve)
    return ProbeResult(config.config_id, center, policy, status, sim_time_h,
                       q_db=q, gsnr_est_db=gsnr, note=note,
                       post_fec_ok=reading.post_fec_ok)


def run_extended_probe(line, catalog: tuple[PltConfig, ...],
                       curves: dict[str, CharacterizationCurve],
                       policy: PowerPolicy) -> ProbeCampaign:
    """Probe every catalog configuration once at the channel center."""
    campaign = ProbeCampaign(
        link_name=line.name,
        media_channel=line.media_channel,
        configs={cfg.config_id: cfg for cfg in catalog},
    )
    for config in catalog:
        curve = curves[config.config_id]
        campaign.add(probe_once(line, config, curve, policy))
    return campaign


def compute_penalties(campaign: ProbeCampaign) -> dict[str, float]:
    """Estimated-GSNR penalty of each configuration against the best one.

    Outage configurations get an infinite marker; unusable measurements carry
    no estimate and are left out.
    """
    working = campaign.working()
    if not working:
        raise NoSignalError("no working probe result in campaign")
    best = max(r.gsnr_est_db for r in working)
    penalties: dict[str, float] = {}
    for result in campaign.results:
        if result.status is ProbeStatus.WORKING:
            penalties[result.config_id] = best - result.gsnr_est_db
        elif result.status is ProbeStatus.OUTAGE:
            penalties[result.config_id] = math.inf
    return penalties


def detect_symbol_rate_cap(campaign: ProbeCampaign,
                           penalties: dict[str, float],
                           theta_db: float = DEFAULT_CAP_THETA_DB) -> float:
    """Highest usable symbol rate: working, and not significantly penalized.

    Falls back to the minimum-penalty working configuration when every other
    working configuration violates the threshold.
    """
    if not penalties:
        raise NoSignalError("no penalties to derive a symbol rate cap from")
    working = {r.config_id for r in campaign.working()}
    eligible = [campaign.configs[cid].symbol_rate_gbd
                for cid, pen in penalties.items()
                if cid in working and pen <= theta_db]
    if eligible:
        return max(eligible)
    best_cid = min((cid for cid in penalties if cid in working),
                   key=lambda cid: penalties[cid])
    return campaign.configs[best_cid].symbol_rate_gbd


def _within_cap(config: PltConfig, cap_gbd: float) -> bool:
    return config.symbol_rate_gbd <= cap_gbd + 1e-9


def estimate_link_gsnr(campaign: ProbeCampaign, cap_gbd: float) -> float:
    """Mean estimated GSNR over working configurations within the cap."""
    included = [r.gsnr_est_db for r in campaign.working()
                if _within_cap(campaign.configs[r.config_id], cap_gbd)]
    if not included:
        raise NoSignalError("no working result at or below the symbol rate cap")
    return math.fsum(included) / len(included)


def estimate_spread_db(campaign: ProbeCampaign, cap_gbd: float) -> float:
    """Max minus min of the working GSNR estimates within the cap."""
    values = [r.gsnr_est_db for r in campaign.working()
              if _within_cap(campaign.configs[r.config_id], cap_gbd)]
    if not values:
        raise NoSignalError("no working results")
    return max(values) - min(values)


def compute_margins(gsnr_est_link_db: float, catalog: tuple[PltConfig, ...],
                    cap_gbd: float) -> dict[str, float]:
    """Implementation margin per configuration within the symbol rate cap."""
    return {cfg.config_id: gsnr_est_link_db - cfg.required_gsnr_db
            for cfg in catalog if _within_cap(cfg, cap_gbd)}


def select_best_config(margins_db: dict[str, float],
                       catalog: tuple[PltConfig, ...]) -> str | None:
    """Highest line rate among positive margins; ties prefer higher margin,
    then smaller spectral footprint."""
    by_id = {cfg.config_id: cfg for cfg in catalog}
    candidates = [(by_id[cid].line_rate_gbps, margin, -by_id[cid].symbol_rate_gbd, cid)
                  for cid, margin in margins_db.items() if margin > 0]
    if not candidates:
        return None
    return max(candidates)[3]


def verify_margin_accuracy(campaign: ProbeCampaign, margins_db: dict[str, float]
                           ) -> tuple[float, VerificationFlag]:
    """Check near-zero-margin predictions against the campaign's readings.

    Every configuration whose predicted margin is within the near-zero band
    is checked against the post-FEC status the campaign read for it, where a
    rejected carrier does not work. A prediction is false when its sign
    disagrees with that status; a margin of exactly zero is neither. Issues
    no probe. Returns the largest false prediction magnitude, or zero with
    the appropriate flag.
    """
    works = {r.config_id: r.post_fec_ok for r in campaign.results}
    verified = False
    worst = 0.0
    for cid, margin in margins_db.items():
        if abs(margin) > NEAR_ZERO_MARGIN_DB:
            continue
        verified = True
        false_positive = margin > 0 and not works[cid]
        false_negative = margin < 0 and works[cid]
        if false_positive or false_negative:
            worst = max(worst, abs(margin))
    if not verified:
        return 0.0, VerificationFlag.UNVERIFIED
    if worst > 0.0:
        return worst, VerificationFlag.FALSE_PREDICTIONS
    return 0.0, VerificationFlag.NO_FALSE_PREDICTIONS


def run_probe_workflow(line, catalog: tuple[PltConfig, ...],
                       curves: dict[str, CharacterizationCurve],
                       policy: PowerPolicy,
                       theta_db: float = DEFAULT_CAP_THETA_DB) -> MarginReport:
    """Full narrow-band workflow: probe, cap, estimate, margins, verify."""
    campaign = run_extended_probe(line, catalog, curves, policy)
    penalties = compute_penalties(campaign)
    cap = detect_symbol_rate_cap(campaign, penalties, theta_db)
    est = estimate_link_gsnr(campaign, cap)
    margins = compute_margins(est, catalog, cap)
    best = select_best_config(margins, catalog)
    bound, flag = verify_margin_accuracy(campaign, margins)
    return MarginReport(
        gsnr_est_link_db=est,
        symbol_rate_cap_gbd=cap,
        theta_db=theta_db,
        margins_db=margins,
        best_config=best,
        accuracy_bound_db=bound,
        accuracy_flag=flag,
        estimate_spread_db=estimate_spread_db(campaign, cap),
        campaign=campaign,
    )


def what_if_line_rates(line, catalog: tuple[PltConfig, ...],
                       curves: dict[str, CharacterizationCurve],
                       policy: PowerPolicy,
                       theta_db: float = DEFAULT_CAP_THETA_DB) -> tuple[float, float]:
    """(achievable, potential): the line rate of the best configuration on
    ``line`` and on its filter-free copy, 0.0 where no margin is positive.
    NoSignalError propagates. A simulator-assisted what-if."""
    def best_rate(probed) -> float:
        report = run_probe_workflow(probed, catalog, curves, policy, theta_db)
        best = report.best_config
        return report.campaign.configs[best].line_rate_gbps if best else 0.0
    return best_rate(line), best_rate(line.without_filters())


def run_frequency_sweep(line, configs: tuple[PltConfig, ...],
                        curves: dict[str, CharacterizationCurve],
                        step_ghz: float, policy: PowerPolicy) -> GsnrProfile:
    """Probe each configuration across every admissible carrier position.

    Carrier placements keeping the occupied band inside the media channel are
    visited in frequency order; positions with post-FEC errors (or readings
    that cannot be converted) are recorded as outage points.
    """
    mc = line.media_channel
    profile = GsnrProfile(media_channel=mc, step_ghz=step_ghz, points={},
                          configs={cfg.config_id: cfg for cfg in configs})
    for config in configs:
        offsets = admissible_offsets_ghz(mc, config, step_ghz)
        if not offsets:
            profile.skipped[config.config_id] = (
                f"occupied band {config.occupied_bandwidth_ghz:.2f} GHz does not "
                f"fit inside the {mc.width_ghz:.0f} GHz media channel")
            continue
        series: list[tuple[float, float | None]] = []
        for offset in offsets:
            center = mc.center_thz + offset / 1000.0
            result = probe_once(line, config, curves[config.config_id],
                                policy, center)
            series.append((center, result.gsnr_est_db))
        profile.points[config.config_id] = series
    return profile


def _working_points(profile: GsnrProfile, config_id: str) -> list[tuple[float, float]]:
    return [(freq, value) for freq, value in profile.points.get(config_id, [])
            if value is not None]


def _parabola_vertex(points) -> float | None:
    """Abscissa of the vertex of the parabola through three points of
    distinct abscissae, or None when its leading coefficient is below 1e-12
    in magnitude. In Newton form, y0 + s01 (x - x0) + a (x - x0)(x - x1),
    the slope vanishes at (x0 + x1) / 2 - s01 / (2 a)."""
    (x0, y0), (x1, y1), (x2, y2) = points
    s01 = (y1 - y0) / (x1 - x0)
    a = ((y2 - y1) / (x2 - x1) - s01) / (x2 - x0)
    if abs(a) < 1e-12:
        return None
    return (x0 + x1) / 2.0 - s01 / (2.0 * a)


def _line_fit(xs, ys) -> tuple[float, float]:
    """Slope and intercept of the least-squares line through (xs, ys), in
    closed form over math.fsum sums of the centred values."""
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    dxs = [x - x_mean for x in xs]
    slope = (math.fsum(dx * (y - y_mean) for dx, y in zip(dxs, ys))
             / math.fsum(dx * dx for dx in dxs))
    return slope, y_mean - slope * x_mean


def detect_misalignment(profile: GsnrProfile) -> tuple[float, bool]:
    """Estimate the cascade center offset from the narrowest configuration.

    Takes the parabola through the three best GSNR points of the
    configuration with the smallest occupied bandwidth and reports its
    vertex offset from the nominal channel center, rounded to 0.1 GHz.
    Returns (offset_ghz, indeterminate). The profile must fall off at both
    ends of the channel: unless its first and last sweep points are each an
    outage or at least MISALIGNMENT_EDGE_DROP_DB below its peak, no filter
    edge was seen and the result is indeterminate.
    """
    usable = [cid for cid in profile.points
              if len(_working_points(profile, cid)) >= 3]
    if not usable:
        raise InsufficientDataError("no configuration has three working points")
    narrowest = min(usable,
                    key=lambda cid: profile.configs[cid].occupied_bandwidth_ghz)
    points = _working_points(profile, narrowest)
    peak = max(v for _, v in points)
    series = profile.points[narrowest]
    if any(v is not None and peak - v < MISALIGNMENT_EDGE_DROP_DB
           for _, v in (series[0], series[-1])):
        return 0.0, True
    top = sorted(points, key=lambda p: p[1], reverse=True)[:3]
    top.sort()
    center = profile.media_channel.center_thz
    vertex = _parabola_vertex([((freq - center) * 1000.0, v) for freq, v in top])
    if vertex is None:
        return 0.0, True
    if abs(vertex) > profile.media_channel.width_ghz / 2.0:
        # Monotone or tilt-dominated profile; the vertex extrapolates outside
        # the slot and carries no alignment information.
        return 0.0, True
    offset = float(round(vertex, 1))
    return (offset if offset else 0.0), False  # never -0.0


def profile_tilt_ripple(profile: GsnrProfile, config_id: str) -> tuple[float, float]:
    """Least-squares tilt across the media channel and peak ripple residual.

    Tilt is the fitted slope scaled to the full channel width (the quantity a
    service contract would quote); ripple is the largest absolute deviation
    from the fitted line.
    """
    points = _working_points(profile, config_id)
    if len(points) < 4:
        raise InsufficientDataError(
            f"{config_id}: {len(points)} working points, need at least 4")
    center = profile.media_channel.center_thz
    xs = [(freq - center) * 1000.0 for freq, _ in points]
    ys = [v for _, v in points]
    slope, intercept = _line_fit(xs, ys)
    ripple = max(abs(y - (slope * x + intercept)) for x, y in zip(xs, ys))
    return abs(slope) * profile.media_channel.width_ghz, ripple


def sweep_diagnostics(profile: GsnrProfile) -> tuple[
        tuple[float, bool] | None, dict[str, tuple[float, float]]]:
    """Misalignment and per-configuration tilt/ripple of a sweep; each is
    left out where the profile has too few working points for it."""
    try:
        misalignment = detect_misalignment(profile)
    except InsufficientDataError:
        misalignment = None
    tilt_ripple = {}
    for cid in profile.points:
        try:
            tilt_ripple[cid] = profile_tilt_ripple(profile, cid)
        except InsufficientDataError:
            continue
    return misalignment, tilt_ripple


def detect_operation_regime(line, catalog: tuple[PltConfig, ...],
                            curves: dict[str, CharacterizationCurve],
                            psd_ref_dbm_per_ghz: float,
                            rs_ref_gbd: float) -> RegimeReport:
    """Compare constant-PSD and constant-total-power probing per configuration.

    The constant-power campaign launches the total power a reference-rate
    carrier would get under the reference PSD, so narrower configurations run
    at a higher PSD. A configuration that improves under the extra power is
    in the linear regime; one that degrades is past the optimum.

    A configuration at the reference rate gets the same carrier under both
    policies, so its constant-PSD reading stands for both and it is probed
    once.
    """
    power_ref = psd_ref_dbm_per_ghz + 10.0 * math.log10(rs_ref_gbd)
    tested = tuple(cfg for cfg in catalog if _within_cap(cfg, rs_ref_gbd))
    psd_policy = PowerPolicy(PolicyKind.CONSTANT_PSD, psd_ref_dbm_per_ghz)
    power_policy = PowerPolicy(PolicyKind.CONSTANT_TOTAL_POWER, power_ref)
    psd_campaign = run_extended_probe(line, tested, curves, psd_policy)
    psd_by_id = {r.config_id: r for r in psd_campaign.results}
    power_by_id = {}
    for config in tested:
        cid = config.config_id
        if (carrier_power_dbm(psd_policy, config)
                == carrier_power_dbm(power_policy, config)):
            power_by_id[cid] = psd_by_id[cid]._replace(policy=power_policy)
        else:
            power_by_id[cid] = probe_once(line, config, curves[cid],
                                          power_policy)

    report = RegimeReport(psd_ref_dbm_per_ghz=psd_ref_dbm_per_ghz,
                          rs_ref_gbd=rs_ref_gbd, entries={})
    for config in tested:
        cid = config.config_id
        applied_delta = 10.0 * math.log10(rs_ref_gbd / config.symbol_rate_gbd)
        at_psd = psd_by_id[cid]
        at_power = power_by_id[cid]
        psd_ok = at_psd.status is ProbeStatus.WORKING
        power_ok = at_power.status is ProbeStatus.WORKING
        if not psd_ok and not power_ok:
            report.excluded[cid] = "outage under both power policies"
            continue
        if psd_ok and power_ok:
            delta = at_power.gsnr_est_db - at_psd.gsnr_est_db
            if delta > REGIME_DEADBAND_DB:
                regime = Regime.LINEAR
            elif delta < -REGIME_DEADBAND_DB:
                regime = Regime.NONLINEAR
            else:
                regime = Regime.NEAR_OPTIMUM
            note = ""
        elif psd_ok:
            delta, regime = None, Regime.NONLINEAR
            note = "outage under constant total power"
        else:
            delta, regime = None, Regime.LINEAR
            note = "outage under constant PSD"
        if regime is Regime.LINEAR:
            recommended = applied_delta
        elif regime is Regime.NONLINEAR:
            recommended = -applied_delta
        else:
            recommended = 0.0
        report.entries[cid] = RegimeEntry(regime, delta, recommended, note)
    return report


def check_monitor_span(duration_h: float, interval_h: float) -> None:
    """Raise ValueError unless ``duration_h`` and ``interval_h`` make a
    finite series of at most MAX_MONITOR_SAMPLES samples."""
    if interval_h != math.inf:  # one sample, at t = 0
        check_range("monitor interval", interval_h, 0.0,
                    low_open=True, unit="h", error=ValueError)
    check_range("monitor duration", duration_h, 0.0, unit="h", error=ValueError)
    if (duration_h + 1e-9) / interval_h >= MAX_MONITOR_SAMPLES:
        raise ValueError(f"monitor duration {duration_h:g} h at interval "
                         f"{interval_h:g} h asks for more than "
                         f"{MAX_MONITOR_SAMPLES} samples")


def run_monitor(line, config: PltConfig, curve: CharacterizationCurve,
                policy: PowerPolicy, duration_h: float,
                interval_h: float) -> list[tuple[float, float | None]]:
    """Probe one configuration at the channel center every ``interval_h``
    hours from 0 to ``duration_h``: (sim time, GSNR estimate or None)."""
    check_monitor_span(duration_h, interval_h)
    series = []
    i = 0
    # sample 0 is at t = 0 even when the interval is infinite (0 * inf is NaN)
    while (t := i * interval_h if i else 0.0) <= duration_h + 1e-9:
        result = probe_once(line, config, curve, policy, None, t)
        series.append((t, result.gsnr_est_db))
        i += 1
    return series


def monitor_upgrade(catalog: tuple[PltConfig, ...], monitor_config: PltConfig,
                    peak_est_db: float) -> PltConfig | None:
    """Narrower-slot configuration available at the peak of the series."""
    candidates = [
        c for c in catalog
        if c.line_rate_gbps >= monitor_config.line_rate_gbps
        and c.slot_width_ghz < monitor_config.slot_width_ghz
        and peak_est_db - c.required_gsnr_db > 0
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda c: (c.slot_width_ghz, -c.line_rate_gbps))
