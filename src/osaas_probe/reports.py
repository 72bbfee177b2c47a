"""Serialization of probing outputs.

Reports are JSON with sorted keys and rounded floats so identical runs
produce identical bytes; profiles and time series are CSV for plotting.
Margin reports embed the full probe evidence chain for auditability.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from .probing import (
    GsnrProfile,
    MarginReport,
    ProbeCampaign,
    ProbeResult,
    RegimeReport,
)
from .spectrum import C_BAND_WIDTH_GHZ, PltConfig

REPORT_SCHEMA_VERSION = 1

WHAT_IF_CAVEAT = ("potential figures assume the filter cascade removed; this "
                  "is a simulator-assisted what-if that a live black-box "
                  "deployment cannot measure")


def write_report(path: Path, payload: dict | str) -> None:
    """Write a JSON report (a dict) or CSV text, creating the directory."""
    if isinstance(payload, dict):
        payload = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(payload, encoding="utf-8")


def _num(value, digits=6):
    if value is None:
        return None
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return round(float(value), digits)


def probe_result_to_dict(result: ProbeResult) -> dict:
    return {
        "config_id": result.config_id,
        "carrier_center_thz": _num(result.carrier_center_thz),
        "policy": {"kind": result.policy.kind.value,
                   "value": _num(result.policy.value, 2)},
        "status": result.status.value,
        "sim_time_h": _num(result.sim_time_h, 3),
        "q_db": _num(result.q_db),
        "gsnr_est_db": _num(result.gsnr_est_db),
        "note": result.note,
    }


def campaign_to_dict(campaign: ProbeCampaign) -> dict:
    return {
        "link_name": campaign.link_name,
        "media_channel": {
            "center_thz": _num(campaign.media_channel.center_thz),
            "width_ghz": _num(campaign.media_channel.width_ghz),
        },
        "results": [probe_result_to_dict(r) for r in campaign.results],
    }


def margin_report_to_dict(report: MarginReport, seed: int) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "seed": seed,
        "gsnr_est_link_db": _num(report.gsnr_est_link_db),
        "symbol_rate_cap_gbd": _num(report.symbol_rate_cap_gbd, 2),
        "theta_db": _num(report.theta_db, 3),
        "margins_db": {cid: _num(m) for cid, m in sorted(report.margins_db.items())},
        "best_config": report.best_config,
        "accuracy_bound_db": _num(report.accuracy_bound_db),
        "accuracy_flag": report.accuracy_flag.value,
        "estimate_spread_db": _num(report.estimate_spread_db),
        "evidence": campaign_to_dict(report.campaign),
    }


def profile_to_csv(profile: GsnrProfile) -> str:
    """Plot-ready sweep profile: freq_thz, config_id, gsnr_db or OUTAGE."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["freq_thz", "config_id", "gsnr_db"])
    for cid in sorted(profile.points):
        for freq, value in profile.points[cid]:
            writer.writerow([f"{freq:.6f}", cid,
                             "OUTAGE" if value is None else f"{value:.3f}"])
    return buffer.getvalue()


def sweep_summary_to_dict(profile: GsnrProfile, seed: int,
                          misalignment: tuple[float, bool] | None,
                          tilt_ripple: dict[str, tuple[float, float]]) -> dict:
    summary: dict = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "seed": seed,
        "step_ghz": _num(profile.step_ghz, 3),
        "configs": sorted(profile.points),
        "skipped": dict(sorted(profile.skipped.items())),
    }
    if misalignment is not None:
        offset, indeterminate = misalignment
        summary["misalignment_ghz"] = _num(offset, 1)
        summary["misalignment_indeterminate"] = indeterminate
    summary["tilt_ripple_db"] = {
        cid: {"tilt_db": _num(t), "ripple_db": _num(r)}
        for cid, (t, r) in sorted(tilt_ripple.items())
    }
    return summary


def regime_report_to_dict(report: RegimeReport, seed: int) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "seed": seed,
        "psd_ref_dbm_per_ghz": _num(report.psd_ref_dbm_per_ghz, 2),
        "rs_ref_gbd": _num(report.rs_ref_gbd, 2),
        "entries": {
            cid: {
                "classification": entry.classification.value,
                "delta_db": _num(entry.delta_db),
                "recommended_power_delta_db": _num(entry.recommended_power_delta_db),
                "note": entry.note,
            }
            for cid, entry in sorted(report.entries.items())
        },
        "excluded": dict(sorted(report.excluded.items())),
    }


def monitor_series_to_csv(series: list[tuple[float, float | None]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["sim_time_h", "gsnr_est_db"])
    for t, value in series:
        writer.writerow([f"{t:.3f}", "OUTAGE" if value is None else f"{value:.3f}"])
    return buffer.getvalue()


def monitor_summary_to_dict(series: list[tuple[float, float | None]], seed: int,
                            config: PltConfig,
                            upgrade: PltConfig | None) -> dict:
    """Swing and peak of a monitor series with at least one working sample,
    plus the window and C-band capacity gain of the slot-narrowing upgrade."""
    values = [(t, v) for t, v in series if v is not None]
    peak_t, peak = max(values, key=lambda tv: tv[1])
    summary = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "seed": seed,
        "config_id": config.config_id,
        "samples": len(series),
        "peak_to_peak_db": round(peak - min(v for _, v in values), 6),
        "peak_time_h": round(peak_t, 3),
        "peak_gsnr_est_db": round(peak, 6),
    }
    if upgrade is not None:
        per_carrier = upgrade.line_rate_gbps * C_BAND_WIDTH_GHZ / upgrade.slot_width_ghz
        baseline = config.line_rate_gbps * C_BAND_WIDTH_GHZ / config.slot_width_ghz
        summary["upgrade"] = {
            "config_id": upgrade.config_id,
            "slot_width_ghz": upgrade.slot_width_ghz,
            "baseline_slot_width_ghz": config.slot_width_ghz,
            "window_h": [round(t, 3) for t, v in values
                         if v - upgrade.required_gsnr_db > 0],
            "c_band_capacity_gain_gbps": round(per_carrier - baseline, 3),
        }
    return summary


def throughput_entry(name: str, achievable_gbps: float,
                     potential_gbps: float) -> dict:
    """One link of the throughput report: line rates with and without the
    filter cascade, and the gain for one channel and for 40."""
    gain = (100.0 * (potential_gbps - achievable_gbps) / achievable_gbps
            if achievable_gbps > 0 else None)
    return {
        "scenario": name,
        "achievable_gbps": achievable_gbps,
        "potential_gbps": potential_gbps,
        "gain_percent": None if gain is None else round(gain, 3),
        "c_band_40ch_gain_gbps": round(40.0 * (potential_gbps - achievable_gbps), 3),
    }


def throughput_no_signal_entry(name: str, reason: str) -> dict:
    """A link of the throughput report on which no probe worked."""
    return {
        "scenario": name,
        "achievable_gbps": None,
        "potential_gbps": None,
        "gain_percent": None,
        "c_band_40ch_gain_gbps": None,
        "no_signal": reason,
    }


def throughput_to_dict(entries: list[dict]) -> dict:
    return {"schema_version": REPORT_SCHEMA_VERSION, "note": WHAT_IF_CAVEAT,
            "links": entries}
