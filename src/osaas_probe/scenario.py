"""Scenario files: a link description plus probing defaults.

A scenario bundles the link under test with the catalog it should be probed
with, the default power policy and the sweep step. Files are JSON with a
schema version; frequencies are written in THz with 6 decimals and powers in
dBm with 2 decimals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ScenarioError
from .spectrum import GRID_UNIT_GHZ, MediaChannel, PolicyKind, PowerPolicy
from .linesystem import (
    DEFAULT_ISI_FACTOR,
    DispersionComp,
    EqualizerGranularity,
    EqualizerNode,
    FilterElement,
    LinkSpec,
    SpanSpec,
)

SCHEMA_VERSION = 1
# Lowest policy value (dBm or dBm/GHz). No probe carrier is launched that
# low, and the bound keeps the realized carrier power, which every noise key
# counts from -200 dBm, far above that origin.
MIN_POLICY_VALUE = -100.0


@dataclass(frozen=True)
class Scenario:
    link: LinkSpec
    catalog: str = "default"  # named catalog or a file path
    policy: PowerPolicy = PowerPolicy(PolicyKind.CONSTANT_PSD, -26.0)
    sweep_step_ghz: float = 6.25
    monitor_config_id: str = "DP-QPSK-69.4"

    def validate(self) -> None:
        value = self.policy.value
        if not MIN_POLICY_VALUE <= value < math.inf:
            unit = ("dBm/GHz" if self.policy.kind is PolicyKind.CONSTANT_PSD
                    else "dBm")
            raise ScenarioError(
                f"policy value {value} {unit} must be finite and at least "
                f"{MIN_POLICY_VALUE:g} {unit}")
        step, width = self.sweep_step_ghz, self.link.media_channel.width_ghz
        if not (0 < step < math.inf
                and abs(step / GRID_UNIT_GHZ - round(step / GRID_UNIT_GHZ)) <= 1e-6
                and abs(width / step - round(width / step)) <= 1e-9):
            raise ScenarioError(
                f"sweep step {step} GHz is not a positive multiple of the "
                f"{GRID_UNIT_GHZ} GHz grid dividing the {width} GHz media channel")

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, link=replace(self.link, seed=seed))


def _round(value: float, digits: int) -> float:
    return round(float(value), digits)


def scenario_to_dict(scenario: Scenario) -> dict:
    link = scenario.link
    mc = link.media_channel
    return {
        "schema_version": SCHEMA_VERSION,
        "name": link.name,
        "catalog": scenario.catalog,
        "policy": {
            "kind": scenario.policy.kind.value,
            "value": _round(scenario.policy.value, 2),
        },
        "sweep_step_ghz": _round(scenario.sweep_step_ghz, 6),
        "monitor_config_id": scenario.monitor_config_id,
        "media_channel": {
            "center_thz": _round(mc.center_thz, 6),
            "width_ghz": _round(mc.width_ghz, 6),
            "max_total_power_dbm": _round(mc.max_total_power_dbm, 2),
            "max_psd_dbm_per_ghz": _round(mc.max_psd_dbm_per_ghz, 2),
        },
        "spans": [
            {
                "length_km": _round(s.length_km, 3),
                "loss_db": _round(s.loss_db, 3),
                "amp_gain_db": _round(s.amp_gain_db, 3),
                "amp_noise_figure_db": _round(s.amp_noise_figure_db, 2),
                "nli_coeff_per_mw2": float(f"{s.nli_coeff_per_mw2:.6e}"),
                "dispersion_comp": s.dispersion_comp.value,
            }
            for s in link.spans
        ],
        "filters": [
            {
                "center_offset_ghz": _round(f.center_offset_ghz, 3),
                "bandwidth_3db_ghz": _round(f.bandwidth_3db_ghz, 3),
                "order": f.order,
            }
            for f in link.filters
        ],
        "equalizers": [
            {
                "position": eq.position,
                "granularity": eq.granularity.value,
                "target_psd_dbm_per_ghz": _round(eq.target_psd_dbm_per_ghz, 2),
                "nmc_width_ghz": (None if eq.nmc_width_ghz is None
                                  else _round(eq.nmc_width_ghz, 3)),
            }
            for eq in link.equalizers
        ],
        "tilt_db_per_mc": _round(link.tilt_db_per_mc, 3),
        "ripple": [[_round(f, 3), _round(db, 3)] for f, db in link.ripple],
        "filter_misalignment_ghz": _round(link.filter_misalignment_ghz, 3),
        "diurnal_amplitude_db": _round(link.diurnal_amplitude_db, 3),
        "diurnal_period_h": _round(link.diurnal_period_h, 3),
        "isi_factor": _round(link.isi_factor, 3),
        "seed": link.seed,
        "noise_sigma_q_db": _round(link.noise_sigma_q_db, 4),
    }


def scenario_from_dict(data: dict) -> Scenario:
    try:
        if data["schema_version"] != SCHEMA_VERSION:
            raise ScenarioError(
                f"unsupported schema_version {data['schema_version']!r}")
        mc = data["media_channel"]
        link = LinkSpec(
            name=data["name"],
            media_channel=MediaChannel(
                center_thz=float(mc["center_thz"]),
                width_ghz=float(mc["width_ghz"]),
                max_total_power_dbm=float(mc["max_total_power_dbm"]),
                max_psd_dbm_per_ghz=float(mc["max_psd_dbm_per_ghz"]),
            ),
            spans=tuple(
                SpanSpec(
                    length_km=float(s["length_km"]),
                    loss_db=float(s["loss_db"]),
                    amp_gain_db=float(s["amp_gain_db"]),
                    amp_noise_figure_db=float(s["amp_noise_figure_db"]),
                    nli_coeff_per_mw2=float(s["nli_coeff_per_mw2"]),
                    dispersion_comp=DispersionComp(s["dispersion_comp"]),
                )
                for s in data["spans"]
            ),
            filters=tuple(
                FilterElement(
                    center_offset_ghz=float(f["center_offset_ghz"]),
                    bandwidth_3db_ghz=float(f["bandwidth_3db_ghz"]),
                    order=int(f["order"]),
                )
                for f in data["filters"]
            ),
            equalizers=tuple(
                EqualizerNode(
                    position=int(eq["position"]),
                    granularity=EqualizerGranularity(eq["granularity"]),
                    target_psd_dbm_per_ghz=float(eq["target_psd_dbm_per_ghz"]),
                    nmc_width_ghz=(None if eq.get("nmc_width_ghz") is None
                                   else float(eq["nmc_width_ghz"])),
                )
                for eq in data.get("equalizers", [])
            ),
            tilt_db_per_mc=float(data.get("tilt_db_per_mc", 0.0)),
            ripple=tuple((float(f), float(db))
                         for f, db in data.get("ripple", [])),
            filter_misalignment_ghz=float(data.get("filter_misalignment_ghz", 0.0)),
            diurnal_amplitude_db=float(data.get("diurnal_amplitude_db", 0.0)),
            diurnal_period_h=float(data.get("diurnal_period_h", 24.0)),
            isi_factor=float(data.get("isi_factor", DEFAULT_ISI_FACTOR)),
            seed=int(data.get("seed", 1)),
            noise_sigma_q_db=float(data.get("noise_sigma_q_db", 0.0)),
        )
        policy_data = data["policy"]
        scenario = Scenario(
            link=link,
            catalog=data.get("catalog", "default"),
            policy=PowerPolicy(PolicyKind(policy_data["kind"]),
                               float(policy_data["value"])),
            sweep_step_ghz=float(data.get("sweep_step_ghz", 6.25)),
            monitor_config_id=data.get("monitor_config_id", "DP-QPSK-69.4"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"malformed scenario: {exc}") from exc
    scenario.validate()
    return scenario


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_scenario(path: str | Path) -> Scenario:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return scenario_from_dict(data)
