"""Scenario files: a link description plus probing defaults.

A scenario bundles the link under test with the catalog it should be probed
with, the default power policy and the sweep step. Files are JSON with a
schema version; frequencies are written in THz with 6 decimals and powers in
dBm with 2 decimals. Schema 2 states the equalizer as one window width;
schema-1 files, which list equalizer nodes, are still read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ScenarioError
from .spectrum import GRID_UNIT_GHZ, MediaChannel, PolicyKind, PowerPolicy
from .linesystem import DispersionComp, FilterElement, LinkSpec, SpanSpec

SCHEMA_VERSION = 2
# Lowest policy value (dBm or dBm/GHz). No probe carrier is launched that
# low, and the bound keeps the realized carrier power, which every noise key
# counts from -200 dBm, far above that origin.
MIN_POLICY_VALUE = -100.0


def check_policy_value(policy: PowerPolicy) -> None:
    """Raise :class:`ScenarioError` unless the policy value is finite and at
    least :data:`MIN_POLICY_VALUE`."""
    value = policy.value
    if not MIN_POLICY_VALUE <= value < math.inf:
        unit = "dBm/GHz" if policy.kind is PolicyKind.CONSTANT_PSD else "dBm"
        raise ScenarioError(
            f"policy value {value} {unit} must be finite and at least "
            f"{MIN_POLICY_VALUE:g} {unit}")


@dataclass(frozen=True)
class Scenario:
    link: LinkSpec
    catalog: str = "default"  # named catalog or a file path
    policy: PowerPolicy = PowerPolicy(PolicyKind.CONSTANT_PSD, -26.0)
    sweep_step_ghz: float = 6.25
    monitor_config_id: str = "DP-QPSK-69.4"

    def validate(self) -> None:
        check_policy_value(self.policy)
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
        "equalizer_window_ghz": (None if link.equalizer_window_ghz is None
                                 else _round(link.equalizer_window_ghz, 3)),
        "tilt_db_per_mc": _round(link.tilt_db_per_mc, 3),
        "ripple": [[_round(f, 3), _round(db, 3)] for f, db in link.ripple],
        "filter_misalignment_ghz": _round(link.filter_misalignment_ghz, 3),
        "diurnal_amplitude_db": _round(link.diurnal_amplitude_db, 3),
        "diurnal_period_h": _round(link.diurnal_period_h, 3),
        "isi_factor": _round(link.isi_factor, 3),
        "seed": link.seed,
        "noise_sigma_q_db": _round(link.noise_sigma_q_db, 4),
    }


# Optional keys and how each file value converts; an absent key takes the
# LinkSpec or Scenario default.
_LINK_OPTIONAL = {
    "equalizer_window_ghz": lambda width: None if width is None else float(width),
    "tilt_db_per_mc": float,
    "ripple": lambda points: tuple((float(f), float(db)) for f, db in points),
    "filter_misalignment_ghz": float,
    "diurnal_amplitude_db": float,
    "diurnal_period_h": float,
    "isi_factor": float,
    "seed": int,
    "noise_sigma_q_db": float,
}
_SCENARIO_OPTIONAL = {
    "catalog": str,
    "sweep_step_ghz": float,
    "monitor_config_id": str,
}


def _present(data: dict, converters: dict) -> dict:
    return {key: convert(data[key]) for key, convert in converters.items()
            if key in data}


def _v1_equalizer_window(equalizers: list, channel_width_ghz: float) -> float | None:
    """The window a schema-1 equalizer list re-levels over: the last per-NMC
    node's width, else the media channel if there is any node. A node's
    position and target PSD never reached an output."""
    window = channel_width_ghz if equalizers else None
    for node in equalizers:
        granularity = node["granularity"]
        if granularity == "per_nmc":
            window = float(node["nmc_width_ghz"])
        elif granularity != "per_media_channel":
            raise ScenarioError(f"unknown equalizer granularity {granularity!r}")
    return window


def _filter_order(value) -> int:
    """A filter order from a file. int() alone would cut 3.7 to 3 and end
    in an OverflowError on an infinite order; FilterElement checks >= 1."""
    if isinstance(value, float) and not value.is_integer():
        raise ScenarioError(f"filter order must be an integer, got {value}")
    return int(value)


def scenario_from_dict(data: dict) -> Scenario:
    """Scenario of a schema-1 or schema-2 dict."""
    try:
        version = data["schema_version"]
        if version not in (1, SCHEMA_VERSION):
            raise ScenarioError(f"unsupported schema_version {version!r}")
        mc = data["media_channel"]
        media_channel = MediaChannel(
            center_thz=float(mc["center_thz"]),
            width_ghz=float(mc["width_ghz"]),
            max_total_power_dbm=float(mc["max_total_power_dbm"]),
            max_psd_dbm_per_ghz=float(mc["max_psd_dbm_per_ghz"]),
        )
        if version == 1:
            data = dict(data, equalizer_window_ghz=_v1_equalizer_window(
                data.get("equalizers", []), media_channel.width_ghz))
        link = LinkSpec(
            name=data["name"],
            media_channel=media_channel,
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
                    order=_filter_order(f["order"]),
                )
                for f in data["filters"]
            ),
            **_present(data, _LINK_OPTIONAL),
        )
        policy_data = data["policy"]
        scenario = Scenario(
            link=link,
            policy=PowerPolicy(PolicyKind(policy_data["kind"]),
                               float(policy_data["value"])),
            **_present(data, _SCENARIO_OPTIONAL),
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
