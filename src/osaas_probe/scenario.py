"""Scenario files: a link description plus probing defaults.

A scenario bundles the link under test with the catalog it should be probed
with, the default power policy and the sweep step. Files are JSON with a
schema version. Schema 3 states a span by its loss, noise figure, NLI
coefficient and dispersion compensation. Schema-2 files, which also give a
span length and an amplifier gain equal to the loss, are still read; those
two keys are not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ScenarioError, check_range
from .spectrum import GRID_UNIT_GHZ, MediaChannel, PolicyKind, PowerPolicy
from .linesystem import DispersionComp, FilterElement, LinkSpec, SpanSpec

SCHEMA_VERSION = 3
# Policy values (dBm or dBm/GHz). No probe carrier is launched near either
# end. The low end keeps the realized carrier power, which every noise key
# counts from -200 dBm, far above that origin; the high end keeps the NLI
# power, the cube of the carrier power in mW, finite.
POLICY_VALUE_RANGE = (-100.0, 100.0)


@dataclass(frozen=True)
class Scenario:
    link: LinkSpec
    catalog: str = "default"  # named catalog or a file path
    policy: PowerPolicy = PowerPolicy(PolicyKind.CONSTANT_PSD, -26.0)
    sweep_step_ghz: float = 6.25
    monitor_config_id: str = "DP-QPSK-69.4"

    def __post_init__(self):
        unit = "dBm/GHz" if self.policy.kind is PolicyKind.CONSTANT_PSD else "dBm"
        check_range("policy value", self.policy.value, *POLICY_VALUE_RANGE, unit=unit)
        step, width = self.sweep_step_ghz, self.link.media_channel.width_ghz
        check_range("sweep step", step, GRID_UNIT_GHZ, width, unit="GHz")
        if not (abs(step / GRID_UNIT_GHZ - round(step / GRID_UNIT_GHZ)) <= 1e-6
                and abs(width / step - round(width / step)) <= 1e-9):
            raise ScenarioError(
                f"sweep step {step} GHz is not a multiple of the {GRID_UNIT_GHZ} "
                f"GHz grid dividing the {width} GHz media channel")

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, link=replace(self.link, seed=seed))


def _integer(name: str, value) -> int:
    """An integer from a file. int() alone would cut 3.7 to 3 and end in an
    OverflowError on an infinite value."""
    if isinstance(value, float) and not value.is_integer():
        raise ScenarioError(f"{name} must be an integer, got {value}")
    return int(value)


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
    "seed": lambda seed: _integer("seed", seed),
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


def scenario_from_dict(data: dict) -> Scenario:
    """Scenario of a schema-2 or schema-3 dict."""
    try:
        version = data["schema_version"]
        if version not in (2, SCHEMA_VERSION):
            raise ScenarioError(f"unsupported schema_version {version!r}")
        mc = data["media_channel"]
        media_channel = MediaChannel(
            center_thz=float(mc["center_thz"]),
            width_ghz=float(mc["width_ghz"]),
            max_total_power_dbm=float(mc["max_total_power_dbm"]),
            max_psd_dbm_per_ghz=float(mc["max_psd_dbm_per_ghz"]),
        )
        link = LinkSpec(
            name=data["name"],
            media_channel=media_channel,
            spans=tuple(
                SpanSpec(
                    loss_db=float(s["loss_db"]),
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
                    order=_integer("filter order", f["order"]),
                )
                for f in data["filters"]
            ),
            **_present(data, _LINK_OPTIONAL),
        )
        policy_data = data["policy"]
        return Scenario(
            link=link,
            policy=PowerPolicy(PolicyKind(policy_data["kind"]),
                               float(policy_data["value"])),
            **_present(data, _SCENARIO_OPTIONAL),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"malformed scenario: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return scenario_from_dict(data)
