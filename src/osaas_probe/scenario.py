"""Scenario files: a link description plus probing defaults.

A scenario bundles the link under test with the catalog it should be probed
with, the default power policy and the sweep step. Files are JSON of schema
version 3, whose keys are the field names of the dataclasses they describe:
a file's top level holds those of ``LinkSpec`` and ``Scenario`` (less
``link``), and its nested objects those of ``MediaChannel``, ``SpanSpec``,
``FilterElement`` and ``PowerPolicy``. A key is optional exactly when its
field has a default, and a key that names no field is rejected: the rule
of ``errors.build_record``, which reads catalog records and curve files too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import (ScenarioError, build_record, check_range, integer,
                     number, text)
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


def _array(value, name: str) -> list:
    """A JSON array. Iterating a string or an object instead would read
    "" or {} as no spans, filters or ripple points."""
    if value.__class__ is not list:
        raise ScenarioError(f"{name} must be an array, got {value!r}")
    return value


# How a file value converts to each field that is not a plain number.
_CONVERTERS = {
    "name": lambda name: text(name, "name"),
    "catalog": lambda catalog: text(catalog, "catalog"),
    "monitor_config_id": lambda config_id: text(config_id, "monitor_config_id"),
    "dispersion_comp": DispersionComp,
    "kind": PolicyKind,
    "order": lambda order: integer(order, "filter order"),
    "seed": lambda seed: integer(seed, "seed"),
    "equalizer_window_ghz": lambda width: (
        None if width is None else number(width, "equalizer_window_ghz")),
    "ripple": lambda points: tuple((number(f, "ripple"), number(db, "ripple"))
                                   for f, db in _array(points, "ripple")),
    "media_channel": lambda mc: build_record(MediaChannel, mc, _CONVERTERS),
    "spans": lambda spans: tuple(build_record(SpanSpec, s, _CONVERTERS)
                                 for s in _array(spans, "spans")),
    "filters": lambda fs: tuple(build_record(FilterElement, f, _CONVERTERS)
                                for f in _array(fs, "filters")),
    "policy": lambda policy: build_record(PowerPolicy, policy, _CONVERTERS),
}


def scenario_from_dict(data: dict) -> Scenario:
    """Scenario of a schema-3 dict, which holds the LinkSpec's fields and
    the Scenario's other fields side by side."""
    try:
        version = data["schema_version"]
        if version != SCHEMA_VERSION:
            raise ScenarioError(f"unsupported schema_version {version!r}")
        link_keys = {f.name for f in fields(LinkSpec)}
        link = build_record(LinkSpec, {key: value for key, value in data.items()
                                       if key in link_keys}, _CONVERTERS)
        return build_record(Scenario, {key: value for key, value in data.items()
                                       if key not in link_keys
                                       and key != "schema_version"},
                            _CONVERTERS, link=link)
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
