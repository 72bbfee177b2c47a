import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from osaas_probe import linesystem
from osaas_probe.catalog import default_catalog, regional_catalog
from osaas_probe.linesystem import LineSystem
from osaas_probe.modem import ModemModel, characterize
from osaas_probe.scenario import load_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = REPO_ROOT / "scenarios"
SCENARIO_NAMES = sorted(path.stem for path in SCENARIOS.glob("*.json"))


def shipped_scenario(name):
    """The scenario ``scenarios/<name>.json``, as the CLI loads it."""
    return load_scenario(SCENARIOS / f"{name}.json")


def empty_linesystem_caches():
    """Empty every memo of the linesystem module, as a new process has them."""
    for value in vars(linesystem).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def cold_line(link, modem=None):
    """A line that computes every carrier anew: the carrier memo that lines
    of one budget share is emptied first. Lines built before keep theirs."""
    linesystem._carrier_memo.cache_clear()
    return LineSystem(link, modem)


def shipped_data(name):
    """The parsed JSON of ``scenarios/<name>.json``, for a test to change."""
    return json.loads((SCENARIOS / f"{name}.json").read_text())


def catalog_records(catalog):
    """The catalog file records of ``catalog``."""
    return [{"format": cfg.format.label,
             "symbol_rate_gbd": cfg.symbol_rate_gbd,
             "roll_off": cfg.roll_off,
             "line_rate_gbps": cfg.line_rate_gbps,
             "required_gsnr_db": round(cfg.required_gsnr_db, 4),
             "fec_threshold_ber": cfg.fec_threshold_ber}
            for cfg in catalog]


class ProbeSurface:
    """Only the probe surface of ``line`` and its published channel
    metadata, keeping the arguments of every probe in ``probes``."""

    def __init__(self, line):
        self._probe = line.probe
        self.media_channel = line.media_channel
        self.name = line.name
        self.probes = []

    def probe(self, config, policy, carrier_center_thz=None, sim_time_h=0.0):
        self.probes.append((config, policy, carrier_center_thz, sim_time_h))
        return self._probe(config, policy, carrier_center_thz, sim_time_h)


def make_non_monotone(curve_data: dict) -> dict:
    """Give a persisted curve -(g - mid)^2, which peaks mid-range, as its
    polynomial; the stored points stay monotone."""
    mid = 0.5 * sum(curve_data["valid_range"])
    curve_data["coefficients"] = [-mid * mid, 2.0 * mid, -1.0]
    return curve_data


def make_huge_residual(curve_data: dict) -> dict:
    """Give a persisted curve a cubic coefficient of 1e300: the polynomial
    still rises over the validity range, but misses every stored point."""
    curve_data["coefficients"][3] = 1e300
    return curve_data


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture(scope="session")
def catalog_regional():
    return regional_catalog()


@pytest.fixture(scope="session")
def modem():
    return ModemModel(26.0)


@pytest.fixture(scope="session")
def curves(catalog, modem):
    return {cfg.config_id: characterize(modem, cfg) for cfg in catalog}


@pytest.fixture(scope="session")
def make_line(modem):
    def factory(name, sigma=None, seed=None):
        link = shipped_scenario(name).link
        if sigma is not None:
            link = replace(link, noise_sigma_q_db=sigma)
        if seed is not None:
            link = replace(link, seed=seed)
        return LineSystem(link, modem)
    return factory
