import json
import math
from dataclasses import replace

import pytest

from osaas_probe.errors import ScenarioError
from osaas_probe.linesystem import LinkSpec
from osaas_probe.scenario import Scenario, load_scenario, scenario_from_dict

from conftest import SCENARIOS, shipped_data, shipped_scenario

SCENARIO_FILES = sorted(SCENARIOS.glob("*.json"))


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.stem)
def test_shipped_file_is_canonical_schema_3(path):
    text = path.read_text()
    data = json.loads(text)
    assert data["schema_version"] == 3
    assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_schema_version_checked(tmp_path):
    data = shipped_data("b2b")
    for version in (1, 2, 99):
        data["schema_version"] = version
        with pytest.raises(ScenarioError, match="unsupported schema_version"):
            scenario_from_dict(data)


def test_malformed_scenario_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(path)
    data = shipped_data("b2b")
    del data["media_channel"]
    with pytest.raises(ScenarioError):
        scenario_from_dict(data)


def test_sweep_step_must_divide_channel():
    data = shipped_data("LH-1792")
    # off the divisors of the channel, not positive, or off the 0.25 GHz grid
    for step in (7.0, 0.0, -6.25, 3.125):
        data["sweep_step_ghz"] = step
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)


def test_replaced_sweep_step_is_checked():
    """A Scenario checks itself when made, so no replace() can skip it:
    7 GHz does not divide B-485's 100 GHz channel, 5 GHz does."""
    scenario = shipped_scenario("B-485")
    assert replace(scenario, sweep_step_ghz=5.0).sweep_step_ghz == 5.0
    with pytest.raises(ScenarioError, match="sweep step"):
        replace(scenario, sweep_step_ghz=7.0)


@pytest.mark.parametrize("kind", ["constant_psd", "constant_total_power"])
@pytest.mark.parametrize("value", [-100.01, -1000.0, float("nan"),
                                   float("inf"), float("-inf"), 100.01, 1e308])
def test_policy_value_out_of_range_rejected(kind, value):
    data = shipped_data("B-621")
    data["policy"] = {"kind": kind, "value": value}
    with pytest.raises(ScenarioError, match="policy value"):
        scenario_from_dict(data)


def test_policy_value_floor_accepted():
    data = shipped_data("B-621")
    data["policy"]["value"] = -100.0
    assert scenario_from_dict(data).policy.value == -100.0


@pytest.mark.parametrize("window", [math.nan, math.inf, 0.0, -75.0, 0.1, 1000.0])
def test_equalizer_window_out_of_range_rejected(window):
    """Outside the 0.25 GHz grid unit to media-channel width range."""
    data = shipped_data("LH-1792-5x75")
    data["equalizer_window_ghz"] = window
    with pytest.raises(ScenarioError, match="equalizer window"):
        scenario_from_dict(data)


def _set_span(field):
    def edit(data, value):
        data["spans"][0][field] = value
    return edit


NON_FINITE_FIELDS = {
    "diurnal_amplitude_db": lambda d, v: d.update(diurnal_amplitude_db=v),
    "diurnal_period_h": lambda d, v: d.update(diurnal_period_h=v),
    "noise_sigma_q_db": lambda d, v: d.update(noise_sigma_q_db=v),
    "tilt_db_per_mc": lambda d, v: d.update(tilt_db_per_mc=v),
    "filter_misalignment_ghz": lambda d, v: d.update(filter_misalignment_ghz=v),
    "ripple_offset": lambda d, v: d.update(ripple=[[-10.0, 0.1], [v, 0.2]]),
    "ripple_db": lambda d, v: d.update(ripple=[[-10.0, 0.1], [10.0, v]]),
    "span_loss_db": _set_span("loss_db"),
    "span_nli_coeff_per_mw2": _set_span("nli_coeff_per_mw2"),
    "span_amp_noise_figure_db": _set_span("amp_noise_figure_db"),
    "filter_bandwidth_3db_ghz":
        lambda d, v: d["filters"][0].update(bandwidth_3db_ghz=v),
    "filter_center_offset_ghz":
        lambda d, v: d["filters"][0].update(center_offset_ghz=v),
    "media_channel_width_ghz":
        lambda d, v: d["media_channel"].update(width_ghz=v),
    "media_channel_max_total_power_dbm":
        lambda d, v: d["media_channel"].update(max_total_power_dbm=v),
    "media_channel_max_psd_dbm_per_ghz":
        lambda d, v: d["media_channel"].update(max_psd_dbm_per_ghz=v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", sorted(NON_FINITE_FIELDS))
def test_non_finite_link_field_rejected(field, value):
    """NaN fails every sign check, so each check also asks for a finite
    value."""
    data = shipped_data("B-621")
    NON_FINITE_FIELDS[field](data, value)
    with pytest.raises(ScenarioError, match="finite"):
        scenario_from_dict(data)


@pytest.mark.parametrize("order, message", [
    (3.7, "filter order must be an integer"),
    (math.nan, "filter order must be an integer"),
    (math.inf, "filter order must be an integer"),
    (-math.inf, "filter order must be an integer"),
    # ids as when the message read "filter order must be >= 1"
    pytest.param(0, r"filter order must be finite and in \[1, 20\]",
                 id="0-filter order must be >= 1"),
    pytest.param(-2.0, r"filter order must be finite and in \[1, 20\]",
                 id="-2.0-filter order must be >= 1"),
])
def test_bad_filter_order_rejected(order, message):
    """int() would cut 3.7 to 3 and raise OverflowError on an infinite
    order."""
    data = shipped_data("B-621")
    data["filters"][0]["order"] = order
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(data)


def test_integral_float_filter_order_accepted():
    data = shipped_data("B-621")
    data["filters"][0]["order"] = float(data["filters"][0]["order"])
    assert scenario_from_dict(data) == scenario_from_dict(
        shipped_data("B-621"))


def test_absent_optional_keys_take_the_dataclass_defaults():
    """Every key whose field has a default may be left out. The spans of
    LH-1792-5x75 are uncompensated, as the SpanSpec default is."""
    data = shipped_data("LH-1792-5x75")
    for key in ("equalizer_window_ghz", "tilt_db_per_mc", "ripple",
                "filter_misalignment_ghz", "diurnal_amplitude_db",
                "diurnal_period_h", "isi_factor", "seed", "noise_sigma_q_db",
                "catalog", "sweep_step_ghz", "monitor_config_id", "filters",
                "policy"):
        del data[key]
    for span in data["spans"]:
        del span["dispersion_comp"]
    shipped = shipped_scenario("LH-1792-5x75").link
    link = LinkSpec(shipped.name, shipped.media_channel, shipped.spans)
    assert scenario_from_dict(data) == Scenario(link)
