import json
import math

import pytest

from osaas_probe.errors import ScenarioError
from osaas_probe.linesystem import LinkSpec
from osaas_probe.presets import PRESETS, preset, write_scenario_files
from osaas_probe.scenario import (
    Scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

from conftest import REPO_ROOT

SCENARIO_FILES = sorted((REPO_ROOT / "scenarios").glob("*.json"))


def test_round_trip_every_preset(tmp_path):
    for name in PRESETS:
        scenario = preset(name)
        path = tmp_path / f"{name}.json"
        save_scenario(scenario, path)
        loaded = load_scenario(path)
        assert loaded.link.name == scenario.link.name
        assert loaded.catalog == scenario.catalog
        assert loaded.policy == scenario.policy
        assert len(loaded.link.spans) == len(scenario.link.spans)
        assert loaded.link.filters == scenario.link.filters
        assert loaded.link.seed == scenario.link.seed
        # span parameters survive the 3-decimal file rounding
        for a, b in zip(loaded.link.spans, scenario.link.spans):
            assert a.loss_db == pytest.approx(b.loss_db, abs=1e-3)
            assert a.nli_coeff_per_mw2 == pytest.approx(b.nli_coeff_per_mw2,
                                                        rel=1e-5)


def test_shipped_scenarios_match_presets(tmp_path):
    """The in-repo scenario files are exactly what the presets generate."""
    shipped_dir = REPO_ROOT / "scenarios"
    generated = write_scenario_files(tmp_path)
    assert {p.name for p in generated} == \
        {p.name for p in shipped_dir.glob("*.json")}
    for path in generated:
        shipped = (shipped_dir / path.name).read_bytes()
        assert shipped == path.read_bytes(), f"{path.name} is stale"


def test_schema_version_checked(tmp_path):
    scenario = preset("b2b")
    data = scenario_to_dict(scenario)
    data["schema_version"] = 99
    with pytest.raises(ScenarioError):
        scenario_from_dict(data)


def test_malformed_scenario_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(path)
    data = scenario_to_dict(preset("b2b"))
    del data["media_channel"]
    with pytest.raises(ScenarioError):
        scenario_from_dict(data)


def test_sweep_step_must_divide_channel():
    scenario = preset("LH-1792")
    data = scenario_to_dict(scenario)
    # off the divisors of the channel, not positive, or off the 0.25 GHz grid
    for step in (7.0, 0.0, -6.25, 3.125):
        data["sweep_step_ghz"] = step
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)


def test_file_number_formats():
    data = scenario_to_dict(preset("LH-1792"))
    # frequencies in THz with 6 decimals, powers with 2
    assert data["media_channel"]["center_thz"] == 193.95
    assert isinstance(data["policy"]["value"], float)
    text = json.dumps(data)
    assert "schema_version" in text


@pytest.mark.parametrize("kind", ["constant_psd", "constant_total_power"])
@pytest.mark.parametrize("value", [-100.01, -1000.0, float("nan"),
                                   float("inf"), float("-inf")])
def test_policy_value_out_of_range_rejected(kind, value):
    data = scenario_to_dict(preset("B-621"))
    data["policy"] = {"kind": kind, "value": value}
    with pytest.raises(ScenarioError, match="policy value"):
        scenario_from_dict(data)


def test_policy_value_floor_accepted():
    data = scenario_to_dict(preset("B-621"))
    data["policy"]["value"] = -100.0
    assert scenario_from_dict(data).policy.value == -100.0


def _v1_node(granularity, nmc_width_ghz=None, position=12):
    return {"position": position, "granularity": granularity,
            "target_psd_dbm_per_ghz": -26.0, "nmc_width_ghz": nmc_width_ghz}


def _v1_rendering(data, nodes=None):
    """Schema-1 form of a schema-2 dict: the window as an equalizer list,
    or ``nodes`` in its place."""
    data = dict(data, schema_version=1)
    window = data.pop("equalizer_window_ghz")
    if nodes is None:
        if window is None:
            nodes = []
        elif window == data["media_channel"]["width_ghz"]:
            nodes = [_v1_node("per_media_channel", position=0)]
        else:
            nodes = [_v1_node("per_nmc", window)]
    data["equalizers"] = nodes
    return data


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.stem)
def test_v1_rendering_loads_like_the_v2_file(path):
    data = json.loads(path.read_text())
    assert data["schema_version"] == 2
    assert scenario_from_dict(_v1_rendering(data)) == load_scenario(path)


@pytest.mark.parametrize("nodes, window", [
    ([], None),
    ([_v1_node("per_media_channel")], 400.0),
    ([_v1_node("per_nmc", 25.0)], 25.0),
    ([_v1_node("per_nmc", 25.0), _v1_node("per_media_channel")], 25.0),
    ([_v1_node("per_nmc", 25.0), _v1_node("per_nmc", 50.0, position=3)], 50.0),
])
def test_v1_equalizer_list_is_one_window(nodes, window):
    """The last per-NMC width, else the media channel if any node exists."""
    data = _v1_rendering(scenario_to_dict(preset("LH-1792")), nodes)
    assert scenario_from_dict(data).link.equalizer_window_ghz == window


@pytest.mark.parametrize("node", [_v1_node("per_span"), _v1_node("per_nmc"),
                                  _v1_node("per_nmc", 0.0)])
def test_v1_bad_equalizer_node_rejected(node):
    data = _v1_rendering(scenario_to_dict(preset("LH-1792")), [node])
    with pytest.raises(ScenarioError):
        scenario_from_dict(data)


@pytest.mark.parametrize("window", [math.nan, math.inf, 0.0, -75.0, 0.1, 1000.0])
def test_equalizer_window_out_of_range_rejected(window):
    """Outside the 0.25 GHz grid unit to media-channel width range."""
    data = scenario_to_dict(preset("LH-1792-5x75"))
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
    data = scenario_to_dict(preset("B-621"))
    NON_FINITE_FIELDS[field](data, value)
    with pytest.raises(ScenarioError, match="finite"):
        scenario_from_dict(data)


@pytest.mark.parametrize("order, message", [
    (3.7, "filter order must be an integer"),
    (math.nan, "filter order must be an integer"),
    (math.inf, "filter order must be an integer"),
    (-math.inf, "filter order must be an integer"),
    (0, "filter order must be >= 1"),
    (-2.0, "filter order must be >= 1"),
])
def test_bad_filter_order_rejected(order, message):
    """int() would cut 3.7 to 3 and raise OverflowError on an infinite
    order."""
    data = scenario_to_dict(preset("B-621"))
    data["filters"][0]["order"] = order
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(data)


def test_integral_float_filter_order_accepted():
    data = scenario_to_dict(preset("B-621"))
    data["filters"][0]["order"] = float(data["filters"][0]["order"])
    assert scenario_from_dict(data) == scenario_from_dict(
        scenario_to_dict(preset("B-621")))


def test_absent_optional_keys_take_the_dataclass_defaults():
    data = scenario_to_dict(preset("LH-1792-5x75"))
    for key in ("equalizer_window_ghz", "tilt_db_per_mc", "ripple",
                "filter_misalignment_ghz", "diurnal_amplitude_db",
                "diurnal_period_h", "isi_factor", "seed", "noise_sigma_q_db",
                "catalog", "sweep_step_ghz", "monitor_config_id"):
        del data[key]
    loaded = scenario_from_dict(data)
    link = LinkSpec(loaded.link.name, loaded.link.media_channel,
                    loaded.link.spans, loaded.link.filters)
    assert loaded == Scenario(link, policy=loaded.policy)
