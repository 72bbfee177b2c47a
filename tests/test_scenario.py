import json

import pytest

from osaas_probe.errors import ScenarioError
from osaas_probe.presets import PRESETS, preset, write_scenario_files
from osaas_probe.scenario import (
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

from conftest import REPO_ROOT


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
