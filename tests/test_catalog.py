import json
import math

import pytest
from scipy.special import erfcinv

from osaas_probe.catalog import (
    default_catalog,
    load_catalog,
    regional_catalog,
    resolve_catalog,
)
from osaas_probe.errors import ScenarioError
from osaas_probe.modem import required_snr_db
from osaas_probe.spectrum import ModulationFormat

from conftest import catalog_records


def test_default_catalog_shape(catalog):
    assert len(catalog) == 11
    rates = sorted({c.symbol_rate_gbd for c in catalog})
    assert rates == [31.5, 34.5, 46.3, 52.0, 55.5, 58.0, 69.4]
    assert len({c.config_id for c in catalog}) == 11
    for cfg in catalog:
        assert cfg.line_rate_gbps <= cfg.format.bits_per_symbol_dualpol * cfg.symbol_rate_gbd


def test_regional_catalog_excludes_58(catalog_regional):
    assert len(catalog_regional) == 9
    assert all(c.symbol_rate_gbd != 58.0 for c in catalog_regional)


def test_required_snr_oracle():
    # invert each BER law numerically and compare against the closed form
    ber = 2.0e-2
    # DP-QPSK: BER = 0.5*erfc(sqrt(snr/2))
    snr_qpsk = 2.0 * erfcinv(2 * ber) ** 2
    assert required_snr_db(ModulationFormat.DP_QPSK, ber) == pytest.approx(
        10 * math.log10(snr_qpsk), abs=1e-9)
    assert required_snr_db(ModulationFormat.DP_QPSK, ber) == pytest.approx(6.2509, abs=1e-3)
    # DP-16QAM: BER = (3/8)*erfc(sqrt(snr/10))
    snr_16 = 10.0 * erfcinv(ber / (3.0 / 8.0)) ** 2
    assert required_snr_db(ModulationFormat.DP_16QAM, ber) == pytest.approx(
        10 * math.log10(snr_16), abs=1e-9)
    assert required_snr_db(ModulationFormat.DP_16QAM, ber) == pytest.approx(12.7108, abs=1e-3)
    # rectangular 8QAM: BER = (5/12)*erfc(sqrt(snr/6))
    snr_8 = 6.0 * erfcinv(ber / (5.0 / 12.0)) ** 2
    assert required_snr_db(ModulationFormat.DP_P16QAM, ber) == pytest.approx(
        10 * math.log10(snr_8), abs=1e-9)
    assert required_snr_db(ModulationFormat.DP_P16QAM, ber) == pytest.approx(10.6930, abs=1e-3)


def test_required_gsnr_ordering(catalog):
    by_fmt = {}
    for cfg in catalog:
        by_fmt.setdefault(cfg.format, cfg.required_gsnr_db)
    assert (by_fmt[ModulationFormat.DP_QPSK]
            < by_fmt[ModulationFormat.DP_P16QAM]
            < by_fmt[ModulationFormat.DP_16QAM])


def test_catalog_file_round_trip(tmp_path, catalog):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog_records(catalog)))
    loaded = load_catalog(path)
    assert [c.config_id for c in loaded] == [c.config_id for c in catalog]
    for a, b in zip(loaded, catalog):
        assert a.required_gsnr_db == pytest.approx(b.required_gsnr_db, abs=1e-4)


def test_catalog_record_keys_are_field_names(tmp_path):
    """A record's keys are PltConfig's field names: roll_off and
    fec_threshold_ber are optional with the PltConfig defaults, and a key
    that names no field is rejected, where it was once ignored."""
    record = {"format": "DP-QPSK", "symbol_rate_gbd": 31.5,
              "line_rate_gbps": 100.0, "required_gsnr_db": 6.2509}
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([record]))
    (config,) = load_catalog(path)
    assert config.roll_off == 0.19
    assert config.fec_threshold_ber == 2e-2
    path.write_text(json.dumps([dict(record, rolloff=0.2)]))
    with pytest.raises(ScenarioError, match="unknown key 'rolloff'"):
        load_catalog(path)


def test_resolve_catalog(tmp_path, catalog):
    assert resolve_catalog("default") == default_catalog()
    assert resolve_catalog("regional") == regional_catalog()
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(catalog_records(catalog[:2])))
    assert len(resolve_catalog(str(path))) == 2
    with pytest.raises(ScenarioError):
        resolve_catalog(str(tmp_path / "missing.json"))


def test_load_catalog_rejects_bad_records(tmp_path, catalog):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"format": "DP-QPSK"}]))
    with pytest.raises(ScenarioError):
        load_catalog(path)
    # a zero roll-off once divided by zero; the other values loaded and probed
    for key, value, message in [
            ("roll_off", 0.0, "roll-off"), ("roll_off", math.nan, "roll-off"),
            ("roll_off", 2.0, "roll-off"), ("line_rate_gbps", math.nan, "line rate"),
            ("line_rate_gbps", 0.0, "line rate"),
            ("required_gsnr_db", 1e308, "required GSNR"),
            ("required_gsnr_db", 10 ** 400, "too large to convert")]:
        record = dict(catalog_records(catalog[:1])[0], **{key: value})
        path.write_text(json.dumps([record]))
        with pytest.raises(ScenarioError, match=message):
            load_catalog(path)
    # a repeated config id ended a probe in a "duplicate probe" traceback
    path.write_text(json.dumps(catalog_records(catalog[:1]) * 2))
    with pytest.raises(ScenarioError, match="repeats DP-QPSK-31.5"):
        load_catalog(path)
    path.write_text(json.dumps({"not": "a list"}))
    with pytest.raises(ScenarioError):
        load_catalog(path)
