import numpy as np
import pytest
from hypothesis import given, strategies as st

from osaas_probe.errors import CarrierRejectedError, LimitViolationError, SpectrumError
from osaas_probe.spectrum import (
    MediaChannel,
    ModulationFormat,
    PltConfig,
    PowerPolicy,
    admissible_offsets_ghz,
    carrier_power_dbm,
    check_carrier_fits,
    rrc_psd,
    to_grid_units,
)


def qpsk(rate=50.0, line=100.0):
    return PltConfig(ModulationFormat.DP_QPSK, rate, line, 6.25)


def test_bits_per_symbol():
    assert ModulationFormat.DP_QPSK.bits_per_symbol_dualpol == 4
    assert ModulationFormat.DP_P16QAM.bits_per_symbol_dualpol == 6
    assert ModulationFormat.DP_16QAM.bits_per_symbol_dualpol == 8


def test_plt_config_hash_is_computed_once_from_its_numbers():
    """Equal configs built apart hash equal, a config's hash does not change
    across calls, and it is the hash of the numeric fields."""
    cfg = PltConfig(ModulationFormat.DP_P16QAM, 46.3, 200.0, 9.5, 0.1, 1e-2)
    twin = PltConfig(ModulationFormat.DP_P16QAM, 46.3, 200.0, 9.5, 0.1, 1e-2)
    assert cfg == twin and cfg is not twin
    assert hash(cfg) == hash(twin) == hash(cfg)
    assert hash(cfg) == hash((46.3, 200.0, 9.5, 0.1, 1e-2))
    assert len({cfg, twin, qpsk()}) == 2


def test_media_channel_validation():
    with pytest.raises(SpectrumError):
        MediaChannel(190.0, 100.0, 9.0, -20.0)  # outside C-band
    with pytest.raises(SpectrumError):
        MediaChannel(193.2, -5.0, 9.0, -20.0)


def test_plt_config_validation():
    with pytest.raises(SpectrumError):
        PltConfig(ModulationFormat.DP_QPSK, 31.5, 200.0, 6.25)  # 200 > 4*31.5
    with pytest.raises(SpectrumError):
        PltConfig(ModulationFormat.DP_QPSK, 31.5, 100.0, -1.0)
    with pytest.raises(SpectrumError):
        PltConfig(ModulationFormat.DP_QPSK, 31.5, 100.0, 6.25,
                  fec_threshold_ber=0.5)


def test_occupied_bandwidth():
    cfg = qpsk(69.4, 200.0)
    assert cfg.occupied_bandwidth_ghz == pytest.approx(82.586, abs=1e-3)
    assert cfg.roll_off == 0.19


def test_grid_units():
    assert to_grid_units(6.25) == 25
    assert to_grid_units(-18.75) == -75
    with pytest.raises(SpectrumError):
        to_grid_units(6.3)


def test_carrier_power_constant_psd():
    policy = PowerPolicy.constant_psd(-23.0)
    assert carrier_power_dbm(policy, qpsk(50.0)) == pytest.approx(-6.0103, abs=1e-3)
    assert carrier_power_dbm(policy, qpsk(69.4, 200.0)) == pytest.approx(-4.5864, abs=1e-3)


def test_carrier_power_constant_total():
    policy = PowerPolicy.constant_total_power(-6.0)
    for rate in (31.5, 50.0, 69.4):
        assert carrier_power_dbm(policy, qpsk(rate, 100.0)) == -6.0


@given(st.floats(min_value=20.0, max_value=69.0),
       st.floats(min_value=1.01, max_value=1.4))
def test_constant_psd_power_increasing_in_rate(rate, factor):
    policy = PowerPolicy.constant_psd(-26.0)
    low = carrier_power_dbm(policy, qpsk(rate, 80.0))
    high = carrier_power_dbm(policy, qpsk(rate * factor, 80.0))
    assert high > low


def test_power_limits_enforced():
    channel = MediaChannel(193.2, 100.0, -5.0, -20.0)
    with pytest.raises(LimitViolationError):
        carrier_power_dbm(PowerPolicy.constant_psd(-20.0), qpsk(50.0), channel)
    with pytest.raises(LimitViolationError):
        # implied PSD -6 - 10log10(31.5) = -21 fits, but total power exceeds
        carrier_power_dbm(PowerPolicy.constant_total_power(-4.0),
                          qpsk(31.5, 100.0), channel)
    with pytest.raises(LimitViolationError):
        # total fits, implied PSD -6 - 15 = -21 > -25 violates
        carrier_power_dbm(PowerPolicy.constant_total_power(-6.0),
                          qpsk(31.5, 100.0),
                          MediaChannel(193.2, 100.0, 9.0, -25.0))


def test_rrc_psd_shape():
    cfg = qpsk(50.0)
    edge = (1 + cfg.roll_off) * 50.0 / 2.0
    flat = (1 - cfg.roll_off) * 50.0 / 2.0
    center, upper, lower, outside, mid = rrc_psd(
        50.0, cfg.roll_off,
        np.array([0.0, edge, -edge, edge + 5.0, (flat + edge) / 2.0]))
    assert center == pytest.approx(1.0 / 50.0)
    assert upper == 0.0
    assert lower == 0.0
    assert outside == 0.0
    # transition midpoint carries half the flat-top density
    assert mid == pytest.approx(0.5 / 50.0)


@pytest.mark.parametrize("rate", [31.5, 46.3, 69.4])
def test_rrc_psd_unit_power_by_quadrature(rate):
    cfg = qpsk(rate, 100.0)
    edge = cfg.occupied_bandwidth_ghz / 2.0
    grid = np.linspace(-edge, edge, 8001)
    values = rrc_psd(rate, cfg.roll_off, grid)
    assert np.trapezoid(values, grid) == pytest.approx(1.0, abs=1e-6)


def test_carrier_fit_checks():
    channel = MediaChannel(193.2, 100.0, 9.0, -20.0)
    check_carrier_fits(channel, qpsk(69.4, 200.0), 0.0)
    with pytest.raises(CarrierRejectedError):
        check_carrier_fits(channel, qpsk(69.4, 200.0), 10.0)
    with pytest.raises(CarrierRejectedError):
        check_carrier_fits(MediaChannel(193.2, 75.0, 9.0, -20.0),
                           qpsk(69.4, 200.0), 0.0)


def test_admissible_offsets():
    channel = MediaChannel(193.2, 125.0, 9.0, -20.0)
    offsets = admissible_offsets_ghz(channel, qpsk(69.4, 200.0), 6.25)
    # half-width 62.5 minus half occupied 41.29 leaves 21.2 -> +-18.75
    assert offsets[0] == -18.75 and offsets[-1] == 18.75
    assert len(offsets) == 7
    assert admissible_offsets_ghz(MediaChannel(193.2, 50.0, 9.0, -20.0),
                                  qpsk(69.4, 200.0), 6.25) == []


def test_slot_width():
    assert qpsk(69.4, 200.0).slot_width_ghz == 75.0
    assert qpsk(58.0, 200.0).slot_width_ghz == 62.5
    assert qpsk(34.5, 100.0).slot_width_ghz == 37.5
