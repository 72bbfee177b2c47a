import math

import pytest
from hypothesis import given, strategies as st
from scipy.special import erfc, erfcinv

from osaas_probe.units import (
    ber_from_q_db,
    harmonic_db_sum,
    osnr_to_snr_db,
    q_db_from_ber,
)


def test_q_from_ber_against_erfc_oracle():
    # Gaussian Q(2.0) = 0.5*erfc(2/sqrt(2)) = 2.275e-2, i.e. q_lin = 2.0
    ber = 0.5 * erfc(2.0 / math.sqrt(2.0))
    assert ber == pytest.approx(2.275e-2, rel=1e-3)
    assert q_db_from_ber(ber) == pytest.approx(20 * math.log10(2.0), abs=1e-9)
    assert q_db_from_ber(2.275e-2) == pytest.approx(6.0206, abs=1e-3)
    # q_lin at BER 1e-3 from the inverse oracle
    q_lin = math.sqrt(2.0) * erfcinv(2e-3)
    assert q_lin == pytest.approx(3.090, abs=1e-3)
    assert q_db_from_ber(1.0e-3) == pytest.approx(9.7998, abs=1e-3)


def test_q_from_ber_domain():
    for bad in (0.5, 0.7, 0.0, -0.1):
        with pytest.raises(ValueError):
            q_db_from_ber(bad)


def test_ber_from_q_oracle_points():
    assert ber_from_q_db(6.02) == pytest.approx(2.2758e-2, rel=1e-3)
    assert ber_from_q_db(9.80) == pytest.approx(9.996e-4, rel=1e-3)


@pytest.mark.parametrize("q_db", [5.0, 8.0, 12.0])
def test_q_ber_round_trip(q_db):
    assert q_db_from_ber(ber_from_q_db(q_db)) == pytest.approx(q_db, rel=1e-9)


@given(st.floats(min_value=1e-9, max_value=0.49))
def test_q_strictly_decreasing_in_ber(ber):
    assert q_db_from_ber(ber) > q_db_from_ber(min(ber * 1.5, 0.499))


def test_osnr_to_snr_reference_points():
    assert osnr_to_snr_db(20.0, 12.5) == pytest.approx(20.0)
    assert osnr_to_snr_db(20.0, 50.0) == pytest.approx(13.9794, abs=1e-3)
    assert osnr_to_snr_db(17.0, 69.4) == pytest.approx(9.5555, abs=1e-3)
    assert osnr_to_snr_db(18.0, 34.5) == pytest.approx(
        18.0 + 10.0 * math.log10(12.5 / 34.5))
    assert osnr_to_snr_db(18.0, 34.5) == pytest.approx(13.5909, abs=1e-3)


@given(st.floats(min_value=1.0, max_value=100.0),
       st.floats(min_value=1.05, max_value=2.0))
def test_osnr_to_snr_decreasing_in_rate(rate, factor):
    assert osnr_to_snr_db(20.0, rate * factor) < osnr_to_snr_db(20.0, rate)


def test_harmonic_db_sum():
    # equal terms combine to half the ratio: exactly -3.0103 dB
    assert harmonic_db_sum(20.0, 20.0) == pytest.approx(16.9897, abs=1e-4)
    assert harmonic_db_sum(13.0, 26.0) == pytest.approx(12.7876, abs=1e-4)
    assert harmonic_db_sum(17.0, math.inf) == pytest.approx(17.0)
    assert harmonic_db_sum(math.inf, math.inf) == math.inf


@given(st.floats(min_value=-10, max_value=40),
       st.floats(min_value=-10, max_value=40))
def test_harmonic_sum_below_min(a, b):
    assert harmonic_db_sum(a, b) < min(a, b) + 1e-12


def test_harmonic_sum_of_overflowing_noise_is_minus_infinity():
    assert harmonic_db_sum(-4000.0, 20.0) == -math.inf
    assert harmonic_db_sum(-math.inf, 20.0) == -math.inf
