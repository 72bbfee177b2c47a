"""Decibel, power and Q-factor arithmetic shared by every other module.

All public functions are pure and operate on plain floats. Powers are dBm or
linear mW, ratios are dB or dimensionless, optical noise bandwidth is the
0.1 nm reference (12.5 GHz).
"""

from __future__ import annotations

import math
from statistics import NormalDist

# 0.1 nm at 1550 nm expressed in GHz, the reference bandwidth for OSNR figures.
REF_BANDWIDTH_GHZ = 12.5

# 10*log10(h * nu * 12.5 GHz) at ~193.4 THz is -58 dBm; per-span OSNR follows
# as launch_dbm + 58 - span_loss_db - noise_figure_db.
ASE_BUDGET_CONSTANT_DB = 58.0

_STANDARD_NORMAL = NormalDist()


def dbm_to_mw(power_dbm: float) -> float:
    return 10.0 ** (power_dbm / 10.0)


def q_db_from_ber(ber: float) -> float:
    """Pre-FEC bit error ratio to Q-factor in dB.

    Uses the Gaussian decision-metric convention q_lin = sqrt(2)*erfcinv(2*ber),
    i.e. the standard normal quantile q_lin = -Phi^-1(ber), reported as
    20*log10(q_lin). A BER at or above 0.5 carries no decision information
    and is rejected.
    """
    if not 0.0 < ber < 0.5:
        raise ValueError(f"BER {ber!r} outside (0, 0.5); no Q-factor defined")
    q_lin = -_STANDARD_NORMAL.inv_cdf(ber)
    return 20.0 * math.log10(q_lin)


def ber_from_q_db(q_db: float) -> float:
    """Exact inverse of :func:`q_db_from_ber`."""
    q_lin = 10.0 ** (q_db / 20.0)
    return 0.5 * math.erfc(q_lin / math.sqrt(2.0))


def erfcinv(y: float) -> float:
    """Inverse complementary error function for y in (0, 2).

    erfc(x) = 2*Phi(-x*sqrt(2)), so the inverse is the standard normal
    quantile of y/2 rescaled.
    """
    if not 0.0 < y < 2.0:
        raise ValueError(f"erfcinv argument {y!r} outside (0, 2)")
    return -_STANDARD_NORMAL.inv_cdf(y / 2.0) / math.sqrt(2.0)


def osnr_to_snr_db(osnr_01nm_db: float, symbol_rate_gbd: float) -> float:
    """Re-reference an OSNR (0.1 nm) to the signal bandwidth of a carrier."""
    if symbol_rate_gbd <= 0.0:
        raise ValueError("symbol rate must be positive")
    return osnr_01nm_db + 10.0 * math.log10(REF_BANDWIDTH_GHZ / symbol_rate_gbd)


def harmonic_db_sum(*terms_db: float) -> float:
    """Combine SNR contributions expressed in dB.

    Noise powers add linearly, so 1/snr_total = sum(1/snr_i). Terms of
    +infinity contribute no noise and are skipped; at least one finite term
    is required. A term so low that its noise power overflows a float (below
    about -3080 dB, as on a carrier the filters all but block) leaves no
    SNR: the sum is -infinity.
    """
    acc = 0.0
    finite = False
    for term in terms_db:
        if math.isinf(term) and term > 0:
            continue
        try:
            acc += 10.0 ** (-term / 10.0)
        except OverflowError:
            return -math.inf
        finite = True
    if not finite:
        return math.inf
    return -10.0 * math.log10(acc)
