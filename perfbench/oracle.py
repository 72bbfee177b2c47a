"""Reference laws recomputed without the package (and without scipy).

The BER law of a rectangular Li x Lj QAM grid at a per-symbol SNR s is
``p * erfc(d * sqrt(s))`` with ``p = ((Li-1)/Li + (Lj-1)/Lj) / log2(Li*Lj)``
and ``d = sqrt(3 / (Li^2 + Lj^2 - 2))``. The reported Q-factor is
``20*log10(q)`` with ``BER = 0.5*erfc(q/sqrt(2))``, i.e. ``q = -Phi^-1(BER)``.
"""

from __future__ import annotations

import math
from statistics import NormalDist

FIT_GATE_DB = 0.05  # the characterization fit gate (RMS limit)
ROUND_TRIP_DB = 0.02  # acceptance criterion 1: known-GSNR recovery
WIDE_BAND_DB = 0.10  # criterion 3: noisy wide-band link estimate
NARROW_BAND_DB = 0.35  # criterion 4: cap-filtered verification bound
MISALIGNMENT_GHZ = (6.25, 3.13)  # criterion 9
TILT_DB = (2.5, 0.2)  # criterion 10
SWING_DB = 0.1  # criterion 13

GRIDS = {"DP-QPSK": (2, 2), "DP-P-16QAM": (4, 2), "DP-16QAM": (4, 4)}
_NORMAL = NormalDist()


def ber_law(config_id: str, snr_db: float) -> float:
    li, lj = GRIDS[config_id.rsplit("-", 1)[0]]
    prefactor = ((li - 1) / li + (lj - 1) / lj) / math.log2(li * lj)
    distance = math.sqrt(3.0 / (li * li + lj * lj - 2.0))
    return prefactor * math.erfc(distance * math.sqrt(10.0 ** (snr_db / 10.0)))


def q_db(ber: float) -> float:
    return 20.0 * math.log10(-_NORMAL.inv_cdf(ber))


def ber_of_q_db(q: float) -> float:
    return 0.5 * math.erfc(10.0 ** (q / 20.0) / math.sqrt(2.0))


def check_units(units) -> list[str]:
    """The package's Q<->BER pair against the reference, both directions."""
    errors = []
    for i in range(61):
        q = 2.0 + 0.3 * i  # 2 .. 20 dB
        ber = ber_of_q_db(q)
        got_ber = units.ber_from_q_db(q)
        if abs(got_ber - ber) > 1e-9 * ber:
            errors.append(f"ber_from_q_db({q:.1f}) = {got_ber!r}, reference {ber!r}")
        got_q = units.q_db_from_ber(ber)
        if abs(got_q - q) > 1e-6:
            errors.append(f"q_db_from_ber({ber!r}) = {got_q!r}, reference {q!r}")
    return errors


def check_curve(curve: dict) -> list[str]:
    """A persisted characterization curve against the analytic BER law: each
    point, and the fitted polynomial at each point, within the fit gate."""
    cid = curve["config_id"]
    errors = []
    for g, q in curve["points"]:
        reference = q_db(ber_law(cid, g))
        fitted = 0.0
        for c in reversed(curve["coefficients"]):
            fitted = fitted * g + c
        worst = max(abs(q - reference), abs(fitted - reference))
        if worst > FIT_GATE_DB:
            errors.append(f"{cid} at {g:.3f} dB: Q {q:.4f} / fit {fitted:.4f} "
                          f"vs law {reference:.4f}")
    if len(curve["points"]) < 4:
        errors.append(f"{cid}: only {len(curve['points'])} points")
    return errors


def regime_agrees(classification: str, oracle_delta_db: float) -> bool:
    """A class agrees in sign with the oracle's constant-power minus
    constant-PSD GSNR difference; equal policies (zero difference) must read
    as near the optimum."""
    if oracle_delta_db > 0:
        return classification == "linear"
    if oracle_delta_db < 0:
        return classification == "nonlinear"
    return classification == "near_optimum"


def tilt_db(points: list[tuple[float, float]], width_ghz: float) -> float:
    """Least-squares slope of (offset GHz, dB) points scaled to the width."""
    n = len(points)
    mx = sum(x for x, _ in points) / n
    my = sum(y for _, y in points) / n
    sxx = sum((x - mx) ** 2 for x, _ in points)
    sxy = sum((x - mx) * (y - my) for x, y in points)
    return abs(sxy / sxx) * width_ghz
