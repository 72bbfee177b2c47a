"""Back-to-back transceiver characterization.

A characterization curve maps the total GSNR seen by the decision circuit
(optical noise combined with the modem implementation noise) to the Q-factor
the unit reports. Building the curve sweeps an applied noise-loading grid
through the modem noise combination, so the achievable range is capped by the
modem SNR: readings better than the unit ceiling are not invertible, which is
exactly the behaviour of a real probing transceiver.

The analytic BER laws used here are the same ones the line-system simulator
maps SNR through, which keeps characterization bias-free by construction.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import CurveRangeError, FitRejectedError, InsufficientDataError, check_range
from .spectrum import ModulationFormat, PltConfig
from .units import erfcinv, harmonic_db_sum, q_db_from_ber

# Readings at or beyond this pre-FEC BER carry no usable decision quality
# and are dropped from characterization (far beyond any FEC threshold).
UNMEASURABLE_BER = 0.20

DEFAULT_FIT_DEGREE = 3
FIT_RMS_LIMIT_DB = 0.05
MONOTONICITY_STEP_DB = 0.01
GRID_STEP_DB = 0.5
GRID_BELOW_THRESHOLD_DB = 1.0
GRID_ABOVE_THRESHOLD_DB = 14.0
# Noise-loading steps a characterization may take, in dB: from the
# monotonicity gate's sampling step to the whole grid.
GRID_STEP_RANGE_DB = (MONOTONICITY_STEP_DB,
                      GRID_BELOW_THRESHOLD_DB + GRID_ABOVE_THRESHOLD_DB)
CURVE_SCHEMA_VERSION = 1
# Curve files store points rounded to 6 decimals but the validity range
# exactly, so the range may stick out of the stored points by this much.
_PERSISTED_POINT_ROUNDING = 1e-6

# Newton inversion stops once a step moves the estimate by less than this;
# the bisection fallback bounds the iteration count.
_INVERSION_STEP_DB = 1e-12
_INVERSION_MAX_ITER = 60


@dataclass(frozen=True)
class ModemModel:
    """Implementation noise of one virtual transceiver unit.

    ``snr_modem_db`` may be ``math.inf`` for an ideal unit. The same model
    instance must be used both to characterize a configuration and to probe
    with it; the simulator enforces this by carrying the model inside the
    virtual transceiver.
    """

    snr_modem_db: float = 26.0

    def __post_init__(self):
        if self.snr_modem_db != math.inf:
            check_range("modem SNR", self.snr_modem_db, 0.0,
                        low_open=True, unit="dB", error=ValueError)


def _rect_qam_params(fmt: ModulationFormat) -> tuple[float, float]:
    """Prefactor and distance coefficient of the rectangular-QAM BER law."""
    li, lj = fmt.constellation_grid
    prefactor = ((li - 1) / li + (lj - 1) / lj) / math.log2(li * lj)
    distance = math.sqrt(3.0 / (li * li + lj * lj - 2.0))
    return prefactor, distance


def required_snr_db(fmt: ModulationFormat, ber: float) -> float:
    """SNR in dB at which the analytic BER of the format equals ``ber``."""
    if not 0.0 < ber < 0.5:
        raise ValueError("target BER must be in (0, 0.5)")
    prefactor, distance = _rect_qam_params(fmt)
    snr_lin = (erfcinv(ber / prefactor) / distance) ** 2
    return 10.0 * math.log10(snr_lin)


def ber_from_snr(fmt: ModulationFormat, snr_db: float) -> float:
    """Analytic AWGN pre-FEC BER of a format at a per-symbol SNR in dB.

    All three formats use the rectangular-QAM law for their constellation
    grid; DP-QPSK reduces to Q(sqrt(snr)) and DP-16QAM to
    (3/8)*erfc(sqrt(snr/10)). The law is the high-SNR approximation of
    rectangular QAM (nearest-neighbour errors, Gray coding), so towards
    zero SNR it tends to its prefactor, not to 0.5; a carrier with no SNR
    at all (-inf dB) reads coin flips, 0.5, in every format.
    """
    if snr_db == -math.inf:
        return 0.5
    prefactor, distance = _rect_qam_params(fmt)
    snr_lin = 10.0 ** (snr_db / 10.0)
    return prefactor * math.erfc(distance * math.sqrt(snr_lin))


def _horner(coefficients: tuple[float, ...], x: float) -> tuple[float, float]:
    """Value and slope at x of a polynomial in ascending powers."""
    value = slope = 0.0
    for c in reversed(coefficients):
        slope = slope * x + value
        value = value * x + c
    return value, slope


def _check_fit(coefficients, gs, qs, lo: float, hi: float) -> None:
    """The fit gates: an RMS residual over the points (gs, qs) of at most
    FIT_RMS_LIMIT_DB, then a strict rise over [lo, hi], sampled every
    MONOTONICITY_STEP_DB. An overflowing polynomial fails the residual gate
    silently. numpy.polyval runs numpy.polynomial's Horner recurrence, so
    loading a curve does not import numpy.polynomial."""
    descending = coefficients[::-1]
    with np.errstate(over="ignore", invalid="ignore"):
        residual_rms = float(np.sqrt(np.mean(
            (np.polyval(descending, gs) - qs) ** 2)))
    if not residual_rms <= FIT_RMS_LIMIT_DB:
        raise FitRejectedError(
            f"fit residual RMS {residual_rms:.4f} dB exceeds {FIT_RMS_LIMIT_DB} dB"
        )
    sample = np.arange(lo, hi + MONOTONICITY_STEP_DB / 2, MONOTONICITY_STEP_DB)
    values = np.polyval(descending, sample)
    if np.any(np.diff(values) <= 0):
        raise FitRejectedError("fitted curve is not monotone over the validity range")


@dataclass(frozen=True)
class CharacterizationCurve:
    """Fitted Q-vs-GSNR mapping for one configuration."""

    config_id: str
    points: tuple[tuple[float, float], ...]
    coefficients: tuple[float, ...]  # ascending powers
    valid_range: tuple[float, float]
    snr_modem_db: float = math.inf

    def q_at(self, gsnr_db: float) -> float:
        lo, hi = self.valid_range
        if not lo - 1e-9 <= gsnr_db <= hi + 1e-9:
            raise CurveRangeError(
                f"{gsnr_db:.3f} dB outside curve validity [{lo:.3f}, {hi:.3f}]"
            )
        return _horner(self.coefficients, gsnr_db)[0]

    @cached_property
    def q_range(self) -> tuple[float, float]:
        return self.q_at(self.valid_range[0]), self.q_at(self.valid_range[1])


def default_gsnr_grid(config: PltConfig,
                      step_db: float = GRID_STEP_DB) -> list[float]:
    """Noise-loading grid: equal steps (0.5 dB by default) around the
    FEC-limit GSNR."""
    start = config.required_gsnr_db - GRID_BELOW_THRESHOLD_DB
    stop = config.required_gsnr_db + GRID_ABOVE_THRESHOLD_DB
    n = int(round((stop - start) / step_db))
    return [start + i * step_db for i in range(n + 1)]


def generate_char_points(
    model: ModemModel,
    config: PltConfig,
    gsnr_grid: list[float] | None = None,
) -> list[tuple[float, float]]:
    """Synthesize back-to-back characterization points for one configuration.

    Each applied noise-loading GSNR g combines with the modem noise into the
    total GSNR the decision circuit sees; that total and the resulting
    Q-factor form one point. Points in the unmeasurable BER region are
    dropped.
    """
    if gsnr_grid is None:
        gsnr_grid = default_gsnr_grid(config)
    if any(b <= a for a, b in zip(gsnr_grid, gsnr_grid[1:])):
        raise ValueError("GSNR grid must be strictly ascending")
    if gsnr_grid and not (0.0 <= gsnr_grid[0] and gsnr_grid[-1] <= 40.0):
        raise ValueError("GSNR grid must lie within [0, 40] dB")
    points = []
    for g in gsnr_grid:
        total = harmonic_db_sum(g, model.snr_modem_db)
        ber = ber_from_snr(config.format, total)
        if ber >= UNMEASURABLE_BER:
            continue
        points.append((total, q_db_from_ber(ber)))
    return points


def fit_characterization(
    points: list[tuple[float, float]],
    degree: int = DEFAULT_FIT_DEGREE,
    config_id: str = "",
    snr_modem_db: float = math.inf,
) -> CharacterizationCurve:
    """Least-squares polynomial fit of characterization points.

    Rejects fits that are non-monotone over the validity range (sampled at
    0.01 dB) or whose RMS residual exceeds the quality gate; callers should
    raise the degree or prune points on rejection.
    """
    if len(points) < degree + 2:
        raise InsufficientDataError(
            f"{len(points)} points cannot support a degree-{degree} fit"
        )
    gs = np.array([p[0] for p in points])
    qs = np.array([p[1] for p in points])
    if np.any(np.diff(gs) <= 0) or np.any(np.diff(qs) <= 0):
        raise InsufficientDataError("characterization points must be strictly monotone")
    coeffs = np.polynomial.polynomial.polyfit(gs, qs, degree)
    lo, hi = float(gs[0]), float(gs[-1])
    _check_fit(coeffs, gs, qs, lo, hi)
    return CharacterizationCurve(
        config_id=config_id,
        points=tuple((float(g), float(q)) for g, q in points),
        coefficients=tuple(float(c) for c in coeffs),
        valid_range=(lo, hi),
        snr_modem_db=snr_modem_db,
    )


def characterize(model: ModemModel, config: PltConfig,
                 degree: int = DEFAULT_FIT_DEGREE,
                 gsnr_grid: list[float] | None = None) -> CharacterizationCurve:
    points = generate_char_points(model, config, gsnr_grid)
    return fit_characterization(points, degree, config.config_id,
                                model.snr_modem_db)


def _inversion_seed(curve: CharacterizationCurve, q_db: float) -> float:
    """Linear interpolation of the characterization points at q_db, clamped
    to the validity range; within the fit residual of the root."""
    points = curve.points
    i = min(max(bisect_left(points, q_db, key=itemgetter(1)), 1), len(points) - 1)
    (g0, q0), (g1, q1) = points[i - 1], points[i]
    lo, hi = curve.valid_range
    return min(max(g0 + (q_db - q0) * (g1 - g0) / (q1 - q0), lo), hi)


def gsnr_from_q(curve: CharacterizationCurve, q_db: float) -> float:
    """Invert a characterization curve: measured Q back to estimated GSNR.

    The fitted polynomial rises strictly over its validity range (checked
    when fitting and when loading), so the unique root is found by Newton's
    method from an interpolated seed. The root stays bracketed; a step that
    would leave the bracket is replaced by bisection. Q readings outside the
    curve image mean the measurement cannot be converted and the probing
    layer must mark it unusable.
    """
    lo, hi = curve.valid_range
    q_lo, q_hi = curve.q_range
    if not q_lo - 1e-9 <= q_db <= q_hi + 1e-9:
        raise CurveRangeError(
            f"Q {q_db:.3f} dB outside curve image [{q_lo:.3f}, {q_hi:.3f}]"
        )
    if q_db <= q_lo:
        return lo
    if q_db >= q_hi:
        return hi
    g = _inversion_seed(curve, q_db)
    for _ in range(_INVERSION_MAX_ITER):
        value, slope = _horner(curve.coefficients, g)
        if value < q_db:
            lo = g
        elif value > q_db:
            hi = g
        else:
            return g
        step = (value - q_db) / slope if slope > 0 else math.inf
        new = g - step
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - g) <= _INVERSION_STEP_DB:
            return new
        g = new
    return g


def curve_to_dict(curve: CharacterizationCurve) -> dict:
    return {
        "schema_version": CURVE_SCHEMA_VERSION,
        "config_id": curve.config_id,
        "points": [[round(g, 6), round(q, 6)] for g, q in curve.points],
        "coefficients": list(curve.coefficients),
        "valid_range": [curve.valid_range[0], curve.valid_range[1]],
        "snr_modem_db": None if math.isinf(curve.snr_modem_db) else curve.snr_modem_db,
    }


def _finite(value) -> float:
    return check_range("curve value", float(value), error=ValueError)


def curve_from_dict(data: dict) -> CharacterizationCurve:
    """Rebuild a persisted curve, re-running the checks a fit must pass.

    Any malformed or inconsistent content raises :class:`FitRejectedError`.
    """
    if not isinstance(data, dict) or data.get("schema_version") != CURVE_SCHEMA_VERSION:
        raise FitRejectedError(
            f"not a curve file of schema_version {CURVE_SCHEMA_VERSION}")
    try:
        config_id = data["config_id"]
        if not isinstance(config_id, str):
            raise TypeError("config_id must be a string")
        points = [(_finite(g), _finite(q)) for g, q in data["points"]]
        coefficients = tuple(_finite(c) for c in data["coefficients"])
        lo, hi = (_finite(v) for v in data["valid_range"])
        modem = data.get("snr_modem_db")
        snr_modem_db = ModemModel(math.inf if modem is None
                                  else float(modem)).snr_modem_db
    except (KeyError, TypeError, ValueError) as exc:
        raise FitRejectedError(f"malformed curve: {exc!r}") from exc
    if not 2 <= len(coefficients) < len(points):
        raise FitRejectedError(
            f"{len(coefficients)} coefficients do not fit {len(points)} points")
    gs = [p[0] for p in points]
    qs = [p[1] for p in points]
    if any(b <= a for a, b in zip(gs, gs[1:])) or any(b <= a for a, b in zip(qs, qs[1:])):
        raise FitRejectedError("persisted curve points are not strictly monotone")
    slack = _PERSISTED_POINT_ROUNDING
    if not gs[0] - slack <= lo < hi <= gs[-1] + slack:
        raise FitRejectedError(
            f"valid range [{lo}, {hi}] not inside the points [{gs[0]}, {gs[-1]}]")
    _check_fit(coefficients, gs, qs, lo, hi)
    return CharacterizationCurve(
        config_id=config_id,
        points=tuple(points),
        coefficients=coefficients,
        valid_range=(lo, hi),
        snr_modem_db=snr_modem_db,
    )


def save_curve(curve: CharacterizationCurve, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(curve_to_dict(curve), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_curve(path: str | Path) -> CharacterizationCurve:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise FitRejectedError(f"cannot read curve {path}: {exc}") from exc
    return curve_from_dict(data)
