"""Back-to-back transceiver characterization.

A characterization curve maps the total GSNR seen by the decision circuit
(optical noise combined with the modem implementation noise) to the Q-factor
the unit reports. Building the curve sweeps an applied noise-loading grid
through the modem noise combination, so the achievable range is capped by the
modem SNR: readings better than the unit ceiling are not invertible, which is
exactly the behaviour of a real probing transceiver.

The analytic BER laws used here are the same ones the line-system simulator
maps SNR through, which keeps characterization bias-free by construction.

The fit and its gates are plain Python, so neither characterizing nor
loading a curve imports numpy. The least-squares fit solves its normal
equations exactly in integers and rounds each coefficient once, so a curve
file has the same bytes on every platform, whatever BLAS numpy would use.
The gates evaluate the polynomial at numpy's ``arange`` sample points with
numpy's Horner recurrence, bit for bit. They run where a curve is built,
from a fit or from a file, in ``CharacterizationCurve.__post_init__``.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property
from operator import itemgetter, le, mul
from pathlib import Path

from .errors import (CurveRangeError, FitRejectedError, InsufficientDataError,
                     build_record, check_range, number, text)
from .spectrum import ModulationFormat, PltConfig
from .units import erfcinv, harmonic_db_sum, q_db_from_ber

# Readings at or beyond this pre-FEC BER carry no usable decision quality
# and are dropped from characterization (far beyond any FEC threshold).
UNMEASURABLE_BER = 0.20

DEFAULT_FIT_DEGREE = 3
# Polynomial degrees a characterization may fit. The exact solve's integers
# grow with the degree: the 11 default configurations take about 1.5 ms at
# degree 3, 0.15 s at degree 12 and 3 s at degree 20.
FIT_DEGREE_RANGE = (1, 12)
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


@cache
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


def _gate_values(coefficients, lo: float, hi: float) -> list[float]:
    """numpy.polynomial.polynomial.polyval(np.arange(lo, hi +
    MONOTONICITY_STEP_DB / 2, MONOTONICITY_STEP_DB), coefficients), bit
    for bit.

    numpy sizes a float range by the ceiling of its span over the step and
    fills it with lo, lo + step and then lo + i * d, d = (lo + step) - lo;
    lo + 1 * d rounds back to lo + step, so every sample is lo + i * d.
    polyval runs _horner's value recurrence, value = value * x + c from the
    highest power down. Leading zeros leave its values as they are, so the
    four highest coefficients, padded with zeros, share one pass (a pass
    costs more than its arithmetic), and each further coefficient takes a
    pass of its own.
    """
    step = MONOTONICITY_STEP_DB
    count = math.ceil((hi + step / 2 - lo) / step)
    delta = (lo + step) - lo
    c0, c1, c2, c3, *rest = ((0.0,) * (4 - len(coefficients))
                             + tuple(coefficients[::-1]))
    values = [((c0 * (x := lo + i * delta) + c1) * x + c2) * x + c3
              for i in range(count)]
    for c in rest:
        values = [v * (lo + i * delta) + c for i, v in enumerate(values)]
    return values


def _check_fit(coefficients, gs, qs, lo: float, hi: float) -> None:
    """The fit gates: an RMS residual over the points (gs, qs) of at most
    FIT_RMS_LIMIT_DB, then a strict rise over [lo, hi], sampled every
    MONOTONICITY_STEP_DB. An overflowing polynomial fails the residual gate.
    The samples and their values are numpy's bits (_gate_values), so for
    finite values the rise test decides as numpy's diff(values) <= 0."""
    residual_rms = (math.hypot(*(_horner(coefficients, g)[0] - q
                                 for g, q in zip(gs, qs)))
                    / math.sqrt(len(gs)))
    if not residual_rms <= FIT_RMS_LIMIT_DB:
        raise FitRejectedError(
            f"fit residual RMS {residual_rms:.4f} dB exceeds {FIT_RMS_LIMIT_DB} dB"
        )
    values = _gate_values(coefficients, lo, hi)
    if any(map(le, values[1:], values)):
        raise FitRejectedError("fitted curve is not monotone over the validity range")


def _scaled_integers(values) -> tuple[list[int], int]:
    """Integers equal to ``values`` times 2**k, and k >= 0. frexp splits
    each value v into m * 2**e with m * 2**53 an integer; with
    k = 53 - min(e), the smallest e taken as at most 53, v * 2**k is that
    integer shifted left by e - min(e)."""
    parts = [math.frexp(v) for v in values]
    lowest = min(min(parts, key=itemgetter(1))[1], 53)
    return [int(m * 2.0 ** 53) << (e - lowest) for m, e in parts], 53 - lowest


def _least_squares(gs, qs, degree: int) -> tuple[float, ...]:
    """Least-squares polynomial through (gs, qs), ascending powers: the
    exact solution of the normal equations, each coefficient rounded once
    to the nearest float.

    With g = x / X and q = y / Y for integers x, y and powers of two X, Y
    (_scaled_integers), the normal equations sum(x^(j+k)) d_k = sum(x^j y)
    have integer entries, and c_j = d_j X^j / Y. Bareiss's fraction-free elimination
    solves them in integers: each division is exact, and the last pivot is
    the determinant D, so D d_j is an integer. The matrix is positive
    definite for distinct gs and more points than coefficients, so no pivot
    is zero. Integer true division rounds correctly, so no BLAS or
    operation order can move a bit.
    """
    xs, x_shift = _scaled_integers(gs)
    ys, y_shift = _scaled_integers(qs)
    size = degree + 1
    moments, rhs = [len(xs)], [sum(ys)]
    power = xs
    for k in range(1, 2 * degree + 1):
        moments.append(sum(power))
        if k < size:
            rhs.append(sum(map(mul, power, ys)))
        if k < 2 * degree:
            power = list(map(mul, power, xs))
    rows = [moments[j:j + size] + [rhs[j]] for j in range(size)]
    previous = 1
    for k, pivot_row in enumerate(rows[:-1]):
        pivot = pivot_row[k]
        for row in rows[k + 1:]:
            lead = row[k]
            row[k + 1:] = [(a * pivot - lead * b) // previous
                           for a, b in zip(row[k + 1:], pivot_row[k + 1:])]
        previous = pivot
    determinant = rows[-1][-2]
    scaled = [0] * size  # D d_j, by back substitution
    for j in reversed(range(size)):
        row = rows[j]
        scaled[j] = (determinant * row[-1]
                     - sum(map(mul, row[j + 1:size], scaled[j + 1:]))) // row[j]
    return tuple((d << x_shift * j) / (determinant << y_shift)
                 for j, d in enumerate(scaled))


@dataclass(frozen=True)
class CharacterizationCurve:
    """Fitted Q-vs-GSNR mapping for one configuration, gated when built:
    the one gate path of a fit and of a curve file."""

    config_id: str
    points: tuple[tuple[float, float], ...]
    coefficients: tuple[float, ...]  # ascending powers
    valid_range: tuple[float, float]
    snr_modem_db: float  # math.inf for an ideal unit

    def __post_init__(self):
        if not 2 <= len(self.coefficients) < len(self.points):
            raise FitRejectedError(f"{len(self.coefficients)} coefficients do "
                                   f"not fit {len(self.points)} points")
        gs, qs = [g for g, _ in self.points], self.point_qs
        if (any(b <= a for a, b in zip(gs, gs[1:]))
                or any(b <= a for a, b in zip(qs, qs[1:]))):
            raise FitRejectedError("curve points are not strictly monotone")
        lo, hi = self.valid_range
        slack = _PERSISTED_POINT_ROUNDING
        if not gs[0] - slack <= lo < hi <= gs[-1] + slack:
            raise FitRejectedError(
                f"valid range [{lo}, {hi}] not inside the points [{gs[0]}, {gs[-1]}]")
        _check_fit(self.coefficients, gs, qs, lo, hi)

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

    @cached_property
    def point_qs(self) -> tuple[float, ...]:
        """Q of each point, ascending: what the inversion seed bisects."""
        return tuple(q for _, q in self.points)


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
    """Least-squares polynomial fit of characterization points, exact and
    rounded once (see _least_squares).

    The curve rejects a fit that is non-monotone over the validity range
    (sampled at 0.01 dB) or whose RMS residual exceeds the quality gate;
    callers should raise the degree or prune points on rejection.
    """
    if len(points) < degree + 2:
        raise InsufficientDataError(
            f"{len(points)} points cannot support a degree-{degree} fit"
        )
    gs = [float(p[0]) for p in points]
    qs = [float(p[1]) for p in points]
    if (any(b <= a for a, b in zip(gs, gs[1:]))
            or any(b <= a for a, b in zip(qs, qs[1:]))):
        raise InsufficientDataError("characterization points must be strictly monotone")
    return CharacterizationCurve(
        config_id=config_id,
        points=tuple(zip(gs, qs)),
        coefficients=_least_squares(gs, qs, degree),
        valid_range=(gs[0], gs[-1]),
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
    i = min(max(bisect_left(curve.point_qs, q_db), 1), len(points) - 1)
    (g0, q0), (g1, q1) = points[i - 1], points[i]
    lo, hi = curve.valid_range
    return min(max(g0 + (q_db - q0) * (g1 - g0) / (q1 - q0), lo), hi)


def gsnr_from_q(curve: CharacterizationCurve, q_db: float) -> float:
    """Invert a characterization curve: measured Q back to estimated GSNR.

    The fitted polynomial rises strictly over its validity range (checked
    when the curve is built), so the unique root is found by Newton's
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
    return check_range("curve value", number(value, "curve value"),
                       error=ValueError)


# How a curve file value converts to each field of CharacterizationCurve.
_CURVE_CONVERTERS = {
    "config_id": lambda config_id: text(config_id, "config_id"),
    "points": lambda points: tuple((_finite(g), _finite(q)) for g, q in points),
    "coefficients": lambda coefficients: tuple(map(_finite, coefficients)),
    "valid_range": lambda bounds: tuple(map(_finite, bounds)),
    "snr_modem_db": lambda snr: (math.inf if snr is None else
                                 ModemModel(number(snr, "snr_modem_db")).snr_modem_db),
}


def curve_from_dict(data: dict) -> CharacterizationCurve:
    """Rebuild a persisted curve by errors.build_record; it is gated as a fit is.

    Any malformed or inconsistent content raises :class:`FitRejectedError`.
    """
    version = data.get("schema_version") if isinstance(data, dict) else None
    if version is True or version != CURVE_SCHEMA_VERSION:  # True == 1
        raise FitRejectedError(
            f"not a curve file of schema_version {CURVE_SCHEMA_VERSION}")
    try:
        record = {key: value for key, value in data.items() if key != "schema_version"}
        return build_record(CharacterizationCurve, record, _CURVE_CONVERTERS)
    except FitRejectedError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        # OverflowError: an integer literal beyond float range
        raise FitRejectedError(f"malformed curve: {exc}") from exc


def load_curve(path: str | Path) -> CharacterizationCurve:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise FitRejectedError(f"cannot read curve {path}: {exc}") from exc
    return curve_from_dict(data)
