import json
import math
from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import erfc

from osaas_probe.catalog import regional_catalog
from osaas_probe.errors import CurveRangeError, FitRejectedError, InsufficientDataError
from osaas_probe.modem import (
    MONOTONICITY_STEP_DB,
    ModemModel,
    ber_from_snr,
    characterize,
    curve_from_dict,
    curve_to_dict,
    fit_characterization,
    generate_char_points,
    gsnr_from_q,
    _INVERSION_MAX_ITER,
    _INVERSION_STEP_DB,
    _gate_values,
    _horner,
    _inversion_seed,
    _least_squares,
    _rect_qam_params,
    load_curve,
)
from osaas_probe.reports import write_report
from osaas_probe.spectrum import ModulationFormat, PltConfig
from osaas_probe.units import q_db_from_ber

from conftest import make_huge_residual, make_non_monotone


def qpsk_config():
    return PltConfig(ModulationFormat.DP_QPSK, 31.5, 100.0, 6.2509)


def test_ber_from_snr_qpsk_matches_q_function():
    # Q(sqrt(snr)) with snr = 4.0 (6.02 dB) is Q(2) = 2.275e-2
    assert ber_from_snr(ModulationFormat.DP_QPSK, 6.0206) == pytest.approx(
        0.5 * erfc(2.0 / math.sqrt(2)), rel=1e-6)
    assert ber_from_snr(ModulationFormat.DP_QPSK, 6.02) == pytest.approx(2.275e-2, rel=1e-2)
    assert ber_from_snr(ModulationFormat.DP_QPSK, 60.0) < 1e-30


@pytest.mark.parametrize("fmt", list(ModulationFormat))
def test_ber_from_snr_without_snr_is_coin_flips(fmt):
    """The high-SNR law tends to its prefactor, not 0.5, as the SNR falls;
    a carrier with no SNR at all reads 0.5 in every format."""
    assert ber_from_snr(fmt, -math.inf) == 0.5
    assert 0.0 < ber_from_snr(fmt, -300.0) <= 0.5


def test_ber_from_snr_16qam_oracle():
    # (3/8) erfc(sqrt(snr/10)) at snr_lin = 50
    expected = 3.0 / 8.0 * erfc(math.sqrt(5.0))
    assert expected == pytest.approx(5.87e-4, rel=1e-2)
    assert ber_from_snr(ModulationFormat.DP_16QAM, 10 * math.log10(50.0)) == pytest.approx(
        expected, rel=1e-9)


def test_ber_from_snr_8qam_oracle():
    # rectangular 4x2 grid: (5/12) erfc(sqrt(snr/6))
    snr_db = 12.0
    expected = 5.0 / 12.0 * erfc(math.sqrt(10 ** 1.2 / 6.0))
    assert ber_from_snr(ModulationFormat.DP_P16QAM, snr_db) == pytest.approx(
        expected, rel=1e-9)


def test_ber_monotone_decreasing_in_snr():
    for fmt in ModulationFormat:
        bers = [ber_from_snr(fmt, snr) for snr in np.arange(0.0, 25.0, 0.5)]
        assert all(a > b for a, b in zip(bers, bers[1:]))


def test_generate_points_ideal_modem():
    model = ModemModel(math.inf)
    cfg = qpsk_config()
    points = generate_char_points(model, cfg, [6.0, 8.0, 10.0, 12.0])
    for (g, q), expect_g in zip(points, [6.0, 8.0, 10.0, 12.0]):
        assert g == pytest.approx(expect_g)
        assert q == pytest.approx(
            q_db_from_ber(ber_from_snr(cfg.format, expect_g)), abs=1e-9)


def test_generate_points_modem_noise_caps_total():
    model = ModemModel(20.0)
    cfg = qpsk_config()
    points = generate_char_points(model, cfg, [20.0])
    # equal linear terms lose exactly 3.0103 dB
    assert points[0][0] == pytest.approx(16.9897, abs=1e-4)
    points = generate_char_points(ModemModel(26.0), cfg, [13.0])
    assert points[0][0] == pytest.approx(12.7876, abs=1e-4)


def test_generate_points_drops_unmeasurable():
    model = ModemModel(math.inf)
    cfg = PltConfig(ModulationFormat.DP_16QAM, 34.5, 200.0, 12.7108)
    points = generate_char_points(model, cfg, [0.5, 8.0, 12.0, 16.0])
    assert ber_from_snr(cfg.format, 0.5) > 0.20
    assert len(points) == 3


def test_fit_reproduces_exact_line():
    points = [(g, 0.8 * g + 1.5) for g in np.arange(5.0, 15.0, 0.5)]
    curve = fit_characterization(points, degree=3)
    assert curve.q_at(7.3) == pytest.approx(0.8 * 7.3 + 1.5, abs=1e-9)
    assert curve.valid_range == (5.0, 14.5)


def test_fit_requires_enough_points():
    points = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
    with pytest.raises(InsufficientDataError):
        fit_characterization(points, degree=3)


def test_fit_rejects_non_monotone_points():
    points = [(1.0, 1.0), (2.0, 2.0), (3.0, 1.5), (4.0, 2.5), (5.0, 3.0),
              (6.0, 3.5)]
    with pytest.raises(InsufficientDataError):
        fit_characterization(points, degree=3)


def test_fit_quality_gate(catalog, modem):
    for cfg in catalog:
        curve = characterize(modem, cfg)
        gs = np.array([p[0] for p in curve.points])
        qs = np.array([p[1] for p in curve.points])
        fitted = np.polynomial.polynomial.polyval(gs, curve.coefficients)
        rms = float(np.sqrt(np.mean((fitted - qs) ** 2)))
        assert rms <= 0.05


def test_gsnr_from_q_inverts_fitted_curve(curves):
    for curve in curves.values():
        lo, hi = curve.valid_range
        for g in np.linspace(lo + 0.01, hi - 0.01, 7):
            assert gsnr_from_q(curve, curve.q_at(float(g))) == pytest.approx(
                float(g), abs=2e-4)


def test_gsnr_from_q_raw_points_within_fit_residual(curves):
    for curve in curves.values():
        interior = curve.points[1:-1]
        for g, q in interior[:: max(1, len(interior) // 5)]:
            assert gsnr_from_q(curve, q) == pytest.approx(g, abs=0.02)


def test_gsnr_from_q_out_of_range(curves):
    curve = next(iter(curves.values()))
    _, q_hi = curve.q_range
    with pytest.raises(CurveRangeError):
        gsnr_from_q(curve, q_hi + 1.0)
    q_lo, _ = curve.q_range
    with pytest.raises(CurveRangeError):
        gsnr_from_q(curve, q_lo - 1.0)


def test_gsnr_from_q_round_trip_is_exact(curves):
    """Newton inversion returns the root to rounding, over the whole range."""
    for curve in curves.values():
        lo, hi = curve.valid_range
        for g in np.linspace(lo, hi, 200):
            g = float(g)
            assert abs(gsnr_from_q(curve, curve.q_at(g)) - g) <= 1e-9


def _keyed_seed(curve, q_db):
    """The inversion seed bisecting the points by their Q with a key, as
    before each curve held its points' Q values as a tuple."""
    points = curve.points
    i = min(max(bisect_left(points, q_db, key=itemgetter(1)), 1), len(points) - 1)
    (g0, q0), (g1, q1) = points[i - 1], points[i]
    lo, hi = curve.valid_range
    return min(max(g0 + (q_db - q0) * (g1 - g0) / (q1 - q0), lo), hi)


def _keyed_gsnr_from_q(curve, q_db):
    """gsnr_from_q's clamps and Newton loop from the keyed seed."""
    lo, hi = curve.valid_range
    q_lo, q_hi = curve.q_range
    if q_db <= q_lo:
        return lo
    if q_db >= q_hi:
        return hi
    g = _keyed_seed(curve, q_db)
    for _ in range(_INVERSION_MAX_ITER):
        value, slope = _horner(curve.coefficients, g)
        if value < q_db:
            lo = g
        elif value > q_db:
            hi = g
        else:
            return g
        new = g - ((value - q_db) / slope if slope > 0 else math.inf)
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - g) <= _INVERSION_STEP_DB:
            return new
        g = new
    return g


def _assert_inversion_unchanged(curve, q_db):
    assert _inversion_seed(curve, q_db).hex() == _keyed_seed(curve, q_db).hex()
    assert (gsnr_from_q(curve, q_db).hex()
            == _keyed_gsnr_from_q(curve, q_db).hex())


def test_inversion_seed_bisects_the_cached_point_qs(curves):
    """Both ends of every default curve's image and each point's own Q
    invert bit for bit as with the keyed bisection."""
    for curve in curves.values():
        assert curve.point_qs == tuple(q for _, q in curve.points)
        assert curve.point_qs is curve.point_qs
        for q in (*curve.q_range, *curve.point_qs):
            if curve.q_range[0] <= q <= curve.q_range[1]:
                _assert_inversion_unchanged(curve, q)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_inversion_matches_the_keyed_seed(curves, data):
    curve = curves[data.draw(st.sampled_from(sorted(curves)), label="curve")]
    _assert_inversion_unchanged(curve, data.draw(st.floats(*curve.q_range),
                                                 label="q_db"))


@pytest.mark.parametrize("fmt", list(ModulationFormat))
def test_rect_qam_params_are_the_formula_computed_once(fmt):
    li, lj = fmt.constellation_grid
    assert _rect_qam_params(fmt) == (
        ((li - 1) / li + (lj - 1) / lj) / math.log2(li * lj),
        math.sqrt(3.0 / (li * li + lj * lj - 2.0)))
    assert _rect_qam_params(fmt) is _rect_qam_params(fmt)


def test_gsnr_from_q_rejects_readings_outside_image(curves):
    for curve in curves.values():
        q_lo, q_hi = curve.q_range
        for q in (q_lo - 1e-6, q_hi + 1e-6, q_lo - 5.0, q_hi + 5.0):
            with pytest.raises(CurveRangeError):
                gsnr_from_q(curve, q)
        assert gsnr_from_q(curve, q_lo) == curve.valid_range[0]
        assert gsnr_from_q(curve, q_hi) == curve.valid_range[1]


def test_end_to_end_characterization_bias(catalog):
    """Probing a known total GSNR recovers it within 0.02 dB over the range."""
    for model in (ModemModel(math.inf), ModemModel(26.0), ModemModel(20.0)):
        for cfg in catalog[:4]:
            curve = characterize(model, cfg)
            lo, hi = curve.valid_range
            for g in np.linspace(lo + 0.05, hi - 0.05, 9):
                q = q_db_from_ber(ber_from_snr(cfg.format, float(g)))
                assert gsnr_from_q(curve, q) == pytest.approx(float(g), abs=0.02)


def test_curve_slope_bounded_for_stable_inversion(curves):
    """Monotone slope bounded away from zero keeps the inversion stable.

    A fixed Q readout error maps to a GSNR error of at most ~1.2x its size
    anywhere on the curve; the QPSK curve is the identity and the QAM curves
    flatten slightly toward the FEC threshold.
    """
    for curve in curves.values():
        lo, hi = curve.valid_range
        step = 0.01
        grid = np.arange(lo, hi - step, 0.25)
        slopes = [(curve.q_at(g + step) - curve.q_at(g)) / step for g in grid]
        assert min(slopes) >= 0.84
        assert max(slopes) <= 1.02


def test_curve_persistence(tmp_path, curves):
    curve = curves["DP-16QAM-52"]
    path = tmp_path / "curve.json"
    write_report(path, curve_to_dict(curve))
    loaded = load_curve(path)
    assert loaded.config_id == curve.config_id
    assert loaded.valid_range == pytest.approx(curve.valid_range)
    assert loaded.coefficients == pytest.approx(curve.coefficients)


def test_curve_load_reverifies_monotonicity(curves):
    data = curve_to_dict(curves["DP-QPSK-31.5"])
    data["points"][2][1] = data["points"][1][1] - 1.0
    with pytest.raises(FitRejectedError):
        curve_from_dict(data)


BAD_CURVE_EDITS = {
    "no schema_version": lambda d: d.pop("schema_version"),
    "schema_version 2": lambda d: d.update(schema_version=2),
    "schema_version true": lambda d: d.update(schema_version=True),
    "no points": lambda d: d.pop("points"),
    "no coefficients": lambda d: d.pop("coefficients"),
    "no valid_range": lambda d: d.pop("valid_range"),
    "no config_id": lambda d: d.pop("config_id"),
    "numeric config_id": lambda d: d.update(config_id=7),
    "one coefficient": lambda d: d.update(coefficients=[1.0]),
    "more coefficients than points": lambda d: d.update(
        coefficients=[0.0, 1.0] + [0.0] * 40),
    "nan coefficient": lambda d: d.update(
        coefficients=[0.0, float("nan"), 0.0, 0.0]),
    "text in points": lambda d: d.update(points=[[1.0, "x"]]),
    "numeric text coefficient": lambda d: d["coefficients"].__setitem__(
        0, str(d["coefficients"][0])),
    "short valid_range": lambda d: d.update(valid_range=[1.0]),
    "range beyond points": lambda d: d.update(
        valid_range=[d["valid_range"][0] - 0.1, d["valid_range"][1]]),
    "negative modem SNR": lambda d: d.update(snr_modem_db=-3.0),
    "numeric text modem SNR": lambda d: d.update(snr_modem_db="26.0"),
    "no snr_modem_db": lambda d: d.pop("snr_modem_db"),
    "unknown key": lambda d: d.update(snr_modem_dB=d.pop("snr_modem_db")),
    "non-monotone polynomial": make_non_monotone,
    "residual above the fit gate": make_huge_residual,
}


def _numpy_gate_values(coefficients, lo, hi):
    sample = np.arange(lo, hi + MONOTONICITY_STEP_DB / 2, MONOTONICITY_STEP_DB)
    return np.polynomial.polynomial.polyval(sample, coefficients)


def test_monotonicity_gate_matches_numpy_polynomial(catalog, curves, modem):
    """The gate's plain-Python sample points and values are np.arange's
    points under numpy.polynomial's polyval: equal to the last bit over
    every default and regional curve."""
    regional = [characterize(modem, cfg) for cfg in regional_catalog()]
    for curve in list(curves.values()) + regional:
        values = np.array(_gate_values(curve.coefficients, *curve.valid_range))
        reference = _numpy_gate_values(curve.coefficients, *curve.valid_range)
        assert values.tobytes() == reference.tobytes()
    assert len(curves) + len(regional) == 20


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(-50.0, 50.0), span=st.floats(1e-3, 30.0),
       coefficients=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=13))
@example(lo=-0.00999, span=0.5, coefficients=[1.0, 2.0])
@example(lo=5e-324, span=0.02, coefficients=[0.0, 1.0, -0.5, 0.25, 1e-3])
def test_gate_values_match_numpy_on_any_range_and_degree(lo, span, coefficients):
    """Ranges of either sign, down to lo within a step of zero, where the
    step's rounding differs most between lo + step and lo + 1 * d, and
    every degree the gate may meet; a zero's sign aside, the values are
    numpy's."""
    hi = lo + span
    assert (_gate_values(coefficients, lo, hi)
            == _numpy_gate_values(coefficients, lo, hi).tolist())


def _normal_equation_fit(gs, qs, degree):
    """The least-squares coefficients, ascending: the normal equations
    solved by Gauss-Jordan elimination in Fractions, each solution rounded
    once by float()."""
    size = degree + 1
    g = [Fraction(v) for v in gs]
    q = [Fraction(v) for v in qs]
    rows = [[sum(x ** (j + k) for x in g) for k in range(size)]
            + [sum(x ** j * y for x, y in zip(g, q))] for j in range(size)]
    for k in range(size):
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(size):
            if i != k:
                rows[i] = [a - rows[i][k] * b for a, b in zip(rows[i], rows[k])]
    return tuple(float(row[-1]) for row in rows)


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(1, 4), data=st.data())
def test_fit_is_the_exact_least_squares_solution_rounded_once(degree, data):
    ticks = data.draw(st.lists(st.integers(-40_000, 40_000), min_size=degree + 2,
                               max_size=16, unique=True))
    gs = [t / 1000.0 for t in sorted(ticks)]
    qs = sorted(data.draw(st.lists(st.floats(-60.0, 60.0), min_size=len(gs),
                                   max_size=len(gs), unique=True)))
    assert _least_squares(gs, qs, degree) == _normal_equation_fit(gs, qs, degree)


def test_fit_matches_numpy_polyfit(curves, modem):
    """On the 20 default and regional curves the exact fit is within 1e-9
    of LAPACK's least squares."""
    regional = [characterize(modem, cfg) for cfg in regional_catalog()]
    for curve in list(curves.values()) + regional:
        gs, qs = zip(*curve.points)
        reference = np.polynomial.polynomial.polyfit(gs, qs, 3)
        for c, r in zip(curve.coefficients, reference, strict=True):
            assert abs(c - r) <= 1e-9 * max(1.0, abs(r)), curve.config_id
    assert len(curves) + len(regional) == 20


@pytest.mark.parametrize("edit", sorted(BAD_CURVE_EDITS))
def test_curve_load_rejects_bad_content(curves, edit):
    data = curve_to_dict(curves["DP-16QAM-52"])
    BAD_CURVE_EDITS[edit](data)
    with pytest.raises(FitRejectedError):
        curve_from_dict(data)


@pytest.mark.parametrize("data", [{"bad": 1}, [], None, "curve"])
def test_curve_load_rejects_non_curves(data):
    with pytest.raises(FitRejectedError):
        curve_from_dict(data)


def test_load_curve_unreadable_file(tmp_path):
    path = tmp_path / "curve.json"
    path.write_text("{not json")
    with pytest.raises(FitRejectedError):
        load_curve(path)
    with pytest.raises(FitRejectedError):
        load_curve(tmp_path / "missing.json")


def test_persisted_curve_round_trips_through_validation(curves):
    for curve in curves.values():
        loaded = curve_from_dict(json.loads(json.dumps(curve_to_dict(curve))))
        assert loaded.coefficients == curve.coefficients
        assert loaded.valid_range == curve.valid_range
