"""The filter cascade as one exponential, against the naive per-element
product it replaces, and bit for bit against an independent copy of its
per-element evaluation with Dekker's correction."""

import math
import random
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from osaas_probe.catalog import default_catalog, regional_catalog
from osaas_probe.linesystem import (
    FilterCascade,
    FilterElement,
    LineSystem,
    _LN2,
    _VELTKAMP_SPLIT,
    _channel_transfer,
    _penalty_cached,
    _penalty_grid,
    filter_transfer,
    filtering_penalty_db,
)
from osaas_probe.modem import ModemModel
from osaas_probe.probing import run_frequency_sweep
from osaas_probe.scenario import load_scenario
from osaas_probe.spectrum import (MediaChannel, admissible_offsets_ghz, rrc_psd,
                                  to_grid_units)

from conftest import cold_line

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GRID_POINTS = 1601
LATTICE_STEP = 2.0 ** -6
LATTICE_PER_UNIT = 16  # lattice steps per 0.25 GHz grid unit


def reference_transfer(filters, f):
    """Product of one exp(-ln2 * x^2n) per element, the power by ``**``."""
    value = np.ones_like(f)
    for filt in filters:
        x = 2.0 * (f - filt.center_offset_ghz) / filt.bandwidth_3db_ghz
        value = value * np.exp(-math.log(2.0) * x ** (2 * filt.order))
    return value


def _even_power(x, order):
    """x ** (2 * order) by repeated squaring of x * x, plus Dekker's
    correction of the rounding of x * x; one element at a time."""
    square = x * x
    if order == 1:
        return square
    scaled = x * _VELTKAMP_SPLIT
    high = scaled - (scaled - x)
    low = x - high
    error = (high * high - square) + low * (high + x)  # x * x - square
    power, base, exponent = None, square, order - 1
    while True:
        if exponent & 1:
            power = base if power is None else power * base
        exponent >>= 1
        if not exponent:
            return square * power + (order * error) * power
        base = base * base


def per_element_transfer(filters, f):
    """The cascade transfer with its distinct elements evaluated one at a
    time, in cascade order, written apart from the package: the bit-for-bit
    reference of ``filter_transfer`` and of every channel transfer."""
    exponent = np.zeros_like(f)
    for filt, count in Counter(filters).items():
        x = (f - filt.center_offset_ghz) / (filt.bandwidth_3db_ghz / 2.0)
        exponent += count * _even_power(x, filt.order)
    return np.exp(-_LN2 * exponent)


elements = st.builds(
    FilterElement,
    center_offset_ghz=st.floats(-60.0, 60.0),
    bandwidth_3db_ghz=st.floats(5.0, 200.0),
    order=st.integers(1, 10),
)
cascades = st.lists(st.tuples(elements, st.integers(1, 5)),
                    min_size=1, max_size=4)


@settings(deadline=None)
@given(cascades, st.randoms(use_true_random=False))
# Far skirts where squaring x * x without recovering its rounding misses
# the bound (relative errors of 1.02e-12 and 1.05e-12).
@example([(FilterElement(-59.99, 99.0, 9), 1)], random.Random(0))
@example([(FilterElement(-44.38, 174.75, 8), 3)], random.Random(0))
def test_transfer_matches_product_of_exponentials(groups, rng):
    filters = [filt for filt, copies in groups for _ in range(copies)]
    rng.shuffle(filters)
    f = np.linspace(-200.0, 200.0, 2001)
    reference = reference_transfer(filters, f)
    transfer = filter_transfer(tuple(filters), f)
    assert np.array_equal(transfer, filter_transfer(FilterCascade(filters), f))
    resolved = reference > 1e-300
    assert np.all(np.abs(transfer[resolved] - reference[resolved])
                  <= 1e-12 * reference[resolved])
    assert np.all(transfer[~resolved] <= 2e-300)


distinct_cascades = st.lists(
    st.tuples(st.builds(FilterElement,
                        center_offset_ghz=st.floats(-60.0, 60.0),
                        bandwidth_3db_ghz=st.floats(5.0, 200.0),
                        order=st.integers(1, 12)),
              st.integers(1, 5)),
    min_size=1, max_size=4, unique_by=lambda group: group[0])


@settings(deadline=None)
@given(distinct_cascades, st.randoms(use_true_random=False))
# Order-1 elements, which take no correction, before and between corrected
# ones.
@example([(FilterElement(0.0, 60.0, 1), 2), (FilterElement(5.0, 80.0, 5), 1),
          (FilterElement(-3.0, 40.0, 1), 1), (FilterElement(0.0, 90.0, 12), 3)],
         random.Random(0))
@example([(FilterElement(-59.99, 99.0, 9), 1)], random.Random(0))
def test_transfer_is_bit_identical_to_reference_evaluation(groups, rng):
    filters = [filt for filt, copies in groups for _ in range(copies)]
    rng.shuffle(filters)
    f = np.linspace(-200.0, 200.0, 2001)
    reference = per_element_transfer(filters, f)
    assert np.array_equal(filter_transfer(tuple(filters), f), reference)
    assert np.array_equal(filter_transfer(FilterCascade(filters), f), reference)


def scenario_cascades():
    """The distinct (cascade, media channel) pairs of the scenario files."""
    cascades = set()
    for path in sorted(SCENARIOS.glob("*.json")):
        line = LineSystem(load_scenario(path).link)
        if line.effective_filters:
            cascades.add((line.effective_filters, line.media_channel))
    return sorted(cascades, key=repr)


def lattice_half_width(rs, roll_off):
    """Lattice steps from a carrier's centre to the first point beyond its
    occupied band."""
    return math.floor((1.0 + roll_off) * rs / 2.0 / LATTICE_STEP) + 1


def channel_half_points(channel):
    """Lattice steps from a media channel's centre to the first even one
    beyond its edge: the span of its transfer."""
    return 2 * (math.floor(channel.width_ghz / 4.0 / LATTICE_STEP) + 1)


def test_transfer_is_bit_identical_to_reference_on_scenario_placements():
    """Every scenario file's cascade over the default and regional catalogs,
    on the penalty lattice at every 25th admissible placement, and on the
    whole span of the channel transfer the integrals of its channel read."""
    configs = set(default_catalog()) | set(regional_catalog())
    placements = 0
    for cascade, channel in scenario_cascades():
        for cfg in configs:
            half = lattice_half_width(cfg.symbol_rate_gbd, cfg.roll_off)
            for offset in admissible_offsets_ghz(channel, cfg, 0.25)[::25]:
                low = to_grid_units(offset) * LATTICE_PER_UNIT - half
                window = np.arange(low, low + 2 * half + 1) * LATTICE_STEP
                assert np.array_equal(filter_transfer(cascade, window),
                                      per_element_transfer(cascade, window))
                placements += 1
        span = channel_half_points(channel)
        assert np.array_equal(
            _channel_transfer(cascade, span),
            per_element_transfer(cascade, np.arange(-span, span + 1) * LATTICE_STEP))
    assert placements > 300


# Spans of a 100 and a 125 GHz channel's transfer and a small one, in
# lattice steps a side.
TRANSFER_SPANS = (3202, 4002, 37)


@st.composite
def spanned_cascades(draw):
    """A span and a cascade of distinct elements, each with its copies,
    whose centres mix the channel centre, the 0.25 GHz grid, any lattice
    point within the span, points off the lattice and lattice points beyond
    the span."""
    span = draw(st.sampled_from(TRANSFER_SPANS))
    on_lattice = st.integers(-span, span).map(lambda steps: steps * LATTICE_STEP)
    between = st.tuples(st.integers(-span, span), st.floats(0.001, 0.999)).map(
        lambda point: (point[0] + point[1]) * LATTICE_STEP)
    beyond = st.tuples(st.integers(span + 1, 2 * span), st.sampled_from((-1, 1))).map(
        lambda point: point[0] * point[1] * LATTICE_STEP)
    centres = st.one_of(st.just(0.0), st.integers(-240, 240).map(lambda k: k * 0.25),
                        on_lattice, between, st.floats(-60.0, 60.0), beyond)
    element = st.builds(FilterElement, center_offset_ghz=centres,
                        bandwidth_3db_ghz=st.floats(1.0, 200.0),
                        order=st.integers(1, 12))
    groups = draw(st.lists(st.tuples(element, st.integers(1, 5)), min_size=1,
                           max_size=4, unique_by=lambda group: group[0]))
    return span, groups


@settings(deadline=None)
@given(spanned_cascades(), st.randoms(use_true_random=False))
# An off-lattice element (a 3.13 GHz misalignment) before lattice ones, one
# of them repeated, and one centred beyond the span.
@example((3202, [(FilterElement(3.13, 88.0, 3), 1), (FilterElement(0.0, 80.0, 5), 2),
                 (FilterElement(6.25, 60.0, 5), 3)]), None)
@example((37, [(FilterElement(0.25, 3.0, 7), 2), (FilterElement(-0.75, 2.0, 12), 1),
               (FilterElement(0.3, 1.5, 1), 4)]), None)
def test_channel_transfer_is_bit_identical_to_reference(spanned, rng):
    """The channel transfer, whose lattice-centred elements are mirrored
    about their centres, against the reference evaluated at every one of its
    lattice points."""
    span, groups = spanned
    filters = [filt for filt, copies in groups for _ in range(copies)]
    if rng is not None:
        rng.shuffle(filters)
    transfer = _channel_transfer(FilterCascade(filters), span)
    reference = per_element_transfer(
        filters, np.arange(-span, span + 1) * LATTICE_STEP)
    assert transfer.tobytes() == reference.tobytes()


@settings(deadline=None)
@given(st.floats(1.0, 120.0), st.floats(0.01, 1.0))
@example(1.0, 0.01)
@example(120.0, 0.01)
@example(120.0, 1.0)
@example(34.5, 0.19)
def test_penalty_grid_is_bit_identical_to_full_evaluation(rs, roll_off):
    """The carrier shape, evaluated at the non-negative lattice offsets and
    mirrored, against the spectrum at every lattice point -J..J times the
    step, and its sum against that array's."""
    half, weighted_shape, reference = _penalty_grid(rs, roll_off)
    assert half == lattice_half_width(rs, roll_off)
    expected = rrc_psd(rs, roll_off, np.arange(-half, half + 1) * LATTICE_STEP)
    expected *= LATTICE_STEP
    assert weighted_shape.tobytes() == expected.tobytes()
    assert reference.hex() == float(expected.sum()).hex()
    assert not weighted_shape.flags.writeable
    assert weighted_shape.base is None


def test_transfer_of_no_filters_is_one():
    f = np.linspace(-50.0, 50.0, 11)
    assert np.array_equal(filter_transfer((), f), np.ones_like(f))


def test_penalty_matches_reference_on_every_placement():
    """Every admissible placement on the 0.25 GHz grid of every scenario
    file with a cascade, over the default catalog: the trapezoid integral
    of the reference product on the penalty lattice, against the cached
    loss."""
    placements = 0
    worst = 0.0
    for cascade, channel in scenario_cascades():
        # the reference product once, on lattice points -span..span
        span = int(channel.width_ghz / 2.0 / LATTICE_STEP) + 2
        transfer = reference_transfer(
            cascade, np.arange(-span, span + 1) * LATTICE_STEP)
        for cfg in default_catalog():
            rs, roll_off = cfg.symbol_rate_gbd, cfg.roll_off
            half = lattice_half_width(rs, roll_off)
            f = np.arange(-half, half + 1) * LATTICE_STEP
            shape = rrc_psd(rs, roll_off, f)
            power = np.trapezoid(shape, f)
            for offset in admissible_offsets_ghz(channel, cfg, 0.25):
                units = to_grid_units(offset)
                start = span + units * LATTICE_PER_UNIT - half
                reference_db = -10.0 * math.log10(np.trapezoid(
                    shape * transfer[start:start + 2 * half + 1], f) / power)
                worst = max(worst, abs(_penalty_cached(
                    cascade, rs, roll_off, units, channel_half_points(channel))
                    - reference_db))
                placements += 1
    assert placements > 10000
    assert worst <= 1e-12


def linspace_penalties_db(filters, rs, roll_off, units):
    """The 1601-point trapezoid quadrature over the occupied band that the
    lattice replaced, at each placement in ``units``."""
    edge = (1.0 + roll_off) * rs / 2.0
    f = np.linspace(-edge, edge, GRID_POINTS)
    weights = np.full_like(f, f[1] - f[0])
    weights[[0, -1]] /= 2.0
    weighted_shape = weights * rrc_psd(rs, roll_off, f)
    shifted = np.add.outer(np.asarray(units) * 0.25, f)
    transfer = filter_transfer(filters, shifted.ravel()).reshape(shifted.shape)
    return -10.0 * np.log10(transfer @ weighted_shape / weighted_shape.sum())


def test_lattice_agrees_with_linspace_quadrature_on_every_placement():
    """Every admissible placement of every scenario cascade over the default
    and regional catalogs: the lattice integral against the 1601-point
    quadrature it replaced. 1e-9 dB times the ISI factor stays far below
    the 1e-6 dB reports round to, so no report byte moves."""
    configs = set(default_catalog()) | set(regional_catalog())
    placements = 0
    worst = 0.0
    for cascade, channel in scenario_cascades():
        for cfg in configs:
            rs, roll_off = cfg.symbol_rate_gbd, cfg.roll_off
            units = [to_grid_units(offset)
                     for offset in admissible_offsets_ghz(channel, cfg, 0.25)]
            expected = linspace_penalties_db(cascade, rs, roll_off, units)
            assert np.all(np.isfinite(expected))
            span = channel_half_points(channel)
            lattice = [_penalty_cached(cascade, rs, roll_off, unit, span)
                       for unit in units]
            worst = max(worst, float(np.max(np.abs(lattice - expected))))
            placements += len(units)
    assert placements > 10000
    assert worst <= 1e-9


@settings(deadline=None, max_examples=50)
@given(st.sampled_from(scenario_cascades()), st.floats(20.0, 140.0),
       st.floats(0.01, 1.0), st.randoms(use_true_random=False))
def test_lattice_matches_fine_reference(placed, rs, roll_off, rng):
    """A scenario cascade and a carrier shape from 20 to 140 GBd at an
    admissible placement, centred where the carrier is wider than the
    channel, losing at most 10 dB in band (70 dB after the ISI factor, which
    no carrier survives): the lattice integral against a 200,001-point
    trapezoid. On a fixed step the trapezoid error grows with the raised
    cosine's curvature, (pi / (roll-off * rs))^2, so the bound grows as
    roll-off^-2 below 0.1; the worst measured, 4.8e-6 dB, is at 22 GBd,
    roll-off 0.01 and 10 dB, where the 1601-point grid was off 2.1e-6 dB."""
    cascade, channel = placed
    cfg = SimpleNamespace(occupied_bandwidth_ghz=(1.0 + roll_off) * rs)
    units = to_grid_units(rng.choice(
        admissible_offsets_ghz(channel, cfg, 0.25) or [0.0]))
    edge = (1.0 + roll_off) * rs / 2.0
    f = np.linspace(-edge, edge, 200001)
    shape = rrc_psd(rs, roll_off, f)
    reference_db = -10.0 * math.log10(np.trapezoid(
        shape * filter_transfer(cascade, f + units * 0.25), f)
        / np.trapezoid(shape, f))
    assume(reference_db <= 10.0)
    bound = 2e-7 * max(1.0, (0.1 / roll_off) ** 2)
    # a carrier wider than the channel reaches past its transfer's span
    span = max(channel_half_points(channel),
               abs(units) * LATTICE_PER_UNIT + lattice_half_width(rs, roll_off))
    assert abs(_penalty_cached(cascade, rs, roll_off, units, span)
               - reference_db) <= bound


def test_cold_sweep_builds_each_carrier_shape_once(curves):
    """C-284-sweep over the regional catalog: 66 integrals, one lattice
    spectrum per configuration, and the one cascade's transfer once, on
    the 8005 lattice points that span its 125 GHz channel."""
    sc = load_scenario(SCENARIOS / "C-284-sweep.json")
    line = cold_line(sc.link, ModemModel(26.0))
    _penalty_cached.cache_clear()
    _penalty_grid.cache_clear()
    _channel_transfer.cache_clear()
    run_frequency_sweep(line, regional_catalog(), curves, sc.sweep_step_ghz,
                        sc.policy)
    shapes = {(c.symbol_rate_gbd, c.roll_off) for c in regional_catalog()}
    assert _penalty_cached.cache_info().misses == 66
    assert _penalty_grid.cache_info().misses == len(shapes)
    assert _channel_transfer.cache_info().misses == 1
    # the one cached transfer is the channel's 8005 points
    assert _channel_transfer(line.effective_filters, 4002).size == 8005
    assert _channel_transfer.cache_info().misses == 1


def test_penalty_grid_is_read_only():
    half, weighted_shape, reference = _penalty_grid(34.5, 0.19)
    assert half == lattice_half_width(34.5, 0.19)
    assert weighted_shape.shape == (2 * half + 1,)
    assert weighted_shape[0] == weighted_shape[-1] == 0.0
    cascade = FilterCascade([FilterElement(0.0, 50.0, 3)])
    transfer = _channel_transfer(cascade, 3202)
    assert transfer.shape == (6405,)
    for array in (weighted_shape, transfer):
        with pytest.raises(ValueError):
            array[0] = 1.0
    assert reference == pytest.approx(1.0, rel=1e-6)
    # The transfer owns its points; it is no view of a larger work array.
    assert transfer.base is None


@pytest.mark.parametrize("units", [-119, 119, 10 ** 6])
def test_placement_beyond_the_transfer_span_raises(units):
    """A 34.5 GBd carrier (half width 1314 lattice steps) in a 100 GHz
    channel's span of 3202 steps a side fits up to 118 grid units off
    centre; past that the slice would come up short."""
    cascade = FilterCascade([FilterElement(0.0, 50.0, 3)])
    assert lattice_half_width(34.5, 0.19) == 1314
    for fits in (-118, 118):
        assert math.isfinite(_penalty_cached(cascade, 34.5, 0.19, fits, 3202))
    with pytest.raises(ValueError, match="leaves the transfer"):
        _penalty_cached(cascade, 34.5, 0.19, units, 3202)


def test_widest_channel_outermost_placements_match_reference():
    """A 4800 GHz channel, the widest a scenario may state, with one filter
    whose skirt reaches its edges: the integral at the two outermost
    admissible placements, through the channel's 307,205-point transfer,
    against the reference product."""
    channel = MediaChannel(193.5, 4800.0, 20.0, 0.0)
    cascade = FilterCascade([FilterElement(0.0, 4700.0, 4)])
    cfg = next(c for c in default_catalog() if c.config_id == "DP-QPSK-69.4")
    rs, roll_off = cfg.symbol_rate_gbd, cfg.roll_off
    half = lattice_half_width(rs, roll_off)
    f = np.arange(-half, half + 1) * LATTICE_STEP
    shape = rrc_psd(rs, roll_off, f)
    offsets = admissible_offsets_ghz(channel, cfg, 0.25)
    for offset in (offsets[0], offsets[-1]):
        reference_db = -10.0 * math.log10(
            np.trapezoid(shape * reference_transfer(cascade, f + offset), f)
            / np.trapezoid(shape, f))
        assert reference_db > 1.0
        assert abs(filtering_penalty_db(cascade, channel, cfg, offset)
                   - reference_db) <= 1e-12
    assert _channel_transfer(cascade, channel_half_points(channel)).size == 307205


def test_placement_reads_the_same_bits_in_every_channel():
    """The transfer's span is even, so a slice starts on the alignment of
    its first lattice point in every channel; a BLAS dot that splits its
    sum by alignment, as OpenBLAS's Prescott kernel does, then reads one
    placement the same in channels of 100, 125 and 4800 GHz and in one
    whose half width is an odd number of lattice steps (3201)."""
    cascade = FilterCascade([FilterElement(1.5, 60.0, 5), FilterElement(0.0, 75.0, 3)])
    channels = [MediaChannel(193.5, width, 20.0, 0.0)
                for width in (100.0, 3201 / 32, 125.0, 4800.0)]
    for cfg in regional_catalog():
        for offset in admissible_offsets_ghz(channels[0], cfg, 0.25)[::7]:
            assert len({filtering_penalty_db(cascade, channel, cfg, offset).hex()
                        for channel in channels}) == 1
