"""The filter cascade as one exponential, against the naive per-element
product it replaces, and its distinct elements evaluated as one array,
against evaluating them one at a time."""

import math
import random
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from osaas_probe.catalog import default_catalog, regional_catalog
from osaas_probe.linesystem import (
    FilterCascade,
    FilterElement,
    LineSystem,
    _LN2,
    _VELTKAMP_SPLIT,
    _penalty_cached,
    _penalty_grid,
    filter_transfer,
)
from osaas_probe.modem import ModemModel
from osaas_probe.probing import run_frequency_sweep
from osaas_probe.scenario import load_scenario
from osaas_probe.spectrum import admissible_offsets_ghz, rrc_psd, to_grid_units

from conftest import cold_line

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GRID_POINTS = 1601


def reference_transfer(filters, f, factors=None):
    """Product of one exp(-ln2 * x^2n) per element, the power by ``**``.

    ``factors`` memoizes each distinct element's factor at these f, so
    cascades sharing elements on one grid evaluate them once; multiplying a
    memoized factor in gives the same product as evaluating it again.
    """
    factors = {} if factors is None else factors
    value = np.ones_like(f)
    for filt in filters:
        if filt not in factors:
            x = 2.0 * (f - filt.center_offset_ghz) / filt.bandwidth_3db_ghz
            factors[filt] = np.exp(-math.log(2.0) * x ** (2 * filt.order))
        value = value * factors[filt]
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
    time, in cascade order: the bit-for-bit reference of the stacked
    evaluation in ``filter_transfer``."""
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
# Order-1 rows, which take no correction, before and between corrected ones.
@example([(FilterElement(0.0, 60.0, 1), 2), (FilterElement(5.0, 80.0, 5), 1),
          (FilterElement(-3.0, 40.0, 1), 1), (FilterElement(0.0, 90.0, 12), 3)],
         random.Random(0))
@example([(FilterElement(-59.99, 99.0, 9), 1)], random.Random(0))
def test_stacked_transfer_is_bit_identical_to_per_element(groups, rng):
    filters = [filt for filt, copies in groups for _ in range(copies)]
    rng.shuffle(filters)
    f = np.linspace(-200.0, 200.0, 2001)
    reference = per_element_transfer(filters, f)
    assert np.array_equal(filter_transfer(tuple(filters), f), reference)
    assert np.array_equal(filter_transfer(FilterCascade(filters), f), reference)


def test_stacked_transfer_is_bit_identical_on_scenario_placements():
    """Every scenario file's cascade over the default and regional catalogs,
    on the penalty grid at every 25th admissible placement."""
    cascades = set()  # (cascade, media channel)
    for path in sorted(SCENARIOS.glob("*.json")):
        line = LineSystem(load_scenario(path).link)
        if line.effective_filters:
            cascades.add((line.effective_filters, line.media_channel))
    configs = set(default_catalog()) | set(regional_catalog())
    placements = 0
    for cascade, channel in cascades:
        for cfg in configs:
            f = _penalty_grid(cfg.symbol_rate_gbd, cfg.roll_off)[0]
            for offset in admissible_offsets_ghz(channel, cfg, 0.25)[::25]:
                shifted = f + to_grid_units(offset) * 0.25
                assert np.array_equal(filter_transfer(cascade, shifted),
                                      per_element_transfer(cascade, shifted))
                placements += 1
    assert placements > 300


def test_transfer_of_no_filters_is_one():
    f = np.linspace(-50.0, 50.0, 11)
    assert np.array_equal(filter_transfer((), f), np.ones_like(f))


def test_penalty_matches_reference_on_every_placement():
    """Every admissible placement on the 0.25 GHz grid of every scenario
    file with a cascade, over the default catalog: the trapezoid integral
    of the reference product, against the cached loss."""
    cascades = defaultdict(set)  # (rs, roll-off, offset units) -> cascades
    for path in sorted(SCENARIOS.glob("*.json")):
        line = LineSystem(load_scenario(path).link)
        if not line.effective_filters:
            continue
        for cfg in default_catalog():
            for offset in admissible_offsets_ghz(line.media_channel, cfg, 0.25):
                cascades[cfg.symbol_rate_gbd, cfg.roll_off,
                         to_grid_units(offset)].add(line.effective_filters)
    assert sum(map(len, cascades.values())) > 10000
    worst = 0.0
    for (rs, roll_off, units), placed in cascades.items():
        edge = (1.0 + roll_off) * rs / 2.0
        f = np.linspace(-edge, edge, GRID_POINTS)
        shape = rrc_psd(rs, roll_off, f)
        power = np.trapezoid(shape, f)
        factors = {}
        for filters in placed:
            transfer = reference_transfer(filters, f + units * 0.25, factors)
            reference_db = -10.0 * math.log10(
                np.trapezoid(shape * transfer, f) / power)
            worst = max(worst, abs(_penalty_cached(filters, rs, roll_off, units)
                                   - reference_db))
    assert worst <= 1e-12


def test_cold_sweep_builds_each_carrier_shape_once(curves):
    """C-284-sweep over the regional catalog: 66 integrals, one grid and
    spectrum per configuration."""
    sc = load_scenario(SCENARIOS / "C-284-sweep.json")
    line = cold_line(sc.link, ModemModel(26.0))
    _penalty_cached.cache_clear()
    _penalty_grid.cache_clear()
    run_frequency_sweep(line, regional_catalog(), curves, sc.sweep_step_ghz,
                        sc.policy)
    shapes = {(c.symbol_rate_gbd, c.roll_off) for c in regional_catalog()}
    assert _penalty_cached.cache_info().misses == 66
    assert _penalty_grid.cache_info().misses == len(shapes)


def test_penalty_grid_is_read_only():
    f, weighted_shape, reference = _penalty_grid(34.5, 0.19)
    for array in (f, weighted_shape):
        with pytest.raises(ValueError):
            array[0] = 1.0
    assert reference == pytest.approx(1.0, rel=1e-6)
