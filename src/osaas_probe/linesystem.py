"""Deterministic open-line-system simulator with a black-box probe surface.

The simulated line is only meant to be driven through :meth:`LineSystem.probe`
(configure a carrier, read back a pre-FEC BER). Everything else on the class
is either configuration plumbing or a test-only oracle; the probing engine
must never depend on the oracles.

Physics is deliberately reduced to what a probing campaign can observe:

* ASE accumulates per amplified span from the launch power, span loss and
  noise figure, referenced to 0.1 nm and then to the signal bandwidth.
* Nonlinear interference is a parametric cubic per span (eta * P^3 in the
  signal band, incoherent accumulation); dispersion-compensated spans carry
  a coherence surcharge.
* Bandwidth narrowing is a cascade of super-Gaussian power transfers applied
  to the root-raised-cosine carrier spectrum. Each element passes
  exp(-ln2 * x^2n), so the cascade is a single exponential of the
  count-weighted sum over its distinct elements, taken one element at a
  time in cascade order. The in-band loss is the trapezoid integral of
  spectrum times transfer on the lattice j * 2^-6 GHz, which is exact in
  binary and 1/16 of the 0.25 GHz grid, so every carrier placement is a
  whole lattice shift. Each cascade's transfer is computed once per block
  of 1024 lattice points, and every placement of every carrier shape reads
  the blocks under it (see _penalty_grid for the accuracy). The loss is
  amplified by an ISI factor to account for shape distortion on top of
  pure power clipping. A cascade that passes no power blocks the carrier,
  and its probes read a failed FEC.
* Tilt and ripple are injected frequency profiles. The line re-levels them
  over one equalizer window: the whole media channel, which keeps the
  intra-channel tilt, or each network media channel of a narrower width.
  Diurnal drift is a sinusoid on the link GSNR in dB.

Measurement noise perturbs the Q readout by sigma times one standard normal
draw, keyed on the probe: (link seed, CRC-32 of the configuration id,
carrier offset in 0.25 GHz units + 2^20, realized power in 0.01 dB above
-200 dBm, time in whole seconds). The draw is the first value of numpy's
``SeedSequence(key)`` -> ``PCG64`` -> ``Generator.standard_normal`` stream,
so identical probe settings always read identically and probe order never
matters. The draw is a pure function of its key, so it is memoized once per
process and every line shares the memo: a probe that repeats a key (a
re-probe, a what-if copy of the line, the same carrier under another
policy) reads it back instead of drawing it again.

The time-independent terms of every carrier probed are memoized, keyed on
(config, policy, carrier centre): received power, optical SNR (ASE/NLI,
filtering penalty, equalized tilt/ripple), the noise key without its seed
and time words and, without diurnal drift, the BER law and Q. The config
object is the key, not its id, which omits roll-off and FEC threshold. A
repeated carrier then costs a lookup, the diurnal term, the memoized draw
and the Q-to-BER readout, with the float operations in the same order as
a fresh line's, so it reads bit-identically. Rejected carriers and limit
violations raise before anything is stored. The memo is shared per
budget: every line whose seed-free budget (everything those terms are
computed from) is equal shares one, so another seed of a route, or the
what-if copy of a route without filters, starts warm. A line of a new
budget starts empty, as does every line once the memo's ``cache_clear``
has run.
"""

from __future__ import annotations

import math
import zlib
from collections import Counter, namedtuple
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

from .errors import check_range
from .modem import ModemModel, ber_from_snr
from .spectrum import (
    C_BAND_WIDTH_GHZ,
    GRID_UNIT_GHZ,
    MediaChannel,
    PltConfig,
    PowerPolicy,
    carrier_power_dbm,
    check_carrier_fits,
    from_grid_units,
    rrc_psd,
    to_grid_units,
)
from .units import (
    ASE_BUDGET_CONSTANT_DB,
    ber_from_q_db,
    dbm_to_mw,
    harmonic_db_sum,
    osnr_to_snr_db,
    q_db_from_ber,
)

# Filter contributed automatically by every grating-based dispersion
# compensation span.
DCG_FILTER_BANDWIDTH_GHZ = 60.0
DCG_FILTER_ORDER = 5

# Extra nonlinear accumulation on dispersion-compensated spans.
DISPERSION_COMP_NLI_FACTOR = 1.5

# ISI amplification of the in-band clipping loss, calibrated once against the
# back-to-back filtering envelope; pure power clipping underestimates the
# penalty of wide carriers in tight cascades.
DEFAULT_ISI_FACTOR = 7.0

# The penalty integral's lattice: 2**-6 GHz is exact in binary and 1/16 of
# the 0.25 GHz grid, so every carrier placement is a whole lattice shift.
_LATTICE_STEP_GHZ = 2.0 ** -6
_LATTICE_PER_GRID_UNIT = int(GRID_UNIT_GHZ / _LATTICE_STEP_GHZ)
# Lattice points per cached block of a cascade's transfer: 8 KiB each, and
# 512 of them (4 MiB) cover the media channels of the shipped routes many
# times over. filter_transfer's work arrays are then 8 KiB each too, far
# under the C allocator's mmap threshold, so it keeps their freed memory for
# the next block instead of returning it to the system and faulting it in
# again: the median cold sweep op takes no minor page fault. Larger blocks
# would compute as many points per cold sweep op (32768 with blocks of 1024,
# 2048 or 4096 points), so they buy nothing.
_TRANSFER_BLOCK_POINTS = 1024
_LN2 = math.log(2.0)
# 2**27 + 1 splits a double into two halves whose products are exact.
_VELTKAMP_SPLIT = 134217729.0

_MASK32 = 0xFFFFFFFF


class DispersionComp(Enum):
    NONE = "none"
    DCF = "dcf"
    DCG = "dcg"


# Ranges a span may state. Span losses above 50 dB leave no amplified
# line, and near 3000 dB the span's ASE term overflows. Below 0 dB an
# amplifier would remove noise, and 20 dB is far above any line amplifier's
# noise figure. The largest shipped NLI coefficient is 0.128 /mW^2.
SPAN_LOSS_RANGE_DB = (0.0, 50.0)
AMP_NOISE_FIGURE_RANGE_DB = (0.0, 20.0)
NLI_COEFF_RANGE_PER_MW2 = (0.0, 10.0)
# Filter centres and their common misalignment lie within a C-band width of
# the channel centre, and orders reach 20 at most (the shipped ones 8). With
# 3-dB bandwidths of at least the grid unit, x^2n stays far below overflow.
# The shipped lines' Q noise is 0.05 dB at most and their tilt 2.5 dB.
FILTER_OFFSET_RANGE_GHZ = (-C_BAND_WIDTH_GHZ, C_BAND_WIDTH_GHZ)
FILTER_ORDER_RANGE = (1, 20)
NOISE_SIGMA_RANGE_DB = (0.0, 1.0)
TILT_RANGE_DB = (-100.0, 100.0)


@dataclass(frozen=True)
class SpanSpec:
    """One amplified fiber span; the amplifier exactly recovers the loss."""

    loss_db: float
    amp_noise_figure_db: float
    nli_coeff_per_mw2: float
    dispersion_comp: DispersionComp = DispersionComp.NONE

    def __post_init__(self):
        check_range("span loss", self.loss_db, *SPAN_LOSS_RANGE_DB, unit="dB")
        check_range("amplifier noise figure", self.amp_noise_figure_db,
                    *AMP_NOISE_FIGURE_RANGE_DB, unit="dB")
        check_range("nonlinear coefficient", self.nli_coeff_per_mw2,
                    *NLI_COEFF_RANGE_PER_MW2, unit="/mW^2")


@dataclass(frozen=True)
class FilterElement:
    """Super-Gaussian power transfer element in the cascade."""

    center_offset_ghz: float
    bandwidth_3db_ghz: float
    order: int

    def __post_init__(self):
        check_range("filter centre offset", self.center_offset_ghz,
                    *FILTER_OFFSET_RANGE_GHZ, unit="GHz")
        check_range("filter 3-dB bandwidth", self.bandwidth_3db_ghz,
                    GRID_UNIT_GHZ, unit="GHz")
        check_range("filter order", self.order, *FILTER_ORDER_RANGE)


@dataclass(frozen=True)
class LinkSpec:
    """Full description of one simulated open line system.

    ``equalizer_window_ghz`` is the width the line re-levels tilt and ripple
    over: None for no re-levelling, the media-channel width to re-center
    the whole channel (intra-channel tilt survives), a narrower width to
    re-level each network media channel of that width.
    """

    name: str
    media_channel: MediaChannel
    spans: tuple[SpanSpec, ...]
    filters: tuple[FilterElement, ...] = ()
    equalizer_window_ghz: float | None = None
    tilt_db_per_mc: float = 0.0
    ripple: tuple[tuple[float, float], ...] = ()
    filter_misalignment_ghz: float = 0.0
    diurnal_amplitude_db: float = 0.0
    diurnal_period_h: float = 24.0
    isi_factor: float = DEFAULT_ISI_FACTOR
    seed: int = 1
    noise_sigma_q_db: float = 0.0

    def __post_init__(self):
        check_range("diurnal amplitude", self.diurnal_amplitude_db, 0.0, unit="dB")
        # a period under an hour is not diurnal, and far under it the phase overflows
        check_range("diurnal period", self.diurnal_period_h, 1.0, unit="h")
        check_range("seed", self.seed, 0)
        check_range("noise sigma", self.noise_sigma_q_db,
                    *NOISE_SIGMA_RANGE_DB, unit="dB")
        check_range("tilt", self.tilt_db_per_mc, *TILT_RANGE_DB, unit="dB")
        check_range("filter misalignment", self.filter_misalignment_ghz,
                    *FILTER_OFFSET_RANGE_GHZ, unit="GHz")
        for value in (v for point in self.ripple for v in point):
            check_range("ripple", value)
        check_range("ISI factor", self.isi_factor, 0.0)
        if self.equalizer_window_ghz is not None:
            check_range("equalizer window", self.equalizer_window_ghz,
                        GRID_UNIT_GHZ, self.media_channel.width_ghz, unit="GHz")


class BerReading(namedtuple("BerReading",
                             "pre_fec_ber post_fec_ok rx_power_dbm")):
    """What the black-box probe hands back for one carrier configuration."""

    __slots__ = ()


def cascade_osnr_at_0dbm(spans: tuple[SpanSpec, ...]) -> float:
    """OSNR (0.1 nm) of a chain of transparent spans at 0 dBm launch.

    ASE adds linearly over the spans, and every span OSNR moves dB for dB
    with the launch power, so the cascade OSNR at any launch power is this
    value plus the launch power in dBm.
    """
    if not spans:
        return math.inf
    acc = sum(10.0 ** (-(ASE_BUDGET_CONSTANT_DB - s.loss_db
                         - s.amp_noise_figure_db) / 10.0) for s in spans)
    return -10.0 * math.log10(acc)


def nli_eta_per_mw2(spans: tuple[SpanSpec, ...]) -> float:
    """NLI coefficient of a chain of spans: the incoherent sum of the span
    coefficients, dispersion-compensated spans with their surcharge."""
    total = 0.0
    for span in spans:
        eta = span.nli_coeff_per_mw2
        if span.dispersion_comp is not DispersionComp.NONE:
            eta *= DISPERSION_COMP_NLI_FACTOR
        total += eta
    return total


class FilterCascade(tuple):
    """Tuple of filter elements that hashes its elements once. The penalty
    cache and the transfer blocks are keyed on the cascade, and a line hands
    the same cascade to them on every probe; a plain tuple would re-hash
    each frozen element on every lookup."""

    def __new__(cls, elements=()):
        cascade = super().__new__(cls, elements)
        cascade._hash = tuple.__hash__(cascade)
        return cascade

    def __hash__(self):
        return self._hash


def filter_transfer(filters: tuple[FilterElement, ...], f: np.ndarray) -> np.ndarray:
    """Cascade power transfer at offsets f (GHz) from the channel center.

    Each element passes exp(-ln2 * x^2n) at its normalized offset x, so k
    identical elements pass exp(-k ln2 x^2n) and the whole cascade is one
    exponential of the count-weighted sum over its distinct elements, taken
    one element at a time in cascade order.

    x^2n is the repeated squaring of x * x. Squaring alone would multiply
    the rounding of x * x by n, which far out on a filter skirt, where x^2n
    is hundreds, is the whole error budget of exp(-ln2 * x^2n); Dekker's
    exact product (Veltkamp split) recovers that rounding, and the
    first-order term n * error * x^(2n - 2) puts it back.
    """
    import numpy as np

    exponent = np.zeros_like(f)
    for filt, count in Counter(filters).items():
        x = (f - filt.center_offset_ghz) / (filt.bandwidth_3db_ghz / 2.0)
        term = x * x
        if filt.order > 1:
            scaled = x * _VELTKAMP_SPLIT
            high = scaled - (scaled - x)
            error = (high * high - term) + (x - high) * (high + x)  # x * x - term
            power, base, bits = 1.0, term, filt.order - 1  # power: x^(2n - 2)
            while bits:
                if bits & 1:
                    power = power * base
                bits >>= 1
                if bits:
                    base = base * base
            term = term * power + (filt.order * error) * power
        exponent += count * term
    return np.exp(-_LN2 * exponent)


def _key_words(key: tuple[int, ...]) -> list[int]:
    """The 32-bit words numpy's SeedSequence takes from a tuple of
    non-negative ints: each int little-endian, 0 as one word."""
    words = []
    for part in key:
        if part < 0:
            raise ValueError("expected non-negative integer")
        words.append(part & _MASK32)
        part >>= 32
        while part:
            words.append(part & _MASK32)
            part >>= 32
    return words


@lru_cache(maxsize=4096)
def _standard_normal(key: tuple[int, ...]) -> float:
    """``default_rng(SeedSequence(key)).standard_normal()``, seeded from
    the key's words as one array."""
    import numpy as np

    words = np.array(_key_words(key), dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(words))).standard_normal()


@lru_cache(maxsize=64)
def _carrier_memo(budget: tuple) -> dict[tuple, tuple]:
    """The carrier memo shared by every line with this seed-free budget:
    (config, policy, carrier centre) -> the time-independent terms of that
    carrier's probes; see LineSystem._memoize_carrier."""
    return {}


@lru_cache(maxsize=64)
def _penalty_grid(rs: float, roll_off: float) -> tuple[int, np.ndarray, float]:
    """One carrier shape on the penalty lattice: the half width J in lattice
    steps, the RRC spectrum times the step at lattice points -J..J, and its
    sum (the spectrum's integral). J = floor(edge / step) + 1 puts both ends
    outside the occupied band, where the spectrum is zero, so the sum is the
    trapezoid rule. Read-only: every placement of the shape shares them.

    The step is fixed, so the error grows as a carrier narrows and its
    roll-off falls. Against a trapezoid of at least 40,001 points, on the
    shipped cascades at placements that lose at most 10 dB in band, the
    integral is within 1e-7 dB from 20 GBd and roll-off 0.1 up. Below
    roll-off 0.1 the error grows as roll-off^-2, to 4.8e-6 dB at 22 GBd and
    roll-off 0.01, where the 1601-point grid this lattice replaced was off
    2.1e-6 dB.
    Below about 10 GBd the lattice is coarser than that grid: 8.8e-7 dB at
    10 GBd and 3.0e-5 dB at 1 GBd, both at roll-off 0.01. On every shipped
    placement the two agree within 1e-9 dB.
    """
    import numpy as np

    edge = (1.0 + roll_off) * rs / 2.0
    half = math.floor(edge / _LATTICE_STEP_GHZ) + 1
    weighted_shape = rrc_psd(rs, roll_off,
                             np.arange(-half, half + 1) * _LATTICE_STEP_GHZ)
    weighted_shape *= _LATTICE_STEP_GHZ
    weighted_shape.flags.writeable = False
    return half, weighted_shape, float(weighted_shape.sum())


@lru_cache(maxsize=512)
def _transfer_block(filters: tuple[FilterElement, ...], block: int) -> np.ndarray:
    """The cascade transfer at lattice points ``block * B`` to
    ``(block + 1) * B - 1``, B = _TRANSFER_BLOCK_POINTS. Read-only: every
    placement of every carrier shape on this cascade shares it."""
    import numpy as np

    start = block * _TRANSFER_BLOCK_POINTS
    transfer = filter_transfer(filters, np.arange(
        start, start + _TRANSFER_BLOCK_POINTS) * _LATTICE_STEP_GHZ)
    transfer.flags.writeable = False
    return transfer


@lru_cache(maxsize=4096)
def _penalty_cached(filters: tuple[FilterElement, ...], rs: float,
                    roll_off: float, offset_units: int) -> float:
    """In-band power loss of the cascade on one placement, dB: the weighted
    shape against the transfer blocks under it. A cascade that passes no
    power at all blocks the carrier: infinite loss."""
    if not filters:
        return 0.0
    import numpy as np

    half, weighted_shape, reference = _penalty_grid(rs, roll_off)
    low = offset_units * _LATTICE_PER_GRID_UNIT - half
    first, start = divmod(low, _TRANSFER_BLOCK_POINTS)
    last = (low + 2 * half) // _TRANSFER_BLOCK_POINTS
    transfer = np.concatenate([_transfer_block(filters, block)
                               for block in range(first, last + 1)])
    passed = float(weighted_shape.dot(transfer[start:start + 2 * half + 1]))
    if passed <= 0.0:
        return math.inf
    return -10.0 * math.log10(passed / reference)


def filtering_penalty_db(filters: tuple[FilterElement, ...], config: PltConfig,
                         carrier_center_offset_ghz: float = 0.0) -> float:
    """In-band power loss, dB, of the filter cascade on one carrier
    placement. The line amplifies it by its ISI factor, which covers the
    residual symbol distortion the receiver cannot equalize away."""
    offset_units = to_grid_units(carrier_center_offset_ghz)
    return _penalty_cached(filters, config.symbol_rate_gbd, config.roll_off,
                           offset_units)


def _effective_filters(link: LinkSpec) -> FilterCascade:
    """Explicit cascade plus one auto filter per DCG span, common offset."""
    filters = list(link.filters)
    for span in link.spans:
        if span.dispersion_comp is DispersionComp.DCG:
            filters.append(FilterElement(0.0, DCG_FILTER_BANDWIDTH_GHZ,
                                         DCG_FILTER_ORDER))
    if link.filter_misalignment_ghz:
        shift = link.filter_misalignment_ghz
        filters = [replace(f, center_offset_ghz=f.center_offset_ghz + shift)
                   for f in filters]
    return FilterCascade(filters)


class LineSystem:
    """A line under test, combined with the attached virtual transceiver unit.

    The same :class:`ModemModel` must be used to characterize configurations
    and to probe through this instance; constructing both from one model
    object keeps that honest.

    ``LinkSpec`` and ``ModemModel`` are frozen, so the span sums and the
    filter cascade are computed once here, and the time-independent terms
    of each carrier once on its first probe on any line of the same budget,
    rather than on every probe.
    """

    def __init__(self, link: LinkSpec, modem: ModemModel | None = None):
        self.link = link
        self.modem = modem if modem is not None else ModemModel()
        self.effective_filters = _effective_filters(link)
        self._osnr_at_0dbm = cascade_osnr_at_0dbm(link.spans)
        self._nli_eta_per_mw2 = nli_eta_per_mw2(link.spans)
        self._ripple = None
        if link.ripple:
            import numpy as np

            self._ripple = tuple(np.array(axis) for axis in zip(*sorted(link.ripple)))
        # Mean raw profile of each equalizer window, lowest window first.
        width = link.equalizer_window_ghz
        self._window_means: tuple[float, ...] = ()
        if width is not None:
            import numpy as np

            lower = link.media_channel.lower_edge_ghz
            count = int(round(link.media_channel.width_ghz / width))
            self._window_means = tuple(
                float(np.mean(self._raw_profile_db(
                    np.arange(lo, lo + width + GRID_UNIT_GHZ / 2, GRID_UNIT_GHZ))))
                for lo in (lower + index * width for index in range(count)))
        # Everything _memoize_carrier reads except the seed, which only the
        # noise draw takes, and it at probe time.
        self._carriers = _carrier_memo((
            link.media_channel, self._osnr_at_0dbm, self._nli_eta_per_mw2,
            self.effective_filters, link.isi_factor, link.tilt_db_per_mc,
            link.ripple, link.equalizer_window_ghz,
            link.diurnal_amplitude_db != 0.0, link.noise_sigma_q_db != 0.0,
            self.modem.snr_modem_db))

    @property
    def name(self) -> str:
        return self.link.name

    @property
    def media_channel(self) -> MediaChannel:
        return self.link.media_channel

    # -- frequency profile -------------------------------------------------

    def _raw_profile_db(self, f_offset_ghz: np.ndarray | float):
        """Tilt plus ripple at offsets (an array) or at one offset (a float)."""
        tilt = (self.link.tilt_db_per_mc * f_offset_ghz
                / self.link.media_channel.width_ghz)
        if self._ripple is not None:
            import numpy as np

            tilt = tilt + np.interp(f_offset_ghz, *self._ripple)
        return tilt

    def gsnr_offset_db(self, f_offset_ghz: float) -> float:
        """Tilt/ripple GSNR offset at a carrier position, after equalization."""
        raw = float(self._raw_profile_db(f_offset_ghz))
        if not self._window_means:
            return raw
        width = self.link.equalizer_window_ghz
        index = math.floor((f_offset_ghz - self.link.media_channel.lower_edge_ghz)
                           / width)
        return raw - self._window_means[
            min(max(index, 0), len(self._window_means) - 1)]

    def _diurnal_db(self, sim_time_h: float) -> float:
        if self.link.diurnal_amplitude_db == 0.0:
            return 0.0
        return (self.link.diurnal_amplitude_db / 2.0
                * math.sin(2.0 * math.pi * sim_time_h / self.link.diurnal_period_h))

    # -- probe surface -----------------------------------------------------

    def _carrier_offset_ghz(self, config: PltConfig,
                            carrier_center_thz: float | None) -> float:
        mc = self.link.media_channel
        if carrier_center_thz is None:
            offset = 0.0
        else:
            offset = (carrier_center_thz - mc.center_thz) * 1000.0
            offset = from_grid_units(to_grid_units(offset))
        check_carrier_fits(mc, config, offset)
        return offset

    def _static_snr_db(self, config: PltConfig, policy: PowerPolicy,
                       offset_ghz: float) -> tuple[float, float, float]:
        """The time-independent link budget of one carrier: optical SNR
        without the diurnal term, realized launch power and the in-band
        filter loss before the ISI factor, all in dB(m)."""
        link = self.link
        power_dbm = carrier_power_dbm(policy, config, link.media_channel)
        power_mw = dbm_to_mw(power_dbm)
        osnr = power_dbm + self._osnr_at_0dbm
        snr_ase = (osnr_to_snr_db(osnr, config.symbol_rate_gbd)
                   if math.isfinite(osnr) else math.inf)
        nli_mw = self._nli_eta_per_mw2 * power_mw ** 3
        snr_nli = (10.0 * math.log10(power_mw / nli_mw)
                   if nli_mw > 0 else math.inf)
        optical = harmonic_db_sum(snr_ase, snr_nli)
        in_band = filtering_penalty_db(self.effective_filters, config,
                                       offset_ghz)
        optical -= link.isi_factor * in_band
        optical += self.gsnr_offset_db(offset_ghz)
        return optical, power_dbm, in_band

    def _total_snr_db(self, optical_db: float, sim_time_h: float) -> float:
        """Total SNR from the static optical SNR at one time of day."""
        return harmonic_db_sum(optical_db + self._diurnal_db(sim_time_h),
                               self.modem.snr_modem_db)

    def _ber_law(self, config: PltConfig, optical_db: float,
                 sim_time_h: float) -> tuple[float, float | None]:
        """True BER and its Q in dB; the Q is None when the reading is
        fixed: coin flips (0.5) or error-free (0.0)."""
        ber_true = ber_from_snr(config.format,
                                self._total_snr_db(optical_db, sim_time_h))
        return ber_true, (q_db_from_ber(ber_true) if 0.0 < ber_true < 0.5
                          else None)

    def _noise_key(self, config: PltConfig, offset_ghz: float,
                   power_dbm: float) -> tuple[int, ...]:
        """The noise key of a realized carrier, without its seed and time
        words."""
        return (
            zlib.crc32(config.config_id.encode()),
            to_grid_units(offset_ghz) + 2 ** 20,
            int(round((power_dbm + 200.0) * 100.0)),
        )

    def _keyed_noise_db(self, noise_key: tuple[int, ...],
                        sim_time_h: float) -> float:
        """Noise on the Q readout of a noisy line's carrier at one time."""
        return self.link.noise_sigma_q_db * _standard_normal(
            (self.link.seed, *noise_key, int(round(sim_time_h * 3600.0))))

    def _memoize_carrier(self, config: PltConfig, policy: PowerPolicy,
                         carrier_center_thz: float | None) -> tuple:
        """Compute and store the time-independent terms of one carrier:
        rx power, static optical SNR, noise key (None on a noiseless line)
        and, on a line without diurnal drift, the BER law. A rejected
        carrier or a violated limit raises before anything is stored."""
        offset = self._carrier_offset_ghz(config, carrier_center_thz)
        optical, power_dbm, in_band = self._static_snr_db(config, policy, offset)
        link = self.link
        carrier = (
            power_dbm - in_band,
            optical,
            (self._noise_key(config, offset, power_dbm)
             if link.noise_sigma_q_db else None),
            (None if link.diurnal_amplitude_db
             else self._ber_law(config, optical, 0.0)),
        )
        self._carriers[(config, policy, carrier_center_thz)] = carrier
        return carrier

    def probe(self, config: PltConfig, policy: PowerPolicy,
              carrier_center_thz: float | None = None,
              sim_time_h: float = 0.0) -> BerReading:
        """Configure one probe carrier and read back its pre-FEC BER.

        Deterministic for fixed link seed and probe settings; the noise draw
        is keyed on the realized carrier, not on the policy that produced it.
        A carrier probed before costs one memo lookup plus what moves with
        time: the diurnal term, the noise draw and the Q-to-BER readout.
        """
        carrier = self._carriers.get((config, policy, carrier_center_thz))
        if carrier is None:
            carrier = self._memoize_carrier(config, policy, carrier_center_thz)
        rx_power_dbm, optical, noise_key, law = carrier
        ber_true, q_true = (self._ber_law(config, optical, sim_time_h)
                            if law is None else law)
        if q_true is not None:
            noise = (0.0 if noise_key is None
                     else self._keyed_noise_db(noise_key, sim_time_h))
            ber = ber_from_q_db(q_true + noise)
        elif ber_true < 0.5:
            # noiseless line: the counter reads error-free
            ber = 0.0
        else:
            # blocked or drowned carrier (a NaN total when the ISI factor
            # is 0): the decisions are coin flips
            ber = 0.5
        return BerReading(
            pre_fec_ber=ber,
            post_fec_ok=ber <= config.fec_threshold_ber,
            rx_power_dbm=rx_power_dbm,
        )

    # -- test-only oracles ---------------------------------------------------

    def ground_truth_gsnr(self, config: PltConfig, policy: PowerPolicy,
                          carrier_center_thz: float | None = None,
                          sim_time_h: float = 0.0) -> float:
        """Oracle: the exact SNR behind a probe, before the BER mapping.

        Includes the modem term, i.e. it is the quantity probing estimates.
        Reserved for tests and simulator-assisted what-if analyses; probing
        algorithms must not call it.
        """
        offset = self._carrier_offset_ghz(config, carrier_center_thz)
        optical = self._static_snr_db(config, policy, offset)[0]
        return self._total_snr_db(optical, sim_time_h)

    def without_filters(self) -> "LineSystem":
        """What-if copy of the line with every filtering element removed."""
        clean_spans = tuple(
            replace(s, dispersion_comp=DispersionComp.DCF)
            if s.dispersion_comp is DispersionComp.DCG else s
            for s in self.link.spans
        )
        return LineSystem(replace(self.link, filters=(), spans=clean_spans),
                          self.modem)
