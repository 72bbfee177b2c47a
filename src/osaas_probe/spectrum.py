"""Media channels, transceiver configurations and carrier power policies.

Frequencies are stored in THz with GHz offsets. Anything that lands on the
flex grid is snapped to 0.25 GHz integer units so that repeated 6.25 GHz
stepping never accumulates float drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import CarrierRejectedError, LimitViolationError, SpectrumError, check_range

C_BAND_MIN_THZ = 191.0
C_BAND_MAX_THZ = 196.0
C_BAND_WIDTH_GHZ = 4800.0

GRID_UNIT_GHZ = 0.25
DEFAULT_ROLL_OFF = 0.19
DEFAULT_FEC_THRESHOLD_BER = 2.0e-2
# Required GSNR a configuration may state, in dB. Characterization loads
# noise from 1 dB below to 14 dB above it, within 0 to 40 dB.
REQUIRED_GSNR_RANGE_DB = (1.0, 26.0)


class ModulationFormat(Enum):
    """Dual-polarization formats offered by the probing transceiver.

    The partial-constellation format is modeled as a rectangular 8QAM: its
    exact constellation is proprietary, and the probing workflow only needs
    a monotone BER-vs-SNR law consistent between characterization and line
    measurements.
    """

    DP_QPSK = ("DP-QPSK", 4, (2, 2))
    DP_P16QAM = ("DP-P-16QAM", 6, (4, 2))
    DP_16QAM = ("DP-16QAM", 8, (4, 4))

    def __init__(self, label: str, bits: int, grid: tuple[int, int]):
        self.label = label
        self.bits_per_symbol_dualpol = bits
        self.constellation_grid = grid

    @classmethod
    def from_label(cls, label: str) -> "ModulationFormat":
        for fmt in cls:
            if fmt.label == label:
                return fmt
        raise SpectrumError(f"unknown modulation format {label!r}")


def to_grid_units(freq_ghz: float) -> int:
    """Snap a GHz quantity to integer 0.25 GHz units."""
    units = round(freq_ghz / GRID_UNIT_GHZ)
    if abs(units * GRID_UNIT_GHZ - freq_ghz) > 1e-6:
        raise SpectrumError(f"{freq_ghz} GHz is not on the {GRID_UNIT_GHZ} GHz grid")
    return units


def from_grid_units(units: int) -> float:
    return units * GRID_UNIT_GHZ


@dataclass(frozen=True)
class MediaChannel:
    """Spectral slot allocated to the service."""

    center_thz: float
    width_ghz: float
    max_total_power_dbm: float
    max_psd_dbm_per_ghz: float

    def __post_init__(self):
        check_range("media channel width", self.width_ghz, 0.0, C_BAND_WIDTH_GHZ,
                    low_open=True, unit="GHz", error=SpectrumError)
        check_range("media channel centre", self.center_thz, C_BAND_MIN_THZ,
                    C_BAND_MAX_THZ, unit="THz", error=SpectrumError)
        check_range("media channel power limit", self.max_total_power_dbm,
                    error=SpectrumError)
        check_range("media channel PSD limit", self.max_psd_dbm_per_ghz,
                    error=SpectrumError)

    @property
    def lower_edge_ghz(self) -> float:
        """Lower slot edge as offset from the channel center, in GHz."""
        return -self.width_ghz / 2.0

    @property
    def upper_edge_ghz(self) -> float:
        return self.width_ghz / 2.0

    def contains_band(self, center_offset_ghz: float, bandwidth_ghz: float) -> bool:
        half = bandwidth_ghz / 2.0
        return (
            center_offset_ghz - half >= self.lower_edge_ghz - 1e-9
            and center_offset_ghz + half <= self.upper_edge_ghz + 1e-9
        )


@dataclass(frozen=True)
class PltConfig:
    """One probing-light transceiver configuration."""

    format: ModulationFormat
    symbol_rate_gbd: float
    line_rate_gbps: float
    required_gsnr_db: float
    roll_off: float = DEFAULT_ROLL_OFF
    fec_threshold_ber: float = DEFAULT_FEC_THRESHOLD_BER

    def __post_init__(self):
        check_range("symbol rate", self.symbol_rate_gbd, 0.0,
                    low_open=True, unit="GBd", error=SpectrumError)
        check_range("roll-off", self.roll_off, 0.0, 1.0, low_open=True,
                    error=SpectrumError)
        check_range("line rate", self.line_rate_gbps, 0.0,
                    low_open=True, unit="Gbit/s", error=SpectrumError)
        if self.line_rate_gbps > self.format.bits_per_symbol_dualpol * self.symbol_rate_gbd + 1e-9:
            raise SpectrumError(
                f"{self.line_rate_gbps} Gbit/s exceeds the information rate bound "
                f"of {self.format.label} at {self.symbol_rate_gbd} GBd"
            )
        check_range("required GSNR", self.required_gsnr_db,
                    *REQUIRED_GSNR_RANGE_DB, unit="dB", error=SpectrumError)
        check_range("FEC threshold BER", self.fec_threshold_ber, 0.0, 0.5,
                    low_open=True, high_open=True, error=SpectrumError)

    def __hash__(self) -> int:
        """Hash of the numeric fields, computed once. A line looks every
        probe up by its config, and the enum's Python-level hash would cost
        as much as the rest of that lookup; equal configs still hash equal."""
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.symbol_rate_gbd, self.line_rate_gbps,
                     self.required_gsnr_db, self.roll_off,
                     self.fec_threshold_ber))

    @cached_property
    def config_id(self) -> str:
        return f"{self.format.label}-{self.symbol_rate_gbd:g}"

    @property
    def occupied_bandwidth_ghz(self) -> float:
        return self.symbol_rate_gbd * (1.0 + self.roll_off)

    @property
    def slot_width_ghz(self) -> float:
        """Smallest 12.5 GHz grid slot that carries this configuration."""
        return math.ceil(self.symbol_rate_gbd / 12.5) * 12.5


class PolicyKind(Enum):
    CONSTANT_PSD = "constant_psd"
    CONSTANT_TOTAL_POWER = "constant_total_power"


@dataclass(frozen=True)
class PowerPolicy:
    """Launch power rule applied to each probe carrier.

    Constant-PSD probing keeps the spectral density fixed, so total carrier
    power grows with symbol rate. Constant-total-power probing launches the
    same total power regardless of symbol rate, concentrating it for narrow
    carriers.
    """

    kind: PolicyKind
    value: float  # dBm/GHz for CONSTANT_PSD, dBm for CONSTANT_TOTAL_POWER

    def __hash__(self) -> int:
        """Hash of the value alone, as for :class:`PltConfig`."""
        return hash(self.value)

    @staticmethod
    def constant_psd(psd_dbm_per_ghz: float) -> "PowerPolicy":
        return PowerPolicy(PolicyKind.CONSTANT_PSD, psd_dbm_per_ghz)

    @staticmethod
    def constant_total_power(power_dbm: float) -> "PowerPolicy":
        return PowerPolicy(PolicyKind.CONSTANT_TOTAL_POWER, power_dbm)


def carrier_power_dbm(
    policy: PowerPolicy,
    config: PltConfig,
    channel: MediaChannel | None = None,
) -> float:
    """Total launch power of one carrier under the given policy.

    Constant PSD normalizes over the symbol rate (not the occupied
    bandwidth). When a media channel is given, the resulting power and the
    implied PSD are checked against its budget.
    """
    if policy.kind is PolicyKind.CONSTANT_PSD:
        power = policy.value + 10.0 * math.log10(config.symbol_rate_gbd)
        psd = policy.value
    else:
        power = policy.value
        psd = policy.value - 10.0 * math.log10(config.symbol_rate_gbd)
    if channel is not None:
        if power > channel.max_total_power_dbm + 1e-9:
            raise LimitViolationError(
                f"carrier power {power:.2f} dBm exceeds channel limit "
                f"{channel.max_total_power_dbm:.2f} dBm"
            )
        if psd > channel.max_psd_dbm_per_ghz + 1e-9:
            raise LimitViolationError(
                f"carrier PSD {psd:.2f} dBm/GHz exceeds channel limit "
                f"{channel.max_psd_dbm_per_ghz:.2f} dBm/GHz"
            )
    return power


def rrc_psd(rs: float, roll_off: float, f: np.ndarray) -> np.ndarray:
    """Normalized power spectral density of an RRC-shaped carrier, 1/GHz,
    at frequency offsets f (GHz) from its center.

    This is the raised-cosine power spectrum (the squared magnitude of the
    root-raised-cosine pulse shaping) of a carrier at ``rs`` GBd, normalized
    to unit total power. Zero outside the occupied band.
    """
    import numpy as np

    flat = (1.0 - roll_off) * rs / 2.0
    edge = (1.0 + roll_off) * rs / 2.0
    af = np.abs(f)
    shape = np.zeros_like(af)
    shape[af <= flat] = 1.0 / rs
    transition = (af > flat) & (af < edge)
    shape[transition] = 0.5 / rs * (
        1.0 + np.cos(np.pi / (roll_off * rs) * (af[transition] - flat)))
    return shape


def check_carrier_fits(channel: MediaChannel, config: PltConfig,
                       center_offset_ghz: float) -> None:
    """Raise CarrierRejectedError unless the occupied band sits inside the slot."""
    if not channel.contains_band(center_offset_ghz, config.occupied_bandwidth_ghz):
        raise CarrierRejectedError(
            f"{config.config_id} at {center_offset_ghz:+.2f} GHz occupies "
            f"{config.occupied_bandwidth_ghz:.2f} GHz and leaves the "
            f"{channel.width_ghz:.0f} GHz media channel"
        )


def admissible_offsets_ghz(channel: MediaChannel, config: PltConfig,
                           step_ghz: float) -> list[float]:
    """Carrier center offsets on a symmetric grid that keep the carrier inside.

    Offsets are multiples of the step around the channel center; placements
    whose occupied band would straddle a slot edge are clipped out.
    """
    check_range("sweep step", step_ghz, GRID_UNIT_GHZ, unit="GHz", error=SpectrumError)
    step_units = to_grid_units(step_ghz)
    half_occupied = config.occupied_bandwidth_ghz / 2.0
    max_offset = channel.width_ghz / 2.0 - half_occupied
    if max_offset < 0:
        return []
    k_max = int(math.floor((max_offset + 1e-9) / step_ghz))
    return [from_grid_units(k * step_units) for k in range(-k_max, k_max + 1)]
