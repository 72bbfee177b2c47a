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

import numpy as np

from .errors import CarrierRejectedError, LimitViolationError, SpectrumError

C_BAND_MIN_THZ = 191.0
C_BAND_MAX_THZ = 196.0
C_BAND_WIDTH_GHZ = 4800.0

GRID_UNIT_GHZ = 0.25
DEFAULT_ROLL_OFF = 0.19
DEFAULT_FEC_THRESHOLD_BER = 2.0e-2


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
        if not 0.0 < self.width_ghz < math.inf:
            raise SpectrumError("media channel width must be finite and positive")
        if not C_BAND_MIN_THZ <= self.center_thz <= C_BAND_MAX_THZ:
            raise SpectrumError(
                f"center {self.center_thz} THz outside C-band "
                f"[{C_BAND_MIN_THZ}, {C_BAND_MAX_THZ}]"
            )
        if not (math.isfinite(self.max_total_power_dbm)
                and math.isfinite(self.max_psd_dbm_per_ghz)):
            raise SpectrumError(
                "media channel power and PSD limits must be finite, got "
                f"{self.max_total_power_dbm} dBm and "
                f"{self.max_psd_dbm_per_ghz} dBm/GHz")

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
        if self.symbol_rate_gbd <= 0:
            raise SpectrumError("symbol rate must be positive")
        if not 0.0 < self.roll_off <= 1.0:
            raise SpectrumError(f"roll-off must be in (0, 1], got {self.roll_off}")
        if not 0.0 < self.line_rate_gbps < math.inf:
            raise SpectrumError(
                f"line rate must be finite and positive, got {self.line_rate_gbps}")
        if self.line_rate_gbps > self.format.bits_per_symbol_dualpol * self.symbol_rate_gbd + 1e-9:
            raise SpectrumError(
                f"{self.line_rate_gbps} Gbit/s exceeds the information rate bound "
                f"of {self.format.label} at {self.symbol_rate_gbd} GBd"
            )
        if not (math.isfinite(self.required_gsnr_db) and self.required_gsnr_db > 0):
            raise SpectrumError("required GSNR must be finite and positive")
        if not 0.0 < self.fec_threshold_ber < 0.5:
            raise SpectrumError("FEC threshold BER must be in (0, 0.5)")

    def __hash__(self) -> int:
        """Hash of the numeric fields. A line looks every probe up by its
        config, and the enum's Python-level hash would cost as much as the
        rest of that lookup; equal configs still hash equal."""
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
    if step_ghz <= 0:
        raise SpectrumError("sweep step must be positive")
    step_units = to_grid_units(step_ghz)
    half_occupied = config.occupied_bandwidth_ghz / 2.0
    max_offset = channel.width_ghz / 2.0 - half_occupied
    if max_offset < 0:
        return []
    k_max = int(math.floor((max_offset + 1e-9) / step_ghz))
    return [from_grid_units(k * step_units) for k in range(-k_max, k_max + 1)]
