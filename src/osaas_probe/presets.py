"""Built-in line-system presets.

Each preset models one loop-back route of a production network family:

* ``b2b``            lab noise-loading rig with the terminal filter cascade
* ``A-*``            10G-era regional routes, DCF compensation, AWG add/drop
* ``B-*`` / ``C-*``  regional routes mixing DCF and grating (DCG) modules
* ``LH-*``           coherent-optimized flex-grid long-haul routes, filterless

Route lengths and span counts follow the field deployment the toolkit was
exercised against; optical parameters (span loss, noise figure, nonlinear
coefficient, cascade shapes) are tuned so every preset reproduces its
documented probing behaviour at the default probe PSD.

Span loss is derived from a target accumulated ASE SNR, and the per-span
nonlinear coefficient from a target NLI noise share, both referenced to the
31.5 GBd carrier at the default constant-PSD policy. That keeps the presets
stated in observable terms instead of raw coefficients.
"""

from __future__ import annotations

import math

from .spectrum import MediaChannel, PolicyKind, PowerPolicy
from .linesystem import DispersionComp, FilterElement, LinkSpec, SpanSpec
from .scenario import Scenario
from .units import REF_BANDWIDTH_GHZ

DEFAULT_PROBE_PSD_DBM_PER_GHZ = -26.0
DEFAULT_POLICY = PowerPolicy(PolicyKind.CONSTANT_PSD, DEFAULT_PROBE_PSD_DBM_PER_GHZ)

REGIONAL_MC = MediaChannel(193.2, 100.0, 9.0, -20.0)
# Sweep variants allocate a wider slot so off-center placements of the widest
# probe stay inside it; the effective optical bandwidth is set by the cascade.
REGIONAL_SWEEP_MC = MediaChannel(193.2, 125.0, 9.0, -20.0)
LONGHAUL_MC = MediaChannel(193.95, 400.0, 9.0, -20.0)
LONGHAUL_5X75_MC = MediaChannel(193.95, 375.0, 9.0, -20.0)

# Terminal equipment shared by every regional route: three AWG multiplexer
# stages plus two ROADM passes (the back-to-back rig emulates exactly this).
TERMINAL_CASCADE = (
    (FilterElement(0.0, 88.0, 3),) * 3 + (FilterElement(0.0, 80.0, 5),) * 2
)

_REFERENCE_RATE_GBD = 31.5


def _loss_for_ase_snr(target_snr_db: float, nf_db: float, n_spans: int,
                      launch_psd: float = DEFAULT_PROBE_PSD_DBM_PER_GHZ) -> float:
    return (launch_psd + 10.0 * math.log10(REF_BANDWIDTH_GHZ) + 58.0
            - nf_db - 10.0 * math.log10(n_spans) - target_snr_db)


def _eta_for_nli_share(share: float, target_snr_db: float, n_spans: int,
                       launch_psd: float = DEFAULT_PROBE_PSD_DBM_PER_GHZ) -> float:
    """Per-span NLI coefficient giving the requested noise share at 31.5 GBd."""
    if share <= 0.0:
        return 0.0
    power_mw = 10.0 ** ((launch_psd + 10.0 * math.log10(_REFERENCE_RATE_GBD)) / 10.0)
    ase_mw = power_mw / 10.0 ** (target_snr_db / 10.0)
    return share * ase_mw / (n_spans * power_mw ** 3)


def _spans(n_spans: int, length_km: float, ase_snr_db: float, nf_db: float,
           nli_share: float, dcg_count: int = 0) -> tuple[SpanSpec, ...]:
    """Build a transparent span chain hitting the ASE and NLI targets.

    The last ``dcg_count`` spans carry grating dispersion modules (each adds
    the standard 60 GHz filter element); the remainder are DCF-compensated
    unless the chain is filterless long-haul (callers pass dcg_count=0 and
    patch dispersion afterwards if needed).
    """
    loss = _loss_for_ase_snr(ase_snr_db, nf_db, n_spans)
    eta = _eta_for_nli_share(nli_share, ase_snr_db, n_spans)
    spans = []
    for i in range(n_spans):
        comp = (DispersionComp.DCG if i >= n_spans - dcg_count
                else DispersionComp.DCF)
        spans.append(SpanSpec(length_km, round(loss, 3), round(loss, 3),
                              nf_db, eta, comp))
    return tuple(spans)


def _uncompensated(spans: tuple[SpanSpec, ...]) -> tuple[SpanSpec, ...]:
    return tuple(SpanSpec(s.length_km, s.loss_db, s.amp_gain_db,
                          s.amp_noise_figure_db, s.nli_coeff_per_mw2,
                          DispersionComp.NONE) for s in spans)


def _regional(name: str, n_spans: int, length_km: float, ase_snr_db: float,
              nli_share: float, dcg_count: int = 0,
              mc: MediaChannel = REGIONAL_MC,
              cascade: tuple[FilterElement, ...] = TERMINAL_CASCADE,
              misalignment_ghz: float = 0.0, seed: int = 11,
              noise_sigma: float = 0.02) -> Scenario:
    link = LinkSpec(
        name=name,
        media_channel=mc,
        spans=_spans(n_spans, length_km, ase_snr_db, 5.0, nli_share, dcg_count),
        filters=cascade,
        filter_misalignment_ghz=misalignment_ghz,
        seed=seed,
        noise_sigma_q_db=noise_sigma,
    )
    return Scenario(link=link, catalog="regional")


def _longhaul(name: str, n_spans: int, length_km: float, ase_snr_db: float,
              nli_share: float, nf_db: float = 4.5, tilt: float = 0.0,
              ripple: tuple[tuple[float, float], ...] = (),
              mc: MediaChannel = LONGHAUL_MC,
              equalizer_window_ghz: float | None = None,
              diurnal_amplitude: float = 0.0, diurnal_period: float = 24.0,
              seed: int = 7, noise_sigma: float = 0.05,
              monitor_config: str = "DP-QPSK-69.4") -> Scenario:
    link = LinkSpec(
        name=name,
        media_channel=mc,
        spans=_uncompensated(_spans(n_spans, length_km, ase_snr_db, nf_db,
                                    nli_share)),
        filters=(),
        equalizer_window_ghz=equalizer_window_ghz,
        tilt_db_per_mc=tilt,
        ripple=ripple,
        diurnal_amplitude_db=diurnal_amplitude,
        diurnal_period_h=diurnal_period,
        seed=seed,
        noise_sigma_q_db=noise_sigma,
    )
    return Scenario(link=link, catalog="default",
                    monitor_config_id=monitor_config)


def b2b() -> Scenario:
    """Noise-loaded terminal cascade, zero fiber: the filtering baseline."""
    return _regional("b2b", 1, 0.1, 17.35, 0.0)


def a4() -> Scenario:
    return _regional("A-4", 2, 2.0, 17.60, 0.004)


def a144() -> Scenario:
    return _regional("A-144", 4, 36.0, 16.10, 0.008)


def a241() -> Scenario:
    return _regional("A-241", 6, 40.2, 15.30, 0.010)


def a382() -> Scenario:
    return _regional("A-382", 8, 47.8, 14.60, 0.012)


def a652() -> Scenario:
    """Longest DCF route; commissioning power sits past the NLI optimum."""
    return _regional("A-652", 12, 54.3, 13.60, 0.220)


def b70() -> Scenario:
    return _regional("B-70", 4, 17.5, 16.40, 0.006)


def b485() -> Scenario:
    return _regional("B-485", 8, 60.6, 13.47, 0.012, dcg_count=1)


def b621() -> Scenario:
    """Heavily filtered branch route; only the narrowest probe survives."""
    return _regional("B-621", 10, 62.1, 8.69, 0.015, dcg_count=6)


def b822() -> Scenario:
    return _regional("B-822", 12, 68.5, 12.50, 0.015, dcg_count=5)


def b1182() -> Scenario:
    return _regional("B-1182", 16, 73.9, 12.41, 0.018, dcg_count=6)


def b1302() -> Scenario:
    return _regional("B-1302", 18, 72.3, 12.72, 0.018, dcg_count=8)


def c284() -> Scenario:
    return _regional("C-284", 4, 71.0, 15.20, 0.010, dcg_count=2)


def a241_sweep() -> Scenario:
    """Narrow-band sweep rig on route A: effective bandwidth well below the
    nominal slot, revealing offset penalties and edge outages."""
    cascade = TERMINAL_CASCADE + (FilterElement(0.0, 84.0, 8),)
    return _regional("A-241-sweep", 6, 40.2, 16.90, 0.010, cascade=cascade,
                     mc=REGIONAL_SWEEP_MC)


def c284_sweep() -> Scenario:
    """Route C sweep rig: the whole cascade sits offset from the nominal
    channel center."""
    cascade = TERMINAL_CASCADE + (FilterElement(0.0, 84.0, 8),)
    return _regional("C-284-sweep", 4, 71.0, 17.20, 0.010, cascade=cascade,
                     mc=REGIONAL_SWEEP_MC, misalignment_ghz=6.25)


def lh1016() -> Scenario:
    """Filterless long-haul reference link used for accuracy baselines."""
    return _longhaul("LH-1016", 14, 72.6, 13.84, 0.003)


def lh1792() -> Scenario:
    return _longhaul("LH-1792", 24, 74.7, 13.62, 0.020, tilt=2.5,
                     ripple=((-180.0, 0.05), (-60.0, -0.04), (60.0, 0.05),
                             (180.0, -0.03)))


def lh1792_5x75() -> Scenario:
    """Same route as LH-1792 operated as five adjacent 75 GHz channels with
    per-channel equalization."""
    return _longhaul("LH-1792-5x75", 24, 74.7, 13.62, 0.020, tilt=2.5,
                     mc=LONGHAUL_5X75_MC, equalizer_window_ghz=75.0)


def lh2943() -> Scenario:
    return _longhaul("LH-2943", 36, 81.7, 12.55, 0.030)


def lh3751() -> Scenario:
    return _longhaul("LH-3751", 48, 78.1, 11.05, 0.040)


def lh3751_monitor_summer() -> Scenario:
    """Continuous-probing view of LH-3751 with strong diurnal swing."""
    return _longhaul("LH-3751-monitor-summer", 48, 78.1, 11.05, 0.040,
                     diurnal_amplitude=1.5, noise_sigma=0.0)


def lh3751_monitor_winter() -> Scenario:
    return _longhaul("LH-3751-monitor-winter", 48, 78.1, 11.05, 0.040,
                     diurnal_amplitude=0.4, noise_sigma=0.0)


def lh5738() -> Scenario:
    """Longest route; the design launch power sits past the NLI optimum."""
    return _longhaul("LH-5738", 74, 77.5, 12.42, 0.220, nf_db=0.5,
                     noise_sigma=0.02)


PRESETS = {
    "b2b": b2b,
    "A-4": a4,
    "A-144": a144,
    "A-241": a241,
    "A-382": a382,
    "A-652": a652,
    "B-70": b70,
    "B-485": b485,
    "B-621": b621,
    "B-822": b822,
    "B-1182": b1182,
    "B-1302": b1302,
    "C-284": c284,
    "A-241-sweep": a241_sweep,
    "C-284-sweep": c284_sweep,
    "LH-1016": lh1016,
    "LH-1792": lh1792,
    "LH-1792-5x75": lh1792_5x75,
    "LH-2943": lh2943,
    "LH-3751": lh3751,
    "LH-3751-monitor-summer": lh3751_monitor_summer,
    "LH-3751-monitor-winter": lh3751_monitor_winter,
    "LH-5738": lh5738,
}


def preset(name: str) -> Scenario:
    try:
        return PRESETS[name]()
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")


def write_scenario_files(directory) -> list:
    """Write every preset as a scenario JSON file; returns the paths."""
    from pathlib import Path
    from .scenario import save_scenario

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, builder in PRESETS.items():
        path = out / f"{name}.json"
        save_scenario(builder(), path)
        paths.append(path)
    return paths
