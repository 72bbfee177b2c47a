"""Transceiver catalog: the pre-characterized probing configurations.

The default catalog carries eleven configurations over the symbol rates
31.5, 34.5, 46.3, 52.0, 55.5, 58.0 and 69.4 GBd. Required GSNR per
configuration is derived by inverting the analytic BER law of its format at
the FEC threshold, so that a margin of exactly zero coincides with the FEC
limit of the simulated transceiver. A catalog file's records are read by
``errors.build_record``.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ScenarioError, build_record
from .modem import required_snr_db
from .spectrum import DEFAULT_FEC_THRESHOLD_BER, ModulationFormat, PltConfig

# (format, symbol rate GBd, line rate Gbit/s)
_DEFAULT_CONFIGS = (
    (ModulationFormat.DP_QPSK, 31.5, 100.0),
    (ModulationFormat.DP_QPSK, 52.0, 200.0),
    (ModulationFormat.DP_QPSK, 69.4, 200.0),
    (ModulationFormat.DP_P16QAM, 34.5, 150.0),
    (ModulationFormat.DP_P16QAM, 46.3, 200.0),
    (ModulationFormat.DP_P16QAM, 58.0, 200.0),
    (ModulationFormat.DP_P16QAM, 69.4, 300.0),
    (ModulationFormat.DP_16QAM, 34.5, 200.0),
    (ModulationFormat.DP_16QAM, 52.0, 300.0),
    (ModulationFormat.DP_16QAM, 55.5, 300.0),
    (ModulationFormat.DP_16QAM, 58.0, 400.0),
)

# 58 GBd units are deployed on the flex-grid network only; the probing pool
# for fixed-grid regional links is customized accordingly.
_REGIONAL_EXCLUDED_RATES = (58.0,)


def default_catalog() -> tuple[PltConfig, ...]:
    return tuple(
        PltConfig(
            format=fmt,
            symbol_rate_gbd=rate,
            line_rate_gbps=line_rate,
            required_gsnr_db=required_snr_db(fmt, DEFAULT_FEC_THRESHOLD_BER),
        )
        for fmt, rate, line_rate in _DEFAULT_CONFIGS
    )


def regional_catalog() -> tuple[PltConfig, ...]:
    """Probing pool customized for fixed-grid regional links."""
    return tuple(cfg for cfg in default_catalog()
                 if cfg.symbol_rate_gbd not in _REGIONAL_EXCLUDED_RATES)


NAMED_CATALOGS = {
    "default": default_catalog,
    "regional": regional_catalog,
}


def resolve_catalog(name_or_path: str) -> tuple[PltConfig, ...]:
    """Named catalog ('default', 'regional') or a JSON catalog file path."""
    if name_or_path in NAMED_CATALOGS:
        return NAMED_CATALOGS[name_or_path]()
    return load_catalog(name_or_path)


def load_catalog(path: str | Path) -> tuple[PltConfig, ...]:
    try:
        records = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read catalog {path}: {exc}") from exc
    if not isinstance(records, list):
        raise ScenarioError(f"catalog {path} must be a JSON array")
    configs = {}  # config id -> config; a workflow probes each id once
    for rec in records:
        try:
            config = build_record(PltConfig, rec,
                                  {"format": ModulationFormat.from_label})
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"bad catalog record {rec!r}: {exc}") from exc
        if configs.setdefault(config.config_id, config) is not config:
            raise ScenarioError(f"catalog {path} repeats {config.config_id}")
    return tuple(configs.values())
