"""Command-line front end.

Subcommands mirror the probing workflows: ``characterize`` builds curve
files, ``probe`` runs the extended symbol-rate-variable workflow, ``sweep``
walks the carrier across the slot, ``regime`` compares power policies,
``throughput`` quantifies the filtering cost, and ``monitor`` tracks the
estimate over simulated time.

Every command is deterministic for a fixed scenario file and seed. Exit
codes: 0 success, 2 no usable signal, 3 configuration error, 4 invalid
scenario file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .catalog import resolve_catalog
from .errors import (
    FitRejectedError,
    InsufficientDataError,
    NoSignalError,
    ScenarioError,
)
from .linesystem import LineSystem
from .modem import (
    DEFAULT_FIT_DEGREE,
    GRID_STEP_DB,
    ModemModel,
    characterize,
    default_gsnr_grid,
    load_curve,
    save_curve,
)
from .probing import (
    DEFAULT_CAP_THETA_DB,
    ProbeStatus,
    detect_misalignment,
    detect_operation_regime,
    probe_once,
    profile_tilt_ripple,
    run_frequency_sweep,
    run_probe_workflow,
)
from .reports import (
    REPORT_SCHEMA_VERSION,
    margin_report_to_dict,
    monitor_series_to_csv,
    profile_to_csv,
    regime_report_to_dict,
    sweep_summary_to_dict,
)
from .scenario import Scenario, load_scenario
from .spectrum import C_BAND_WIDTH_GHZ

EXIT_OK = 0
EXIT_NO_SIGNAL = 2
EXIT_CONFIG = 3
EXIT_SCENARIO = 4

WHAT_IF_CAVEAT = ("potential figures assume the filter cascade removed; this "
                  "is a simulator-assisted what-if that a live black-box "
                  "deployment cannot measure")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


class CliError(Exception):
    """Bad flags or inconsistent configuration; maps to exit code 3."""


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _resolve_seed(args, scenario: Scenario | None) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("OSAAS_PROBE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"OSAAS_PROBE_SEED={env!r} is not an integer")
    if scenario is not None:
        return scenario.link.seed
    return 1


def _load_scenario(args) -> Scenario:
    if not args.scenario:
        raise CliError("--scenario is required for this command")
    scenario = load_scenario(args.scenario)
    seed = _resolve_seed(args, scenario)
    return scenario.with_seed(seed)


def _catalog_for(args, scenario: Scenario | None):
    name = args.catalog or (scenario.catalog if scenario else "default")
    try:
        return resolve_catalog(name)
    except ScenarioError as exc:
        raise CliError(str(exc))


def _load_curves(args, catalog) -> dict:
    curves_dir = Path(args.curves)
    curves = {}
    for config in catalog:
        path = curves_dir / f"{config.config_id}.json"
        if not path.exists():
            raise CliError(
                f"no characterization curve for {config.config_id} in "
                f"{curves_dir}; run 'osaas-probe characterize' first")
        try:
            curves[config.config_id] = load_curve(path)
        except FitRejectedError as exc:
            raise CliError(f"bad characterization curve {path}: {exc}")
    return curves


def _line_for(scenario: Scenario, curves_modem_db: float | None) -> LineSystem:
    modem = (ModemModel() if curves_modem_db is None
             else ModemModel(curves_modem_db))
    return LineSystem(scenario.link, modem)


def _modem_from_curves(curves: dict) -> float | None:
    values = {curve.snr_modem_db for curve in curves.values()}
    if len(values) > 1:
        raise CliError("characterization curves mix different modem models")
    return next(iter(values)) if values else None


def cmd_characterize(args) -> int:
    catalog = _catalog_for(args, None)
    snr_modem_db = args.modem_snr_db if args.modem_snr_db is not None else 26.0
    if not snr_modem_db > 0:
        raise CliError(f"--modem-snr-db must be positive, got {snr_modem_db:g}")
    if args.degree < 1:
        raise CliError(f"--degree must be at least 1, got {args.degree}")
    if not args.grid_step_db > 0:
        raise CliError(f"--grid-step-db must be positive, got {args.grid_step_db:g}")
    modem = ModemModel(snr_modem_db)
    out = Path(args.out or "curves")
    written = []
    for config in catalog:
        grid = default_gsnr_grid(config, args.grid_step_db)
        try:
            curve = characterize(modem, config, args.degree, grid)
        except (InsufficientDataError, FitRejectedError) as exc:
            print(f"characterization failed for {config.config_id}: {exc}",
                  file=sys.stderr)
            return EXIT_CONFIG
        path = out / f"{config.config_id}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        save_curve(curve, path)
        written.append(path)
    print(f"wrote {len(written)} characterization curves to {out}")
    return EXIT_OK


def cmd_probe(args) -> int:
    scenario = _load_scenario(args)
    catalog = _catalog_for(args, scenario)
    curves = _load_curves(args, catalog)
    line = _line_for(scenario, _modem_from_curves(curves))
    theta = args.theta_db if args.theta_db is not None else DEFAULT_CAP_THETA_DB
    report = run_probe_workflow(line, catalog, curves, scenario.policy, theta)
    payload = margin_report_to_dict(report, scenario.link.seed)
    out = Path(args.out or ".") / f"{scenario.link.name}-report.json"
    _write_json(out, payload)
    print(f"{scenario.link.name}: GSNR {report.gsnr_est_link_db:.2f} dB, "
          f"cap {report.symbol_rate_cap_gbd:g} GBd, "
          f"best {report.best_config or 'none'}, "
          f"accuracy bound {report.accuracy_bound_db:.2f} dB "
          f"({report.accuracy_flag.value})")
    print(f"report written to {out}")
    return EXIT_OK


def _sweep_configs(args, catalog):
    if not args.configs:
        return catalog
    wanted = [c.strip() for c in args.configs.split(",") if c.strip()]
    by_id = {c.config_id: c for c in catalog}
    missing = [w for w in wanted if w not in by_id]
    if missing:
        raise CliError(f"unknown config ids {missing}; catalog has "
                       f"{sorted(by_id)}")
    return tuple(by_id[w] for w in wanted)


def cmd_sweep(args) -> int:
    scenario = _load_scenario(args)
    if args.step_ghz is not None:
        scenario = Scenario(link=scenario.link, catalog=scenario.catalog,
                            policy=scenario.policy, sweep_step_ghz=args.step_ghz,
                            monitor_config_id=scenario.monitor_config_id)
        scenario.validate()
    catalog = _catalog_for(args, scenario)
    curves = _load_curves(args, catalog)
    line = _line_for(scenario, _modem_from_curves(curves))
    configs = _sweep_configs(args, catalog)
    profile = run_frequency_sweep(line, configs, curves,
                                  scenario.sweep_step_ghz, scenario.policy)
    if not profile.points:
        print("no configuration admits any carrier placement", file=sys.stderr)
        return EXIT_NO_SIGNAL
    try:
        misalignment = detect_misalignment(profile)
    except InsufficientDataError:
        misalignment = None
    tilt_ripple = {}
    for cid in profile.points:
        try:
            tilt_ripple[cid] = profile_tilt_ripple(profile, cid)
        except InsufficientDataError:
            continue
    out_dir = Path(args.out or ".")
    csv_path = out_dir / f"{scenario.link.name}-profile.csv"
    _write_text(csv_path, profile_to_csv(profile))
    summary = sweep_summary_to_dict(profile, scenario.link.seed, misalignment,
                                    tilt_ripple)
    summary_path = out_dir / f"{scenario.link.name}-sweep-summary.json"
    _write_json(summary_path, summary)
    if misalignment is not None and not misalignment[1]:
        print(f"{scenario.link.name}: center misalignment "
              f"{misalignment[0]:+.1f} GHz")
    for cid, (tilt, ripple) in sorted(tilt_ripple.items()):
        print(f"{scenario.link.name}: {cid} tilt {tilt:.2f} dB, "
              f"ripple {ripple:.2f} dB")
    print(f"profile written to {csv_path}")
    return EXIT_OK


def cmd_regime(args) -> int:
    scenario = _load_scenario(args)
    catalog = _catalog_for(args, scenario)
    curves = _load_curves(args, catalog)
    line = _line_for(scenario, _modem_from_curves(curves))
    psd_ref = (args.psd_ref if args.psd_ref is not None
               else scenario.policy.value)
    rs_ref = (args.rs_ref if args.rs_ref is not None
              else max(c.symbol_rate_gbd for c in catalog))
    report = detect_operation_regime(line, catalog, curves, psd_ref, rs_ref)
    if not report.entries:
        print("no configuration produced a regime classification",
              file=sys.stderr)
        return EXIT_NO_SIGNAL
    out = Path(args.out or ".") / f"{scenario.link.name}-regime.json"
    _write_json(out, regime_report_to_dict(report, scenario.link.seed))
    for cid, entry in sorted(report.entries.items()):
        delta = "n/a" if entry.delta_db is None else f"{entry.delta_db:+.2f} dB"
        print(f"{scenario.link.name}: {cid} {entry.classification.value} "
              f"(delta {delta}, recommended power change "
              f"{entry.recommended_power_delta_db:+.2f} dB)")
    print(f"regime report written to {out}")
    return EXIT_OK


def cmd_throughput(args) -> int:
    if not args.scenario_list:
        raise CliError("--scenario is required (repeatable) for throughput")
    entries = []
    for path in args.scenario_list:
        scenario = load_scenario(path)
        scenario = scenario.with_seed(_resolve_seed(args, scenario))
        catalog = _catalog_for(args, scenario)
        curves = _load_curves(args, catalog)
        line = _line_for(scenario, _modem_from_curves(curves))
        by_id = {c.config_id: c for c in catalog}
        theta = args.theta_db if args.theta_db is not None else DEFAULT_CAP_THETA_DB
        report = run_probe_workflow(line, catalog, curves, scenario.policy, theta)
        achievable = (by_id[report.best_config].line_rate_gbps
                      if report.best_config else 0.0)
        what_if = run_probe_workflow(line.without_filters(), catalog, curves,
                                     scenario.policy, theta)
        potential = (by_id[what_if.best_config].line_rate_gbps
                     if what_if.best_config else 0.0)
        gain = (100.0 * (potential - achievable) / achievable
                if achievable > 0 else None)
        entries.append({
            "scenario": scenario.link.name,
            "achievable_gbps": achievable,
            "potential_gbps": potential,
            "gain_percent": None if gain is None else round(gain, 3),
            "c_band_40ch_gain_gbps": round(40.0 * (potential - achievable), 3),
        })
        print(f"{scenario.link.name}: achievable {achievable:g} Gbit/s, "
              f"potential {potential:g} Gbit/s"
              + (f", gain {gain:.1f}%" if gain is not None else ""))
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "note": WHAT_IF_CAVEAT,
        "links": entries,
    }
    out = Path(args.out or ".") / "throughput.json"
    _write_json(out, payload)
    print(f"note: {WHAT_IF_CAVEAT}")
    print(f"throughput report written to {out}")
    return EXIT_OK


def _monitor_upgrade(catalog, monitor_config, peak_est_db):
    """Narrower-slot configuration available at the peak of the series."""
    candidates = [
        c for c in catalog
        if c.line_rate_gbps >= monitor_config.line_rate_gbps
        and c.slot_width_ghz < monitor_config.slot_width_ghz
        and peak_est_db - c.required_gsnr_db > 0
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda c: (c.slot_width_ghz, -c.line_rate_gbps))


def cmd_monitor(args) -> int:
    scenario = _load_scenario(args)
    catalog = _catalog_for(args, scenario)
    curves = _load_curves(args, catalog)
    line = _line_for(scenario, _modem_from_curves(curves))
    by_id = {c.config_id: c for c in catalog}
    if scenario.monitor_config_id not in by_id:
        raise CliError(f"monitor config {scenario.monitor_config_id!r} not in "
                       f"catalog")
    config = by_id[scenario.monitor_config_id]
    if args.interval_h <= 0:
        raise CliError("--interval-h must be positive")
    series = []
    t = 0.0
    while t <= args.duration_h + 1e-9:
        result = probe_once(line, config, curves[config.config_id],
                            scenario.policy, None, t)
        value = (result.gsnr_est_db
                 if result.status is ProbeStatus.WORKING else None)
        series.append((t, value))
        t += args.interval_h
    values = [(t, v) for t, v in series if v is not None]
    if not values:
        print("monitored configuration never worked", file=sys.stderr)
        return EXIT_NO_SIGNAL
    ests = [v for _, v in values]
    swing = max(ests) - min(ests)
    peak_t, peak = max(values, key=lambda tv: tv[1])
    upgrade = _monitor_upgrade(catalog, config, peak)
    summary = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "seed": scenario.link.seed,
        "config_id": config.config_id,
        "samples": len(series),
        "peak_to_peak_db": round(swing, 6),
        "peak_time_h": round(peak_t, 3),
        "peak_gsnr_est_db": round(peak, 6),
    }
    if upgrade is not None:
        window = [round(t, 3) for t, v in values
                  if v - upgrade.required_gsnr_db > 0]
        per_carrier = upgrade.line_rate_gbps * C_BAND_WIDTH_GHZ / upgrade.slot_width_ghz
        baseline = config.line_rate_gbps * C_BAND_WIDTH_GHZ / config.slot_width_ghz
        summary["upgrade"] = {
            "config_id": upgrade.config_id,
            "slot_width_ghz": upgrade.slot_width_ghz,
            "baseline_slot_width_ghz": config.slot_width_ghz,
            "window_h": window,
            "c_band_capacity_gain_gbps": round(per_carrier - baseline, 3),
        }
    out_dir = Path(args.out or ".")
    csv_path = out_dir / f"{scenario.link.name}-monitor.csv"
    _write_text(csv_path, monitor_series_to_csv(series))
    summary_path = out_dir / f"{scenario.link.name}-monitor-summary.json"
    _write_json(summary_path, summary)
    print(f"{scenario.link.name}: swing {swing:.2f} dB over "
          f"{args.duration_h:g} h")
    if upgrade is not None:
        gain = summary["upgrade"]["c_band_capacity_gain_gbps"]
        print(f"upgrade available at peak: {upgrade.config_id} "
              f"({config.slot_width_ghz:g} -> {upgrade.slot_width_ghz:g} GHz "
              f"per carrier, +{gain:g} Gbit/s over C-band)")
    print(f"series written to {csv_path}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="osaas-probe",
                     description="Channel probing toolkit for optical "
                                 "spectrum services")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=True):
        if scenario:
            p.add_argument("--scenario", help="scenario JSON file")
        p.add_argument("--catalog", help="catalog name or JSON file "
                                         "(default: scenario's catalog)")
        p.add_argument("--curves", default="curves",
                       help="directory of characterization curve files")
        p.add_argument("--seed", type=int,
                       help="override the scenario seed (or OSAAS_PROBE_SEED)")
        p.add_argument("--out", help="output directory (default: cwd)")

    p = sub.add_parser("characterize", help="build characterization curves")
    p.add_argument("--catalog", help="catalog name or JSON file")
    p.add_argument("--modem-snr-db", type=float,
                   help="transceiver implementation noise SNR (default 26)")
    p.add_argument("--degree", type=int, default=DEFAULT_FIT_DEGREE)
    p.add_argument("--grid-step-db", type=float, default=GRID_STEP_DB)
    p.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    p.add_argument("--out", help="curve output directory (default: curves)")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("probe", help="extended symbol-rate-variable probing")
    common(p)
    p.add_argument("--theta-db", type=float,
                   help="cap penalty threshold (default 2.0)")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("sweep", help="frequency sweep across the slot")
    common(p)
    p.add_argument("--step-ghz", type=float, help="override sweep step")
    p.add_argument("--configs", help="comma-separated config ids to sweep")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("regime", help="operation regime detection")
    common(p)
    p.add_argument("--psd-ref", type=float,
                   help="reference PSD in dBm/GHz (default: scenario policy)")
    p.add_argument("--rs-ref", type=float,
                   help="reference symbol rate in GBd (default: catalog max)")
    p.set_defaults(func=cmd_regime)

    p = sub.add_parser("throughput", help="achievable vs potential line rate")
    p.add_argument("--scenario", action="append", dest="scenario_list",
                   help="scenario JSON file (repeatable)")
    p.add_argument("--catalog", help="catalog name or JSON file")
    p.add_argument("--curves", default="curves")
    p.add_argument("--seed", type=int)
    p.add_argument("--theta-db", type=float)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_throughput)

    p = sub.add_parser("monitor", help="repeated probing over simulated time")
    common(p)
    p.add_argument("--duration-h", type=float, default=48.0)
    p.add_argument("--interval-h", type=float, default=1.0)
    p.set_defaults(func=cmd_monitor)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ScenarioError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except NoSignalError as exc:
        print(f"no signal: {exc}", file=sys.stderr)
        return EXIT_NO_SIGNAL


if __name__ == "__main__":
    sys.exit(main())
