"""Command-line front end.

Subcommands mirror the probing workflows: ``characterize`` builds curve
files, ``probe`` runs the extended symbol-rate-variable workflow, ``sweep``
walks the carrier across the slot, ``regime`` compares power policies,
``throughput`` quantifies the filtering cost, and ``monitor`` tracks the
estimate over simulated time.

Every command is deterministic for a fixed scenario file and seed. Exit
codes: 0 success, 2 no usable signal, 3 configuration error (an
unwritable output included), 4 invalid scenario file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .catalog import resolve_catalog
from .errors import (
    FitRejectedError,
    InsufficientDataError,
    NoSignalError,
    ScenarioError,
    check_range,
)
from .linesystem import LineSystem
from .modem import (
    DEFAULT_FIT_DEGREE,
    FIT_DEGREE_RANGE,
    GRID_STEP_DB,
    GRID_STEP_RANGE_DB,
    ModemModel,
    characterize,
    curve_to_dict,
    default_gsnr_grid,
    load_curve,
)
from .probing import (
    DEFAULT_CAP_THETA_DB,
    check_monitor_span,
    detect_operation_regime,
    monitor_upgrade,
    run_frequency_sweep,
    run_monitor,
    run_probe_workflow,
    sweep_diagnostics,
    what_if_line_rates,
)
from .reports import (
    WHAT_IF_CAVEAT,
    margin_report_to_dict,
    monitor_series_to_csv,
    monitor_summary_to_dict,
    profile_to_csv,
    regime_report_to_dict,
    sweep_summary_to_dict,
    throughput_entry,
    throughput_no_signal_entry,
    throughput_to_dict,
    write_report,
)
from .scenario import POLICY_VALUE_RANGE, Scenario, load_scenario

EXIT_OK = 0
EXIT_NO_SIGNAL = 2
EXIT_CONFIG = 3
EXIT_SCENARIO = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


class CliError(Exception):
    """Bad flags or inconsistent configuration; maps to exit code 3."""


def _resolve_seed(args, scenario: Scenario) -> int:
    if args.seed is None:
        return scenario.link.seed
    return check_range("--seed", args.seed, 0, error=CliError)


def _load_curves(curves_dir: Path, catalog, loaded: dict) -> dict:
    """The curve of each catalog configuration. ``loaded`` holds the curves
    this command has read so far, so each file is read and gated once."""
    for config in catalog:
        if config.config_id in loaded:
            continue
        path = curves_dir / f"{config.config_id}.json"
        if not path.exists():
            raise CliError(
                f"no characterization curve for {config.config_id} in "
                f"{curves_dir}; run 'osaas-probe characterize' first")
        try:
            curve = loaded[config.config_id] = load_curve(path)
        except FitRejectedError as exc:
            raise CliError(f"bad characterization curve {path}: {exc}")
        if curve.config_id != config.config_id:
            raise CliError(f"characterization curve {path} holds "
                           f"{curve.config_id!r}, not {config.config_id!r}")
    return {config.config_id: loaded[config.config_id] for config in catalog}


def _context(args, path=None, loaded=None):
    """Seeded scenario, catalog, curves and line for ``path`` or --scenario;
    ``loaded`` is as in :func:`_load_curves`."""
    scenario = load_scenario(path or args.scenario)
    scenario = scenario.with_seed(_resolve_seed(args, scenario))
    try:
        catalog = resolve_catalog(args.catalog or scenario.catalog)
    except ScenarioError as exc:
        raise CliError(str(exc))
    curves = _load_curves(Path(args.curves), catalog,
                          {} if loaded is None else loaded)
    modems = {curve.snr_modem_db for curve in curves.values()}
    if len(modems) > 1:
        raise CliError("characterization curves mix different modem models")
    # the curves' modem, or the default one when the catalog is empty
    line = LineSystem(scenario.link, ModemModel(*modems))
    return scenario, catalog, curves, line


def cmd_characterize(args) -> int:
    try:
        catalog = resolve_catalog(args.catalog)
    except ScenarioError as exc:
        raise CliError(str(exc))
    try:
        modem = ModemModel(args.modem_snr_db)
    except ValueError as exc:
        raise CliError(f"--modem-snr-db: {exc}")
    check_range("--degree", args.degree, *FIT_DEGREE_RANGE, error=CliError)
    check_range("--grid-step-db", args.grid_step_db, *GRID_STEP_RANGE_DB,
                unit="dB", error=CliError)
    out = Path(args.out)
    for config in catalog:
        grid = default_gsnr_grid(config, args.grid_step_db)
        try:
            curve = characterize(modem, config, args.degree, grid)
        except (InsufficientDataError, FitRejectedError) as exc:
            print(f"characterization failed for {config.config_id}: {exc}",
                  file=sys.stderr)
            return EXIT_CONFIG
        write_report(out / f"{config.config_id}.json", curve_to_dict(curve))
    print(f"wrote {len(catalog)} characterization curves to {out}")
    return EXIT_OK


def cmd_probe(args) -> int:
    check_range("--theta-db", args.theta_db, error=CliError)
    scenario, catalog, curves, line = _context(args)
    report = run_probe_workflow(line, catalog, curves, scenario.policy,
                                args.theta_db)
    out = Path(args.out) / f"{scenario.link.name}-report.json"
    write_report(out, margin_report_to_dict(report, scenario.link.seed))
    print(f"{scenario.link.name}: GSNR {report.gsnr_est_link_db:.2f} dB, "
          f"cap {report.symbol_rate_cap_gbd:g} GBd, "
          f"best {report.best_config or 'none'}, "
          f"accuracy bound {report.accuracy_bound_db:.2f} dB "
          f"({report.accuracy_flag.value})")
    print(f"report written to {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario, catalog, curves, line = _context(args)
    if args.step_ghz is not None:
        scenario = replace(scenario, sweep_step_ghz=args.step_ghz)
    configs = catalog
    if args.configs is not None:
        wanted = [c.strip() for c in args.configs.split(",") if c.strip()]
        if not wanted:
            raise CliError(f"--configs selects no configuration: {args.configs!r}")
        repeated = sorted({w for w in wanted if wanted.count(w) > 1})
        if repeated:
            # each probe of a repeat is another transceiver reconfiguration
            raise CliError(f"--configs repeats {', '.join(repeated)}")
        by_id = {c.config_id: c for c in catalog}
        missing = [w for w in wanted if w not in by_id]
        if missing:
            raise CliError(f"unknown config ids {missing}; catalog has "
                           f"{sorted(by_id)}")
        configs = tuple(by_id[w] for w in wanted)
    profile = run_frequency_sweep(line, configs, curves,
                                  scenario.sweep_step_ghz, scenario.policy)
    if not profile.points:
        print("no configuration admits any carrier placement", file=sys.stderr)
        return EXIT_NO_SIGNAL
    misalignment, tilt_ripple = sweep_diagnostics(profile)
    out_dir = Path(args.out)
    csv_path = out_dir / f"{scenario.link.name}-profile.csv"
    write_report(csv_path, profile_to_csv(profile))
    write_report(out_dir / f"{scenario.link.name}-sweep-summary.json",
                 sweep_summary_to_dict(profile, scenario.link.seed,
                                       misalignment, tilt_ripple))
    if misalignment is not None and not misalignment[1]:
        print(f"{scenario.link.name}: center misalignment "
              f"{misalignment[0]:+.1f} GHz")
    for cid, (tilt, ripple) in sorted(tilt_ripple.items()):
        print(f"{scenario.link.name}: {cid} tilt {tilt:.2f} dB, "
              f"ripple {ripple:.2f} dB")
    print(f"profile written to {csv_path}")
    return EXIT_OK


def cmd_regime(args) -> int:
    if args.psd_ref is not None:
        check_range("--psd-ref", args.psd_ref, *POLICY_VALUE_RANGE, unit="dBm/GHz",
                    error=CliError)
    scenario, catalog, curves, line = _context(args)
    if not catalog:
        raise NoSignalError("the catalog holds no configuration")
    if args.rs_ref is not None:
        # below every catalog rate no configuration is tested, and a carrier
        # at a rate above the media-channel width never fits
        check_range("--rs-ref", args.rs_ref,
                    min(c.symbol_rate_gbd for c in catalog),
                    scenario.link.media_channel.width_ghz,
                    unit="GBd", error=CliError)
    psd_ref = (args.psd_ref if args.psd_ref is not None
               else scenario.policy.value)
    rs_ref = (args.rs_ref if args.rs_ref is not None
              else max(c.symbol_rate_gbd for c in catalog))
    report = detect_operation_regime(line, catalog, curves, psd_ref, rs_ref)
    if not report.entries:
        print("no configuration produced a regime classification",
              file=sys.stderr)
        return EXIT_NO_SIGNAL
    out = Path(args.out) / f"{scenario.link.name}-regime.json"
    write_report(out, regime_report_to_dict(report, scenario.link.seed))
    for cid, entry in sorted(report.entries.items()):
        delta = "n/a" if entry.delta_db is None else f"{entry.delta_db:+.2f} dB"
        print(f"{scenario.link.name}: {cid} {entry.classification.value} "
              f"(delta {delta}, recommended power change "
              f"{entry.recommended_power_delta_db:+.2f} dB)")
    print(f"regime report written to {out}")
    return EXIT_OK


def cmd_throughput(args) -> int:
    check_range("--theta-db", args.theta_db, error=CliError)
    loaded = {}
    contexts = [_context(args, path, loaded) for path in args.scenario]
    names = [scenario.link.name for scenario, *_ in contexts]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        # each probe of a repeat is another transceiver reconfiguration
        raise CliError(f"--scenario repeats route {', '.join(repeated)}")
    entries = []
    for scenario, catalog, curves, line in contexts:
        name = scenario.link.name
        try:
            rates = what_if_line_rates(line, catalog, curves, scenario.policy,
                                       args.theta_db)
        except NoSignalError as exc:
            entries.append(throughput_no_signal_entry(name, str(exc)))
            print(f"{name}: no signal: {exc}", file=sys.stderr)
            continue
        entry = throughput_entry(name, *rates)
        entries.append(entry)
        gain = entry["gain_percent"]
        print(f"{name}: achievable {rates[0]:g} Gbit/s, "
              f"potential {rates[1]:g} Gbit/s"
              + (f", gain {gain:.1f}%" if gain is not None else ""))
    if all("no_signal" in entry for entry in entries):
        return EXIT_NO_SIGNAL
    out = Path(args.out) / "throughput.json"
    write_report(out, throughput_to_dict(entries))
    print(f"note: {WHAT_IF_CAVEAT}")
    print(f"throughput report written to {out}")
    return EXIT_OK


def cmd_monitor(args) -> int:
    scenario, catalog, curves, line = _context(args)
    by_id = {c.config_id: c for c in catalog}
    if scenario.monitor_config_id not in by_id:
        raise CliError(f"monitor config {scenario.monitor_config_id!r} not in "
                       f"catalog")
    config = by_id[scenario.monitor_config_id]
    try:
        check_monitor_span(args.duration_h, args.interval_h)
    except ValueError as exc:
        raise CliError(f"--duration-h/--interval-h: {exc}")
    series = run_monitor(line, config, curves[config.config_id],
                         scenario.policy, args.duration_h, args.interval_h)
    ests = [v for _, v in series if v is not None]
    if not ests:
        print("monitored configuration never worked", file=sys.stderr)
        return EXIT_NO_SIGNAL
    upgrade = monitor_upgrade(catalog, config, max(ests))
    summary = monitor_summary_to_dict(series, scenario.link.seed, config,
                                      upgrade)
    out_dir = Path(args.out)
    csv_path = out_dir / f"{scenario.link.name}-monitor.csv"
    write_report(csv_path, monitor_series_to_csv(series))
    write_report(out_dir / f"{scenario.link.name}-monitor-summary.json", summary)
    print(f"{scenario.link.name}: swing {max(ests) - min(ests):.2f} dB over "
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

    def common(p, action="store"):
        p.add_argument("--scenario", action=action, required=True,
                       help="scenario JSON file")
        p.add_argument("--catalog", help="catalog name or JSON file "
                                         "(default: scenario's catalog)")
        p.add_argument("--curves", default="curves",
                       help="directory of characterization curve files")
        p.add_argument("--seed", type=int,
                       help="override the scenario seed")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")

    p = sub.add_parser("characterize", help="build characterization curves")
    p.add_argument("--catalog", default="default", help="catalog name or JSON file")
    p.add_argument("--modem-snr-db", type=float, default=26.0,
                   help="transceiver implementation noise SNR (default 26)")
    p.add_argument("--degree", type=int, default=DEFAULT_FIT_DEGREE)
    p.add_argument("--grid-step-db", type=float, default=GRID_STEP_DB)
    p.add_argument("--out", default="curves",
                   help="curve output directory (default: curves)")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("probe", help="extended symbol-rate-variable probing")
    common(p)
    p.add_argument("--theta-db", type=float, default=DEFAULT_CAP_THETA_DB,
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
    common(p, action="append")
    p.add_argument("--theta-db", type=float, default=DEFAULT_CAP_THETA_DB,
                   help="cap penalty threshold (default 2.0)")
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
    except OSError as exc:
        # every read converts its own OSError, so this one is a write's
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
