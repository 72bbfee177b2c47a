"""Command-line front end.

Each command loads its context, calls one library function (``sweep``
first passes --configs to probing.select_configs), writes the reports and
prints its summary lines: ``characterize`` calls modem.characterize_catalog,
each probing command the workflow the probing module names for it, which
needs a curve for each configuration it probes: the context reads the curve
files of the catalog that exist. Every failure is an exception, which main
turns into its exit code.

Every command is deterministic for a fixed scenario file and seed. Exit
codes: 0 success, 2 no usable signal, 3 configuration error (an
unwritable output included), 4 invalid scenario file. A failure prints one
stderr line, and every check runs before the first report is written;
every exit-2 line is ``no signal: <reason>``, throughput's naming each route.

Each command imports the package modules it runs when it runs, so importing
the CLI, ``--help``, ``--version`` and an argument error load ``errors``
alone, and ``characterize`` loads no line model.
"""

import argparse
import sys
from pathlib import Path

from . import __version__
from .errors import (
    ConfigError,
    FitRejectedError,
    NoSignalError,
    ScenarioError,
    check_range,
)

EXIT_OK = 0
EXIT_NO_SIGNAL = 2
EXIT_CONFIG = 3
EXIT_SCENARIO = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _load_curves(curves_dir: Path, catalog, loaded: dict) -> dict:
    """The curve of each catalog configuration whose file exists. ``loaded``
    holds the curves this command has read so far, so each file is read and
    gated once."""
    from .modem import load_curve

    for config in catalog:
        path = curves_dir / f"{config.config_id}.json"
        if config.config_id in loaded or not path.exists():
            continue
        curve = loaded[config.config_id] = load_curve(path)
        if curve.config_id != config.config_id:
            raise ConfigError(f"characterization curve {path} holds "
                              f"{curve.config_id!r}, not {config.config_id!r}")
    return {config.config_id: loaded[config.config_id] for config in catalog
            if config.config_id in loaded}


def _context(args, path=None, loaded=None):
    """Seeded scenario, catalog, curves and line for ``path`` or --scenario;
    ``loaded`` is as in :func:`_load_curves`."""
    from .catalog import resolve_catalog
    from .linesystem import LineSystem
    from .modem import ModemModel
    from .scenario import load_scenario

    scenario = load_scenario(path or args.scenario)
    if args.seed is not None:
        scenario = scenario.with_seed(
            check_range("--seed", args.seed, 0, error=ConfigError))
    catalog = resolve_catalog(args.catalog or scenario.catalog)
    curves = _load_curves(Path(args.curves), catalog,
                          {} if loaded is None else loaded)
    modems = {curve.snr_modem_db for curve in curves.values()}
    if len(modems) > 1:
        raise ConfigError("characterization curves mix different modem models")
    # the curves' modem, or the default one when the catalog is empty
    line = LineSystem(scenario.link, ModemModel(*modems))
    return scenario, catalog, curves, line


def cmd_characterize(args):
    from .catalog import resolve_catalog
    from .modem import characterize_catalog, curve_to_dict
    from .reports import write_report

    curves = characterize_catalog(resolve_catalog(args.catalog), args.modem_snr_db,
                                  args.degree, args.grid_step_db)
    out = Path(args.out)
    for curve in curves:
        write_report(out / f"{curve.config_id}.json", curve_to_dict(curve))
    print(f"wrote {len(curves)} characterization curves to {out}")


def cmd_probe(args):
    from .probing import run_probe_workflow
    from .reports import margin_report_to_dict, write_report

    scenario, catalog, curves, line = _context(args)
    report = run_probe_workflow(line, catalog, curves, scenario.policy, args.theta_db)
    out = Path(args.out) / f"{scenario.link.name}-report.json"
    write_report(out, margin_report_to_dict(report, scenario.link.seed))
    print(f"{scenario.link.name}: GSNR {report.gsnr_est_link_db:.2f} dB, "
          f"cap {report.symbol_rate_cap_gbd:g} GBd, "
          f"best {report.best_config or 'none'}, "
          f"accuracy bound {report.accuracy_bound_db:.2f} dB "
          f"({report.accuracy_flag.value})")
    print(f"report written to {out}")


def cmd_sweep(args):
    from dataclasses import replace

    from .probing import select_configs, sweep_diagnostics
    from .reports import profile_to_csv, sweep_summary_to_dict, write_report

    scenario, catalog, curves, line = _context(args)
    if args.step_ghz is not None:
        scenario = replace(scenario, sweep_step_ghz=args.step_ghz)
    configs = catalog if args.configs is None else select_configs(
        catalog, [c.strip() for c in args.configs.split(",") if c.strip()],
        "--configs")
    profile, misalignment, tilt_ripple = sweep_diagnostics(
        line, configs, curves, scenario.sweep_step_ghz, scenario.policy)
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


def cmd_regime(args):
    from .probing import run_regime_workflow
    from .reports import regime_report_to_dict, write_report

    scenario, catalog, curves, line = _context(args)
    report = run_regime_workflow(line, catalog, curves, scenario.policy,
                                 args.psd_ref, args.rs_ref)
    out = Path(args.out) / f"{scenario.link.name}-regime.json"
    write_report(out, regime_report_to_dict(report, scenario.link.seed))
    for cid, entry in sorted(report.entries.items()):
        delta = "n/a" if entry.delta_db is None else f"{entry.delta_db:+.2f} dB"
        print(f"{scenario.link.name}: {cid} {entry.classification.value} "
              f"(delta {delta}, recommended power change "
              f"{entry.recommended_power_delta_db:+.2f} dB)")
    print(f"regime report written to {out}")


def cmd_throughput(args):
    from .probing import run_throughput_workflow
    from .reports import WHAT_IF_CAVEAT, throughput_to_dict, write_report

    loaded = {}
    routes = [(line, catalog, curves, scenario.policy)
              for scenario, catalog, curves, line
              in (_context(args, path, loaded) for path in args.scenario)]
    report = throughput_to_dict(run_throughput_workflow(routes, args.theta_db))
    for entry in report["links"]:
        name = entry["scenario"]
        if "no_signal" in entry:
            print(f"{name}: no signal: {entry['no_signal']}", file=sys.stderr)
            continue
        gain = entry["gain_percent"]
        print(f"{name}: achievable {entry['achievable_gbps']:g} Gbit/s, "
              f"potential {entry['potential_gbps']:g} Gbit/s"
              + (f", gain {gain:.1f}%" if gain is not None else ""))
    out = Path(args.out) / "throughput.json"
    write_report(out, report)
    print(f"note: {WHAT_IF_CAVEAT}")
    print(f"throughput report written to {out}")


def cmd_monitor(args):
    from .probing import run_monitor_workflow
    from .reports import (monitor_series_to_csv, monitor_summary_to_dict,
                          write_report)

    scenario, catalog, curves, line = _context(args)
    config, series, upgrade = run_monitor_workflow(
        line, catalog, curves, scenario.policy, scenario.monitor_config_id,
        args.duration_h, args.interval_h)
    summary = monitor_summary_to_dict(series, scenario.link.seed, config,
                                      upgrade)
    out_dir = Path(args.out)
    csv_path = out_dir / f"{scenario.link.name}-monitor.csv"
    write_report(csv_path, monitor_series_to_csv(series))
    write_report(out_dir / f"{scenario.link.name}-monitor-summary.json", summary)
    print(f"{scenario.link.name}: swing {summary['peak_to_peak_db']:.2f} dB "
          f"over {args.duration_h:g} h")
    if upgrade is not None:
        gain = summary["upgrade"]["c_band_capacity_gain_gbps"]
        print(f"upgrade available at peak: {upgrade.config_id} "
              f"({config.slot_width_ghz:g} -> {upgrade.slot_width_ghz:g} GHz "
              f"per carrier, +{gain:g} Gbit/s over C-band)")
    print(f"series written to {csv_path}")


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

    theta_db = dict(type=float, help="penalty threshold of the symbol rate "
                                     "cap, any finite dB value (default 2.0)")

    p = sub.add_parser("characterize", help="build characterization curves")
    p.add_argument("--catalog", default="default", help="catalog name or JSON file")
    p.add_argument("--modem-snr-db", type=float, default=26.0,
                   help="transceiver implementation noise SNR (default 26)")
    # an omitted --degree, --grid-step-db or --theta-db is None, and the
    # library workflow the command calls takes its default and checks it
    p.add_argument("--degree", type=int,
                   help="degree of each curve's polynomial fit, an integer "
                        "in [1, 12] (default 3)")
    p.add_argument("--grid-step-db", type=float,
                   help="GSNR step of the noise-loading grid, in [0.01, 15] "
                        "dB (default 0.5)")
    p.add_argument("--out", default="curves",
                   help="curve output directory (default: curves)")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("probe", help="extended symbol-rate-variable probing")
    common(p)
    p.add_argument("--theta-db", **theta_db)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("sweep", help="frequency sweep across the slot")
    common(p)
    p.add_argument("--step-ghz", type=float, help="override sweep step")
    p.add_argument("--configs", help="comma-separated config ids to sweep")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("regime", help="operation regime detection")
    common(p)
    p.add_argument("--psd-ref", type=float,
                   help="reference PSD in dBm/GHz (default: the scenario "
                        "policy's PSD; under a constant total power, that of "
                        "a carrier at --rs-ref with that power)")
    p.add_argument("--rs-ref", type=float,
                   help="reference symbol rate in GBd (default: catalog max)")
    p.set_defaults(func=cmd_regime)

    p = sub.add_parser("throughput", help="achievable vs potential line rate")
    common(p, action="append")
    p.add_argument("--theta-db", **theta_db)
    p.set_defaults(func=cmd_throughput)

    p = sub.add_parser("monitor", help="repeated probing over simulated time")
    common(p)
    p.add_argument("--duration-h", type=float, default=48.0,
                   help="monitored span, in [0, inf) h (default %(default)g)")
    p.add_argument("--interval-h", type=float, default=1.0,
                   help="time between samples, in (0, inf) h or inf for one "
                        "sample; at most 100000 samples (default %(default)g)")
    p.set_defaults(func=cmd_monitor)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return EXIT_OK
    except (ConfigError, FitRejectedError) as exc:
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
