"""The three workloads and the closed-loop harness that times them.

Every workload is one client in one process, single-threaded: the next op
starts when the previous one has finished. Each op does the same unit of
work, so the median never sits between two op sizes. Outputs are checked
outside the timed op, against oracles that do not come from the code under
test (see ``oracle.py``) or against properties (determinism, cold equals
warm, probe-order independence).
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from osaas_probe import catalog, linesystem, modem, probing, reports, scenario, units
from osaas_probe.errors import InsufficientDataError
from osaas_probe.probing import ProbeStatus
from osaas_probe.spectrum import PolicyKind, PowerPolicy

import calibrate
import layers
import oracle

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
MODEM_SNR_DB = 26.0  # the characterize command's default unit
MONITOR_HOURS = 48
OUT_DIR = ".perfbench_out"


def _json_bytes(payload: dict) -> bytes:
    """Report bytes exactly as the CLI writes them."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _clear_caches() -> None:
    """Empty the simulator's memo caches, as a fresh CLI process has them."""
    for value in vars(linesystem).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


class Ledger:
    """Counts the probes a workflow issues, at the probe surface; when
    ``log`` is a list it also records each probe and its reading."""

    def __init__(self):
        self.count = 0
        self.log: list | None = None

    def wrap(self, line) -> "_Proxy":
        return _Proxy(line, self)


class _Proxy:
    """The bare probe surface of a line, as in acceptance criterion 14."""

    def __init__(self, line, ledger: Ledger):
        self._line = line
        self._ledger = ledger
        self.media_channel = line.media_channel
        self.name = line.name

    def probe(self, *args, **kwargs):
        self._ledger.count += 1
        reading = self._line.probe(*args, **kwargs)
        if self._ledger.log is not None:
            self._ledger.log.append((self._line, args, kwargs, reading))
        return reading

    def without_filters(self) -> "_Proxy":
        return _Proxy(self._line.without_filters(), self._ledger)


class Workload:
    """Set-up, op and checks of one workload; ``errors`` lists failed checks."""

    kernel = "interpreter"  # the calibration kernel that matches the ops

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.out = root / OUT_DIR / self.name
        self._rng = random.Random(seed)
        self._seeds: list[int] = []
        self.tracer: layers.Tracer | None = None
        self.errors: list[str] = []
        self.probes = 0
        self.bytes_written = 0
        self._err_sum = 0.0
        self._err_n = 0
        self._truths: dict = {}
        self.modem = modem.ModemModel(MODEM_SNR_DB)

    def seed_for(self, op: int) -> int:
        while len(self._seeds) <= op:
            self._seeds.append(self._rng.randrange(2 ** 31))
        return self._seeds[op]

    @contextmanager
    def scope(self, request: int | None):
        """Trace the enclosed calls as ``request`` when this run is traced."""
        if self.tracer is None or request is None:
            yield
            return
        self.tracer.request_id = request
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def truth(self, line, config, policy, center_thz, sim_time_h=0.0) -> float:
        """The simulator oracle, memoized. Seed and noise do not move it, so
        a line is identified by its name and filter cascade (the what-if
        copy is the only variant with another cascade)."""
        key = (line.link.name, line.link.filters, config.config_id, policy,
               center_thz, sim_time_h)
        if key not in self._truths:
            self._truths[key] = line.ground_truth_gsnr(config, policy, center_thz,
                                                       sim_time_h)
        return self._truths[key]

    def add_error(self, estimate: float, truth: float) -> None:
        self._err_sum += abs(estimate - truth)
        self._err_n += 1

    def gsnr_err_db(self) -> float:
        return self._err_sum / self._err_n if self._err_n else float("nan")

    def load_routes(self, names):
        routes = []
        for name in names:
            sc = scenario.load_scenario(self.root / "scenarios" / f"{name}.json")
            routes.append((sc, catalog.resolve_catalog(sc.catalog)))
        return routes

    def characterize_all(self) -> dict:
        return {cfg.config_id: modem.characterize(self.modem, cfg)
                for cfg in catalog.default_catalog()}

    def check_package_laws(self, curves: dict) -> None:
        """Q<->BER and the characterization curves against the analytic laws."""
        self.errors.extend(oracle.check_units(units))
        for curve in curves.values():
            self.errors.extend(oracle.check_curve(modem.curve_to_dict(curve)))

    def check_noiseless_sweeps(self, routes, curves, configs=None) -> list:
        """With sigma=0 every working sweep estimate must match the oracle
        within the round-trip tolerance; returns (scenario, profile) pairs."""
        profiles = []
        with self.scope(layers.CHECK_REQUEST):
            for sc, cat in routes:
                line = linesystem.LineSystem(
                    replace(sc.link, noise_sigma_q_db=0.0), self.modem)
                wanted = tuple(c for c in cat if configs is None
                               or c.config_id in configs)
                profiles.append((sc, line, probing.run_frequency_sweep(
                    line, wanted, curves, sc.sweep_step_ghz, sc.policy)))
        for sc, line, profile in profiles:
            for cid, points in profile.points.items():
                for center, value in points:
                    if value is None:
                        continue
                    truth = self.truth(line, profile.configs[cid], sc.policy, center)
                    self.check(abs(value - truth) <= oracle.ROUND_TRIP_DB,
                               f"{sc.link.name} noiseless {cid} at {center}: "
                               f"{value:.4f} vs oracle {truth:.4f}")
        return [(sc, profile) for sc, _, profile in profiles]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def check_regime(self, name, line, by_id, psd_ref, rs_ref, classes) -> None:
        """Regime classes against the oracle's policy difference."""
        psd = PowerPolicy(PolicyKind.CONSTANT_PSD, psd_ref)
        power = PowerPolicy(PolicyKind.CONSTANT_TOTAL_POWER,
                            psd_ref + 10.0 * math.log10(rs_ref))
        for cid, cls in classes.items():
            delta = (self.truth(line, by_id[cid], power, None)
                     - self.truth(line, by_id[cid], psd, None))
            self.check(oracle.regime_agrees(cls, delta),
                       f"{name} {cid} classified {cls}, oracle delta {delta:+.3f}")

    def amplitude(self, name: str) -> float:
        """Diurnal amplitude as the scenario file states it."""
        path = self.root / "scenarios" / f"{name}.json"
        return float(json.loads(path.read_text())["diurnal_amplitude_db"])


class InProcess(Workload):
    """A workload whose ops call the library in this process."""

    routes_named: tuple[str, ...] = ()

    def setup(self) -> None:
        _clear_caches()
        self.out.mkdir(parents=True, exist_ok=True)
        self.routes = self.load_routes(self.routes_named)
        self.curves = self.characterize_all()
        self.ledger = Ledger()
        # One untimed op finishes lazy initialisation before timing starts.
        self.run_op(self.seed_for(0) ^ 1)

    def op(self, index: int, traced: bool) -> None:
        before = self.ledger.count
        self.last = self.run_op(self.seed_for(index))
        self.last_probes = self.ledger.count - before

    def write(self, outputs: dict[str, bytes]) -> None:
        for name, data in outputs.items():
            (self.out / name).write_bytes(data)

    def after_op(self, index: int) -> None:
        outputs, results = self.last
        self.probes += self.last_probes
        self.bytes_written += sum(len(b) for b in outputs.values())
        self.check_results(results)
        if index == 0:
            self.first_outputs = outputs

    def final_checks(self, next_index: int) -> None:
        """Op 0 again (identical bytes), and the probes of one more op
        replayed in reverse order on fresh lines (identical readings)."""
        self.ledger.log = probe_log = []
        self.op(next_index, False)
        self.ledger.log = None
        with self.scope(layers.CHECK_REQUEST):
            rerun, _ = self.rerun_first()
            replay = {}
            mismatched = 0
            for line, args, kwargs, reading in reversed(probe_log):
                fresh = replay.setdefault(id(line), linesystem.LineSystem(
                    line.link, line.modem))
                mismatched += fresh.probe(*args, **kwargs) != reading
        self.check(rerun == self.first_outputs,
                   f"{self.cache_state} rerun of op 0 changed report bytes: "
                   + ", ".join(k for k in rerun
                               if rerun[k] != self.first_outputs.get(k)))
        self.check(mismatched == 0 and bool(probe_log),
                   f"{mismatched} of {len(probe_log)} probes read differently "
                   f"in reverse order")
        self.check_package_laws(self.curves)


class SweepCold(InProcess):
    """Frequency sweeps of the filtered regional routes, penalty cache empty
    before each op as in a fresh CLI process."""

    name = "sweep-cold"
    kernel = "vector"
    routes_named = ("A-241-sweep", "C-284-sweep", "B-621", "B-1302")
    cache_state = "warm"

    def before_op(self, index: int) -> None:
        _clear_caches()

    def run_op(self, seed: int):
        outputs, results = {}, []
        for sc, cat in self.routes:
            sc = sc.with_seed(seed)
            line = self.ledger.wrap(linesystem.LineSystem(sc.link, self.modem))
            profile = probing.run_frequency_sweep(line, cat, self.curves,
                                                  sc.sweep_step_ghz, sc.policy)
            try:
                misalignment = probing.detect_misalignment(profile)
            except InsufficientDataError:
                misalignment = None
            tilt_ripple = {}
            for cid in profile.points:
                try:
                    tilt_ripple[cid] = probing.profile_tilt_ripple(profile, cid)
                except InsufficientDataError:
                    continue
            name = sc.link.name
            outputs[f"{name}-profile.csv"] = reports.profile_to_csv(profile).encode()
            outputs[f"{name}-sweep-summary.json"] = _json_bytes(
                reports.sweep_summary_to_dict(profile, seed, misalignment,
                                              tilt_ripple))
            results.append((sc, profile))
        self.write(outputs)
        return outputs, results

    def check_results(self, results) -> None:
        for sc, profile in results:
            line = linesystem.LineSystem(sc.link, self.modem)
            for cid, points in profile.points.items():
                for center, value in points:
                    if value is not None:
                        self.add_error(value, self.truth(
                            line, profile.configs[cid], sc.policy, center))

    def rerun_first(self):
        return self.run_op(self.seed_for(0))  # cache holds every placement

    def final_checks(self, next_index: int) -> None:
        super().final_checks(next_index)
        for sc, profile in self.check_noiseless_sweeps(self.routes, self.curves):
            if sc.link.filter_misalignment_ghz:
                offset, indeterminate = probing.detect_misalignment(profile)
                want, tol = oracle.MISALIGNMENT_GHZ
                self.check(not indeterminate and abs(offset - want) <= tol,
                           f"{sc.link.name} misalignment {offset:+.2f} GHz")


class ProbeHot(InProcess):
    """Complete workflows with the penalty cache warm: extended probe plus
    verification, regime, filter-free what-if and a 48 h monitor per route."""

    name = "probe-hot"
    routes_named = ("B-485", "B-1302", "LH-1016", "LH-5738",
                    "LH-3751-monitor-summer")
    cache_state = "cold"

    def before_op(self, index: int) -> None:
        pass

    def run_op(self, seed: int):
        outputs, results = {}, []
        for sc, cat in self.routes:
            sc = sc.with_seed(seed)
            name = sc.link.name
            by_id = {c.config_id: c for c in cat}
            line = self.ledger.wrap(linesystem.LineSystem(sc.link, self.modem))
            margin = probing.run_probe_workflow(line, cat, self.curves, sc.policy)
            regime = probing.detect_operation_regime(
                line, cat, self.curves, sc.policy.value,
                max(c.symbol_rate_gbd for c in cat))
            what_if = probing.run_probe_workflow(line.without_filters(), cat,
                                                 self.curves, sc.policy)
            config = by_id[sc.monitor_config_id]
            series = [probing.probe_once(line, config, self.curves[config.config_id],
                                         sc.policy, None, float(h))
                      for h in range(MONITOR_HOURS + 1)]
            rates = [by_id[r.best_config].line_rate_gbps if r.best_config else 0.0
                     for r in (margin, what_if)]
            outputs[f"{name}-report.json"] = _json_bytes(
                reports.margin_report_to_dict(margin, seed))
            outputs[f"{name}-regime.json"] = _json_bytes(
                reports.regime_report_to_dict(regime, seed))
            outputs[f"{name}-throughput.json"] = _json_bytes(
                {"achievable_gbps": rates[0], "potential_gbps": rates[1]})
            outputs[f"{name}-monitor.csv"] = reports.monitor_series_to_csv(
                [(r.sim_time_h, r.gsnr_est_db) for r in series]).encode()
            results.append((sc, cat, margin, regime, what_if, series, rates))
        self.write(outputs)
        return outputs, results

    def check_results(self, results) -> None:
        for sc, cat, margin, regime, what_if, series, rates in results:
            name = sc.link.name
            by_id = {c.config_id: c for c in cat}
            base = linesystem.LineSystem(sc.link, self.modem)
            clean = base.without_filters()
            quiet = sc.link.noise_sigma_q_db == 0.0
            estimates = [(base, r) for r in margin.campaign.working()]
            estimates += [(clean, r) for r in what_if.campaign.working()]
            estimates += [(base, r) for r in series
                          if r.status is ProbeStatus.WORKING]
            for line, r in estimates:
                truth = self.truth(line, by_id[r.config_id], r.policy,
                                   r.carrier_center_thz, r.sim_time_h)
                self.add_error(r.gsnr_est_db, truth)
                if quiet:
                    self.check(abs(r.gsnr_est_db - truth) <= oracle.ROUND_TRIP_DB,
                               f"{name} noiseless {r.config_id}: "
                               f"{r.gsnr_est_db:.4f} vs {truth:.4f}")
            if name == "LH-1016":
                worst = max(abs(margin.gsnr_est_link_db - self.truth(
                    base, c, sc.policy, None)) for c in cat)
                self.check(worst <= oracle.WIDE_BAND_DB,
                           f"{name} link estimate off by {worst:.3f} dB")
            if sc.link.filters:
                self.check(margin.accuracy_bound_db <= oracle.NARROW_BAND_DB,
                           f"{name} accuracy bound {margin.accuracy_bound_db:.3f}")
            self.check(rates[1] >= rates[0], f"{name} what-if below achievable")
            self.check_regime(name, base, by_id, regime.psd_ref_dbm_per_ghz,
                              regime.rs_ref_gbd,
                              {cid: e.classification.value
                               for cid, e in regime.entries.items()})
            if quiet and sc.link.diurnal_amplitude_db:
                values = [r.gsnr_est_db for r in series
                          if r.status is ProbeStatus.WORKING]
                swing = max(values) - min(values)
                self.check(abs(swing - self.amplitude(name)) <= oracle.SWING_DB,
                           f"{name} monitor swing {swing:.3f} dB")

    def rerun_first(self):
        _clear_caches()
        return self.run_op(self.seed_for(0))


class CliQuickstart(Workload):
    """The six README quick-start commands, each in a fresh interpreter."""

    name = "cli-quickstart"
    kernel = "process"
    SWEEP_TRIO = "DP-QPSK-69.4,DP-P-16QAM-46.3,DP-16QAM-34.5"

    def setup(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        (self.out / "stats").mkdir(parents=True)
        self.env = child_env(self.root)
        op = f"{OUT_DIR}/{self.name}/op"
        tail = ["--curves", f"{op}/curves", "--out", f"{op}/out"]
        self.commands = [
            ("characterize", ["characterize", "--out", f"{op}/curves"]),
            ("probe", ["probe", "--scenario", "scenarios/B-485.json"] + tail),
            ("sweep", ["sweep", "--scenario", "scenarios/LH-1792.json"] + tail
             + ["--configs", self.SWEEP_TRIO]),
            ("regime", ["regime", "--scenario", "scenarios/LH-5738.json"] + tail),
            ("throughput", ["throughput", "--scenario", "scenarios/B-621.json",
                            "--scenario", "scenarios/B-1302.json"] + tail),
            ("monitor", ["monitor", "--scenario",
                         "scenarios/LH-3751-monitor-summer.json"] + tail
             + ["--duration-h", str(MONITOR_HOURS), "--interval-h", "1"]),
        ]
        self.summaries = []
        # A fresh interpreter importing the CLI brings its files into the
        # page cache, as any earlier command of a user would.
        subprocess.run([sys.executable, "-c", "import osaas_probe.cli"],
                       cwd=self.root, env=self.env, check=True)

    def before_op(self, index: int) -> None:
        shutil.rmtree(self.out / "op", ignore_errors=True)

    def op(self, index: int, traced: bool) -> None:
        child = str(Path(__file__).resolve().parent / "clichild.py")
        seed = ["--seed", str(self.seed_for(index))]
        for label, args in self.commands:
            stats = self.out / "stats" / f"{index}-{label}.json"
            proc = subprocess.run(
                [sys.executable, child, str(stats), "1" if traced else "0",
                 str(index)] + args + (seed if label != "characterize" else []),
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE)
            if proc.returncode:
                raise RuntimeError(f"{label} exited {proc.returncode}: "
                                   f"{proc.stderr.decode()[-800:]}")

    def after_op(self, index: int) -> None:
        for label, _ in self.commands:
            stats = json.loads((self.out / "stats" / f"{index}-{label}.json")
                               .read_text())
            self.probes += stats["probes"]
            if "summary" in stats:
                self.summaries.append(stats["summary"])
        outputs = self.read_outputs()
        self.bytes_written += sum(len(b) for b in outputs.values())
        if index == 0:
            self.first_outputs = outputs
        self.check_outputs(self.out / "op")

    def read_outputs(self) -> dict[str, bytes]:
        op_dir = self.out / "op"
        return {str(p.relative_to(op_dir)): p.read_bytes()
                for p in sorted(op_dir.rglob("*")) if p.is_file()}

    def check_outputs(self, op_dir: Path) -> None:
        out = op_dir / "out"
        curves = [json.loads(p.read_text())
                  for p in sorted((op_dir / "curves").glob("*.json"))]
        self.check(len(curves) == len(catalog.default_catalog()),
                   f"{len(curves)} curve files")
        for curve in curves:
            self.errors.extend(oracle.check_curve(curve))
        by_id = {c.config_id: c for c in catalog.default_catalog()}
        names = ("B-485", "LH-1792", "LH-5738", "LH-3751-monitor-summer")
        scenarios = {n: sc for n, (sc, _) in zip(names, self.load_routes(names))}
        lines = {n: linesystem.LineSystem(sc.link, self.modem)
                 for n, sc in scenarios.items()}

        report = json.loads((out / "B-485-report.json").read_text())
        self.check(report["accuracy_bound_db"] <= oracle.NARROW_BAND_DB,
                   f"B-485 accuracy bound {report['accuracy_bound_db']}")
        for r in report["evidence"]["results"]:
            if r["status"] == "working":
                policy = PowerPolicy(PolicyKind(r["policy"]["kind"]),
                                     r["policy"]["value"])
                self.add_error(r["gsnr_est_db"], self.truth(
                    lines["B-485"], by_id[r["config_id"]], policy,
                    r["carrier_center_thz"]))

        line = lines["LH-1792"]
        policy = scenarios["LH-1792"].policy
        mc = line.media_channel
        qpsk = []
        for row in (out / "LH-1792-profile.csv").read_text().splitlines()[1:]:
            freq, cid, value = row.split(",")
            if value == "OUTAGE":
                continue
            self.add_error(float(value), self.truth(line, by_id[cid], policy,
                                                    float(freq)))
            if cid == "DP-QPSK-69.4":
                qpsk.append(((float(freq) - mc.center_thz) * 1000.0, float(value)))
        summary = json.loads((out / "LH-1792-sweep-summary.json").read_text())
        reported = summary["tilt_ripple_db"]["DP-QPSK-69.4"]["tilt_db"]
        refit = oracle.tilt_db(qpsk, mc.width_ghz)
        self.check(abs(reported - refit) <= 0.01,
                   f"LH-1792 tilt {reported} vs refit of the CSV {refit:.4f}")

        regime = json.loads((out / "LH-5738-regime.json").read_text())
        self.check_regime("LH-5738", lines["LH-5738"], by_id,
                          regime["psd_ref_dbm_per_ghz"], regime["rs_ref_gbd"],
                          {cid: e["classification"]
                           for cid, e in regime["entries"].items()})

        for link in json.loads((out / "throughput.json").read_text())["links"]:
            gain = link["potential_gbps"] - link["achievable_gbps"]
            self.check(gain >= 0 and link["c_band_40ch_gain_gbps"]
                       == round(40.0 * gain, 3), f"throughput entry {link}")

        name = "LH-3751-monitor-summer"
        line = lines[name]
        policy = scenarios[name].policy
        values = []
        for row in (out / f"{name}-monitor.csv").read_text().splitlines()[1:]:
            t, value = row.split(",")
            self.check(value != "OUTAGE", f"{name} outage at {t} h")
            if value == "OUTAGE":
                continue
            truth = self.truth(line, by_id["DP-QPSK-69.4"], policy, None, float(t))
            self.add_error(float(value), truth)
            self.check(abs(float(value) - truth) <= oracle.ROUND_TRIP_DB,
                       f"{name} at {t} h: {value} vs oracle {truth:.4f}")
            values.append(float(value))
        swing = max(values) - min(values)
        self.check(abs(swing - self.amplitude(name)) <= oracle.SWING_DB,
                   f"{name} monitor swing {swing:.3f} dB")

    def final_checks(self, next_index: int) -> None:
        self.before_op(0)
        self.op(0, False)
        rerun = self.read_outputs()
        changed = [k for k in rerun | self.first_outputs
                   if rerun.get(k) != self.first_outputs.get(k)]
        self.check(not changed, f"rerun of op 0 changed {changed}")
        routes = self.load_routes(("LH-1792",))
        curves = self.characterize_all()
        self.check_package_laws(curves)
        trio = self.SWEEP_TRIO.split(",")
        (sc, profile), = self.check_noiseless_sweeps(routes, curves, trio)
        tilt, _ = probing.profile_tilt_ripple(profile, "DP-QPSK-69.4")
        want, tol = oracle.TILT_DB
        self.check(abs(tilt - want) <= tol, f"LH-1792 noiseless tilt {tilt:.3f}")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (CliQuickstart, SweepCold, ProbeHot)}


def import_times(root: Path) -> dict[str, float]:
    """Median import cost of the CLI, and of scipy and numpy within it."""
    samples = {"osaas_probe": [], "scipy": [], "numpy": []}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import osaas_probe.cli"],
            cwd=root, env=child_env(root), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, check=True)
        for prefix, values in samples.items():
            values.append(layers.parse_importtime(proc.stderr, prefix))
    return {k: statistics.median(v) for k, v in samples.items()}


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    wl = WORKLOADS[name](root, seed)
    wl.tracer = layers.Tracer() if trace else None
    calibration = calibrate.measure(wl.kernel)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        with wl.scope(layers.SETUP_REQUEST):
            wl.setup()
        elapsed = perf_counter() - start
        after = calibrate.measure(wl.kernel)
        setups.append(calibrate.scaled(wl.kernel, elapsed, calibration, after))
        calibration = after

    times: dict[bool, list[float]] = {False: [], True: []}
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while True:
        index = attempted
        attempted += 1
        traced = trace and index % 2 == 1
        try:
            wl.before_op(index)
            with wl.scope(index if traced else None):
                start = perf_counter()
                wl.op(index, traced)
                elapsed = perf_counter() - start
            after = calibrate.measure(wl.kernel)
            elapsed = calibrate.scaled(wl.kernel, elapsed, calibration, after)
            calibration = after
            wl.after_op(index)
            times[traced].append(elapsed)
        except Exception:
            traceback.print_exc()
            failed += 1
            calibration = calibrate.measure(wl.kernel)
        if perf_counter() >= deadline and (not trace or attempted >= 2):
            break
    peak_rss = wl.peak_rss_mb()
    ops = times[False] + times[True]
    if not ops or (trace and not (times[False] and times[True])):
        raise SystemExit(f"{name}: {failed} of {attempted} ops failed")

    wl.final_checks(attempted)
    if not trace:
        busy = sum(ops)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_ms_p50": (1e3 * statistics.median(ops), "ms"),
            "ops_per_s": (len(ops) / busy, "ops/s"),
            "probes_per_s": (wl.probes / busy, "probes/s"),
            "probes_per_op": (wl.probes / len(ops), "probes"),
            "gsnr_err_db": (wl.gsnr_err_db(), "dB"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        summaries = [wl.tracer.summary()] + getattr(wl, "summaries", [])
        overhead = 100.0 * (statistics.median(times[True])
                            / statistics.median(times[False]) - 1.0)
        metrics = layers.layer_metrics(
            layers.merge_summaries(summaries), len(times[True]),
            wl.bytes_written / len(ops), import_times(root), overhead)
        wl.tracer.write_tsv(wl.out / "spans.tsv")
    for message in wl.errors[:50]:
        print(f"check failed: {message}", file=sys.stderr)
    return {"correct": not wl.errors,
            "attempted": attempted, "failed": failed, "metrics": metrics}
