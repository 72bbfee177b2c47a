"""Layer tracing and probe counting, applied from outside the package.

Each public function of interest is wrapped in every ``osaas_probe`` module
that holds a reference to it, so the wrapper sits exactly where its caller
looks the name up (``osaas_probe.probing.gsnr_from_q``,
``osaas_probe.cli.load_scenario``, ...). ``LineSystem.probe`` is wrapped on
the class. Nothing inside the package is edited.

A span is (name, request, parent, start, end, raised). Spans live in flat
arrays while the benchmark runs and are written out as TSV at the end; self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

from osaas_probe import linesystem, modem, probing, reports, scenario, units

# Requests below zero are not ops: set-up, and the checks after the loop.
SETUP_REQUEST = -1
CHECK_REQUEST = -2

ANALYTICS = (
    "compute_penalties", "detect_symbol_rate_cap", "estimate_link_gsnr",
    "estimate_spread_db", "compute_margins", "select_best_config",
    "detect_misalignment", "profile_tilt_ripple",
)
STRUCTURE = (
    "run_probe_workflow", "run_extended_probe", "verify_margin_accuracy",
    "run_frequency_sweep", "detect_operation_regime", "probe_once",
)
SERIALIZERS = (
    "margin_report_to_dict", "profile_to_csv", "sweep_summary_to_dict",
    "regime_report_to_dict", "monitor_series_to_csv",
)


def _targets():
    """(function, span name) for every wrapped module-level function."""
    pairs = [
        (units.q_db_from_ber, "units.q_from_ber"),
        (units.ber_from_q_db, "units.ber_from_q"),
        (modem.ber_from_snr, "modem.ber_from_snr"),
        (modem.gsnr_from_q, "modem.gsnr_from_q"),
        (modem.characterize, "modem.characterize"),
        (scenario.load_scenario, "scenario.load"),
    ]
    pairs += [(getattr(probing, n), "probing.analytics." + n) for n in ANALYTICS]
    pairs += [(getattr(probing, n), "probing." + n) for n in STRUCTURE]
    pairs += [(getattr(reports, n), "reports.serialize") for n in SERIALIZERS]
    return pairs


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "osaas_probe"
                                  or name.startswith("osaas_probe."))]


class Patches:
    """Attribute replacements that can be undone."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_everywhere(self, fn, wrapper):
        """Replace ``fn`` in every loaded package module that refers to it."""
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, attr, wrapper)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class ProbeCounter:
    """Counts calls of ``LineSystem.probe``; used where no proxy can be passed
    in, i.e. inside a CLI process."""

    def __init__(self):
        self.count = 0
        self._patches = Patches()

    def install(self):
        inner = linesystem.LineSystem.probe

        def probe(line, *args, **kwargs):
            self.count += 1
            return inner(line, *args, **kwargs)

        self._patches.set(linesystem.LineSystem, "probe", probe)

    def uninstall(self):
        self._patches.undo()


class Tracer:
    """In-memory span recorder for the wrapped layer functions."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.request = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.request_id = SETUP_REQUEST
        self._stack: list[int] = []
        self._patches = Patches()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name: str) -> int:
        index = len(self.start)
        self.name.append(self._name_id(name))
        self.request.append(self.request_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.raised.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int, raised: bool) -> None:
        self.end[index] = time.perf_counter()
        self.raised[index] = raised
        self._stack.pop()

    def _wrap(self, fn, name):
        """``name`` is the span name, or a function of the call's arguments
        that returns it."""
        def wrapper(*args, **kwargs):
            index = self._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(index, True)
                raise
            self._close(index, False)
            return result
        return wrapper

    def _wrap_penalty(self, fn):
        """Cold: the memo cache missed, so the integral ran. A line without
        a filter cascade has no integral to run and is counted apart."""
        cached = linesystem._penalty_cached
        cold = self._name_id("linesystem.penalty.cold")
        filterless = self._wrap(fn, "linesystem.penalty.filterless")

        def wrapper(filters, *args, **kwargs):
            if not filters:
                return filterless(filters, *args, **kwargs)
            misses = cached.cache_info().misses
            index = self._open("linesystem.penalty.warm")
            try:
                return fn(filters, *args, **kwargs)
            finally:
                if cached.cache_info().misses > misses:
                    self.name[index] = cold
                self._close(index, False)
        return wrapper

    @staticmethod
    def _probe_name(args) -> str:
        quiet = args[0].link.noise_sigma_q_db == 0.0
        return "linesystem.probe.sigma0" if quiet else "linesystem.probe.noisy"

    def install(self):
        for fn, name in _targets():
            self._patches.wrap_everywhere(fn, self._wrap(fn, name))
        penalty = linesystem.filtering_penalty_db
        self._patches.wrap_everywhere(penalty, self._wrap_penalty(penalty))
        self._patches.set(linesystem.LineSystem, "probe",
                          self._wrap(linesystem.LineSystem.probe, self._probe_name))

    def uninstall(self):
        self._patches.undo()

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, over all spans and over
        spans of ops (request >= 0); plus probes issued by verification."""
        n = len(self.start)
        out: dict = {"names": {}, "verify_probes": 0}
        if n == 0:
            return out
        name = np.frombuffer(self.name, dtype=np.int32)
        request = np.frombuffer(self.request, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        raised = np.frombuffer(self.raised, dtype=np.int8).astype(bool)
        duration = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent],
                               minlength=n)
        self_time = duration - children
        in_op = request >= 0
        k = len(self.names)

        def per_name(weights=None, mask=None):
            sel = np.ones(n, bool) if mask is None else mask
            w = None if weights is None else weights[sel]
            return np.bincount(name[sel], weights=w, minlength=k)

        calls, total, own = per_name(), per_name(duration), per_name(self_time)
        op_calls, op_total = per_name(mask=in_op), per_name(duration, in_op)
        op_raised = per_name(mask=in_op & raised)
        for i, label in enumerate(self.names):
            out["names"][label] = {
                "calls": int(calls[i]), "total_s": float(total[i]),
                "self_s": float(own[i]), "op_calls": int(op_calls[i]),
                "op_total_s": float(op_total[i]),
                "op_raised": int(op_raised[i]),
            }
        verify = self._ids.get("probing.verify_margin_accuracy")
        if verify is not None:
            probes = [self._ids[p] for p in ("linesystem.probe.sigma0",
                                             "linesystem.probe.noisy")
                      if p in self._ids]
            is_probe = np.isin(name, probes) & in_op & has_parent
            out["verify_probes"] = int(np.count_nonzero(
                name[parent[is_probe]] == verify))
        return out

    def write_tsv(self, path) -> None:
        """One line per span: request, name, parent index, start/end in us."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("request\tname\tparent\tstart_us\tend_us\traised\n")
            for i in range(len(self.start)):
                fh.write(f"{self.request[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.parent[i]}\t{(self.start[i] - t0) * 1e6:.3f}\t"
                         f"{(self.end[i] - t0) * 1e6:.3f}\t{self.raised[i]}\n")


def merge_summaries(parts: list[dict]) -> dict:
    merged: dict = {"names": {}, "verify_probes": 0}
    for part in parts:
        merged["verify_probes"] += part["verify_probes"]
        for label, stats in part["names"].items():
            into = merged["names"].setdefault(label, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                into[key] += value
    return merged


def parse_importtime(stderr: str, prefix: str) -> float:
    """Milliseconds spent importing modules under ``prefix``, counting each
    outermost such import once (``-X importtime`` prints children first)."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, label = line[len("import time:"):].split("|")
        depth = len(label) - len(label.lstrip(" "))
        rows.append((depth, label.strip(), int(cumulative)))
    total_us = 0
    inside = None
    for depth, label, cumulative in reversed(rows):  # pre-order
        if inside is not None and depth <= inside:
            inside = None
        if inside is None and (label == prefix
                               or label.startswith(prefix + ".")):
            total_us += cumulative
            inside = depth
    return total_us / 1000.0


def layer_metrics(summary: dict, ops: int, bytes_per_op: float,
                  imports: dict[str, float], overhead_pct: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from a merged summary."""
    names = summary["names"]

    def stat(label, key):
        return names.get(label, {}).get(key, 0)

    def per_call_us(label, key="total_s"):
        calls = stat(label, "calls")
        return 1e6 * stat(label, key) / calls if calls else 0.0

    def self_us(label):
        return per_call_us(label, "self_s")

    probe_labels = ("linesystem.probe.sigma0", "linesystem.probe.noisy")
    op_probes = sum(stat(p, "op_calls") for p in probe_labels)
    cold = stat("linesystem.penalty.cold", "op_calls")
    warm = stat("linesystem.penalty.warm", "op_calls")
    analytics_s = sum(s["op_total_s"] for label, s in names.items()
                      if label.startswith("probing.analytics."))
    inverted = (stat("modem.gsnr_from_q", "op_calls")
                - stat("modem.gsnr_from_q", "op_raised"))
    metrics = {
        "cli.import_ms": (imports["osaas_probe"], "ms"),
        "cli.import_scipy_ms": (imports["scipy"], "ms"),
        "cli.import_numpy_ms": (imports["numpy"], "ms"),
        "scenario.load_us": (per_call_us("scenario.load"), "us"),
        "reports.serialize_us": (per_call_us("reports.serialize"), "us"),
        "reports.bytes_written": (bytes_per_op, "bytes/op"),
        "modem.characterize_ms": (per_call_us("modem.characterize") / 1e3, "ms"),
        "linesystem.penalty_cold_us": (per_call_us("linesystem.penalty.cold"), "us"),
        "linesystem.penalty_warm_us": (per_call_us("linesystem.penalty.warm"), "us"),
        "linesystem.penalty_integrals": (cold / ops, "calls/op"),
        "linesystem.penalty_hit_ratio": (warm / (warm + cold) if warm + cold else 0.0,
                                         "ratio"),
        "linesystem.probe_self_us_sigma0": (self_us(probe_labels[0]), "us"),
        "linesystem.probe_self_us_noisy": (self_us(probe_labels[1]), "us"),
        "linesystem.probe_calls": (op_probes / ops, "calls/op"),
    }
    for label in ("units.q_from_ber", "units.ber_from_q", "modem.ber_from_snr",
                  "modem.gsnr_from_q"):
        metrics[label + "_us"] = (self_us(label), "us")
        metrics[label + "_calls"] = (stat(label, "op_calls") / ops, "calls/op")
    metrics["probing.analytics_us"] = (1e6 * analytics_s / ops, "us/op")
    metrics["probing.verify_probes"] = (summary["verify_probes"] / ops, "probes/op")
    metrics["probing.working_ratio"] = (inverted / op_probes if op_probes else 0.0,
                                        "ratio")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
