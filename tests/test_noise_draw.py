"""The per-probe noise draw: numpy's SeedSequence -> PCG64 ->
standard_normal stream, memoized once per process."""

import math
import os
import random
import subprocess
import sys
from dataclasses import fields, replace
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from osaas_probe import reports
from osaas_probe.catalog import resolve_catalog
from osaas_probe.cli import main
from osaas_probe.errors import LimitViolationError, NoSignalError, SpectrumError
from osaas_probe.linesystem import (
    DispersionComp,
    FilterElement,
    LineSystem,
    LinkSpec,
    SpanSpec,
    _standard_normal,
)
from osaas_probe.modem import ModemModel
from osaas_probe.probing import (
    run_frequency_sweep,
    run_monitor,
    run_probe_workflow,
    run_regime_workflow,
    sweep_diagnostics,
)
from osaas_probe.spectrum import MediaChannel, admissible_offsets_ghz

from conftest import (
    REPO_ROOT,
    SCENARIO_NAMES,
    cold_line,
    empty_linesystem_caches,
    shipped_scenario,
)

# Key parts around the 32- and 64-bit word boundaries, where a part splits
# into one more little-endian word.
EDGES = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 64 - 1, 2 ** 64,
         2 ** 64 + 1, 2 ** 96 + 12345)


def reference(key):
    return np.random.default_rng(np.random.SeedSequence(key)).standard_normal()


# The draw itself, past the memo: every call computes its value.
draw = _standard_normal.__wrapped__


def random_part(rng):
    if rng.random() < 0.3:
        return rng.choice(EDGES)
    return rng.getrandbits(rng.randint(1, 100))


def test_draw_matches_numpy_on_random_keys():
    """The draw, seeded from the key's words as one array, reads what
    numpy's stream seeded from the int tuple reads, on 20 000 keys."""
    rng = random.Random(20211)
    for _ in range(20_000):
        key = tuple(random_part(rng) for _ in range(5))
        assert draw(key) == reference(key), key


parts = st.one_of(st.sampled_from(EDGES), st.integers(0, 2 ** 100))


@settings(deadline=None, max_examples=200)
@given(st.lists(parts, min_size=1, max_size=7).map(tuple))
@example((0, 0, 0, 0, 0))
@example((2 ** 32 - 1, 2 ** 32, 2 ** 64 + 1, 0, 2 ** 64 - 1))
def test_draw_matches_numpy(key):
    assert draw(key) == reference(key)


@pytest.mark.parametrize("key", [(1, -1, 0, 0, 0), (-(2 ** 40),)])
def test_negative_key_part_raises_as_numpy_does(key):
    with pytest.raises(ValueError):
        reference(key)
    with pytest.raises(ValueError):
        _standard_normal(key)


def test_repeated_key_is_a_memo_hit():
    """A key drawn again is read back from the memo, with the same value
    the draw computes."""
    key = (7, 2 ** 32, 2 ** 20, 19_950, 3600)
    _standard_normal.cache_clear()
    first = _standard_normal(key)
    assert _standard_normal.cache_info()[:2] == (0, 1)  # hits, misses
    assert _standard_normal(key) == first == draw(key) == reference(key)
    assert _standard_normal.cache_info()[:2] == (1, 1)


def noisy_probes(name):
    """(scenario, probe arguments) over the scenario catalog, every
    admissible 12.5 GHz placement and two times of day."""
    sc = shipped_scenario(name)
    assert sc.link.noise_sigma_q_db > 0
    mc = sc.link.media_channel
    return sc, [(config, sc.policy, mc.center_thz + offset / 1000.0, hours)
                for config in resolve_catalog(sc.catalog)
                for offset in admissible_offsets_ghz(mc, config, 12.5)
                for hours in (0.0, 7.5)]


def test_interleaved_lines_read_as_fresh_lines():
    """Probe order and repetition never matter: two warm lines probed in
    turn, each with every probe twice in shuffled order, so that most
    probes are carrier memo hits, read what a fresh line reads for each
    probe alone with the draw memo emptied, so that every fresh reading is
    drawn anew."""
    rng = random.Random(20)
    routes = [noisy_probes(name) for name in ("B-485", "LH-5738")]
    lines = [cold_line(sc.link) for sc, _ in routes]
    orders = [rng.sample(probes * 2, 2 * len(probes)) for _, probes in routes]
    shared = [[], []]
    for pair in zip_longest(*orders):
        for i, args in enumerate(pair):
            if args is not None:
                shared[i].append(lines[i].probe(*args))
    for (sc, probes), line, order, readings in zip(routes, lines, orders,
                                                   shared):
        assert len(readings) == 2 * len(probes) > 40
        assert len({r.pre_fec_ber for r in readings}) > 1
        assert len(line._carriers) == len(probes) // 2  # two times each
        _standard_normal.cache_clear()
        fresh = {args: cold_line(sc.link).probe(*args) for args in probes}
        assert readings == [fresh[args] for args in order]


# A value within range for every field of a link, its media channel, spans
# and filters, and for the modem SNR.
FIELD_VALUES = {
    "name": st.text(max_size=4),
    "spans": st.lists(st.builds(SpanSpec, st.floats(0, 30), st.floats(3, 8),
                                st.floats(0, 0.01),
                                st.sampled_from(DispersionComp)),
                      max_size=4).map(tuple),
    "filters": st.lists(st.builds(FilterElement, st.floats(-60, 60),
                                  st.floats(10, 200), st.integers(1, 20)),
                        max_size=3).map(tuple),
    "equalizer_window_ghz": st.none() | st.floats(0.25, 400),
    "tilt_db_per_mc": st.floats(-5, 5),
    "ripple": st.lists(st.tuples(st.floats(-200, 200), st.floats(-1, 1)),
                       max_size=4).map(tuple),
    "filter_misalignment_ghz": st.floats(-60, 60),
    "diurnal_amplitude_db": st.floats(0, 3),
    "diurnal_period_h": st.floats(1, 48),
    "isi_factor": st.floats(0, 20),
    "seed": st.integers(0, 2 ** 64),
    "noise_sigma_q_db": st.floats(0, 1),
    "center_thz": st.floats(191, 196),
    "width_ghz": st.floats(37.5, 800),
    "max_total_power_dbm": st.floats(-10, 30),
    "max_psd_dbm_per_ghz": st.floats(-40, 0),
    "loss_db": st.floats(0, 50),
    "amp_noise_figure_db": st.floats(0, 20),
    "nli_coeff_per_mw2": st.floats(0, 0.2),
    "dispersion_comp": st.sampled_from(DispersionComp),
    "center_offset_ghz": st.floats(-60, 60),
    "bandwidth_3db_ghz": st.floats(10, 200),
    "order": st.integers(1, 20),
    "snr_modem_db": st.floats(10, 40) | st.just(math.inf),
}
# Where each field lives: the link itself, or one of its parts. A field
# added to one of these classes without a value above fails the property.
FIELD_OWNERS = {f.name: owner
                for owner, cls in (("link", LinkSpec),
                                   ("media_channel", MediaChannel),
                                   ("spans", SpanSpec),
                                   ("filters", FilterElement),
                                   ("modem", ModemModel))
                for f in fields(cls) if f.name != "media_channel"}


def edit_field(link, modem, field, index, value):
    """The link and modem with one field set to ``value``; ``index`` is the
    span or filter that holds it."""
    owner = FIELD_OWNERS[field]
    if owner == "link":
        return replace(link, **{field: value}), modem
    if owner == "media_channel":
        return replace(link, media_channel=replace(link.media_channel,
                                                   **{field: value})), modem
    if owner == "modem":
        return link, replace(modem, **{field: value})
    parts = list(getattr(link, owner))
    parts[index] = replace(parts[index], **{field: value})
    return replace(link, **{owner: tuple(parts)}), modem


def readings(line, probes):
    """The reading of each probe, or the error it raised: a carrier off the
    grid of a moved channel centre, outside the channel or over a limit."""
    out = []
    for args in probes:
        try:
            out.append(line.probe(*args))
        except (SpectrumError, LimitViolationError) as exc:
            out.append((type(exc), str(exc)))
    return out


@pytest.mark.parametrize("field", sorted(FIELD_OWNERS))
@settings(deadline=None, max_examples=5)
@given(data=st.data())
def test_changed_budget_reads_as_a_fresh_line(field, data):
    """Lines share the carrier memo of an equal budget, so a line that
    differs in one field from a line probed before it reads, probe for
    probe, what it reads alone with every cache emptied; so does the
    unchanged line probed after the changed one. Each field is a case of
    its own, so every run changes each of them."""
    sc = shipped_scenario(data.draw(st.sampled_from(SCENARIO_NAMES)))
    modem = ModemModel(26.0)
    owner = FIELD_OWNERS[field]
    parts = getattr(sc.link, owner) if owner in ("spans", "filters") else None
    assume(parts is None or parts)
    index = data.draw(st.integers(0, len(parts) - 1)) if parts else None
    value = data.draw(FIELD_VALUES[field])
    try:
        link, changed_modem = edit_field(sc.link, modem, field, index, value)
    except ValueError:
        assume(False)
    assume((link, changed_modem) != (sc.link, modem))
    mc = sc.link.media_channel
    candidates = [(config, sc.policy, mc.center_thz + offset / 1000.0, hours)
                  for config in resolve_catalog(sc.catalog)
                  for offset in admissible_offsets_ghz(mc, config, 12.5)
                  for hours in (0.0, 7.5)]
    # indices: sampled_from would hash every candidate on each draw
    probes = [candidates[i] for i in data.draw(st.lists(
        st.integers(0, len(candidates) - 1), min_size=1, max_size=4))]
    pair = ((sc.link, modem), (link, changed_modem))
    alone = []
    for budget in pair:
        empty_linesystem_caches()
        alone.append(readings(LineSystem(*budget), probes))
    for first, second in ((0, 1), (1, 0)):
        empty_linesystem_caches()
        readings(LineSystem(*pair[first]), probes)
        assert readings(LineSystem(*pair[second]), probes) == alone[second]
    if field == "seed" and sc.link.noise_sigma_q_db:
        # the seed leaves the shared memo, but each seed draws its own noise
        noisy = [i for i, r in enumerate(alone[0])
                 if getattr(r, "pre_fec_ber", 0.0) not in (0.0, 0.5)]
        assert all(alone[0][i] != alone[1][i] for i in noisy)


def test_lines_of_one_budget_share_the_carrier_memo(make_line):
    """Another seed of a route, and the filter-free copy of a route without
    filters, share the route's memo; the copy of a filtered route has a
    budget of its own."""
    assert make_line("B-485", seed=1)._carriers is make_line("B-485", seed=2)._carriers
    filterless = make_line("LH-1016")
    assert not filterless.effective_filters
    assert filterless.without_filters()._carriers is filterless._carriers
    filtered = make_line("B-485")
    assert filtered.without_filters()._carriers is not filtered._carriers


def run_workflow(workflow, line, sc, catalog, curves):
    """The report of one workflow, as the CLI would write it: the margin,
    regime, 6 h monitor or single-configuration sweep report."""
    seed = line.link.seed
    by_id = {c.config_id: c for c in catalog}
    if workflow == "probe":
        return reports.margin_report_to_dict(
            run_probe_workflow(line, catalog, curves, sc.policy), seed)
    if workflow == "regime":
        return reports.regime_report_to_dict(
            run_regime_workflow(line, catalog, curves, sc.policy), seed)
    config = by_id[sc.monitor_config_id]
    if workflow == "monitor":
        # run_monitor, not the monitor command's workflow: the series is read
        # on lines where no sample works too, where the command ends in exit 2
        series = run_monitor(line, config, curves[config.config_id], sc.policy,
                             6.0, 1.0)
        return {"csv": reports.monitor_series_to_csv(series)}
    try:
        profile, *diagnostics = sweep_diagnostics(line, (config,), curves,
                                                  sc.sweep_step_ghz, sc.policy)
    except NoSignalError as exc:
        # the sweep command's exit 2, where no point works: the profile is
        # read all the same, as the monitor series is
        profile = run_frequency_sweep(line, (config,), curves,
                                      sc.sweep_step_ghz, sc.policy)
        return {"csv": reports.profile_to_csv(profile), "no_signal": str(exc)}
    return {"csv": reports.profile_to_csv(profile),
            "summary": reports.sweep_summary_to_dict(profile, seed,
                                                     *diagnostics)}


WORKFLOWS = ("probe", "regime", "monitor", "sweep")


@settings(deadline=None, max_examples=50)
@given(name=st.sampled_from(SCENARIO_NAMES),
       seeds=st.lists(st.integers(0, 2 ** 32), min_size=2, max_size=2,
                      unique=True),
       order=st.permutations([(run, workflow) for run in range(2)
                              for workflow in WORKFLOWS]))
def test_workflow_order_never_matters(curves, name, seeds, order):
    """Whole workflows on two seeds of one route, interleaved in any order
    on one line per seed, report what each reports alone with every cache
    emptied."""
    sc = shipped_scenario(name)
    catalog = resolve_catalog(sc.catalog)
    empty_linesystem_caches()
    lines = [LineSystem(replace(sc.link, seed=seed)) for seed in seeds]
    together = {(run, workflow): run_workflow(workflow, lines[run], sc, catalog,
                                              curves)
                for run, workflow in order}
    for (run, workflow), report in together.items():
        empty_linesystem_caches()
        alone = LineSystem(replace(sc.link, seed=seeds[run]))
        assert run_workflow(workflow, alone, sc, catalog, curves) == report


def loaded_after(tmp_path, command, code=0):
    """The sorted names of the modules a fresh interpreter has loaded after
    the CLI ``command`` ended in exit ``code``: a command with --scenario runs
    on freshly characterized curves, and None only imports the CLI."""
    argv = list(command or ())
    if "--scenario" in argv:
        curves = tmp_path / "curves"
        assert main(["characterize", "--out", str(curves)]) == 0
        argv += ["--curves", str(curves), "--out", str(tmp_path / "out")]
    script = "import sys\nfrom osaas_probe.cli import main\n"
    if command is not None:
        script += ("try:\n"
                   f"    code = main({argv!r})\n"
                   "except SystemExit as exit:\n"
                   "    code = exit.code\n"
                   f"assert code == {code!r}, code\n")
    script += "print(*sorted(sys.modules))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return proc.stdout.splitlines()[-1].split()


def test_noiseless_monitor_does_not_import_numpy_random(tmp_path):
    """Only a noisy draw uses numpy.random, so a sigma = 0 line never
    loads it."""
    assert shipped_scenario("LH-3751-monitor-summer").link.noise_sigma_q_db == 0.0
    scenario = REPO_ROOT / "scenarios" / "LH-3751-monitor-summer.json"
    assert "numpy.random" not in loaded_after(
        tmp_path, ["monitor", "--scenario", str(scenario)])


def test_probe_does_not_import_numpy_polynomial(tmp_path):
    """The curve fit and its gates are plain Python, so no command loads
    numpy.polynomial; probe, which loads numpy for its penalty integrals,
    must not pull it in either."""
    scenario = REPO_ROOT / "scenarios" / "B-485.json"
    assert "numpy.polynomial" not in loaded_after(
        tmp_path, ["probe", "--scenario", str(scenario)])


def _scenario(name):
    return str(REPO_ROOT / "scenarios" / f"{name}.json")


@pytest.mark.parametrize("command, code", [
    (None, 0),
    (["--help"], 0),
    (["--version"], 0),
    (["characterize", "--out", "curves"], 0),
    (["monitor", "--scenario", _scenario("LH-3751-monitor-summer")], 0),
    (["characterize", "--degree", "13"], 3),
    (["throughput", "--scenario", _scenario("B-621"),
      "--scenario", _scenario("B-621")], 3),
    (["probe", "--scenario", "missing.json"], 4),
], ids=["import", "help", "version", "characterize", "monitor-LH-3751",
        "bad-degree", "repeated-route", "missing-scenario"])
def test_start_does_not_import_numpy(tmp_path, command, code):
    """Importing the CLI, --help, --version, input errors, characterize and
    a monitor of a noiseless line without filters or ripple never build an
    array, so they never load numpy."""
    assert "numpy" not in loaded_after(tmp_path, command, code)


def test_probe_loads_numpy(tmp_path):
    """B-485's filters need the penalty integral, which loads numpy."""
    assert "numpy" in loaded_after(tmp_path,
                                   ["probe", "--scenario", _scenario("B-485")])


def _package(*names):
    return sorted(["osaas_probe", "osaas_probe.cli", "osaas_probe.errors"]
                  + [f"osaas_probe.{name}" for name in names])


CHARACTERIZE_MODULES = _package("catalog", "modem", "reports", "spectrum",
                                "units")
EVERY_MODULE = sorted(["osaas_probe"] + [
    f"osaas_probe.{path.stem}"
    for path in (REPO_ROOT / "src" / "osaas_probe").glob("*.py")
    if path.stem != "__init__"])


@pytest.mark.parametrize("command, code, modules", [
    (None, 0, _package()),
    (["--help"], 0, _package()),
    (["--version"], 0, _package()),
    (["probe"], 3, _package()),
    (["characterize", "--out", "curves"], 0, CHARACTERIZE_MODULES),
    (["characterize", "--degree", "13"], 3, CHARACTERIZE_MODULES),
    (["probe", "--scenario", _scenario("B-485")], 0, EVERY_MODULE),
], ids=["import", "help", "version", "no-scenario", "characterize",
        "bad-degree", "probe-B-485"])
def test_command_loads_only_the_modules_it_runs(tmp_path, command, code,
                                               modules):
    """The CLI imports each package module where a command runs it: importing
    the CLI, --help, --version and an argument error load the CLI and its
    errors alone, and characterize adds only the catalog, the modem model and
    the report writer, without csv. A probe, the positive control, loads
    every package module."""
    loaded = loaded_after(tmp_path, command, code)
    assert [m for m in loaded if m.partition(".")[0] == "osaas_probe"] == modules
    if modules != EVERY_MODULE:
        assert "csv" not in loaded
