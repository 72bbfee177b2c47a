"""The per-probe noise draw: numpy's SeedSequence -> PCG64 ->
standard_normal stream, memoized once per process."""

import os
import random
import subprocess
import sys
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from osaas_probe.catalog import resolve_catalog
from osaas_probe.cli import main
from osaas_probe.linesystem import LineSystem, _standard_normal
from osaas_probe.spectrum import admissible_offsets_ghz

from conftest import REPO_ROOT, shipped_scenario

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
    lines = [LineSystem(sc.link) for sc, _ in routes]
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
        fresh = {args: LineSystem(sc.link).probe(*args) for args in probes}
        assert readings == [fresh[args] for args in order]


def loaded_after(tmp_path, command, module):
    """Whether a fresh interpreter has ``module`` loaded after running the
    CLI ``command`` on freshly characterized curves."""
    curves = tmp_path / "curves"
    assert main(["characterize", "--out", str(curves)]) == 0
    argv = command + ["--curves", str(curves), "--out", str(tmp_path)]
    code = ("import sys\n"
            "from osaas_probe.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            f"print({module!r} in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return proc.stdout.splitlines()[-1] == "True"


def test_noiseless_monitor_does_not_import_numpy_random(tmp_path):
    """Only a noisy draw uses numpy.random, so a sigma = 0 line never
    loads it."""
    assert shipped_scenario("LH-3751-monitor-summer").link.noise_sigma_q_db == 0.0
    scenario = REPO_ROOT / "scenarios" / "LH-3751-monitor-summer.json"
    assert not loaded_after(tmp_path, ["monitor", "--scenario", str(scenario)],
                            "numpy.random")


def test_probe_does_not_import_numpy_polynomial(tmp_path):
    """Loading curves checks their monotonicity with numpy.polyval, so only
    characterize, which fits, loads numpy.polynomial."""
    scenario = REPO_ROOT / "scenarios" / "B-485.json"
    assert not loaded_after(tmp_path, ["probe", "--scenario", str(scenario)],
                            "numpy.polynomial")
