"""Byte-level pin of the README quick-start outputs at a fixed seed.

Runs the six quick-start commands in-process at ``--seed 123``, plus a
6.25 GHz sweep of C-284-sweep, and compares the SHA-256 of every file they
write against ``golden_digests.json``. An intended change of output bytes
updates that file with the digests the failure message prints.
"""

import hashlib
import json
from pathlib import Path

from osaas_probe.cli import main

from conftest import REPO_ROOT

GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
SEED = ["--seed", "123"]


def _scenario(name):
    return ["--scenario", str(REPO_ROOT / "scenarios" / f"{name}.json")]


def test_quickstart_output_digests(tmp_path):
    curves, out = tmp_path / "curves", tmp_path / "out"
    tail = ["--curves", str(curves), "--out", str(out)] + SEED
    commands = [
        ["characterize", "--out", str(curves)],
        ["probe"] + _scenario("B-485") + tail,
        ["sweep"] + _scenario("LH-1792") + tail
        + ["--configs", "DP-QPSK-69.4,DP-P-16QAM-46.3,DP-16QAM-34.5"],
        ["regime"] + _scenario("LH-5738") + tail,
        ["throughput"] + _scenario("B-621") + _scenario("B-1302") + tail,
        ["monitor"] + _scenario("LH-3751-monitor-summer") + tail
        + ["--duration-h", "48", "--interval-h", "1"],
        ["sweep"] + _scenario("C-284-sweep") + tail + ["--step-ghz", "6.25"],
    ]
    for args in commands:
        assert main(args) == 0, args
    actual = {
        path.relative_to(tmp_path).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*")) if path.is_file()
    }
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert actual == expected, (
        "quick-start output bytes changed; actual digests:\n"
        + json.dumps(actual, indent=2, sort_keys=True))
