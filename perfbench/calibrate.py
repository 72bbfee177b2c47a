"""Host-speed calibration for the timed regions.

On a shared host the CPU speed drifts over tens of seconds: one process
running a fixed probe-hot op saw its 4 s window medians move from 54 to
82 ms while its CPU time stayed within 2 % of wall time, so timing CPU time
does not help. A fixed unit of work, timed between ops on the same CPU,
moves with that drift; every timed interval is scaled by the kernel's
reference time over the mean of the calibrations taken just before and just
after it. Reported times are therefore wall times at the speed the host had
when the kernel took its reference time.

Interpreter-bound code, vector-bound code and process start-up do not slow
down alike. Over 5 s windows, a cold sweep (mostly numpy work on 1601-point
arrays) took 64-72 times the vector kernel but 94-134 times the interpreter
kernel, and a fresh interpreter importing the CLI took 6.2-6.7 times a bare
interpreter start while its ratio to either in-process kernel moved 9 % or
more. So each workload names the kernel that matches the work its ops do. The kernels belong to the
benchmark, so no change to the program moves them.
"""

from __future__ import annotations

import math
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

REFERENCE_S = {"interpreter": 0.005, "vector": 0.008, "process": 0.08}
_COEFFICIENTS = (0.1, 0.9, 0.01, -0.0003)
_GRID = np.linspace(-40.0, 40.0, 1601)


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


def _interpreter() -> float:
    """Objects, dicts and calls; float math; numpy scalar dispatch."""
    acc = 0.0
    table = {}
    for i in range(2000):
        point = _Point(i * 0.5, math.sin(i))
        table[(i % 97, i & 7)] = point
        acc += point.norm() + len(str(i))
    for i in range(6000):
        x = math.sqrt(i + 1.0)
        acc += math.log10(x) + math.erfc(x / 100.0)
    for i in range(300):
        acc += float(np.polynomial.polynomial.polyval(5.0 + i * 0.01,
                                                      _COEFFICIENTS))
    return acc


def _vector() -> float:
    """Super-Gaussian transfers integrated over a 1601-point grid."""
    acc = 0.0
    for i in range(60):
        transfer = np.exp(-math.log(2.0) * (_GRID / (30.0 + i)) ** 10)
        acc += float(np.trapezoid(transfer, _GRID))
    return acc


def _process() -> None:
    """A fresh interpreter that imports a few standard-library modules."""
    subprocess.run([sys.executable, "-c", "import argparse, csv, dataclasses, json"],
                   check=True)


KERNELS = {"interpreter": _interpreter, "vector": _vector, "process": _process}


def measure(kind: str) -> float:
    """Seconds one calibration kernel of ``kind`` takes now."""
    kernel = KERNELS[kind]
    start = perf_counter()
    kernel()
    return perf_counter() - start


def scaled(kind: str, elapsed: float, before: float, after: float) -> float:
    """``elapsed`` at reference speed, given calibrations around it."""
    return elapsed * REFERENCE_S[kind] / (0.5 * (before + after))
