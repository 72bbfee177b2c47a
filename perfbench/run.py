"""osaas-probe benchmark: one workload per run, printed as one JSON line.

    python3 perfbench/run.py --workload {cli-quickstart,sweep-cold,probe-hot} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is taken from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last line of standard output is the result object.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported; child
# processes inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("cli-quickstart", "sweep-cold", "probe-hot")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    package = ROOT / "src" / "osaas_probe"
    if not (package / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"no osaas-probe source tree (src/osaas_probe, scenarios/) "
              f"under {ROOT}", file=sys.stderr)
        return 2
    # One CPU for this process and the CLI processes it starts, so that the
    # calibration between ops runs where the ops run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
