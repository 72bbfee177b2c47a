"""Runs one osaas-probe command in this interpreter, as ``osaas-probe ARGS``
would, and writes the number of probes it issued to a JSON file. Traced, it
also records layer spans, writes them next to the JSON file as TSV and adds
their summary to the JSON.

    python3 perfbench/clichild.py STATS.json TRACE(0|1) REQUEST ARGS...
"""

import json
import sys


def main() -> int:
    stats_path, trace, request = sys.argv[1], sys.argv[2] == "1", int(sys.argv[3])
    from osaas_probe import cli

    import layers

    counter = layers.ProbeCounter()
    counter.install()
    tracer = None
    if trace:
        tracer = layers.Tracer()
        tracer.request_id = request
        tracer.install()
    code = cli.main(sys.argv[4:])
    stats = {"probes": counter.count, "exit": code}
    if tracer is not None:
        stats["summary"] = tracer.summary()
        tracer.write_tsv(stats_path.removesuffix(".json") + ".tsv")
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
