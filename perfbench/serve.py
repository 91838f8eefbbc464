"""Server launcher for the ``point_mix_remote`` workload.

Boots a cluster descriptor through ``repro.load_cluster`` and
``start_servers`` (ephemeral port in the descriptor) and prints
``listening``, ``url <cjdbc://host:port/db>`` and ``ready`` lines the way
``repro serve`` does.  It then reads commands from standard input:

* ``trace`` installs the same span wrappers the benchmark uses, snapshots
  the cache statistics, and answers ``tracing``;
* ``stop`` (or end of input) prints one ``result <json>`` line — the
  ``table_digests`` of every backend, the process's peak RSS and, after
  ``trace``, the folded spans and the cache statistics since — then shuts
  the cluster down and exits.

Run as ``python3 perfbench/serve.py --descriptor '<json>'`` from a checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description="serve one benchmark cluster over TCP")
    parser.add_argument("--descriptor", required=True, help="cluster descriptor as JSON")
    args = parser.parse_args()

    import repro
    from repro.bench.chaos import table_digests

    from workloads import controller_stats, stats_delta

    cluster = repro.load_cluster(json.loads(args.descriptor))
    try:
        for name, (host, port) in cluster.start_servers().items():
            print(f"listening {name} {host} {port}")
        (vdb_name,) = cluster.virtual_database_names
        request_manager = cluster.virtual_database(vdb_name).request_manager
        print(f"url {cluster.remote_url(vdb_name)}")
        print("ready", flush=True)

        tracer = uninstall = before = None
        for line in sys.stdin:
            word = line.strip()
            if word == "trace" and tracer is None:
                import spans

                tracer = spans.Tracer(orphan_roots=("net.send", "net.recv"))
                uninstall = spans.install(tracer, server=True)
                before = controller_stats(request_manager)
                print("tracing", flush=True)
            elif word == "stop":
                break
        if uninstall is not None:
            uninstall()
        report = {
            "digests": {name: table_digests(engine) for name, engine in cluster.engines.items()},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if tracer is not None:
            report["trace"] = tracer.dump()
            report["stats"] = stats_delta(before, controller_stats(request_manager))
    finally:
        cluster.shutdown()
    print("result " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
