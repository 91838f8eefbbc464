"""Closed-loop end-to-end benchmark of the C-JDBC reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload point_mix_remote --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``point_mix_remote``, ``hot_read_local``,
``update_fanout_local`` or ``all``.  Each workload boots a fresh cluster
several times to time set-up, then runs two closed-loop client threads for
``--seconds`` and checks the backends' final state against the clients'
acknowledged writes.  The human-readable report comes first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run measures half the time
untraced and half traced, and reports the per-layer metrics plus the
tracing overhead.  The command exits non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import sys
import threading
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import (  # noqa: E402
    CLIENTS,
    Client,
    Inputs,
    LocalCluster,
    RemoteCluster,
    Spec,
    controller_stats,
    stats_delta,
)

#: set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: a run that has not finished by then stops with a non-zero exit
WATCHDOG_SECONDS = 170
#: percentiles printed: the median, p99, and while p99 has fewer than ten
#: samples beyond it, the next lower tail down to the first that has ten
TAILS = (0.5, 0.99, 0.95, 0.9, 0.75)
#: throughput and mean latency are middle-half means over slices this long
BUCKET_S = 2.0
#: latency histogram bins are powers of this ratio (1% resolution)
RESOLUTION = 1.01
_LOG_RESOLUTION = math.log(RESOLUTION)


class Environment:
    """One booted, loaded and warmed cluster plus its connected clients."""

    def __init__(self, spec: Spec, inputs: Inputs, tag: str):
        self.spec = spec
        self.cluster = RemoteCluster(spec, tag) if spec.remote else LocalCluster(spec, tag)
        self.clients: List[Client] = []
        try:
            self._load(inputs)
            for index in range(CLIENTS):
                self.clients.append(Client(spec, inputs, index, self.cluster.connect()))
        except BaseException:
            self.stop()
            raise

    def _load(self, inputs: Inputs) -> None:
        admin = self.cluster.connect()
        try:
            admin.execute(workloads.KV_SCHEMA)
            insert = admin.prepare("INSERT INTO kv (k, v) VALUES (?, ?)")
            for key, value in inputs.initial.items():
                insert.add_batch((key, value))
            insert.execute_batch()
            for key in inputs.hot:
                admin.execute(workloads.READ_SQL, (key,)).fetchone()
            if inputs.audit:
                admin.execute(workloads.AUDIT_SCHEMA)
                insert = admin.prepare("INSERT INTO audit (id, note) VALUES (?, ?)")
                for key, value in inputs.audit.items():
                    insert.add_batch((key, value))
                insert.execute_batch()
                for key in inputs.audit:
                    admin.execute(workloads.AUDIT_READ_SQL, (key,)).fetchone()
        finally:
            admin.close()

    def stop(self) -> dict:
        for client in self.clients:
            client.close()
        return self.cluster.stop()


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Window:
    """Latency histograms and per-slice totals of one measured window.

    Memory stays constant however many operations run, so the benchmark's
    own bookkeeping never shows in ``peak_rss_mb`` of the process that
    hosts an in-process controller.
    """

    def __init__(self):
        #: is_write -> latency bin -> operations; failures go to bin ``inf``
        self.histograms: Dict[bool, Dict[float, int]] = {False: {}, True: {}}
        #: per ``BUCKET_S`` slice: [attempted, completed, summed latency]
        self.slices: List[list] = []
        self.failed = 0
        self.errors: List[str] = []
        self.seconds = 0.0

    def record(self, is_write: bool, latency: float, done: float) -> None:
        index = int(done // BUCKET_S)
        while len(self.slices) <= index:
            self.slices.append([0, 0, 0.0])
        slice_ = self.slices[index]
        slice_[0] += 1
        slice_[2] += latency
        if latency == math.inf:
            key = math.inf
        else:
            slice_[1] += 1
            key = math.floor(math.log(max(latency, 1e-9)) / _LOG_RESOLUTION)
        histogram = self.histograms[is_write]
        histogram[key] = histogram.get(key, 0) + 1

    def add(self, other: "Window") -> None:
        for is_write, histogram in other.histograms.items():
            mine = self.histograms[is_write]
            for key, count in histogram.items():
                mine[key] = mine.get(key, 0) + count
        for index, (attempted, completed, latency) in enumerate(other.slices):
            if index == len(self.slices):
                self.slices.append([0, 0, 0.0])
            slice_ = self.slices[index]
            slice_[0] += attempted
            slice_[1] += completed
            slice_[2] += latency
        self.failed += other.failed
        self.errors.extend(other.errors)
        self.seconds = max(self.seconds, other.seconds)

    def histogram(self, kind: Optional[bool] = None) -> Dict[float, int]:
        """Latency histogram of reads (False), writes (True) or both (None)."""
        if kind is not None:
            return self.histograms[kind]
        merged = dict(self.histograms[False])
        for key, count in self.histograms[True].items():
            merged[key] = merged.get(key, 0) + count
        return merged

    @property
    def attempted(self) -> int:
        return sum(self.histogram().values())

    def whole_slices(self) -> List[list]:
        """The slices that ended inside the window (never the partial last one)."""
        whole = max(1, int(self.seconds // BUCKET_S))
        return self.slices[:whole] + [[0, 0, 0.0]] * (whole - len(self.slices))

    @property
    def ops_per_s(self) -> float:
        """Completed operations per second: middle-half mean over the slices."""
        return middle_mean([completed / BUCKET_S for _, completed, _ in self.whole_slices()])

    @property
    def mean_latency(self) -> float:
        """Mean latency in seconds: middle-half mean over the slices' means."""
        return middle_mean(
            [
                latency / attempted if attempted else math.inf
                for attempted, _, latency in self.whole_slices()
            ]
        )


def percentile(histogram: Dict[float, int], fraction: float) -> float:
    """Nearest-rank percentile of a latency histogram (bin midpoint, seconds)."""
    rank = max(1, math.ceil(fraction * sum(histogram.values())))
    seen = 0
    for key in sorted(histogram):
        seen += histogram[key]
        if seen >= rank:
            return math.inf if key == math.inf else RESOLUTION ** (key + 0.5)
    raise ValueError("empty histogram")


def middle_mean(values: List[float]) -> float:
    """Mean of the middle half of ``values``: steady against a few slow slices."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    middle = ordered[quarter : len(ordered) - quarter]
    return sum(middle) / len(middle)


def drive(clients: List[Client], seconds: float, tracer=None) -> Window:
    """Run every client closed-loop for ``seconds``; failures time as infinite."""
    window = Window()
    lock = threading.Lock()
    barrier = threading.Barrier(len(clients) + 1)
    started = [0.0]

    def worker(client: Client) -> None:
        mine = Window()
        barrier.wait()
        origin = started[0]
        deadline = origin + seconds
        while True:
            is_write, parameters = client.next_op()
            root = tracer.begin_op("write" if is_write else "read", "driver.op") if tracer else None
            t0 = time.perf_counter()
            try:
                outcome = client.execute(is_write, parameters)
                now = time.perf_counter()
                latency = now - t0
            except Exception as exc:  # noqa: BLE001 - counted and reported
                now = time.perf_counter()
                latency = math.inf
                mine.failed += 1
                if len(mine.errors) < 5:
                    mine.errors.append(f"{type(exc).__name__}: {exc}")
            if root is not None:
                tracer.end(root)
            mine.record(is_write, latency, now - origin)
            if latency != math.inf:
                client.acknowledge(is_write, parameters, outcome)
            if now >= deadline:
                break
        mine.seconds = now - origin
        with lock:
            window.add(mine)

    threads = [threading.Thread(target=worker, args=(client,), daemon=True) for client in clients]
    for thread in threads:
        thread.start()
    started[0] = time.perf_counter()
    barrier.wait()
    for thread in threads:
        thread.join()
    return window


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(spec: Spec, seed: int, seconds: float, trace: bool) -> dict:
    inputs = Inputs(spec, seed)
    setup_times: List[float] = []
    env: Optional[Environment] = None
    for attempt in range(SETUPS):
        t0 = time.perf_counter()
        env = Environment(spec, inputs, tag=f"{spec.name}-{seed}-{attempt}")
        setup_times.append(time.perf_counter() - t0)
        if attempt < SETUPS - 1:
            env.stop()
    assert env is not None
    report: dict = {"setup_s": median(setup_times)}
    try:
        if trace:
            report.update(traced_windows(env, seconds))
        else:
            report["window"] = drive(env.clients, seconds)
        if not spec.remote:
            report["digests"] = env.cluster.digests()
    finally:
        server = env.stop()
    if spec.remote:
        report["digests"] = server["digests"]
    report["peak_rss_mb"] = server["peak_rss_mb"] if spec.remote else peak_rss_mb()
    problems = [m for client in env.clients for m in client.mismatches]
    report["model"] = workloads.replay(inputs.initial, env.clients)
    problems += workloads.check_replicas(report["model"], report["digests"])
    if trace:
        report["controller_trace"] = server["trace"] if spec.remote else report["client_trace"]
        report["controller_stats"] = server["stats"] if spec.remote else report.pop("stats")
    report["problems"] = problems
    return report


def traced_windows(env: Environment, seconds: float) -> dict:
    """Half the time untraced, then half traced on the same cluster."""
    import spans

    untraced = drive(env.clients, seconds / 2)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        if env.spec.remote:
            env.cluster.command("trace", "tracing")
        else:
            before = controller_stats(env.cluster.request_manager)
        traced = drive(env.clients, seconds / 2, tracer)
    finally:
        uninstall()
    report = {"window": traced, "untraced": untraced, "client_trace": tracer.dump()}
    if not env.spec.remote:
        report["stats"] = stats_delta(before, controller_stats(env.cluster.request_manager))
    return report


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(spec: Spec, report: dict) -> Dict[str, tuple]:
    """name -> (value, unit, note) of every end-to-end metric of a run."""
    window: Window = report["window"]
    slices = len(window.whole_slices())
    completed = window.attempted - window.failed
    metrics: Dict[str, tuple] = {
        "setup_s": (report["setup_s"], "s", f"median of {SETUPS} set-ups"),
        "ops_per_s": (
            window.ops_per_s,
            "ops/s",
            f"middle half of {slices} {BUCKET_S:g}-s slices;"
            f" {completed} ops in {window.seconds:.2f} s",
        ),
        "op_mean_ms": (
            window.mean_latency * 1e3,
            "ms",
            f"middle half of {slices} slice means, n={window.attempted}",
        ),
    }
    for label, kind in (("op", None), ("read", False), ("write", True)):
        histogram = window.histogram(kind)
        count = sum(histogram.values())
        if not count:
            continue
        for fraction in TAILS:
            beyond = count - math.ceil(fraction * count)
            metrics[f"{label}_p{round(fraction * 100)}_ms"] = (
                percentile(histogram, fraction) * 1e3,
                "ms",
                f"n={count}, {beyond} beyond",
            )
            if fraction != 0.5 and beyond >= 10:
                break
    metrics["error_rate"] = (
        window.failed / window.attempted,
        "ratio",
        f"{window.failed} of {window.attempted} failed",
    )
    metrics["peak_rss_mb"] = (
        report["peak_rss_mb"],
        "MB",
        "server process" if spec.remote else "benchmark process",
    )
    return metrics


#: end-to-end metrics printed in the JSON line (present on every workload)
GATED = ("setup_s", "ops_per_s", "op_mean_ms", "peak_rss_mb")


def per(value: float, count: float) -> float:
    return value / count if count else 0.0


def _round_trip_s(client, controller, kind=None) -> float:
    """Mean client remote call minus mean controller-side execution."""
    return per(client.incl_s("net.call", kind), client.ops(kind)) - per(
        controller.incl_s("pipeline.handle", kind), controller.ops(kind)
    )


def per_layer(spec: Spec, report: dict) -> Dict[str, tuple]:
    """name -> (value, unit) of every per-layer metric of a traced run."""
    from spans import Totals

    client = Totals(report["client_trace"])
    controller = Totals(report["controller_trace"])
    stats = report["controller_stats"]

    def ms_per(seconds: float, count: float) -> float:
        return per(seconds, count) * 1e3

    ops, reads, writes = client.ops(), client.ops("read"), client.ops("write")
    c_ops, c_reads, c_writes = controller.ops(), controller.ops("read"), controller.ops("write")
    codec = sum(client.incl_s(name) for name in ("net.encode", "net.decode"))
    if spec.remote:
        codec += sum(controller.incl_s(name, orphans=True) for name in ("net.encode", "net.decode"))

    def frames(kind=None) -> float:
        return client.count("net.send", kind) + client.count("net.recv", kind)

    untraced: Window = report["untraced"]
    traced: Window = report["window"]
    return {
        "driver.self_ms_per_op": (ms_per(client.self_s("driver"), ops), "ms"),
        "net.round_trip_ms_per_op": (
            _round_trip_s(client, controller) * 1e3 if spec.remote else 0.0,
            "ms",
        ),
        "net.codec_ms_per_op": (ms_per(codec, ops), "ms"),
        "net.frames_per_op": (per(frames(), ops), "count"),
        "net.frames_per_read": (per(frames("read"), reads), "count"),
        "net.frames_per_write": (per(frames("write"), writes), "count"),
        "net.bytes_per_op": (per(client.a("net.send") + client.a("net.recv"), ops), "bytes"),
        "pipeline.self_ms_per_op": (ms_per(controller.self_s("pipeline"), c_ops), "ms"),
        "requestparser.ms_per_op": (ms_per(controller.self_s("requestparser"), c_ops), "ms"),
        "requestparser.cache_hit_ratio": (
            per(stats["parsing_hits"], stats["parsing_hits"] + stats["parsing_misses"]),
            "ratio",
        ),
        "scheduler.read_wait_ms_per_read": (
            ms_per(controller.incl_s("scheduler.read"), c_reads),
            "ms",
        ),
        "scheduler.write_wait_ms_per_write": (
            ms_per(controller.incl_s("scheduler.write"), c_writes),
            "ms",
        ),
        "cache.hit_ratio": (
            per(stats["cache_hits"], stats["cache_hits"] + stats["cache_misses"]),
            "ratio",
        ),
        "cache.get_ms_per_read": (ms_per(controller.incl_s("cache.get"), c_reads), "ms"),
        "cache.invalidate_ms_per_write": (
            ms_per(controller.incl_s("cache.invalidate"), c_writes),
            "ms",
        ),
        "cache.invalidated_per_write": (per(controller.a("cache.invalidate"), c_writes), "count"),
        "recovery.log_ms_per_write": (ms_per(controller.incl_s("recovery.log"), c_writes), "ms"),
        "planner.plan_ms_per_op": (ms_per(controller.incl_s("planner.plan"), c_ops), "ms"),
        "loadbalancer.self_ms_per_read": (
            ms_per(controller.self_s("loadbalancer.read"), c_reads),
            "ms",
        ),
        "loadbalancer.self_ms_per_write": (
            ms_per(controller.self_s("loadbalancer.write"), c_writes),
            "ms",
        ),
        "loadbalancer.backends_per_write": (
            per(controller.a("loadbalancer.write"), c_writes),
            "count",
        ),
        "backend.self_ms_per_call": (
            ms_per(controller.self_s("backend"), controller.count("backend")),
            "ms",
        ),
        "sql.parses_per_op": (per(controller.count("sql.parse"), c_ops), "count"),
        "sql.parse_ms_per_op": (ms_per(controller.incl_s("sql.parse"), c_ops), "ms"),
        "sql.exec_ms_per_op": (ms_per(controller.incl_s("sql.exec"), c_ops), "ms"),
        "sql.rows_examined_per_row_returned": (
            per(controller.a("sql.exec"), controller.b("sql.exec")),
            "ratio",
        ),
        "trace.untraced_ops_per_s": (untraced.ops_per_s, "ops/s"),
        "trace.traced_ops_per_s": (traced.ops_per_s, "ops/s"),
        "trace.ops_ratio": (per(traced.ops_per_s, untraced.ops_per_s), "ratio"),
    }


#: layers in request-path order, for the per-kind breakdown in the report
LAYERS = (
    "pipeline",
    "requestparser",
    "scheduler",
    "cache",
    "recovery",
    "planner",
    "loadbalancer",
    "backend",
    "sql",
)


def layer_breakdown(spec: Spec, report: dict) -> List[str]:
    """Mean self time per layer and operation kind, in ms, for the report."""
    from spans import Totals

    client = Totals(report["client_trace"])
    controller = Totals(report["controller_trace"])
    lines = []
    for kind in ("read", "write"):
        ops, c_ops = client.ops(kind), controller.ops(kind)
        if not ops:
            continue
        shares = {"driver": client.self_s("driver", kind) / ops}
        if spec.remote:
            shares["net(round trip)"] = _round_trip_s(client, controller, kind)
        for layer in LAYERS:
            shares[layer] = per(controller.self_s(layer, kind), c_ops)
        total = sum(shares.values())
        parts = ", ".join(f"{layer} {value * 1e3:.3f}" for layer, value in shares.items())
        lines.append(f"  {kind} self ms (sum {total * 1e3:.3f}): {parts}")
    return lines


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool, out=sys.stdout) -> dict:
    spec = workloads.SPECS[name]
    report = run(spec, seed, seconds, trace)
    window: Window = report["window"]
    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}", file=out)
    print(f"  why: {spec.why}", file=out)
    e2e = end_to_end(spec, report)
    for metric, (value, unit, note) in e2e.items():
        print(f"  {metric} {value:.6g} {unit} ({note})", file=out)
    if trace:
        chosen = per_layer(spec, report)
        for metric, (value, unit) in chosen.items():
            print(f"  {metric} {value:.6g} {unit}", file=out)
        for line in layer_breakdown(spec, report):
            print(line, file=out)
    else:
        chosen = {metric: e2e[metric][:2] for metric in GATED}
    metrics = {metric: {"value": value, "unit": unit} for metric, (value, unit) in chosen.items()}
    for error in window.errors:
        print(f"  error: {error}", file=out)
    for problem in report["problems"][:20]:
        print(f"  check failed: {problem}", file=out)
    correct = not report["problems"] and window.failed == 0
    print(f"  checks: {'ok' if correct else 'FAILED'}", file=out, flush=True)
    return {
        "correct": correct,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.SPECS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src" / "repro" / "__init__.py"
    if not source.is_file():
        print(f"error: no program source at {source.parent}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    def watchdog(signum, frame):
        raise TimeoutError(f"run exceeded {WATCHDOG_SECONDS} s")

    signal.signal(signal.SIGALRM, watchdog)
    names = list(workloads.SPECS) if args.workload == "all" else [args.workload]
    signal.alarm(WATCHDOG_SECONDS * len(names))
    results = [run_one(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    signal.alarm(0)
    for result in results:
        print(json.dumps(result))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
