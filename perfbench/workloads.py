"""The benchmark's three closed-loop workloads.

Every workload boots a fresh cluster from a descriptor (RAIDb-1, optimistic
scheduler, ``wait_for_completion: all``, in-memory recovery log, a
table-granular result cache), loads ``kv(k INT PRIMARY KEY, v INT)`` and
then drives it with two client threads, each with its own connection and
no think time.  The seed only picks the data and the statements' parameters;
the program sees nothing but the generated statements.

* ``point_mix_remote`` — ``cjdbc://host:port`` over TCP to a controller in a
  separate process (``serve.py``); 90% point reads over every key, 10%
  order-sensitive updates of the client's own keys.
* ``hot_read_local`` — in-process driver; point reads over 200 hot keys, all
  cached during set-up, so every timed request is a result-cache hit.
* ``update_fanout_local`` — in-process driver, 8 backends; only updates of
  the client's own keys, against a cache that holds 200 entries of another
  table, so each write runs invalidation without emptying it.

Writes are ``UPDATE kv SET v = ? - v WHERE k = ?`` on keys the client owns
(``k % clients == client``): the operation is order-sensitive, and each
key's final value follows from its owner's acknowledged writes in order.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent

CLIENTS = 2
KEYS = 1000
HOT_KEYS = 200
AUDIT_ROWS = 200
USER = "bench"
PASSWORD = "bench"
DATABASE = "benchdb"

READ_SQL = "SELECT v FROM kv WHERE k = ?"
WRITE_SQL = "UPDATE kv SET v = ? - v WHERE k = ?"
AUDIT_READ_SQL = "SELECT note FROM audit WHERE id = ?"
KV_SCHEMA = "CREATE TABLE kv (k INT PRIMARY KEY, v INT)"
AUDIT_SCHEMA = "CREATE TABLE audit (id INT PRIMARY KEY, note INT)"


class Spec:
    """What one workload varies: transport, fan-out, read share and key set."""

    def __init__(
        self,
        name: str,
        why: str,
        remote: bool,
        backends: int,
        read_share: float,
        hot_keys: int = 0,
        audit: bool = False,
    ):
        self.name = name
        self.why = why
        self.remote = remote
        self.backends = backends
        self.read_share = read_share
        self.hot_keys = hot_keys
        self.audit = audit

    @property
    def has_writes(self) -> bool:
        return self.read_share < 1


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "point_mix_remote",
            "90/10 point read/update mix over TCP to a controller process: wire"
            " protocol, cache invalidated by every write, engine point reads",
            remote=True,
            backends=2,
            read_share=0.9,
        ),
        Spec(
            "hot_read_local",
            "in-process point reads over 200 cached keys: driver, pipeline,"
            " parsing cache and result-cache hits, no socket and no engine",
            remote=False,
            backends=2,
            read_share=1.0,
            hot_keys=HOT_KEYS,
        ),
        Spec(
            "update_fanout_local",
            "in-process updates broadcast to 8 backends: scheduler order,"
            " recovery log, invalidation, fan-out and 8 engine parses per write",
            remote=False,
            backends=8,
            read_share=0.0,
            audit=True,
        ),
    )
}


def descriptor(spec: Spec, tag: str) -> dict:
    """The cluster descriptor of one set-up; ``tag`` keeps names unique."""
    controller = {"name": f"ctrl-{tag}"}
    if spec.remote:
        controller["listen"] = {"host": "127.0.0.1", "port": 0}
    return {
        "name": f"perfbench-{tag}",
        "virtual_databases": [
            {
                "name": DATABASE,
                "replication": "raidb1",
                "scheduler": "optimistic",
                "wait_for_completion": "all",
                "recovery_log": "memory",
                "cache": {"enabled": True, "granularity": "table"},
                "users": {USER: PASSWORD},
                "backends": [
                    {"name": f"b{index}", "engine": f"{tag}-b{index}"}
                    for index in range(spec.backends)
                ],
            }
        ],
        "controllers": [controller],
    }


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------


class Inputs:
    """Everything the seed decides: initial values, hot keys, client streams."""

    def __init__(self, spec: Spec, seed: int):
        data = random.Random(f"{seed}:data")
        self.initial: Dict[int, int] = {k: data.randint(0, 999) for k in range(KEYS)}
        self.hot = sorted(data.sample(range(KEYS), spec.hot_keys)) if spec.hot_keys else []
        self.audit = {i: data.randint(0, 999) for i in range(AUDIT_ROWS)} if spec.audit else {}
        self.seed = seed

    def client_rng(self, index: int) -> random.Random:
        return random.Random(f"{self.seed}:client{index}")


class Client:
    """One closed-loop client: its connection, statement stream and model.

    ``next_op`` draws the next statement from the client's seeded stream,
    ``execute`` is the timed call into the driver, and ``acknowledge``
    checks a read and folds an acknowledged write into the client's model
    of its own keys (untimed).
    """

    def __init__(self, spec: Spec, inputs: Inputs, index: int, connection):
        self.spec = spec
        self.index = index
        self.connection = connection
        self.rng = inputs.client_rng(index)
        self.read_keys = inputs.hot or list(range(KEYS))
        self.own_keys = [k for k in range(KEYS) if k % CLIENTS == index]
        #: value of every key this client owns after its acknowledged writes,
        #: applied in order as they are acknowledged (read-your-writes)
        self.model = {k: inputs.initial[k] for k in self.own_keys}
        self.initial = inputs.initial
        self.mismatches: List[str] = []
        if spec.remote:
            # JDBC-style prepared statements: one server-side handle each
            self.reader = connection.prepare(READ_SQL)
            self.writer = connection.prepare(WRITE_SQL)
            self.execute = self._execute_prepared
        else:
            self.cursor = connection.cursor()
            self.execute = self._execute_statement

    def next_op(self) -> Tuple[bool, Tuple[int, ...]]:
        """(is_write, parameters) of the next statement in the stream."""
        rng = self.rng
        if rng.random() < self.spec.read_share:
            return False, (rng.choice(self.read_keys),)
        return True, (rng.randint(0, 999), rng.choice(self.own_keys))

    def _execute_prepared(self, is_write: bool, parameters):
        if is_write:
            return self.writer.execute(parameters).rowcount
        return self.reader.execute(parameters).fetchone()

    def _execute_statement(self, is_write: bool, parameters):
        cursor = self.cursor
        if is_write:
            return cursor.execute(WRITE_SQL, parameters).rowcount
        return cursor.execute(READ_SQL, parameters).fetchone()

    def acknowledge(self, is_write: bool, parameters, outcome) -> None:
        if is_write:
            value, key = parameters
            if outcome != 1:
                self.mismatches.append(f"update of k={key} changed {outcome} rows")
                return
            self.model[key] = value - self.model[key]
            return
        (key,) = parameters
        expected: Optional[int] = None
        if key in self.model:
            expected = self.model[key]  # own key: read-your-writes under `all`
        elif not self.spec.has_writes:
            expected = self.initial[key]  # read-only workload: loaded value
        if expected is not None and (outcome is None or outcome[0] != expected):
            got = None if outcome is None else outcome[0]
            self.mismatches.append(f"client {self.index} read k={key}: {got}, expected {expected}")

    def close(self) -> None:
        try:
            self.connection.close()
        except Exception:  # noqa: BLE001 - closing after a failed run
            pass


def replay(initial: Dict[int, int], clients: Sequence[Client]) -> Dict[int, int]:
    """Final value of every key: the owner's model, else the loaded value.

    Keys are partitioned between clients, so each key's final value is the
    one its owner derived from its own acknowledged writes, in order.
    """
    model = dict(initial)
    for client in clients:
        model.update(client.model)
    return model


def model_digest(model: Dict[int, int]) -> str:
    """The digest ``table_digests`` gives a ``kv`` table holding ``model``."""
    from repro.bench.chaos import table_digests
    from repro.sql.engine import DatabaseEngine

    engine = DatabaseEngine("model")
    engine.execute(KV_SCHEMA)
    for key in sorted(model):
        engine.execute("INSERT INTO kv (k, v) VALUES (?, ?)", (key, model[key]))
    return table_digests(engine)["kv"]


def check_replicas(
    model: Dict[int, int], digests: Dict[str, Dict[str, str]]
) -> List[str]:
    """Problems with the backends' final state (empty = all correct).

    ``digests`` maps backend -> table -> digest (``table_digests``).  Every
    backend's ``kv`` must equal the replayed model and every table must be
    digest-identical across backends.
    """
    problems: List[str] = []
    expected = model_digest(model)
    names = sorted(digests)
    for name in names:
        if digests[name].get("kv") != expected:
            problems.append(f"backend {name}: kv differs from the replayed model")
    for name in names[1:]:
        if digests[name] != digests[names[0]]:
            problems.append(f"backend {name} diverged from backend {names[0]}")
    return problems


def controller_stats(request_manager) -> Dict[str, int]:
    cache = request_manager.result_cache.statistics
    parsing = request_manager.request_factory.parsing_cache.statistics
    return {
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "parsing_hits": parsing.hits,
        "parsing_misses": parsing.misses,
    }


def stats_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before[key] for key in after}


# ---------------------------------------------------------------------------
# clusters: in-process, or a server process for the remote workload
# ---------------------------------------------------------------------------


class LocalCluster:
    """A cluster booted inside the benchmark process."""

    def __init__(self, spec: Spec, tag: str):
        import repro

        self.cluster = repro.load_cluster(descriptor(spec, tag))
        self.url = f"cjdbc://ctrl-{tag}/{DATABASE}"

    def connect(self):
        import repro

        return repro.connect(f"{self.url}?user={USER}&password={PASSWORD}")

    @property
    def request_manager(self):
        return self.cluster.virtual_database(DATABASE).request_manager

    def digests(self) -> Dict[str, Dict[str, str]]:
        from repro.bench.chaos import table_digests

        return {name: table_digests(engine) for name, engine in self.cluster.engines.items()}

    def stop(self) -> dict:
        self.cluster.shutdown()
        return {}


class RemoteCluster:
    """A controller served by ``serve.py`` in its own process."""

    def __init__(self, spec: Spec, tag: str, timeout: float = 60.0):
        # let the server cache its bytecode in the checkout, as an installed
        # deployment would: set-up then times a server start, not a
        # recompilation of the whole package on every boot
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.process = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "serve.py"),
                "--descriptor",
                json.dumps(descriptor(spec, tag)),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.url = None
        deadline = time.monotonic() + timeout
        for line in self._lines(deadline):
            if line.startswith("url "):
                self.url = line.split()[1]
            elif line == "ready":
                break
        if self.url is None:
            self.kill()
            raise RuntimeError("benchmark server did not print its url")

    def _lines(self, deadline: float):
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"benchmark server exited early (code {self.process.poll()})"
                )
            yield line.strip()
        raise RuntimeError("benchmark server timed out")

    def connect(self):
        import repro

        return repro.connect(f"{self.url}?user={USER}&password={PASSWORD}")

    def command(self, word: str, reply: str, timeout: float = 60.0) -> str:
        """Send one stdin command and return the first line starting with ``reply``."""
        self.process.stdin.write(word + "\n")
        self.process.stdin.flush()
        for line in self._lines(time.monotonic() + timeout):
            if line.startswith(reply):
                return line[len(reply):].strip()
        raise RuntimeError(f"no {reply!r} reply from the benchmark server")

    def stop(self) -> dict:
        """Stop the server; return what it reports on exit."""
        try:
            report = json.loads(self.command("stop", "result"))
            self.process.wait(timeout=60)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30)
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except OSError:
                pass
