"""Property-based tests (hypothesis) on core data structures and invariants."""

import string
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cache import ResultCache, TableGranularity
from repro.core.request import RequestResult, SelectRequest, WriteRequest
from repro.core.requestparser import RequestFactory
from repro.core.scheduler import OptimisticTransactionLevelScheduler
from repro.errors import DatabaseError
from repro.sql import DatabaseEngine
from repro.sql.lexer import tokenize
from repro.sql.storage import Table
from repro.sql.types import compare_values, sort_key
from repro.simulation import Simulator

# Shared strategies -----------------------------------------------------------------

identifiers = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)
table_names = st.sampled_from(["item", "author", "orders", "customer", "bids"])
scalar_values = st.one_of(
    st.none(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet=string.ascii_letters + string.digits, max_size=12),
)


class TestSQLValueProperties:
    @given(left=scalar_values, right=scalar_values)
    def test_compare_values_is_antisymmetric(self, left, right):
        forward = compare_values(left, right)
        backward = compare_values(right, left)
        if forward is None:
            assert backward is None
        else:
            assert backward == -forward

    @given(value=scalar_values)
    def test_compare_value_to_itself_is_zero_or_unknown(self, value):
        result = compare_values(value, value)
        assert result in (0, None)

    @given(values=st.lists(scalar_values, max_size=20))
    def test_sort_key_total_order_never_raises(self, values):
        ordered = sorted(values, key=sort_key)
        assert len(ordered) == len(values)
        # NULLs always sort first
        if None in values:
            nulls = ordered[: values.count(None)]
            assert all(value is None for value in nulls)


class TestLexerProperties:
    @given(text=st.text(alphabet=string.ascii_letters + string.digits + " _,()='.", max_size=80))
    def test_tokenizer_terminates_and_ends_with_eof(self, text):
        try:
            tokens = tokenize(text)
        except Exception:
            return  # syntax errors are acceptable; crashes/hangs are not
        assert tokens[-1].type.name == "EOF"

    @given(
        literal=st.text(
            alphabet=string.ascii_letters + string.digits + " _-", max_size=20
        )
    )
    def test_string_literals_round_trip(self, literal):
        escaped = literal.replace("'", "''")
        tokens = tokenize(f"SELECT '{escaped}'")
        assert tokens[1].value == literal


class TestEngineProperties:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=10**6),
                st.integers(min_value=-1000, max_value=1000),
            ),
            min_size=0,
            max_size=30,
            unique_by=lambda pair: pair[0],
        )
    )
    def test_insert_then_count_and_sum_match(self, rows):
        engine = DatabaseEngine("prop")
        engine.execute("CREATE TABLE data (id INT PRIMARY KEY, v INT)")
        for key, value in rows:
            engine.execute("INSERT INTO data (id, v) VALUES (?, ?)", (key, value))
        assert engine.execute("SELECT COUNT(*) FROM data").scalar() == len(rows)
        if rows:
            assert engine.execute("SELECT SUM(v) FROM data").scalar() == sum(v for _, v in rows)
        ordered = [row[0] for row in engine.execute("SELECT id FROM data ORDER BY id").rows]
        assert ordered == sorted(key for key, _ in rows)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        values=st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=25),
        threshold=st.integers(min_value=-100, max_value=100),
    )
    def test_where_filter_matches_python_filter(self, values, threshold):
        engine = DatabaseEngine("prop-filter")
        engine.execute("CREATE TABLE data (id INT PRIMARY KEY AUTO_INCREMENT, v INT)")
        for value in values:
            engine.execute("INSERT INTO data (v) VALUES (?)", (value,))
        result = engine.execute("SELECT COUNT(*) FROM data WHERE v > ?", (threshold,))
        assert result.scalar() == sum(1 for value in values if value > threshold)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        deltas=st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=15),
        do_rollback=st.booleans(),
    )
    def test_transaction_atomicity(self, deltas, do_rollback):
        engine = DatabaseEngine("prop-txn")
        engine.execute("CREATE TABLE account (id INT PRIMARY KEY, balance INT)")
        engine.execute("INSERT INTO account VALUES (1, 1000)")
        session = engine.create_session()
        session.begin()
        for delta in deltas:
            session.execute("UPDATE account SET balance = balance + ? WHERE id = 1", (delta,))
        if do_rollback:
            session.rollback()
            expected = 1000
        else:
            session.commit()
            expected = 1000 + sum(deltas)
        session.close()
        assert engine.execute("SELECT balance FROM account WHERE id = 1").scalar() == expected


# Index access path vs forced scan --------------------------------------------------

#: probe values of every kind ``=`` coerces between: int, float (NaN too),
#: numeric and non-numeric strings, booleans, NULL
probe_values = st.sampled_from(
    [None, True, False, 0, 1, 2, 3, 7, 3.0, 2.5, -1.0, float("nan"), float("inf")]
    + ["3", "03", "3.0", " 2", "", "x", "1", "true"]
)
stored_rows = st.tuples(
    st.one_of(st.none(), st.integers(min_value=-2, max_value=4)),
    st.one_of(st.none(), st.sampled_from(["1", "01", "3", "3.0", "x", ""])),
    st.one_of(st.none(), st.booleans()),
    st.one_of(st.none(), st.sampled_from([3.0, 2.5, float("nan")])),
)


@st.composite
def predicates(draw, depth=0):
    """A random WHERE clause over ``t`` as ``(sql, parameters)``."""
    if depth < 2 and draw(st.booleans()):
        left_sql, left_params = draw(predicates(depth=depth + 1))
        right_sql, right_params = draw(predicates(depth=depth + 1))
        operator = draw(st.sampled_from(["AND", "AND", "OR"]))
        return f"({left_sql} {operator} {right_sql})", left_params + right_params
    column = draw(st.sampled_from(["k", "t.k", "v", "s", "t.s", "b", "f"]))
    kind = draw(st.sampled_from(["=", "=", "=", "= literal", "= literal", ">", "IS NULL"]))
    if kind == "IS NULL":
        return f"{column} IS NULL", []
    if kind == "= literal":
        literal = draw(st.sampled_from(["3", "'3'", "3.0", "'03'", "7", "'true'"]))
        return f"{column} = {literal}", []
    return f"{column} {kind} ?", [draw(probe_values)]


statements = st.one_of(
    st.tuples(st.just("SELECT k, v, s, b, f FROM t AS t WHERE"), st.just([]), predicates()),
    st.tuples(
        st.just("UPDATE t SET v = ? - v WHERE"),
        st.integers(min_value=-5, max_value=5).map(lambda value: [value]),
        predicates(),
    ),
    st.tuples(st.just("DELETE FROM t WHERE"), st.just([]), predicates()),
)


def _outcome(engine, sql, parameters):
    try:
        result = engine.execute(sql, parameters)
    except DatabaseError as exc:
        return ("error", type(exc).__name__)
    return (repr(result.rows), result.update_count)


def _digest(engine):
    table = engine.catalog.get_table("t")
    return repr(sorted(tuple(row.values()) for _row_id, row in table.rows()))


class TestIndexAccessPathProperties:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        rows=st.lists(stored_rows, max_size=12),
        script=st.lists(statements, min_size=1, max_size=6),
    )
    def test_index_path_matches_forced_scan(self, rows, script):
        """The chooser's index bucket never changes what a statement does."""
        engines = []
        for name in ("indexed", "scanned"):
            engine = DatabaseEngine(name)
            engine.execute(
                "CREATE TABLE t (k INT PRIMARY KEY, v INT, s VARCHAR(8), b BOOLEAN, f FLOAT)"
            )
            for column in ("v", "s", "b", "f"):
                engine.execute(f"CREATE INDEX t_{column} ON t ({column})")
            for k, row in enumerate(rows):
                engine.execute("INSERT INTO t VALUES (?, ?, ?, ?, ?)", (k, *row))
            engines.append(engine)
        indexed, scanned = engines
        for prefix, head, (where, where_params) in script:
            sql, parameters = f"{prefix} {where}", head + where_params
            with mock.patch.object(Table, "find_by_index", return_value=None):
                expected = _outcome(scanned, sql, parameters)
            assert _outcome(indexed, sql, parameters) == expected, sql
            assert _digest(indexed) == _digest(scanned), sql


class TestCacheProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        operations=st.lists(
            st.tuples(st.sampled_from(["read", "write"]), table_names, st.integers(0, 5)),
            max_size=40,
        )
    )
    def test_cache_never_serves_stale_data_with_strong_consistency(self, operations):
        """After any write to a table, cached reads on that table are dropped."""
        cache = ResultCache(granularity=TableGranularity())
        version = {table: 0 for table in ["item", "author", "orders", "customer", "bids"]}
        for kind, table, parameter in operations:
            if kind == "write":
                version[table] += 1
                cache.invalidate(WriteRequest(sql=f"UPDATE {table} SET x = 1", tables=(table,)))
                continue
            request = SelectRequest(sql=f"SELECT * FROM {table} WHERE id = {parameter}", tables=(table,))
            cached = cache.get(request)
            if cached is not None:
                # The cached version must be the current version of the table.
                assert cached.rows[0][0] == version[table]
            else:
                cache.put(
                    request,
                    RequestResult(columns=["version"], rows=[[version[table]]]),
                )

    @settings(max_examples=30, deadline=None)
    @given(keys=st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=100))
    def test_cache_size_never_exceeds_max_entries(self, keys):
        cache = ResultCache(max_entries=10)
        for key in keys:
            request = SelectRequest(sql=f"SELECT {key}", tables=("item",))
            cache.put(request, RequestResult(columns=["v"], rows=[[key]]))
            assert len(cache) <= 10


class TestSchedulerProperties:
    @settings(max_examples=30, deadline=None)
    @given(writes=st.integers(min_value=1, max_value=30))
    def test_write_orders_are_strictly_increasing(self, writes):
        scheduler = OptimisticTransactionLevelScheduler()
        factory = RequestFactory()
        orders = []
        for index in range(writes):
            ticket = scheduler.schedule_write(
                factory.create_request(f"UPDATE t SET a = {index}")
            )
            orders.append(ticket.order)
            ticket.release()
        assert orders == sorted(orders)
        assert len(set(orders)) == len(orders)


class TestChaosConvergenceProperties:
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_raidb1_converges_after_mid_run_fault_and_reintegration(self, seed):
        """Seeded random read/write/transaction workload with a mid-run crash.

        Whatever the seed, after the crashed backend is re-integrated every
        backend's table digest must be identical and every acknowledged
        write must be present.
        """
        from random import Random

        from repro.bench.chaos import digest_mismatches
        from repro.cluster import Cluster
        from repro.cluster.registry import ControllerRegistry
        from repro.core import BackendConfig, VirtualDatabaseConfig
        from repro.errors import CJDBCError

        rng = Random(seed)
        engines = {f"b{i}": DatabaseEngine(f"prop-chaos-{seed}-{i}") for i in range(3)}
        cluster = Cluster.from_configs(
            VirtualDatabaseConfig(
                name="prop-chaos",
                backends=[
                    BackendConfig(name=name, engine=engine)
                    for name, engine in engines.items()
                ],
                recovery_log="memory",
            ),
            controller_name=f"prop-chaos-{seed}",
            registry=ControllerRegistry(),
        )
        vdb = cluster.virtual_database("prop-chaos")
        vdb.execute("CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(24))")
        victim = f"b{rng.randrange(3)}"
        vdb.checkpoint_backend(victim, name=f"prop-genesis-{seed}")
        injector = vdb.fault_injector(victim, seed=seed)
        injector.inject(
            "crash",
            after_n_ops=rng.randint(2, 20),
            operations=("execute", "executemany"),
        )
        acked = {}
        next_key = 0
        for index in range(30):
            try:
                roll = rng.random()
                if roll < 0.45:
                    next_key += 1
                    vdb.execute(
                        "INSERT INTO kv (k, v) VALUES (?, ?)",
                        (next_key, f"i-{index}"),
                    )
                    acked[next_key] = f"i-{index}"
                elif roll < 0.6 and acked:
                    key = rng.choice(sorted(acked))
                    vdb.execute(
                        "UPDATE kv SET v = ? WHERE k = ?", (f"u-{index}", key)
                    )
                    acked[key] = f"u-{index}"
                elif roll < 0.8:
                    vdb.execute("SELECT v FROM kv WHERE k = ?", (rng.randint(0, 30),))
                else:
                    tid = vdb.begin("prop")
                    keys = []
                    for _ in range(rng.randint(1, 2)):
                        next_key += 1
                        vdb.execute(
                            "INSERT INTO kv (k, v) VALUES (?, ?)",
                            (next_key, f"t-{index}"),
                            transaction_id=tid,
                        )
                        keys.append(next_key)
                    if rng.random() < 0.8:
                        vdb.commit(tid, "prop")
                        for key in keys:
                            acked[key] = f"t-{index}"
                    else:
                        vdb.rollback(tid, "prop")
            except CJDBCError:
                continue  # a failed operation is never acknowledged
        backend = vdb.get_backend(victim)
        if not backend.is_enabled:
            injector.recover()
            vdb.resynchronize_backend(victim)
        assert digest_mismatches(engines) == []
        for name, engine in engines.items():
            rows = {row["k"]: row["v"] for row in engine.dump_table_rows("kv")}
            for key, value in acked.items():
                assert rows.get(key) == value, (
                    f"acknowledged write k={key} lost on {name} (seed {seed})"
                )
        cluster.shutdown()


class TestSimulatorProperties:
    @settings(max_examples=30, deadline=None)
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50))
    def test_events_always_fire_in_nondecreasing_time_order(self, delays):
        simulator = Simulator()
        fired = []
        for delay in delays:
            simulator.schedule(delay, lambda d=delay: fired.append(simulator.now))
        simulator.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
