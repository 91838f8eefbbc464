"""Unit tests for statement execution (SELECT, DML, DDL)."""

from unittest import mock

import pytest

from repro.errors import CatalogError, ConstraintViolation, DatabaseError, SQLError
from repro.sql import DatabaseEngine
from repro.sql.expressions import ExpressionEvaluator
from repro.sql.storage import HashIndex, Table


@pytest.fixture
def store():
    engine = DatabaseEngine("executor-tests")
    engine.execute(
        "CREATE TABLE product ("
        " id INT PRIMARY KEY AUTO_INCREMENT,"
        " name VARCHAR(40) NOT NULL,"
        " category VARCHAR(20),"
        " price FLOAT,"
        " stock INT)"
    )
    products = [
        ("keyboard", "hardware", 35.0, 10),
        ("mouse", "hardware", 12.5, 50),
        ("monitor", "hardware", 180.0, 3),
        ("python book", "books", 28.0, 7),
        ("sql book", "books", 32.0, 0),
    ]
    for name, category, price, stock in products:
        engine.execute(
            "INSERT INTO product (name, category, price, stock) VALUES (?, ?, ?, ?)",
            (name, category, price, stock),
        )
    engine.execute(
        "CREATE TABLE vendor (v_id INT PRIMARY KEY, v_name VARCHAR(30), v_product INT)"
    )
    engine.execute("INSERT INTO vendor VALUES (1, 'acme', 1), (2, 'globex', 4), (3, 'initech', 99)")
    return engine


class TestSelect:
    def test_project_columns(self, store):
        result = store.execute("SELECT name, price FROM product WHERE price > 30 ORDER BY price")
        assert result.columns == ["name", "price"]
        assert [row[0] for row in result.rows] == ["sql book", "keyboard", "monitor"]

    def test_select_star(self, store):
        result = store.execute("SELECT * FROM product")
        assert len(result.columns) == 5
        assert len(result.rows) == 5

    def test_where_with_parameters(self, store):
        result = store.execute("SELECT name FROM product WHERE category = ?", ("books",))
        assert sorted(row[0] for row in result.rows) == ["python book", "sql book"]

    def test_order_by_column_not_in_projection(self, store):
        result = store.execute("SELECT name FROM product ORDER BY price DESC LIMIT 2")
        assert [row[0] for row in result.rows] == ["monitor", "keyboard"]

    def test_order_by_ordinal(self, store):
        result = store.execute("SELECT name, price FROM product ORDER BY 2 DESC LIMIT 1")
        assert result.rows[0][0] == "monitor"

    def test_limit_offset(self, store):
        result = store.execute("SELECT name FROM product ORDER BY name LIMIT 2 OFFSET 1")
        assert [row[0] for row in result.rows] == ["monitor", "mouse"]

    def test_aggregates(self, store):
        result = store.execute(
            "SELECT COUNT(*), SUM(stock), MIN(price), MAX(price), AVG(price) FROM product"
        )
        count, total, minimum, maximum, average = result.rows[0]
        assert count == 5
        assert total == 70
        assert minimum == 12.5
        assert maximum == 180.0
        assert round(average, 2) == 57.5

    def test_group_by_having(self, store):
        result = store.execute(
            "SELECT category, COUNT(*) AS n, AVG(price) FROM product"
            " GROUP BY category HAVING COUNT(*) >= 2 ORDER BY category"
        )
        assert [row[0] for row in result.rows] == ["books", "hardware"]
        assert [row[1] for row in result.rows] == [2, 3]

    def test_count_distinct(self, store):
        result = store.execute("SELECT COUNT(DISTINCT category) FROM product")
        assert result.scalar() == 2

    def test_inner_join(self, store):
        result = store.execute(
            "SELECT v_name, name FROM vendor JOIN product ON v_product = id ORDER BY v_name"
        )
        assert result.rows == [["acme", "keyboard"], ["globex", "python book"]]

    def test_left_join_keeps_unmatched(self, store):
        result = store.execute(
            "SELECT v_name, name FROM vendor LEFT JOIN product ON v_product = id"
            " ORDER BY v_name"
        )
        assert len(result.rows) == 3
        initech = [row for row in result.rows if row[0] == "initech"][0]
        assert initech[1] is None

    def test_implicit_join_with_where(self, store):
        result = store.execute(
            "SELECT v_name FROM vendor v, product p WHERE v.v_product = p.id AND p.category = 'books'"
        )
        assert [row[0] for row in result.rows] == ["globex"]

    def test_in_subquery(self, store):
        result = store.execute(
            "SELECT name FROM product WHERE id IN (SELECT v_product FROM vendor) ORDER BY name"
        )
        assert [row[0] for row in result.rows] == ["keyboard", "python book"]

    def test_scalar_subquery(self, store):
        result = store.execute("SELECT (SELECT MAX(price) FROM product) FROM vendor LIMIT 1")
        assert result.scalar() == 180.0

    def test_exists(self, store):
        result = store.execute(
            "SELECT v_name FROM vendor WHERE EXISTS"
            " (SELECT 1 FROM product WHERE id = v_product AND category = 'books')"
        )
        assert [row[0] for row in result.rows] == ["globex"]

    def test_distinct(self, store):
        result = store.execute("SELECT DISTINCT category FROM product ORDER BY category")
        assert [row[0] for row in result.rows] == ["books", "hardware"]

    def test_like(self, store):
        result = store.execute("SELECT name FROM product WHERE name LIKE '%book%' ORDER BY name")
        assert [row[0] for row in result.rows] == ["python book", "sql book"]

    def test_between(self, store):
        result = store.execute("SELECT name FROM product WHERE price BETWEEN 20 AND 40 ORDER BY name")
        assert [row[0] for row in result.rows] == ["keyboard", "python book", "sql book"]

    def test_case_expression(self, store):
        result = store.execute(
            "SELECT name, CASE WHEN stock = 0 THEN 'out' ELSE 'in' END AS availability"
            " FROM product WHERE category = 'books' ORDER BY name"
        )
        assert result.rows == [["python book", "in"], ["sql book", "out"]]

    def test_arithmetic_expressions(self, store):
        result = store.execute("SELECT name, price * 2 + 1 FROM product WHERE id = 1")
        assert result.rows[0][1] == 71.0

    def test_scalar_functions(self, store):
        result = store.execute("SELECT UPPER(name), LENGTH(name) FROM product WHERE id = 2")
        assert result.rows[0] == ["MOUSE", 5]

    def test_unknown_table(self, store):
        with pytest.raises((CatalogError, DatabaseError)):
            store.execute("SELECT * FROM nothing")

    def test_unknown_column(self, store):
        with pytest.raises(Exception):
            store.execute("SELECT nonexistent FROM product")


class TestDML:
    def test_insert_returns_count(self, store):
        result = store.execute(
            "INSERT INTO product (name, category, price, stock) VALUES ('cable', 'hardware', 3.0, 100)"
        )
        assert result.update_count == 1
        assert store.row_count("product") == 6

    def test_auto_increment_assigns_ids(self, store):
        store.execute("INSERT INTO product (name) VALUES ('a'), ('b')")
        result = store.execute("SELECT id FROM product ORDER BY id DESC LIMIT 2")
        ids = [row[0] for row in result.rows]
        assert ids[0] > ids[1] >= 5

    def test_update_with_expression(self, store):
        result = store.execute("UPDATE product SET stock = stock + 5 WHERE category = 'books'")
        assert result.update_count == 2
        total = store.execute("SELECT SUM(stock) FROM product WHERE category = 'books'").scalar()
        assert total == 17

    def test_update_everything(self, store):
        assert store.execute("UPDATE product SET stock = 0").update_count == 5

    def test_delete(self, store):
        assert store.execute("DELETE FROM product WHERE stock = 0").update_count == 1
        assert store.row_count("product") == 4

    def test_not_null_violation(self, store):
        with pytest.raises((ConstraintViolation, DatabaseError)):
            store.execute("INSERT INTO product (name, price) VALUES (NULL, 3.0)")

    def test_primary_key_violation(self, store):
        with pytest.raises((ConstraintViolation, DatabaseError)):
            store.execute("INSERT INTO vendor VALUES (1, 'duplicate', 2)")

    def test_insert_select(self, store):
        store.execute("CREATE TABLE product_copy (name VARCHAR(40), price FLOAT)")
        result = store.execute(
            "INSERT INTO product_copy (name, price) SELECT name, price FROM product"
        )
        assert result.update_count == 5


class TestDDL:
    def test_create_and_drop_table(self, store):
        store.execute("CREATE TABLE temp1 (a INT)")
        assert store.catalog.has_table("temp1")
        store.execute("DROP TABLE temp1")
        assert not store.catalog.has_table("temp1")

    def test_create_existing_table_fails(self, store):
        with pytest.raises((CatalogError, DatabaseError)):
            store.execute("CREATE TABLE product (a INT)")

    def test_create_if_not_exists_is_idempotent(self, store):
        store.execute("CREATE TABLE IF NOT EXISTS product (a INT)")

    def test_drop_if_exists_missing_table(self, store):
        store.execute("DROP TABLE IF EXISTS missing_table")

    def test_create_index_enforces_unique(self, store):
        store.execute("CREATE UNIQUE INDEX uq_vendor_name ON vendor (v_name)")
        with pytest.raises((ConstraintViolation, DatabaseError)):
            store.execute("INSERT INTO vendor VALUES (4, 'acme', 2)")

    def test_alter_table_add_column(self, store):
        store.execute("ALTER TABLE vendor ADD COLUMN v_country VARCHAR(20)")
        result = store.execute("SELECT v_country FROM vendor WHERE v_id = 1")
        assert result.rows[0][0] is None


@pytest.fixture
def kv():
    """1,000 rows under a primary key and a non-unique secondary index."""
    engine = DatabaseEngine("access-path")
    engine.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    engine.execute("CREATE INDEX kv_v ON kv (v)")
    engine.execute(
        "INSERT INTO kv VALUES " + ", ".join(f"({k}, {k % 10})" for k in range(1000))
    )
    engine.execute("CREATE TABLE tag (k INT PRIMARY KEY)")
    engine.execute("INSERT INTO tag VALUES (1), (2), (3)")
    return engine


@pytest.fixture
def probe(monkeypatch):
    """Counts full table scans and rows a WHERE (or ON) predicate examined."""
    counts = {"scans": 0, "examined": 0}
    rows, evaluate_predicate = Table.rows, ExpressionEvaluator.evaluate_predicate

    def counting_rows(table):
        counts["scans"] += 1
        return rows(table)

    def counting_predicate(evaluator, expression, context):
        counts["examined"] += 1
        return evaluate_predicate(evaluator, expression, context)

    monkeypatch.setattr(Table, "rows", counting_rows)
    monkeypatch.setattr(ExpressionEvaluator, "evaluate_predicate", counting_predicate)
    return counts


class TestAccessPath:
    """Counts, not timings: a return to full scans fails here."""

    @pytest.mark.parametrize(
        "sql", ["SELECT v FROM kv WHERE k = ?", "SELECT v FROM kv AS t WHERE t.k = ?"]
    )
    def test_point_select_reads_one_row(self, kv, probe, sql):
        assert kv.execute(sql, (437,)).rows == [[7]]
        assert probe["scans"] == 0
        assert probe["examined"] <= 1

    def test_point_update_and_delete_read_one_row(self, kv, probe):
        assert kv.execute("UPDATE kv SET v = ? - v WHERE k = ?", (100, 437)).update_count == 1
        assert kv.execute("DELETE FROM kv WHERE k = ?", (438,)).update_count == 1
        assert probe["scans"] == 0
        assert probe["examined"] <= 2
        assert kv.execute("SELECT v FROM kv WHERE k = 437").rows == [[93]]

    def test_secondary_index_narrows_to_its_bucket(self, kv, probe):
        rows = kv.execute("SELECT k FROM kv WHERE v = ? AND k < 50", (7,)).rows
        assert rows == [[7], [17], [27], [37], [47]]
        assert probe["scans"] == 0
        assert probe["examined"] == 100

    def test_unindexed_predicate_scans(self, kv, probe):
        assert kv.execute("SELECT k FROM kv WHERE k > ?", (997,)).rows == [[998], [999]]
        assert probe["scans"] == 1
        assert probe["examined"] == 1000

    def test_join_scans(self, kv, probe):
        sql = "SELECT kv.v FROM tag JOIN kv ON tag.k = kv.k WHERE tag.k = 2"
        assert kv.execute(sql).rows == [[2]]
        assert probe["scans"] == 2

    def test_wrong_qualifier_scans(self, kv, probe):
        # ``kv`` is hidden behind the alias ``t``, so ``kv.k`` resolves to no
        # row: the index must not answer for it (a miss would hide the error)
        with pytest.raises(SQLError, match="unknown table or alias"):
            kv.execute("SELECT v FROM kv AS t WHERE kv.k = ?", (5000,))
        assert probe["scans"] == 1

    def test_correlated_exists_does_not_probe_inner_index(self, kv, probe):
        # inside the subquery ``t.k`` is the outer row, not tag's key column
        sql = "SELECT t.k FROM kv AS t WHERE t.v = 7 AND EXISTS (SELECT 1 FROM tag WHERE t.k = 17)"
        assert kv.execute(sql).rows == [[17]]
        assert probe["scans"] == 100

    def test_correlated_in_does_not_probe_inner_index(self, kv):
        sql = "SELECT t.k FROM kv AS t WHERE t.k IN (SELECT k + 10 FROM tag WHERE t.k = 12)"
        assert kv.execute(sql).rows == [[12]]


@pytest.fixture
def small_kv():
    engine = DatabaseEngine("probe-types")
    engine.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    engine.execute("INSERT INTO kv VALUES (1, 1), (2, 2), (3, 3), (4, 4)")
    return engine


class TestIndexProbeTypes:
    """An index probe matches exactly the rows the WHERE clause's ``=`` does."""

    @pytest.mark.parametrize(
        "key, k",
        [(3, 3), ("3", 3), (3.0, 3), (" 3", 3), ("3.0", 3), (True, 1)],
        ids=["int", "string", "float", "padded-string", "float-string", "bool"],
    )
    def test_every_statement_kind_matches_like_equals(self, small_kv, key, k):
        assert small_kv.execute("SELECT v FROM kv WHERE k = ?", (key,)).rows == [[k]]
        update = small_kv.execute("UPDATE kv SET v = ? - v WHERE k = ?", (100, key))
        assert update.update_count == 1
        assert small_kv.execute("SELECT v FROM kv WHERE k = ?", (k,)).rows == [[100 - k]]
        assert small_kv.execute("DELETE FROM kv WHERE k = ?", (key,)).update_count == 1
        assert small_kv.execute("SELECT COUNT(*) FROM kv").rows == [[3]]

    @pytest.mark.parametrize(
        "column, key",
        [
            ("k", 3.5),
            ("k", None),
            ("k", float("nan")),
            ("k", float("inf")),
            ("k", "x"),
            ("b", "true"),
            ("b", float("nan")),
            ("f", 2.5),
        ],
    )
    def test_probe_without_exact_key_matches_like_a_scan(self, column, key):
        engine = DatabaseEngine("probe-fallback")
        engine.execute("CREATE TABLE t (k INT PRIMARY KEY, b BOOLEAN, f FLOAT)")
        engine.execute("CREATE INDEX t_b ON t (b)")
        engine.execute("CREATE INDEX t_f ON t (f)")
        for row in [(0, False, 2.5), (1, True, float("nan")), (2, None, None), (3, True, 3.0)]:
            engine.execute("INSERT INTO t VALUES (?, ?, ?)", row)
        select = f"SELECT k FROM t WHERE {column} = ?"
        with mock.patch.object(Table, "find_by_index", return_value=None):
            expected = engine.execute(select, (key,)).rows
        assert engine.execute(select, (key,)).rows == expected
        update = engine.execute(f"UPDATE t SET f = 0 WHERE {column} = ?", (key,))
        assert update.update_count == len(expected)

    def test_number_against_character_key_matches_every_spelling(self):
        engine = DatabaseEngine("probe-text")
        engine.execute("CREATE TABLE names (name VARCHAR(10) PRIMARY KEY, n INT)")
        engine.execute("INSERT INTO names VALUES ('3', 1), ('03', 2), ('4', 3)")
        assert engine.execute("SELECT n FROM names WHERE name = ?", (3,)).rows == [[1], [2]]
        assert engine.execute("UPDATE names SET n = 0 WHERE name = ?", (3,)).update_count == 2
        assert engine.execute("DELETE FROM names WHERE name = ?", (3,)).update_count == 2

    def test_added_column_default_is_stored_coerced(self, small_kv):
        small_kv.execute("ALTER TABLE kv ADD COLUMN w INT DEFAULT '5'")
        small_kv.execute("CREATE INDEX kv_w ON kv (w)")
        assert small_kv.execute("SELECT COUNT(*) FROM kv WHERE w = ?", (5,)).rows == [[4]]


class TestPointReadsDuringUpdates:
    """A point read finds a row that exists before and after an UPDATE."""

    def test_every_index_step_of_an_update_leaves_the_row_findable(self, kv, monkeypatch):
        # run the reads between the index steps of one UPDATE, the moments a
        # reader on another connection can see
        counts = []

        def read():
            by_key = kv.execute("SELECT COUNT(*) FROM kv WHERE k = ?", (437,)).scalar()
            by_value = sum(
                kv.execute("SELECT COUNT(*) FROM kv WHERE v = ? AND k = ?", (v, 437)).scalar()
                for v in (7, 93)
            )
            counts.append((by_key, by_value))

        for step in ("insert", "remove"):
            original = getattr(HashIndex, step)

            def stepped(index, row_id, row, original=original):
                read()
                original(index, row_id, row)
                read()

            monkeypatch.setattr(HashIndex, step, stepped)
        assert kv.execute("UPDATE kv SET v = ? - v WHERE k = ?", (100, 437)).update_count == 1
        monkeypatch.undo()
        assert counts and set(counts) == {(1, 1)}
        assert kv.execute("SELECT v FROM kv WHERE k = 437").rows == [[93]]

    def test_failed_key_change_leaves_every_index_as_it_was(self):
        engine = DatabaseEngine("failed-update")
        engine.execute("CREATE TABLE u (k INT PRIMARY KEY, code INT UNIQUE)")
        engine.execute("INSERT INTO u VALUES (1, 10), (2, 20)")
        # the primary key moves to 3 before the unique code 20 is refused
        with pytest.raises(ConstraintViolation):
            engine.execute("UPDATE u SET k = 3, code = 20 WHERE k = 1")
        assert engine.execute("SELECT code FROM u WHERE k = 1").rows == [[10]]
        assert engine.execute("SELECT code FROM u WHERE k = 3").rows == []
        assert [len(index) for index in engine.catalog.get_table("u").indexes.values()] == [2, 2]
        engine.execute("INSERT INTO u VALUES (3, 30)")
        assert engine.execute("SELECT k FROM u WHERE code = 30").rows == [[3]]
