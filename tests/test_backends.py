"""Tests for repro.backends: protocol, SQLite reflection, statistics,
dialect lowering, execution parity, and the backend-only context."""

from __future__ import annotations

import datetime
import sqlite3
import threading
from pathlib import Path

import pytest

from repro import Catalog, Database, DataType
from repro.backends import (
    Backend,
    MemoryBackend,
    SqliteBackend,
    UnsupportedSqlError,
    as_backend,
    lower,
    map_declared_type,
    reflect_catalog,
    to_sqlite_sql,
)
from repro.core.context import TranslationContext
from repro.core.translator import SchemaFreeTranslator
from repro.engine import ExecutionError, Result
from repro.engine.io import export_to_sqlite
from repro.obs import MetricsRegistry, RingBufferExporter, Tracer
from repro.sqlkit import ast, parse

from tests.conftest import make_fig1_catalog, populate_fig1


def make_fig1_sqlite(**kwargs) -> SqliteBackend:
    db = Database(make_fig1_catalog())
    populate_fig1(db)
    return SqliteBackend(export_to_sqlite(db, ":memory:"), name="fig1", **kwargs)


@pytest.fixture()
def fig1_sqlite() -> SqliteBackend:
    return make_fig1_sqlite()


# ---------------------------------------------------------------------------
# protocol / as_backend
# ---------------------------------------------------------------------------


class TestBackendProtocol:
    def test_memory_backend_satisfies_protocol(self, fig1_db):
        assert isinstance(MemoryBackend(fig1_db), Backend)

    def test_sqlite_backend_satisfies_protocol(self, fig1_sqlite):
        assert isinstance(fig1_sqlite, Backend)

    def test_as_backend_wraps_database(self, fig1_db):
        backend = as_backend(fig1_db)
        assert isinstance(backend, MemoryBackend)
        assert backend.kind == "memory"
        assert backend.database is fig1_db

    def test_as_backend_passes_backends_through(self, fig1_sqlite):
        assert as_backend(fig1_sqlite) is fig1_sqlite

    def test_memory_backend_delegates(self, fig1_db):
        backend = MemoryBackend(fig1_db)
        assert backend.catalog is fig1_db.catalog
        assert backend.count("Movie") == fig1_db.count("Movie")
        assert backend.column_values("Movie", "title") == fig1_db.column_values(
            "Movie", "title"
        )
        assert backend.data_version == fig1_db.data_version
        backend.close()  # no-op; database stays usable
        assert fig1_db.count("Movie") == 3

    def test_memory_backend_execute_returns_result(self, fig1_db):
        result = MemoryBackend(fig1_db).execute("SELECT title FROM Movie")
        assert isinstance(result, Result)
        assert len(result.rows) == 3


# ---------------------------------------------------------------------------
# catalog reflection
# ---------------------------------------------------------------------------


class TestReflection:
    def test_reflects_relations_attributes_and_pks(self, fig1_sqlite):
        original = make_fig1_catalog()
        reflected = fig1_sqlite.catalog
        assert len(reflected) == len(original)
        for relation in original:
            mirror = reflected.relation(relation.name)
            assert mirror.attribute_names == relation.attribute_names
            assert tuple(mirror.primary_key) == tuple(relation.primary_key)
            for ours, theirs in zip(relation.attributes, mirror.attributes):
                assert ours.data_type == theirs.data_type
                assert ours.nullable == theirs.nullable

    def test_reflects_fk_adjacency(self, fig1_sqlite):
        original = {fk.key for fk in make_fig1_catalog().foreign_keys}
        reflected = {fk.key for fk in fig1_sqlite.catalog.foreign_keys}
        assert reflected == original

    def test_skips_composite_foreign_keys(self):
        conn = sqlite3.connect(":memory:")
        conn.executescript(
            """
            CREATE TABLE parent (a INTEGER, b INTEGER, c INTEGER,
                                 PRIMARY KEY (a, b));
            CREATE TABLE child (
                x INTEGER, y INTEGER,
                FOREIGN KEY (x, y) REFERENCES parent (a, b)
            );
            """
        )
        catalog = reflect_catalog(conn)
        assert catalog.foreign_keys == []
        assert {r.name for r in catalog} == {"parent", "child"}

    def test_skips_dangling_foreign_keys(self):
        conn = sqlite3.connect(":memory:")
        # SQLite accepts FKs to tables that do not exist (checked lazily)
        conn.executescript(
            "CREATE TABLE child (x INTEGER REFERENCES ghost (id))"
        )
        catalog = reflect_catalog(conn)
        assert catalog.foreign_keys == []

    def test_unnamed_fk_target_defaults_to_pk(self):
        conn = sqlite3.connect(":memory:")
        conn.executescript(
            """
            CREATE TABLE parent (id INTEGER PRIMARY KEY, label TEXT);
            CREATE TABLE child (pid INTEGER REFERENCES parent);
            """
        )
        catalog = reflect_catalog(conn)
        (fk,) = catalog.foreign_keys
        assert (fk.source_attribute, fk.target_attribute) == ("pid", "id")

    def test_reflects_reserved_word_table_names(self):
        conn = sqlite3.connect(":memory:")
        conn.executescript(
            '''
            CREATE TABLE "order" (
                "order" INTEGER PRIMARY KEY,
                "select" TEXT NOT NULL,
                "line item" REAL
            );
            INSERT INTO "order" VALUES (1, 'a', 1.5), (2, 'b', 2.5);
            '''
        )
        backend = SqliteBackend(conn)
        relation = backend.catalog.relation("order")
        assert relation.attribute_names == ("order", "select", "line item")
        assert backend.count("order") == 2
        assert backend.column_values("order", "select") == ["a", "b"]

    def test_declared_type_mapping(self):
        assert map_declared_type("INTEGER") is DataType.INTEGER
        assert map_declared_type("int") is DataType.INTEGER
        assert map_declared_type("BIGINT") is DataType.INTEGER
        assert map_declared_type("VARCHAR(40)") is DataType.TEXT
        assert map_declared_type("REAL") is DataType.FLOAT
        assert map_declared_type("DOUBLE PRECISION") is DataType.FLOAT
        assert map_declared_type("NUMERIC(8,2)") is DataType.FLOAT
        assert map_declared_type("BOOLEAN") is DataType.BOOLEAN
        assert map_declared_type("DATE") is DataType.DATE
        assert map_declared_type("DATETIME") is DataType.DATE
        assert map_declared_type(None) is DataType.TEXT
        assert map_declared_type("BLOB") is DataType.TEXT


# ---------------------------------------------------------------------------
# statistics provision
# ---------------------------------------------------------------------------


class TestStatistics:
    def test_column_values_match_memory_backend(self, fig1_db, fig1_sqlite):
        for relation in fig1_db.catalog:
            for attribute in relation.attributes:
                assert fig1_sqlite.column_values(
                    relation.name, attribute.name
                ) == fig1_db.column_values(relation.name, attribute.name), (
                    relation.name,
                    attribute.name,
                )

    def test_boolean_and_date_values_decoded(self):
        catalog = Catalog("typed")
        catalog.create_relation(
            "event",
            [
                ("event_id", DataType.INTEGER),
                ("flag", DataType.BOOLEAN),
                ("day", DataType.DATE),
                ("score", DataType.FLOAT),
            ],
            primary_key=["event_id"],
        )
        db = Database(catalog)
        db.insert("event", [1, True, datetime.date(2020, 5, 17), 4.0])
        db.insert("event", [2, False, None, None])
        backend = SqliteBackend(export_to_sqlite(db, ":memory:"))
        assert backend.column_values("event", "flag") == [True, False]
        assert backend.column_values("event", "day") == [
            datetime.date(2020, 5, 17),
            None,
        ]
        assert backend.column_values("event", "score") == [4.0, None]

    def test_sample_limit_caps_rows(self, fig1_db):
        backend = make_fig1_sqlite(sample_limit=2)
        assert backend.column_values("Person", "name") == ["James Cameron",
                                                           "Leonardo DiCaprio"]

    def test_count(self, fig1_db, fig1_sqlite):
        for relation in fig1_db.catalog:
            assert fig1_sqlite.count(relation.name) == fig1_db.count(
                relation.name
            )

    def test_data_version_moves_on_write(self, fig1_sqlite):
        before = fig1_sqlite.data_version
        fig1_sqlite._connection().execute(
            "INSERT INTO Person VALUES (99, 'Nobody', 'male')"
        )
        assert fig1_sqlite.data_version > before


# ---------------------------------------------------------------------------
# dialect lowering
# ---------------------------------------------------------------------------


class TestDialect:
    def test_division_becomes_udf(self):
        assert to_sqlite_sql(parse("SELECT a / b FROM t")) == (
            "SELECT repro_div(a, b) FROM t"
        )

    def test_modulo_becomes_udf(self):
        assert to_sqlite_sql(parse("SELECT a % 2 FROM t")) == (
            "SELECT repro_mod(a, 2) FROM t"
        )

    def test_eq_any_becomes_in(self):
        sql = to_sqlite_sql(
            parse("SELECT a FROM t WHERE a = ANY (SELECT b FROM u)")
        )
        assert "IN (SELECT b FROM u)" in sql
        assert "ANY" not in sql

    def test_ne_all_becomes_not_in(self):
        sql = to_sqlite_sql(
            parse("SELECT a FROM t WHERE a <> ALL (SELECT b FROM u)")
        )
        assert "NOT IN (SELECT b FROM u)" in sql

    def test_other_quantifiers_raise_typed_error(self):
        with pytest.raises(UnsupportedSqlError):
            to_sqlite_sql(
                parse("SELECT a FROM t WHERE a < ALL (SELECT b FROM u)")
            )

    def test_lower_is_pure(self):
        query = parse("SELECT a FROM t WHERE b > 1")
        assert lower(query) is query  # nothing to rewrite -> same object


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


class TestExecution:
    def test_result_shape(self, fig1_sqlite):
        result = fig1_sqlite.execute(
            "SELECT title, release_year FROM Movie ORDER BY release_year"
        )
        assert isinstance(result, Result)
        assert result.columns == ["title", "release_year"]
        assert result.rows == [
            ("Titanic", 1997),
            ("The Terminal", 2004),
            ("Avatar", 2009),
        ]

    def test_accepts_ast(self, fig1_sqlite):
        query = parse("SELECT count(*) FROM Person")
        assert fig1_sqlite.execute(query).rows == [(6,)]

    def test_engine_division_semantics(self, fig1_sqlite):
        result = fig1_sqlite.execute("SELECT 7 / 2, 8 / 2, 7.0 / 2")
        assert result.rows == [(3.5, 4, 3.5)]

    def test_division_by_zero_raises(self, fig1_sqlite):
        with pytest.raises(ExecutionError, match="division by zero"):
            fig1_sqlite.execute("SELECT 1 / 0")

    def test_modulo_by_zero_raises(self, fig1_sqlite):
        with pytest.raises(ExecutionError, match="modulo by zero"):
            fig1_sqlite.execute("SELECT 5 % 0")

    def test_engine_scalar_functions_registered(self, fig1_sqlite):
        result = fig1_sqlite.execute(
            "SELECT concat('a', 'b'), round(2.5), round(3.5), length('xyz')"
        )
        # round() is Python's half-even on both backends, not SQLite's
        # half-up; concat() exists even though SQLite 3.40 lacks it.
        assert result.rows == [("ab", 2.0, 4.0, 3)]

    def test_like_is_case_sensitive(self, fig1_sqlite):
        result = fig1_sqlite.execute(
            "SELECT name FROM Person WHERE name LIKE '%cameron%'"
        )
        assert result.rows == []
        result = fig1_sqlite.execute(
            "SELECT name FROM Person WHERE name LIKE '%Cameron%'"
        )
        assert result.rows == [("James Cameron",)]

    def test_scalar_function_error_surfaces_as_execution_error(
        self, fig1_sqlite
    ):
        with pytest.raises(ExecutionError, match="substr.*failed"):
            fig1_sqlite.execute("SELECT substr('abc', 'x')")

    def test_sqlite_error_wrapped(self, fig1_sqlite):
        with pytest.raises(ExecutionError, match="sqlite"):
            fig1_sqlite.execute("SELECT nonexistent_column FROM Person")

    def test_sql_for_shows_lowered_text(self, fig1_sqlite):
        assert fig1_sqlite.sql_for("SELECT 1 / 0") == "SELECT repro_div(1, 0)"

    def test_concurrent_executes(self, fig1_sqlite):
        errors: list[BaseException] = []

        def worker() -> None:
            try:
                for _ in range(20):
                    result = fig1_sqlite.execute("SELECT count(*) FROM Actor")
                    assert result.rows == [(4,)]
            except BaseException as exc:  # noqa: BLE001 - test harness
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    def test_close_releases_owned_connection(self, tmp_path):
        db = Database(make_fig1_catalog())
        populate_fig1(db)
        path = tmp_path / "fig1.sqlite"
        export_to_sqlite(db, path).close()
        backend = SqliteBackend(path)
        assert backend.count("Movie") == 3
        backend.close()
        # this thread's connection is closed in place...
        with pytest.raises(sqlite3.ProgrammingError):
            backend._connection().execute("SELECT 1")
        # ...and a thread arriving after close gets the typed error
        from repro.backends.errors import BackendUnavailable

        failures: list[BaseException] = []

        def late_worker() -> None:
            try:
                backend.count("Movie")
            except BaseException as exc:  # noqa: BLE001 - test harness
                failures.append(exc)

        thread = threading.Thread(target=late_worker)
        thread.start()
        thread.join()
        assert len(failures) == 1
        assert isinstance(failures[0], BackendUnavailable)

    def test_file_backed_workers_get_own_connections(self, tmp_path):
        """Satellite regression: 8 workers hammer one file-backed
        SqliteBackend; per-thread connections mean no cross-thread
        sqlite3 objects and no serialisation through one handle."""
        db = Database(make_fig1_catalog())
        populate_fig1(db)
        path = tmp_path / "fig1.sqlite"
        export_to_sqlite(db, path).close()
        backend = SqliteBackend(path)
        errors: list[BaseException] = []

        def worker() -> None:
            try:
                for _ in range(20):
                    result = backend.execute("SELECT count(*) FROM Actor")
                    assert result.rows == [(4,)]
                    values = backend.column_values("Person", "name")
                    assert len(values) == 6
            except BaseException as exc:  # noqa: BLE001 - test harness
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # the main thread reflected on its own connection; each worker
        # added exactly one more
        assert len(backend._connections) == 9
        backend.close()

    def test_corrupted_file_raises_typed_backend_error(self, tmp_path):
        from repro.backends.errors import BackendUnavailable

        path = tmp_path / "garbage.sqlite"
        path.write_bytes(b"this is not a sqlite database at all\x00\x01")
        with pytest.raises(BackendUnavailable) as info:
            SqliteBackend(path)
        assert info.value.diagnostic is not None
        assert info.value.diagnostic.stage == "backend"


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------


class TestObservability:
    def test_sqlite_backend_emits_spans_and_metrics(self):
        ring = RingBufferExporter()
        registry = MetricsRegistry()
        db = Database(make_fig1_catalog())
        populate_fig1(db)
        backend = SqliteBackend(
            export_to_sqlite(db, ":memory:"),
            tracer=Tracer(exporters=[ring]),
            metrics=registry,
        )
        backend.execute("SELECT title FROM Movie")
        names = [span.name for span in ring.spans()]
        assert "backend.reflect" in names
        assert "backend.execute" in names
        snapshot = registry.snapshot()
        assert "repro_backend_op_seconds" in snapshot
        assert "repro_backend_rows_total" in snapshot

    def test_memory_backend_emits_execute_metrics(self, fig1_db):
        registry = MetricsRegistry()
        backend = MemoryBackend(fig1_db, metrics=registry)
        backend.execute("SELECT title FROM Movie")
        assert "repro_backend_op_seconds" in registry.snapshot()


# ---------------------------------------------------------------------------
# translation from the Backend protocol alone (acceptance criterion)
# ---------------------------------------------------------------------------


class TestBackendOnlyTranslation:
    def test_context_builds_from_sqlite_backend_only(self, fig1_sqlite):
        context = TranslationContext(fig1_sqlite)
        assert len(context.relations) == 6
        sample = context.column_sample("Movie", "title")
        assert "Titanic" in sample
        context.ensure_current()  # data_version plumbing works

    def test_translator_runs_on_sqlite_backend(self, fig1_sqlite):
        translator = SchemaFreeTranslator(fig1_sqlite)
        best = translator.translate_best(
            "SELECT title? WHERE director_name? = 'James Cameron'"
        )
        result = fig1_sqlite.execute(best.query)
        assert sorted(result.rows) == [("Avatar",), ("Titanic",)]

    def test_core_has_no_database_imports(self):
        core = Path(__file__).resolve().parent.parent / "src" / "repro" / "core"
        offenders = []
        for module in sorted(core.glob("*.py")):
            text = module.read_text(encoding="utf-8")
            for line in text.splitlines():
                stripped = line.strip()
                if stripped.startswith(("import ", "from ")) and "Database" in stripped:
                    offenders.append(f"{module.name}: {stripped}")
        assert offenders == []

    def test_backends_import_no_serving_layer(self):
        """Backends sit below the serving tiers: no module under
        repro/backends imports repro.service or repro.server, lazily or
        not."""
        import ast

        backends = (
            Path(__file__).resolve().parent.parent / "src" / "repro" / "backends"
        )
        package = ["repro", "backends"]
        offenders = []
        for module in sorted(backends.glob("*.py")):
            tree = ast.parse(module.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = package[: len(package) - node.level + 1]
                    names = [
                        ".".join(base + ([node.module] if node.module else []))
                        if node.level
                        else node.module or ""
                    ]
                else:
                    continue
                for name in names:
                    if name.startswith(("repro.service", "repro.server")):
                        offenders.append(f"{module.name}:{node.lineno}: {name}")
        assert offenders == []


# ---------------------------------------------------------------------------
# export_to_sqlite
# ---------------------------------------------------------------------------


class TestExport:
    def test_export_replaces_existing_file(self, tmp_path):
        db = Database(make_fig1_catalog())
        populate_fig1(db)
        path = tmp_path / "out.sqlite"
        export_to_sqlite(db, path).close()
        export_to_sqlite(db, path).close()  # no "table exists" error
        backend = SqliteBackend(path)
        assert backend.count("Person") == 6
        backend.close()

    def test_export_into_existing_connection(self):
        db = Database(make_fig1_catalog())
        populate_fig1(db)
        conn = sqlite3.connect(":memory:")
        assert export_to_sqlite(db, conn) is conn
        (count,) = conn.execute("SELECT count(*) FROM Movie").fetchone()
        assert count == 3

    def test_export_preserves_declared_types(self):
        catalog = Catalog("typed")
        catalog.create_relation(
            "t",
            [
                ("i", DataType.INTEGER),
                ("f", DataType.FLOAT),
                ("s", DataType.TEXT),
                ("b", DataType.BOOLEAN),
                ("d", DataType.DATE),
            ],
        )
        db = Database(catalog)
        conn = export_to_sqlite(db, ":memory:")
        declared = {
            row[1]: row[2] for row in conn.execute("PRAGMA table_info(t)")
        }
        assert declared == {
            "i": "INTEGER",
            "f": "REAL",
            "s": "TEXT",
            "b": "BOOLEAN",
            "d": "DATE",
        }
