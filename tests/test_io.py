"""Tests for database save/load round-trips."""

import datetime

import pytest

from repro import Catalog, Database, DataType
from repro.catalog import Attribute
from repro.engine.io import (
    catalog_from_dict,
    catalog_to_dict,
    load_database,
    save_database,
)


class TestCatalogRoundTrip:
    def test_catalog_round_trip(self, fig1_db):
        data = catalog_to_dict(fig1_db.catalog)
        rebuilt = catalog_from_dict(data)
        assert len(rebuilt) == len(fig1_db.catalog)
        assert len(rebuilt.foreign_keys) == len(fig1_db.catalog.foreign_keys)
        person = rebuilt.relation("Person")
        assert person.primary_key == ("person_id",)
        assert person.attribute("name").data_type is DataType.TEXT

    def test_nullable_preserved(self):
        catalog = Catalog("t")
        catalog.create_relation(
            "r", [Attribute("a", DataType.INTEGER, nullable=False)]
        )
        rebuilt = catalog_from_dict(catalog_to_dict(catalog))
        assert not rebuilt.relation("r").attribute("a").nullable


class TestDatabaseRoundTrip:
    def test_full_round_trip(self, fig1_db, tmp_path):
        save_database(fig1_db, tmp_path / "dump")
        loaded = load_database(tmp_path / "dump")
        for relation in fig1_db.catalog:
            assert loaded.rows(relation.name) == fig1_db.rows(relation.name)

    def test_queries_agree_after_reload(self, fig1_db, tmp_path):
        save_database(fig1_db, tmp_path / "dump")
        loaded = load_database(tmp_path / "dump")
        sql = (
            "SELECT p.name FROM Person p, Director d "
            "WHERE p.person_id = d.person_id ORDER BY p.name"
        )
        assert loaded.execute(sql).rows == fig1_db.execute(sql).rows

    def test_dates_survive(self, tmp_path):
        catalog = Catalog("d")
        catalog.create_relation("t", [("day", DataType.DATE)])
        db = Database(catalog)
        db.insert("t", [datetime.date(2014, 6, 22)])
        save_database(db, tmp_path / "dump")
        loaded = load_database(tmp_path / "dump")
        assert loaded.rows("t") == [{"day": datetime.date(2014, 6, 22)}]

    def test_nulls_survive(self, tmp_path):
        catalog = Catalog("n")
        catalog.create_relation(
            "t", [("a", DataType.INTEGER), ("b", DataType.TEXT)]
        )
        db = Database(catalog)
        db.insert("t", [None, None])
        save_database(db, tmp_path / "dump")
        loaded = load_database(tmp_path / "dump")
        assert loaded.rows("t") == [{"a": None, "b": None}]

    def test_missing_relation_file_loads_empty(self, fig1_db, tmp_path):
        path = save_database(fig1_db, tmp_path / "dump")
        (path / "company.jsonl").unlink()
        loaded = load_database(path)
        assert loaded.count("Company") == 0

    def test_translator_works_on_loaded_db(self, fig1_db, tmp_path):
        from repro import SchemaFreeTranslator

        save_database(fig1_db, tmp_path / "dump")
        loaded = load_database(tmp_path / "dump")
        translator = SchemaFreeTranslator(loaded)
        best = translator.translate_best(
            "SELECT title? WHERE director?.name? = 'Steven Spielberg'"
        )
        assert loaded.execute(best.query).rows == [("The Terminal",)]


class TestServiceOverReloadedDatabase:
    """The query service must treat a reloaded database exactly like the
    original — same translations, and a *fresh* data version so stale
    context caches can never leak across a reload."""

    QUERIES = [
        "SELECT name? WHERE director_name? = 'James Cameron'",
        "SELECT title? WHERE actor?.name? = 'Tom Hanks'",
        "SELECT company?.name? WHERE movie?.title? = 'Avatar'",
    ]

    def test_service_results_identical_after_reload(self, fig1_db, tmp_path):
        from repro import QueryService

        save_database(fig1_db, tmp_path / "dump")
        loaded = load_database(tmp_path / "dump")
        with QueryService(fig1_db) as original_service:
            original = [original_service.serve_inline(q) for q in self.QUERIES]
        with QueryService(loaded) as reloaded_service:
            reloaded = [reloaded_service.serve_inline(q) for q in self.QUERIES]
        for before, after in zip(original, reloaded):
            assert after.ok and before.ok
            assert after.sql == before.sql
            assert after.rung == before.rung == "full"
            # and the SQL actually executes identically on both stores
            assert (
                loaded.execute(after.translations[0].query).rows
                == fig1_db.execute(before.translations[0].query).rows
            )

    def test_loaded_database_has_fresh_data_version(self, fig1_db, tmp_path):
        save_database(fig1_db, tmp_path / "dump")
        loaded = load_database(tmp_path / "dump")
        total_rows = sum(
            loaded.count(relation.name) for relation in loaded.catalog
        )
        assert total_rows > 0
        # versions count inserts from zero: a reload replays every row,
        # so the loaded store starts at its own row count, independent of
        # whatever version the saved database had reached
        assert loaded.data_version == total_rows

    def test_insert_into_loaded_db_invalidates_service_context(
        self, fig1_db, tmp_path
    ):
        from repro import QueryService

        save_database(fig1_db, tmp_path / "dump")
        loaded = load_database(tmp_path / "dump")
        with QueryService(loaded) as service:
            warm = service.serve_inline(self.QUERIES[0])
            assert warm.ok
            assert service.context().stats.invalidations == 0
            loaded.insert("Person", [99, "Ang Lee", "male"])
            fresh = service.serve_inline(self.QUERIES[0])
            assert fresh.ok
            # the shared context noticed the new data version and rebuilt
            assert service.context().stats.invalidations == 1
            assert fresh.sql == warm.sql


class TestSqliteRoundTrip:
    """save/load → export_to_sqlite → reflect must preserve the catalog
    (including FK order) and every row."""

    def test_reflected_catalog_equivalent(self, fig1_db, tmp_path):
        from repro.backends import SqliteBackend
        from repro.engine.io import export_to_sqlite

        save_database(fig1_db, tmp_path / "dump")
        loaded = load_database(tmp_path / "dump")
        backend = SqliteBackend(
            export_to_sqlite(loaded, tmp_path / "dump.sqlite")
        )
        original = fig1_db.catalog
        reflected = backend.catalog
        assert [r.name for r in reflected] == [r.name for r in original]
        for relation in original:
            mirror = reflected.relation(relation.name)
            assert mirror.attribute_names == relation.attribute_names
            assert tuple(mirror.primary_key) == tuple(relation.primary_key)
            for ours, theirs in zip(relation.attributes, mirror.attributes):
                assert ours.data_type is theirs.data_type
                assert ours.nullable == theirs.nullable
        assert [fk.key for fk in reflected.foreign_keys] == [
            fk.key for fk in original.foreign_keys
        ]
        backend.close()

    def test_row_counts_and_values_preserved(self, fig1_db, tmp_path):
        from repro.backends import SqliteBackend
        from repro.engine.io import export_to_sqlite

        save_database(fig1_db, tmp_path / "dump")
        loaded = load_database(tmp_path / "dump")
        backend = SqliteBackend(
            export_to_sqlite(loaded, tmp_path / "dump.sqlite")
        )
        for relation in fig1_db.catalog:
            assert backend.count(relation.name) == fig1_db.count(relation.name)
            for attribute in relation.attributes:
                assert backend.column_values(
                    relation.name, attribute.name
                ) == fig1_db.column_values(relation.name, attribute.name)
        backend.close()

    def test_typed_values_survive_both_hops(self, tmp_path):
        from repro.backends import SqliteBackend
        from repro.engine.io import export_to_sqlite

        catalog = Catalog("typed")
        catalog.create_relation(
            "event",
            [
                ("event_id", DataType.INTEGER),
                ("flag", DataType.BOOLEAN),
                ("day", DataType.DATE),
            ],
            primary_key=["event_id"],
        )
        db = Database(catalog)
        db.insert("event", [1, True, datetime.date(1999, 12, 31)])
        db.insert("event", [2, False, None])
        save_database(db, tmp_path / "dump")
        loaded = load_database(tmp_path / "dump")
        backend = SqliteBackend(
            export_to_sqlite(loaded, tmp_path / "dump.sqlite")
        )
        assert backend.column_values("event", "flag") == [True, False]
        assert backend.column_values("event", "day") == [
            datetime.date(1999, 12, 31),
            None,
        ]
        backend.close()
