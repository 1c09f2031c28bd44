"""Data-scoped memo revalidation after a ``data_version`` bump.

A write marks every relation stale; the first lookup that touches a
relation re-reads the samples its memos read, drops what moved, and
keeps the rest.  The contract under test is that this is *exact*: a
long-lived translator answers byte-identically (SQL, weight, rung) to a
translator built fresh on the written data, whatever the writes were —
inserts on the in-memory engine, inserts, updates and deletes committed
to SQLite by a second connection, samples that came from an attached
artifact, and re-reads that fail half-way.
"""

from __future__ import annotations

import itertools
import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, SchemaFreeTranslator
from repro.artifacts import ArtifactStore, build_artifact, load_context
from repro.backends import MemoryBackend, SqliteBackend, TransientBackendError
from repro.datasets import make_movie_database
from repro.engine.io import export_to_sqlite
from repro.errors import ReproError
from repro.testing import FaultyBackend

from tests.conftest import make_fig1_catalog, populate_fig1

TOP_K = 3

#: condition literals the writes below can make (or stop making) true
TITLES = ["Titanic", "Crimson Empire 1", "Zork Rising"]
NAMES = ["James Cameron", "Zork Zorkson", "Tom Hanks"]
GENRES = ["Drama", "Space Opera"]
GENDERS = ["male", "nonbinary"]

QUERIES = [
    "SELECT person?.name? WHERE movie?.title? = 'Titanic'",
    "SELECT movie?.title? WHERE person?.name? = 'Zork Zorkson'",
    "SELECT count(movie?.title?) WHERE genre?.name? = 'Space Opera'",
    "SELECT title? WHERE name? = 'James Cameron'",
    "SELECT company?.name? WHERE movie?.title? = 'Zork Rising'",
    "SELECT person?.name? WHERE gender? = 'nonbinary'",
]

_pk = itertools.count(10_000_000)


def outcomes(translator, query):
    """Top-k as (SQL, exact weight, rung); a typed failure is an outcome
    too, so it compares instead of failing the property."""
    try:
        return [
            (t.sql, t.weight, t.rung)
            for t in translator.translate(query, top_k=TOP_K)
        ]
    except ReproError as exc:
        return type(exc).__name__


def assert_matches_fresh(shared, backend, queries):
    fresh = SchemaFreeTranslator(backend)
    for query in queries:
        assert outcomes(shared, query) == outcomes(fresh, query), query


# -- writes, as (relation, row) for the engine and SQL for SQLite --------


def insert_row(relation: str, value: str) -> list:
    pk = next(_pk)
    if relation == "person":
        name, gender = value
        return [pk, name, gender, 1970]
    if relation == "movie":
        return [pk, value, 2001, 120, None, None, None, None, None, None, None]
    if relation == "genre":
        return [pk, value, None]
    if relation == "company":
        return [pk, value, 1950]
    raise AssertionError(relation)


INSERTS = st.one_of(
    st.tuples(
        st.just("person"),
        st.tuples(st.sampled_from(NAMES), st.sampled_from(GENDERS)),
    ),
    st.tuples(st.just("movie"), st.sampled_from(TITLES)),
    st.tuples(st.just("genre"), st.sampled_from(GENRES)),
    st.tuples(st.just("company"), st.sampled_from(NAMES + TITLES)),
)

#: (SQL, parameter strategy) for the second SQLite connection
SQL_WRITES = st.one_of(
    INSERTS.map(lambda w: ("insert", w)),
    st.tuples(
        st.just("UPDATE person SET name = ? WHERE person_id = ?"),
        st.tuples(st.sampled_from(NAMES), st.integers(1, 30)),
    ),
    st.tuples(
        st.just("UPDATE movie SET title = ? WHERE movie_id = ?"),
        st.tuples(st.sampled_from(TITLES), st.integers(1, 45)),
    ),
    st.tuples(
        st.just("UPDATE person SET gender = ? WHERE person_id = ?"),
        st.tuples(st.sampled_from(GENDERS), st.integers(1, 30)),
    ),
    st.tuples(
        st.just("DELETE FROM person WHERE person_id = ?"),
        st.tuples(st.integers(1, 30)),
    ),
    st.tuples(
        st.just("DELETE FROM genre WHERE genre_id = ?"),
        st.tuples(st.integers(1, 10)),
    ),
)

PROPERTY = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# the parity property, on both backends
# ---------------------------------------------------------------------------

#: module-level so the shared translator's memos outlive each example —
#: the warm, repeatedly-revalidated state is what the property is about
MEMORY_DB = make_movie_database(scale=0.25)
MEMORY_SHARED = SchemaFreeTranslator(MEMORY_DB)


@pytest.fixture(scope="module")
def sqlite_stack(tmp_path_factory):
    """(backend, writer connection, shared translator) over one file."""
    path = tmp_path_factory.mktemp("revalidation") / "movies.sqlite"
    export_to_sqlite(make_movie_database(scale=0.25), str(path)).close()
    backend = SqliteBackend(str(path))
    writer = sqlite3.connect(str(path))
    yield backend, writer, SchemaFreeTranslator(backend)
    writer.close()
    backend.close()


class TestIncrementalEqualsFresh:
    @PROPERTY
    @given(
        writes=st.lists(INSERTS, min_size=1, max_size=3),
        queries=st.lists(st.sampled_from(QUERIES), min_size=1, max_size=3),
    )
    def test_memory_inserts(self, writes, queries):
        for query in QUERIES:  # every memo warm before the first write
            outcomes(MEMORY_SHARED, query)
        for relation, value in writes:
            MEMORY_DB.insert(relation, insert_row(relation, value))
            assert_matches_fresh(MEMORY_SHARED, MEMORY_DB, queries)

    @PROPERTY
    @given(
        writes=st.lists(SQL_WRITES, min_size=1, max_size=3),
        queries=st.lists(st.sampled_from(QUERIES), min_size=1, max_size=3),
    )
    def test_sqlite_inserts_updates_deletes(
        self, sqlite_stack, writes, queries
    ):
        backend, writer, shared = sqlite_stack
        for query in QUERIES:
            outcomes(shared, query)
        for sql, params in writes:
            if sql == "insert":
                relation, value = params
                row = insert_row(relation, value)
                marks = ", ".join("?" * len(row))
                writer.execute(f"INSERT INTO {relation} VALUES ({marks})", row)
            else:
                writer.execute(sql, params)
            writer.commit()
            assert_matches_fresh(shared, backend, queries)


# ---------------------------------------------------------------------------
# samples from an attached artifact are a baseline like any other
# ---------------------------------------------------------------------------


class TestArtifactBaseline:
    def test_artifact_samples_revalidate_exactly(self, tmp_path):
        database = make_movie_database(scale=0.25)
        store = ArtifactStore(str(tmp_path))
        path = build_artifact(
            database, store, warmup=QUERIES, warmup_top_k=TOP_K
        )
        context = load_context(path, database)
        translator = SchemaFreeTranslator(database, context=context)
        for query in QUERIES:
            outcomes(translator, query)
        # every tree-sim came from the artifact, so no sample was decoded:
        # the lazily-sourced table is the only baseline
        assert context.stats.tree_sim_misses == 0
        stats = context.stats
        database.insert("movie", insert_row("movie", "Titanic"))
        hits = stats.tree_sim_hits
        assert_matches_fresh(translator, database, QUERIES)
        assert stats.revalidation_drops >= 1  # movie.title moved
        assert stats.tree_sim_hits > hits  # the other relations' memos held
        assert context._baseline_source is None  # released once settled


# ---------------------------------------------------------------------------
# a re-read that fails leaves no unverified memo behind
# ---------------------------------------------------------------------------


class TestFailedRevalidation:
    def test_error_during_reread_drops_the_relation(self):
        database = Database(make_fig1_catalog())
        populate_fig1(database)
        faulty = FaultyBackend(MemoryBackend(database))
        translator = SchemaFreeTranslator(faulty)
        context = translator.context
        query = "SELECT person?.name? WHERE movie?.title? = 'Titanic'"
        outcomes(translator, query)
        assert "person" in context._tree_sims
        assert ("person", "name") in context._conditions
        # a person called "Titanic" flips the condition on Person.name
        database.insert("Person", [99, "Titanic", "male"])
        context.ensure_current()
        next_read = faulty.visits.get("sample", 0) + 1
        faulty.inject_error("sample", trigger=next_read)
        # the tree with the condition: its score read Person's samples
        fingerprint = next(
            fp
            for fp, entry in context._tree_sims["person"].items()
            if entry[2]
        )
        with pytest.raises(TransientBackendError):
            context.cached_tree_similarity((fingerprint, "person"))
        assert "person" not in context._stale
        assert "person" not in context._tree_sims
        assert not any(rel == "person" for rel, _ in context._conditions)
        assert outcomes(translator, query) == outcomes(
            SchemaFreeTranslator(database), query
        )
        # the status was re-derived from the new data, not kept stale
        assert "satisfied" in context._conditions[("person", "name")].values()
