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

from repro import (
    Budget,
    BudgetExceeded,
    Database,
    SchemaFreeTranslator,
    TranslationContext,
)
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
        # every tree-sim came from the artifact
        assert context.stats.tree_sim_misses == 0
        stats = context.stats
        database.insert("movie", insert_row("movie", "Titanic"))
        hits = stats.tree_sim_hits
        assert_matches_fresh(translator, database, QUERIES)
        assert stats.revalidation_drops >= 1  # movie.title moved
        assert stats.tree_sim_hits > hits  # the other relations' memos held

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


# ---------------------------------------------------------------------------
# the mapping memo: one lookup per tree, revalidated like the tree-sims
# ---------------------------------------------------------------------------


class MappingHits:
    """Counts the mapping-memo hits of one context (a wrapper around
    :meth:`TranslationContext.cached_mappings`)."""

    def __init__(self, context) -> None:
        self.hits = 0
        lookup = context.cached_mappings

        def counting(fingerprint):
            answer = lookup(fingerprint)
            self.hits += answer[0] is not None
            return answer

        context.cached_mappings = counting


def assert_memo_matches_fresh(shared, hits, backend, queries):
    """Each query three times on the shared translator, each equal to a
    fresh translator's top-k.  After a write the first pass re-reads
    through the per-relation probes, and stores no set whose probes
    dropped a partition; the second stores what the first could not;
    the third is served from the mapping memo."""
    fresh = SchemaFreeTranslator(backend)
    for query in queries:
        want = outcomes(fresh, query)
        assert outcomes(shared, query) == want, query
        assert outcomes(shared, query) == want, query
        before = hits.hits
        assert outcomes(shared, query) == want, query
        assert hits.hits > before, query


MAPPING_DB = make_movie_database(scale=0.25)
MAPPING_SHARED = SchemaFreeTranslator(MAPPING_DB)
MAPPING_HITS = MappingHits(MAPPING_SHARED.context)

#: (relation, attribute or None, alias) context aliases the property draws
ALIASES = st.lists(
    st.sampled_from(
        [
            ("movie", None, "film"),
            ("person", None, "human"),
            ("company", None, "studio"),
            ("genre", None, "category"),
            ("movie", "title", "heading"),
            ("person", "name", "moniker"),
            ("company", "name", "label"),
        ]
    ),
    min_size=1,
    max_size=3,
)


class TestMappingMemoEqualsFresh:
    @PROPERTY
    @given(
        writes=st.lists(INSERTS, min_size=1, max_size=3),
        queries=st.lists(st.sampled_from(QUERIES), min_size=1, max_size=3),
    )
    def test_memory_inserts(self, writes, queries):
        for query in QUERIES:
            outcomes(MAPPING_SHARED, query)
        for relation, value in writes:
            MAPPING_DB.insert(relation, insert_row(relation, value))
            assert_memo_matches_fresh(
                MAPPING_SHARED, MAPPING_HITS, MAPPING_DB, queries
            )

    @PROPERTY
    @given(
        writes=st.lists(SQL_WRITES, min_size=1, max_size=3),
        queries=st.lists(st.sampled_from(QUERIES), min_size=1, max_size=3),
    )
    def test_sqlite_second_connection_writes(
        self, sqlite_stack, writes, queries
    ):
        backend, writer, shared = sqlite_stack
        hits = getattr(shared, "_test_mapping_hits", None)
        if hits is None:
            hits = shared._test_mapping_hits = MappingHits(shared.context)
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
            assert_memo_matches_fresh(shared, hits, backend, queries)

    @PROPERTY
    @given(
        aliases=ALIASES,
        queries=st.lists(st.sampled_from(QUERIES), min_size=1, max_size=3),
    )
    def test_aliases(self, aliases, queries):
        database = make_movie_database(scale=0.25)

        def aliased():
            return SchemaFreeTranslator(
                database,
                context=TranslationContext(database, aliases=aliases),
            )

        shared = aliased()
        hits = MappingHits(shared.context)
        for query in QUERIES:  # every mapping memoized
            outcomes(shared, query)
        fresh = aliased()
        for query in queries:
            want = outcomes(fresh, query)
            assert outcomes(shared, query) == want, query
            before = hits.hits
            assert outcomes(shared, query) == want, query
            assert hits.hits > before, query

    @PROPERTY
    @given(
        query=st.sampled_from(QUERIES),
        fail_at=st.integers(1, 4),
    )
    def test_error_during_reread_of_a_memoized_mapping(self, query, fail_at):
        database = Database(make_fig1_catalog())
        populate_fig1(database)
        faulty = FaultyBackend(MemoryBackend(database))
        shared = SchemaFreeTranslator(faulty)
        context = shared.context
        for warm in QUERIES:
            outcomes(shared, warm)
        assert context._mappings
        # moves Person.name and Movie.title, so their re-reads matter
        database.insert("Person", [99, "Titanic", "male"])
        database.insert("Movie", [99, "Zork Zorkson", 2001])
        faulty.inject_error(
            "sample", trigger=faulty.visits.get("sample", 0) + fail_at
        )
        # the memoized set is not served while its columns are pending:
        # the probes re-read them, and the read that fails drops its
        # relation's tree-sims, and every mapping
        assert outcomes(shared, query) == "TransientBackendError"
        assert not context._mappings
        # what the failed read left behind answers as a fresh build,
        # through the memo's miss and then its hit
        want = outcomes(SchemaFreeTranslator(database), query)
        assert outcomes(shared, query) == want
        assert outcomes(shared, query) == want
        for other in QUERIES:
            assert outcomes(shared, other) == outcomes(
                SchemaFreeTranslator(database), other
            ), other


class TestMappingSetAcrossADrop:
    def test_set_computed_across_a_moved_sample_is_not_kept(self):
        # a deterministic interleaving of the race: while one translation
        # scores the relations of a tree, a write lands and another
        # thread's lookups re-read the samples, dropping a partition the
        # translation has already read.  The set it finishes must not be
        # memoized, or the next translation would serve the pre-write
        # score.
        database = Database(make_fig1_catalog())
        populate_fig1(database)
        translator = SchemaFreeTranslator(database)
        context = translator.context
        evaluator = translator.similarity
        probe = evaluator.memoized_tree_similarity
        probed = []

        def interleaved(tree, fingerprint, relation):
            probed.append(relation.key)
            if len(probed) == len(context.relations):
                database.insert("Company", [99, "Zork Pictures"])
                context.ensure_current()
                settle(context)
                for key, pending in list(context._baseline.items()):
                    for attribute in list(pending):
                        context.column_sample(key, attribute)
                assert not context._stale and not context._baseline
            return probe(tree, fingerprint, relation)

        evaluator.memoized_tree_similarity = interleaved
        query = "SELECT ?x.name? WHERE ?x.name? = 'Zork Pictures'"
        drops = context.stats.revalidation_drops
        assert isinstance(outcomes(translator, query), list)
        assert "company" in probed[:-1]  # read before the re-read dropped it
        assert context.stats.revalidation_drops > drops
        assert not context._mappings
        del evaluator.memoized_tree_similarity
        fresh = SchemaFreeTranslator(database)
        assert outcomes(translator, query) == outcomes(fresh, query)


class TestMappingHitAccounting:
    QUERY = "SELECT person?.name? WHERE person?.gender? = 'male'"

    def translator(self):
        database = Database(make_fig1_catalog())
        populate_fig1(database)
        return SchemaFreeTranslator(database)

    def test_hit_charges_and_counts_as_the_probes_it_replaces(self):
        translator = self.translator()
        translator.translate(self.QUERY)  # cold: one probe per relation
        cold = translator.last_translation_stats
        translator.translate(self.QUERY)  # the mapping memo answers
        hit = translator.last_translation_stats
        relations = len(translator.context.relations)
        assert cold.candidates == hit.candidates
        assert cold.memo["tree_sim_misses"] == relations
        assert hit.memo["tree_sim_hits"] == relations
        assert hit.memo["tree_sim_misses"] == 0

    def test_budget_raise_counts_only_the_probes_before_it(self):
        # the loop charges a relation, then probes it: with a cap of 3,
        # three probes ran when the fourth charge raised
        translator = self.translator()
        translator.translate(self.QUERY)
        with pytest.raises(BudgetExceeded) as raised:
            translator.translate(
                self.QUERY, budget=Budget(max_candidates=3), degrade=False
            )
        assert raised.value.diagnostic.candidates == 4
        memo = translator.last_translation_stats.memo
        assert memo["tree_sim_hits"] == 3
        assert memo["tree_sim_misses"] == 0

    @staticmethod
    def deadline_budget() -> Budget:
        reads = itertools.count()
        return Budget(deadline=6.0, clock=lambda: float(next(reads)))

    @pytest.mark.parametrize(
        "attached", [False, True], ids=["built", "attached"]
    )
    @pytest.mark.parametrize(
        "make_budget",
        [
            lambda: Budget(max_candidates=0),
            lambda: Budget(max_candidates=3),
            lambda: TestMappingHitAccounting.deadline_budget(),
        ],
        ids=["spent", "cap", "deadline"],
    )
    def test_stale_lookup_reads_and_raises_as_the_loop(
        self, make_budget, attached, tmp_path
    ):
        # after a write a mapping set whose columns are pending is neither
        # served nor assembled from memoized scores (an attached context
        # memoizes every tree-sim but no set): the probes re-read them,
        # each after its own charge.  So a spent, capped or expiring
        # budget reads the same samples and raises the same error as a
        # twin stack whose mapping memo always misses, which runs the
        # per-relation loop alone
        def run(memo: bool):
            database = Database(make_fig1_catalog())
            populate_fig1(database)
            backend = FaultyBackend(MemoryBackend(database))
            if attached:
                store = ArtifactStore(str(tmp_path / f"memo-{memo}"))
                path = build_artifact(
                    database, store, warmup=[self.QUERY], warmup_top_k=TOP_K
                )
                translator = SchemaFreeTranslator(
                    backend, context=load_context(path, backend)
                )
            else:
                translator = SchemaFreeTranslator(backend)
                translator.translate(self.QUERY)
                assert translator.context._mappings
            # moves Person.name, which the tree's conditions sampled
            database.insert("Person", [99, "Titanic", "male"])
            if not memo:
                context = translator.context
                context.cached_mappings = lambda fingerprint: (
                    None,
                    None,
                    context._tree_sim_epoch,
                )
            before = backend.visits.get("sample", 0)
            with pytest.raises(BudgetExceeded) as raised:
                translator.translate(
                    self.QUERY, budget=make_budget(), degrade=False
                )
            return (
                backend.visits.get("sample", 0) - before,
                str(raised.value),
                raised.value.diagnostic.stage,
                raised.value.diagnostic.candidates,
                translator.last_translation_stats.memo,
            )

        assert run(memo=True) == run(memo=False)


# ---------------------------------------------------------------------------
# the mapping-memo hit check: the read list against the pending columns
# ---------------------------------------------------------------------------


def served_by_baseline_walk(context, fingerprint) -> bool:
    """The hit rule as a walk over every relation with columns pending
    re-verification: nothing stale, and the fingerprint's tree-sim entry
    of each such relation recorded columns (None: all of them) disjoint
    from its pending ones."""
    if fingerprint not in context._mappings or context._stale:
        return False
    for relation, pending in context._baseline.items():
        columns = context._tree_sims[relation][fingerprint][2]
        if pending and (
            columns is None or not pending.keys().isdisjoint(columns)
        ):
            return False
    return True


def assert_hits_agree(context) -> int:
    """The read-list check answers as the walk for every memoized set;
    returns how many it serves."""
    served = 0
    for fingerprint in list(context._mappings):
        hit = context.cached_mappings(fingerprint)[0] is not None
        assert hit == served_by_baseline_walk(context, fingerprint)
        served += hit
    return served


def settle(context) -> None:
    """Touch every stale relation without re-reading a column, so its
    pending columns are exactly those that carry condition statuses."""
    with context._lock:
        for relation in list(context._stale):
            context._touch(relation, ())


class TestMappingReadList:
    #: reads the text columns of every relation (Person.name, .gender,
    #: Movie.title, Company.name), through its condition
    CONDITIONED = "SELECT person?.name? WHERE person?.gender? = 'male'"
    #: reads no column: no tree has a condition
    UNCONDITIONED = "SELECT person?.name?"

    def stack(self):
        database = Database(make_fig1_catalog())
        populate_fig1(database)
        translator = SchemaFreeTranslator(database)
        for query in (self.CONDITIONED, self.UNCONDITIONED):
            translator.translate(query)
        return database, translator.context

    @staticmethod
    def fingerprints(context, query):
        from repro.core.relation_tree import build_relation_trees, tree_fingerprint
        from repro.core.triples import extract
        from repro.sqlkit import parse

        return [
            tree_fingerprint(t)
            for t in build_relation_trees(extract(parse(query)))
        ]

    def served(self, context, query) -> bool:
        answers = [
            context.cached_mappings(fingerprint)[0] is not None
            for fingerprint in self.fingerprints(context, query)
        ]
        assert len(set(answers)) == 1
        return answers[0]

    def test_refused_while_a_read_column_is_pending(self):
        database, context = self.stack()
        # a duplicate row: every re-read sample equals its baseline, so
        # the sets stay memoized while their columns are re-verified
        database.insert("Person", [99, "Tom Hanks", "male"])
        context.ensure_current()
        assert not self.served(context, self.CONDITIONED)  # all stale
        assert_hits_agree(context)
        settle(context)
        assert set(context._baseline) == {"person", "movie", "company"}
        assert not self.served(context, self.CONDITIONED)
        assert self.served(context, self.UNCONDITIONED)
        assert_hits_agree(context)
        # re-read one relation's columns at a time: refused until the
        # last column the tree read is re-read
        for relation, attribute in [
            ("Person", "name"),
            ("Person", "gender"),
            ("Movie", "title"),
        ]:
            context.column_sample(relation, attribute)
            assert not self.served(context, self.CONDITIONED)
            assert self.served(context, self.UNCONDITIONED)
            assert_hits_agree(context)
        context.column_sample("Company", "name")
        assert not context._baseline
        assert self.served(context, self.CONDITIONED)
        assert assert_hits_agree(context) == len(context._mappings)

    def test_read_list_built_lazily_and_dropped_with_the_sets(self):
        database, context = self.stack()
        assert_hits_agree(context)
        assert not context._mapping_reads  # nothing pending: no list
        database.insert("Movie", [99, "Titanic", 1997])
        context.ensure_current()
        settle(context)
        assert_hits_agree(context)
        assert set(context._mapping_reads) == set(context._mappings)
        lists = {
            fingerprint: {relation for relation, _ in reads}
            for fingerprint, reads in context._mapping_reads.items()
        }
        for fingerprint in self.fingerprints(context, self.UNCONDITIONED):
            assert lists[fingerprint] == set()
        for fingerprint in self.fingerprints(context, self.CONDITIONED):
            assert lists[fingerprint] == {"person", "movie", "company"}
        database.insert("Person", [98, "Zork Zorkson", "male"])
        context.ensure_current()
        context.column_sample("Person", "name")  # a moved sample
        assert not context._mappings and not context._mapping_reads

    def test_unknown_columns_read_every_column(self, tmp_path):
        # an attached artifact's tree-sims record no sampled columns
        # (None), so a set assembled from them reads every relation
        database = Database(make_fig1_catalog())
        populate_fig1(database)
        store = ArtifactStore(str(tmp_path))
        path = build_artifact(
            database, store, warmup=[self.UNCONDITIONED], warmup_top_k=TOP_K
        )
        translator = SchemaFreeTranslator(
            database, context=load_context(path, database)
        )
        context = translator.context
        translator.translate(self.UNCONDITIONED)
        translator.translate(self.CONDITIONED)
        assert context._mappings
        database.insert("Company", [99, "Paramount"])
        context.ensure_current()
        settle(context)
        assert context._baseline
        assert not self.served(context, self.UNCONDITIONED)
        assert_hits_agree(context)
        for fingerprint in self.fingerprints(context, self.UNCONDITIONED):
            assert all(
                columns is None
                for _, columns in context._mapping_reads[fingerprint]
            )
        for relation, pending in list(context._baseline.items()):
            for attribute in list(pending):
                context.column_sample(relation, attribute)
        assert self.served(context, self.UNCONDITIONED)
        assert_hits_agree(context)

    @PROPERTY
    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("translate"), st.sampled_from(QUERIES)),
                st.tuples(st.just("write"), INSERTS),
                st.tuples(
                    st.just("reread"),
                    st.sampled_from(
                        [
                            ("person", "name"),
                            ("person", "gender"),
                            ("movie", "title"),
                            ("genre", "name"),
                            ("company", "name"),
                        ]
                    ),
                ),
                st.tuples(st.just("settle"), st.none()),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_agrees_with_the_baseline_walk(self, steps):
        database = make_movie_database(scale=0.25)
        translator = SchemaFreeTranslator(database)
        context = translator.context
        for query in QUERIES:
            outcomes(translator, query)
        for kind, arg in steps:
            if kind == "translate":
                outcomes(translator, arg)
            elif kind == "write":
                relation, value = arg
                database.insert(relation, insert_row(relation, value))
                context.ensure_current()
            elif kind == "reread":
                context.column_sample(*arg)
            else:
                settle(context)
            assert_hits_agree(context)
