"""The context-level network memo: hit/miss counters, survival of
data-version bumps (with data-scoped revalidation of the memos that do
read data), LRU bounds, and the property-based guarantee that memoized
generation equals a fresh search.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, SchemaFreeTranslator
from repro.datasets import make_course_database, make_movie_database
from repro.errors import ReproError

from tests.conftest import make_fig1_catalog, populate_fig1

QUERY = "SELECT person?.name? WHERE movie?.title? = 'Titanic'"


def fig1_translator():
    db = Database(make_fig1_catalog())
    populate_fig1(db)
    return SchemaFreeTranslator(db), db


def results(translator, query, top_k=3):
    """Translate and normalise to a comparable value; error outcomes are
    part of the contract, so they normalise too instead of failing."""
    try:
        return [
            (t.sql, round(t.weight, 9))
            for t in translator.translate(query, top_k=top_k)
        ]
    except ReproError as exc:
        return type(exc).__name__


class TestMemoCounters:
    def test_repeat_translation_hits_memo(self):
        translator, _ = fig1_translator()
        stats = translator.context.stats
        first = results(translator, QUERY)
        assert stats.network_misses >= 1
        assert stats.network_hits == 0
        misses = stats.network_misses
        second = results(translator, QUERY)
        assert second == first
        assert stats.network_hits >= 1
        assert stats.network_misses == misses

    def test_condition_literal_does_not_split_the_key(self):
        # the memo key captures tree shapes, name evidence, and candidate
        # relations — not condition literals, which only matter after the
        # networks exist
        translator, _ = fig1_translator()
        stats = translator.context.stats
        translator.translate(QUERY, top_k=3)
        hits = stats.network_hits
        translator.translate(
            "SELECT person?.name? WHERE movie?.title? = 'Avatar'", top_k=3
        )
        assert stats.network_hits > hits

    def test_unrelated_insert_keeps_tree_sim_and_network_hits(self):
        # Actor holds integers only, which no text condition ever samples:
        # the write bumps data_version but moves no sample any memo read
        translator, db = fig1_translator()
        stats = translator.context.stats
        first = results(translator, QUERY)
        tree_misses, tree_hits = stats.tree_sim_misses, stats.tree_sim_hits
        network_misses, network_hits = stats.network_misses, stats.network_hits
        db.insert("Actor", [5, 10])
        again = results(translator, QUERY)
        assert stats.invalidations == 1
        assert stats.revalidation_drops == 0
        assert stats.tree_sim_misses == tree_misses
        assert stats.tree_sim_hits > tree_hits
        assert stats.network_misses == network_misses
        assert stats.network_hits > network_hits
        assert again == first == results(fig1_translator()[0], QUERY)

    def test_sample_changing_insert_drops_exactly_that_relation(self):
        translator, db = fig1_translator()
        context = translator.context
        stats = context.stats
        results(translator, QUERY)
        tree_sims = dict(context._tree_sims)
        conditions = dict(context._conditions)
        assert "person" in tree_sims and len(tree_sims) > 1
        # a new name moves Person.name's sample; "male" leaves gender's as is
        db.insert("Person", [99, "Zork Zorkson", "male"])
        misses = stats.tree_sim_misses
        again = results(translator, QUERY)
        assert stats.revalidation_drops == 1
        # Person's tree-sim partition was dropped and rebuilt; every other
        # partition is the very same object, and only Person's missed
        assert 0 < stats.tree_sim_misses - misses <= len(tree_sims["person"])
        for rel, partition in tree_sims.items():
            if rel == "person":
                assert context._tree_sims[rel] is not partition
            else:
                assert context._tree_sims[rel] is partition
        # likewise for statuses: only the moved column's were rebuilt
        for column, partition in conditions.items():
            if column == ("person", "name"):
                assert context._conditions[column] is not partition
            else:
                assert context._conditions[column] is partition
        fresh = results(SchemaFreeTranslator(db), QUERY)
        assert again == fresh


class TestMemoLRU:
    def test_capacity_and_recency(self):
        translator, _ = fig1_translator()
        context = translator.context
        cap = context._network_memo_cap
        for i in range(cap + 5):
            context.remember_networks(("dummy", i), (None, ()))
        assert len(context._network_memo) == cap
        # keys 0..4 aged out; the newest survive
        assert context.cached_networks(("dummy", 0)) is None
        assert context.cached_networks(("dummy", cap + 4)) is not None
        # a hit refreshes recency: probe 5, insert one more, and the
        # never-probed 6 is evicted instead of 5
        assert context.cached_networks(("dummy", 5)) is not None
        context.remember_networks(("dummy", "extra"), (None, ()))
        assert context.cached_networks(("dummy", 6)) is None
        assert context.cached_networks(("dummy", 5)) is not None


# ---------------------------------------------------------------------------
# Property: memoized generation == fresh generation, also after data changes.
# The databases are module-level so the shared translators accumulate warm
# memos across examples — exactly the state the property is about.
# ---------------------------------------------------------------------------

MOVIE_DB = make_movie_database(scale=0.25)
COURSE_DB = make_course_database(scale=0.25)

MOVIE_POOL = [
    ("movie", "title"),
    ("person", "name"),
    ("genre", "name"),
    ("company", "name"),
    ("country", "name"),
    ("award", "name"),
]
COURSE_POOL = [
    ("department", "name"),
    ("program", "name"),
    ("campus", "name"),
    ("building", "name"),
    ("degree", "name"),
    ("room", "number"),
]

#: relation without outgoing FKs per schema, used to bump data_version
SCHEMAS = {
    "movies": (MOVIE_DB, MOVIE_POOL, "country", ["name", "region"]),
    "courses": (COURSE_DB, COURSE_POOL, "campus", ["name", "city"]),
}

SHARED = {name: SchemaFreeTranslator(db) for name, (db, *_rest) in SCHEMAS.items()}

_pk = itertools.count(10_000_000)


class TestMemoizedEqualsFresh:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_random_terminal_multisets(self, data):
        schema = data.draw(st.sampled_from(sorted(SCHEMAS)))
        db, pool, bump_relation, extra_attrs = SCHEMAS[schema]
        pairs = data.draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=3)
        )
        query = "SELECT " + ", ".join(
            f"{rel}?.{attr}?" for rel, attr in pairs
        )
        shared = SHARED[schema]
        cold = results(shared, query)  # populates (or reuses) the memo
        warm = results(shared, query)  # answered from the memo
        fresh = results(SchemaFreeTranslator(db), query)
        assert cold == warm == fresh
        # mutate the data: the shared translator must re-search and still
        # agree with a translator built after the change
        pk = next(_pk)
        db.insert(bump_relation, [pk] + [f"tmp{pk}" for _ in extra_attrs])
        after_bump = results(shared, query)
        fresh_after = results(SchemaFreeTranslator(db), query)
        assert after_bump == fresh_after
