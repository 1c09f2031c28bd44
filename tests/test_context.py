"""Tests for the shared TranslationContext: reuse semantics, cross-query
memoization, invalidation, and the batched translate_many API."""

import pytest

from repro import (
    Catalog,
    Database,
    DataType,
    SchemaFreeTranslator,
    TranslationContext,
    TranslatorConfig,
)

from tests.conftest import make_fig1_catalog, populate_fig1


def make_tiny_db():
    catalog = Catalog("tiny")
    catalog.create_relation(
        "person",
        [("person_id", DataType.INTEGER), ("name", DataType.TEXT)],
        primary_key=["person_id"],
    )
    db = Database(catalog)
    db.insert("person", [1, "Ada"])
    db.insert("person", [2, "Grace"])
    return db


class TestContextReuse:
    def test_neighbors_built_once_at_construction(self, fig1_db):
        translator = SchemaFreeTranslator(fig1_db)
        context = translator.context
        assert context.stats.neighbor_builds == len(fig1_db.catalog)
        translator.translate("SELECT actor?.name?")
        translator.translate("SELECT movie?.title?")
        assert context.stats.neighbor_builds == len(fig1_db.catalog)

    def test_samples_shared_across_queries(self, fig1_db):
        translator = SchemaFreeTranslator(fig1_db)
        context = translator.context
        translator.translate("SELECT name? WHERE gender? = 'male'")
        builds = context.stats.sample_builds
        assert builds > 0
        translator.translate("SELECT name? WHERE gender? = 'female'")
        # same columns probed again: no sample is materialised twice
        assert context.stats.sample_builds == builds
        assert context.stats.sample_hits > 0

    def test_tree_similarity_memoized_across_queries(self, fig1_db):
        translator = SchemaFreeTranslator(fig1_db)
        context = translator.context
        translator.translate("SELECT actor?.name? WHERE actor?.gender? = 'male'")
        misses = context.stats.tree_sim_misses
        hits = context.stats.tree_sim_hits
        translator.translate("SELECT actor?.name? WHERE actor?.gender? = 'male'")
        # a structurally identical query is a pure memo hit
        assert context.stats.tree_sim_misses == misses
        assert context.stats.tree_sim_hits > hits

    def test_context_shared_across_translators(self, fig1_db):
        context = TranslationContext(fig1_db)
        first = SchemaFreeTranslator(fig1_db, context=context)
        second = SchemaFreeTranslator(fig1_db, context=context)
        assert first.context is second.context
        first.translate("SELECT actor?.name?")
        misses = context.stats.tree_sim_misses
        second.translate("SELECT actor?.name?")
        assert context.stats.tree_sim_misses == misses

    def test_memo_hits_reported_in_translation_stats(self, fig1_db):
        translator = SchemaFreeTranslator(fig1_db)
        translator.translate("SELECT actor?.name?")
        second = translator.translate("SELECT actor?.name?")
        stats = second[0].stats
        assert stats is not None
        assert stats.memo.get("tree_sim_hits", 0) > 0
        assert stats.memo.get("tree_sim_misses", 0) == 0

    def test_degraded_cold_query_reports_no_memo_hits(self, fig1_db):
        """Regression: rung-2 re-probing of (tree, relation) pairs the
        interrupted full rung already scored used to be counted as memo
        *hits*, inflating hit rates on every degraded query.  A cold
        context has nothing memoized — the first probe of each pair in
        a translate() call must count once, later re-probes not at all.
        """
        from repro.core.resilience import Budget

        translator = SchemaFreeTranslator(fig1_db)
        translations = translator.translate(
            "SELECT name? WHERE director_name? = 'James Cameron'",
            budget=Budget(max_candidates=10),
        )
        assert translations[0].rung != "full"  # the ladder did engage
        memo = translator.last_translation_stats.memo
        assert memo["tree_sim_hits"] == 0
        assert memo["tree_sim_misses"] > 0

    def test_batch_replay_memo_hits_mirror_misses(self, fig1_db):
        """Replaying a query verbatim must report exactly one hit per
        first-pass miss — not more (double counting), not fewer."""
        translator = SchemaFreeTranslator(fig1_db)
        query = "SELECT name? WHERE director_name? = 'James Cameron'"
        translator.translate_many([query, query])
        memo = translator.last_translation_stats.memo
        assert memo["tree_sim_misses"] > 0
        assert memo["tree_sim_hits"] == memo["tree_sim_misses"]

    def test_stage_times_recorded(self, fig1_db):
        translator = SchemaFreeTranslator(fig1_db)
        translations = translator.translate(
            "SELECT count(actor?.name?) WHERE director_name? = 'James Cameron'"
        )
        stats = translations[0].stats
        assert {"parse", "map", "network", "compose"} <= set(stats.stages)
        assert stats.total_seconds > 0
        assert stats.candidates > 0
        assert translator.last_translation_stats is stats

    def test_insert_invalidates_data_derived_caches(self):
        db = make_tiny_db()
        translator = SchemaFreeTranslator(db)
        context = translator.context
        sql = "SELECT name? WHERE name? = 'Alan'"
        translator.translate(sql)
        assert context.stats.invalidations == 0
        assert "Alan" not in context.column_sample("person", "name")
        db.insert("person", [3, "Alan"])
        translator.translate(sql)
        assert context.stats.invalidations == 1
        # the sample was rebuilt and the new tuple is visible to it
        assert "Alan" in context.column_sample("person", "name")

    def test_wrong_database_rejected(self, fig1_db):
        other = make_tiny_db()
        context = TranslationContext(other)
        with pytest.raises(ValueError):
            SchemaFreeTranslator(fig1_db, context=context)

    def test_wrong_config_rejected(self, fig1_db):
        context = TranslationContext(fig1_db, TranslatorConfig(sigma=0.9))
        with pytest.raises(ValueError):
            SchemaFreeTranslator(fig1_db, context=context)

    def test_scoring_order_is_a_permutation(self, fig1_db):
        from repro.core.relation_tree import build_relation_trees
        from repro.core.triples import extract
        from repro.sqlkit import parse

        context = TranslationContext(fig1_db)
        tree = build_relation_trees(extract(parse("SELECT movie?.title?")))[0]
        ordered = context.scoring_order(tree)
        assert sorted(r.key for r in ordered) == sorted(
            r.key for r in fig1_db.catalog
        )
        assert ordered[0].name == "Movie"

    def test_scoring_order_memo_equals_a_fresh_index(self, fig1_db):
        from repro.core.context import NameIndex
        from repro.core.relation_tree import build_relation_trees
        from repro.core.triples import extract
        from repro.sqlkit import parse

        trees = build_relation_trees(extract(parse(
            "SELECT film?.title?, ?x.heading? WHERE studio?.name? = 'x'"
        )))

        def evidence(tree):
            if tree.known_name:
                return [tree.known_name]
            return [a.known_name for a in tree.attribute_trees if a.known_name]

        def check(context, reference):
            orders = []
            for tree in trees:
                memoized = context.scoring_order(tree)
                expected = reference.order(evidence(tree), context.relations)
                assert list(memoized) == expected
                # the second call is the memoized row
                assert context.scoring_order(tree) is memoized
                orders.append(memoized)
            return orders

        q = TranslatorConfig().qgram
        before = check(
            TranslationContext(fig1_db), NameIndex(fig1_db.catalog, q)
        )
        after = check(
            TranslationContext(
                fig1_db,
                aliases=[
                    ("Movie", None, "film"),
                    ("Company", None, "studio"),
                    ("Movie", "title", "heading"),
                ],
            ),
            NameIndex(
                fig1_db.catalog,
                q,
                {"movie": ["film", "heading"], "company": ["studio"]},
            ),
        )
        # the aliases moved each aliased relation to the front
        assert [order[0].name for order in after] == [
            "Movie", "Movie", "Company"
        ]
        assert [order[0].name for order in before] != [
            order[0].name for order in after
        ]

    def test_aliases_are_checked_and_normalized_at_construction(
        self, fig1_db
    ):
        from repro.catalog import SchemaError

        for bad in [
            ("Film", None, "movie"),
            ("Movie", "heading", "title"),
        ]:
            with pytest.raises(SchemaError):
                TranslationContext(fig1_db, aliases=[bad])
        context = TranslationContext(
            fig1_db,
            aliases=[
                ("MOVIE", None, " film "),
                ("Movie", None, "FILM"),  # a repeat
                ("Movie", None, "movie"),  # the real name
                ("Movie", None, "  "),  # blank
                ("Movie", "Title", "heading"),
                ("Movie", "title", "Title"),
            ],
        )
        assert context.relation_aliases("Movie") == ("film",)
        assert context.attribute_aliases("movie", "TITLE") == ("heading",)
        assert context.relation_aliases("Person") == ()
        with pytest.raises(TypeError):
            context._relation_aliases["person"] = ("human",)

    def test_export_state_refuses_an_aliased_context(self, fig1_db):
        # the fig. 1 alias Company <- film: an aliased name index must not
        # be exported under the alias-free schema fingerprint that keys
        # an artifact, whose restore knows no aliases
        from repro.errors import ReproError

        context = TranslationContext(
            fig1_db, aliases=[("Company", None, "film")]
        )
        with pytest.raises(ReproError) as raised:
            context.export_state()
        assert raised.value.diagnostic.stage == "artifact"
        assert raised.value.diagnostic.detail == {"aliased": ["company"]}
        # the same database's alias-free context exports as before
        schema_state, _ = TranslationContext(fig1_db).export_state()
        assert schema_state.schema_fingerprint == context.schema_fingerprint


class TestTranslateMany:
    def test_batch_stats_aggregate(self, fig1_db):
        translator = SchemaFreeTranslator(fig1_db)
        queries = [
            "SELECT actor?.name?",
            "SELECT movie?.title?",
            "SELECT actor?.name?",
        ]
        results = translator.translate_many(queries)
        assert len(results) == 3
        stats = translator.last_translation_stats
        assert stats.queries == 3
        assert stats.total_seconds > 0
        # the third query repeats the first: the batch saw memo hits
        assert stats.memo.get("tree_sim_hits", 0) > 0


class TestNameRowStore:
    def test_bounded_and_never_persisted(self, monkeypatch):
        import repro.core.context as context_module

        monkeypatch.setattr(context_module, "NAME_ROW_CAP", 3)
        database = Database(make_fig1_catalog())
        populate_fig1(database)
        translator = SchemaFreeTranslator(database)
        context = translator.context
        for query in (
            "SELECT person?.name? WHERE movie?.title? = 'Titanic'",
            "SELECT company?.name? WHERE gender? = 'male'",
            "SELECT director?.? WHERE release_year? > 2000",
        ):
            translator.translate(query)
        assert len(context._name_rows) == 3
        # rows read names only: a write keeps them
        database.insert("Company", [77, "Zork Pictures"])
        translator.translate("SELECT person?.name?")
        assert context._name_rows
        _, memos = context.export_state()
        assert not any(
            isinstance(key, tuple) and key[0] in ("root", "attribute")
            for table in vars(memos).values()
            for key in table
        )
