"""Translation result cache: canonicalization, bounds, invalidation.

The contract under test is docs/CACHING.md: fingerprint equality must
imply byte-identical translations, the LRU must respect both its entry
cap and byte budget, admission must reject anything degraded, and every
documented invalidation trigger must produce a guaranteed miss.
"""

import dataclasses
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, SchemaFreeTranslator
from repro.backends import MemoryBackend, TransientBackendError
from repro.core.config import DEFAULT_CONFIG
from repro.core.context import TranslationContext
from repro.core.resilience import Budget
from repro.core.rescache import (
    ResultCache,
    canonical_fingerprint,
    canonical_text,
    schema_fingerprint,
)
from repro.sqlkit import parse, render
from repro.testing import FaultyBackend, RenameTable, evolve

from .conftest import make_fig1_catalog, populate_fig1

CACHED_CONFIG = dataclasses.replace(DEFAULT_CONFIG, result_cache_size=64)


def make_db() -> Database:
    db = Database(make_fig1_catalog())
    populate_fig1(db)
    return db


def cached_translator(db=None, config=CACHED_CONFIG):
    db = db or make_db()
    context = TranslationContext(db, config)
    return SchemaFreeTranslator(db, config, context=context), context


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------


class TestCanonicalization:
    def test_whitespace_and_keyword_case_fold(self):
        a = "SELECT title? WHERE director_name? = 'James Cameron'"
        b = "select    title?\n  where director_name?  =  'James Cameron' ;"
        assert canonical_fingerprint(a) == canonical_fingerprint(b)

    def test_guess_term_case_folds(self):
        a = "SELECT Title? WHERE Director_Name? = 'James Cameron'"
        b = "SELECT title? WHERE director_name? = 'James Cameron'"
        assert canonical_fingerprint(a) == canonical_fingerprint(b)

    def test_exact_identifier_case_is_preserved(self):
        # the composer copies EXACT names verbatim into the output, so
        # folding them would let a hit serve different bytes
        a = "SELECT name FROM Person"
        b = "SELECT name FROM person"
        assert canonical_fingerprint(a) != canonical_fingerprint(b)

    def test_literal_case_is_preserved(self):
        a = "SELECT title? WHERE director_name? = 'James Cameron'"
        b = "SELECT title? WHERE director_name? = 'james cameron'"
        assert canonical_fingerprint(a) != canonical_fingerprint(b)

    def test_variable_names_are_preserved(self):
        assert canonical_fingerprint(
            "SELECT ?x WHERE year? > 1995"
        ) != canonical_fingerprint("SELECT ?y WHERE year? > 1995")

    def test_distinct_queries_do_not_collide(self):
        queries = [
            "SELECT title?",
            "SELECT title? WHERE year? > 1995",
            "SELECT title? WHERE year? > 1996",
            "SELECT name? WHERE year? > 1995",
            "SELECT count(title?) WHERE year? > 1995",
        ]
        prints = {canonical_fingerprint(q) for q in queries}
        assert len(prints) == len(queries)

    def test_accepts_parsed_ast(self):
        q = "SELECT Title? WHERE Year? > 1995"
        assert canonical_fingerprint(q) == canonical_fingerprint(parse(q))

    def test_canonical_text_is_idempotent(self):
        q = "select  Title?  where  Year? > 1995"
        once = canonical_text(q)
        assert canonical_text(once) == once

    @given(
        name=st.text(alphabet=string.ascii_letters, min_size=1, max_size=10),
        value=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_formatting_rewrites_share_a_fingerprint(self, name, value):
        base = f"SELECT {name}? WHERE year? > {value}"
        shouty = f"SELECT   {name.upper()}?   WHERE  YEAR? > {value};"
        assert canonical_fingerprint(base) == canonical_fingerprint(shouty)

    @given(
        a=st.integers(min_value=0, max_value=10**4),
        b=st.integers(min_value=0, max_value=10**4),
    )
    @settings(max_examples=60, deadline=None)
    def test_distinct_literals_distinct_fingerprints(self, a, b):
        fa = canonical_fingerprint(f"SELECT title? WHERE year? > {a}")
        fb = canonical_fingerprint(f"SELECT title? WHERE year? > {b}")
        assert (fa == fb) == (a == b)

    def test_fingerprint_equality_implies_identical_translation(self):
        # the soundness rule itself, end to end: mangle guess-term case
        # and formatting, assert the translated bytes cannot change
        tr, _ = cached_translator(
            config=dataclasses.replace(DEFAULT_CONFIG, result_cache_size=0)
        )
        pairs = [
            (
                "SELECT title? WHERE director_name? = 'James Cameron'",
                "select TITLE?  where  Director_Name? = 'James Cameron' ;",
            ),
            (
                "SELECT count(actor?.name?) WHERE year? > 1995",
                "SELECT COUNT(Actor?.Name?) WHERE Year? > 1995",
            ),
        ]
        for original, rewritten in pairs:
            assert canonical_fingerprint(original) == canonical_fingerprint(
                rewritten
            )
            sql_a = render(tr.translate(original)[0].query)
            sql_b = render(tr.translate(rewritten)[0].query)
            assert sql_a == sql_b


class TestSchemaFingerprint:
    def test_stable_for_equal_catalogs(self):
        assert schema_fingerprint(make_fig1_catalog()) == schema_fingerprint(
            make_fig1_catalog()
        )

    def test_changes_on_evolution(self):
        db = make_db()
        evolved = evolve(db, [RenameTable("Movie", "Film")])
        assert schema_fingerprint(db.catalog) != schema_fingerprint(
            evolved.database.catalog
        )


# ---------------------------------------------------------------------------
# bounded LRU storage
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_lookup_miss_and_hit(self):
        cache = ResultCache(4, 1 << 20)
        assert cache.lookup(("k",)) is None
        cache.store(("k",), ("payload",), 10)
        assert cache.lookup(("k",)) == ("payload",)

    def test_entry_cap_evicts_oldest(self):
        cache = ResultCache(2, 1 << 20)
        cache.store(("a",), ("pa",), 1)
        cache.store(("b",), ("pb",), 1)
        evicted = cache.store(("c",), ("pc",), 1)
        assert evicted == 1
        assert cache.lookup(("a",)) is None
        assert cache.lookup(("b",)) is not None
        assert cache.lookup(("c",)) is not None

    def test_lookup_touches_lru_order(self):
        cache = ResultCache(2, 1 << 20)
        cache.store(("a",), ("pa",), 1)
        cache.store(("b",), ("pb",), 1)
        cache.lookup(("a",))  # a is now the most recent
        cache.store(("c",), ("pc",), 1)
        assert cache.lookup(("b",)) is None
        assert cache.lookup(("a",)) is not None

    def test_byte_budget_evicts(self):
        from repro.core.rescache import ENTRY_OVERHEAD

        per_entry = ENTRY_OVERHEAD + 100
        cache = ResultCache(100, 2 * per_entry)
        cache.store(("a",), ("pa",), 100)
        cache.store(("b",), ("pb",), 100)
        assert cache.store(("c",), ("pc",), 100) == 1
        assert len(cache) == 2
        assert cache.cost_bytes <= 2 * per_entry

    def test_oversize_entry_refused(self):
        cache = ResultCache(100, 512)
        cache.store(("a",), ("pa",), 10)
        assert cache.store(("big",), ("pb",), 10_000) == 0
        # the giant entry did not wipe the cache
        assert cache.lookup(("a",)) is not None
        assert cache.lookup(("big",)) is None

    def test_restore_same_key_replaces(self):
        cache = ResultCache(4, 1 << 20)
        cache.store(("k",), ("v1",), 10)
        cache.store(("k",), ("v2",), 10)
        assert len(cache) == 1
        assert cache.lookup(("k",)) == ("v2",)

    def test_clear_resets_bytes(self):
        cache = ResultCache(4, 1 << 20)
        cache.store(("k",), ("v",), 10)
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.cost_bytes == 0

    def test_zero_entries_stores_nothing(self):
        cache = ResultCache(0, 1 << 20)
        assert cache.store(("k",), ("v",), 10) == 0
        assert cache.lookup(("k",)) is None


# ---------------------------------------------------------------------------
# translator integration
# ---------------------------------------------------------------------------


QUERY = "SELECT title? WHERE director_name? = 'James Cameron'"


class TestTranslatorCache:
    def test_repeat_hits_and_is_byte_identical(self):
        tr, ctx = cached_translator()
        first = tr.translate(QUERY)
        assert not first[0].cached
        second = tr.translate(QUERY)
        assert second[0].cached
        assert render(second[0].query) == render(first[0].query)
        assert second[0].weight == first[0].weight
        assert second[0].rung == first[0].rung
        assert ctx.stats.result_hits == 1

    def test_rewritten_query_hits(self):
        tr, _ = cached_translator()
        tr.translate(QUERY)
        variant = "select  TITLE?  where Director_Name? = 'James Cameron';"
        assert tr.translate(variant)[0].cached

    def test_disabled_by_default(self):
        db = make_db()
        tr = SchemaFreeTranslator(db)
        tr.translate(QUERY)
        assert not tr.translate(QUERY)[0].cached

    def test_budget_degraded_call_is_not_admitted(self):
        tr, ctx = cached_translator()
        degraded = tr.translate(QUERY, budget=Budget(max_expansions=1))
        assert degraded[0].rung == "greedy"
        assert ctx.result_cache_entries() == 0
        # the next call with budget to spare runs, and stores, full
        full = tr.translate(QUERY)
        assert full[0].rung == "full"
        assert not full[0].cached
        assert tr.translate(QUERY)[0].cached

    def test_failed_backend_read_admits_nothing(self):
        faulty = FaultyBackend(MemoryBackend(make_db()))
        tr, ctx = cached_translator(faulty)
        faulty.inject_error("sample")
        with pytest.raises(TransientBackendError):
            tr.translate(QUERY)
        assert ctx.result_cache_entries() == 0
        # the retry reads the samples again and is admitted
        retried = tr.translate(QUERY)
        assert not retried[0].cached
        assert ctx.result_cache_entries() == 1
        fresh = SchemaFreeTranslator(make_db()).translate(QUERY)
        assert [t.sql for t in retried] == [t.sql for t in fresh]

    def test_top_k_is_part_of_the_key(self):
        config = dataclasses.replace(CACHED_CONFIG, top_k=1)
        tr, _ = cached_translator(config=config)
        tr.translate(QUERY, top_k=1)
        assert not tr.translate(QUERY, top_k=2)[0].cached
        assert tr.translate(QUERY, top_k=2)[0].cached

    def test_hit_keeps_fresh_stats(self):
        tr, _ = cached_translator()
        tr.translate(QUERY)
        hit = tr.translate(QUERY)[0]
        assert hit.stats is not None
        assert hit.stats.memo.get("result_hits") == 1
        # a hit is served from parse + cache stages only
        assert "map" not in hit.stats.stages

    def test_hit_renders_nothing(self, monkeypatch):
        import repro.core.rescache as rescache_module
        import repro.core.translator as translator_module

        tr, _ = cached_translator()
        first = tr.translate(QUERY, top_k=3)
        calls = []

        def counting_render(node):
            calls.append(node)
            return render(node)

        monkeypatch.setattr(translator_module, "render", counting_render)
        monkeypatch.setattr(rescache_module, "render", counting_render)
        hits = tr.translate(QUERY, top_k=3)
        texts = [hit.sql for hit in hits]
        assert calls == []
        assert all(hit.cached for hit in hits)
        assert texts == [render(hit.query) for hit in hits]
        assert texts == [render(t.query) for t in first]

    def test_shared_context_shares_the_cache(self):
        db = make_db()
        ctx = TranslationContext(db, CACHED_CONFIG)
        a = SchemaFreeTranslator(db, CACHED_CONFIG, context=ctx)
        b = SchemaFreeTranslator(db, CACHED_CONFIG, context=ctx)
        a.translate(QUERY)
        assert b.translate(QUERY)[0].cached


# ---------------------------------------------------------------------------
# invalidation triggers (each one => guaranteed miss)
# ---------------------------------------------------------------------------


class TestInvalidation:
    def test_data_version_bump_invalidates(self):
        db = make_db()
        tr, ctx = cached_translator(db)
        tr.translate(QUERY)
        db.insert("Movie", [13, "True Lies", 1994])
        result = tr.translate(QUERY)
        assert not result[0].cached
        assert ctx.stats.result_invalidations >= 1
        # and the re-translation was re-admitted under the new epoch
        assert tr.translate(QUERY)[0].cached

    def test_evolution_yields_distinct_schema_fingerprint(self):
        # schema evolution builds a new Database/catalog, so its context
        # carries a different schema fingerprint: entries translated
        # against the old schema cannot be keys in the new world
        db = make_db()
        _, old_ctx = cached_translator(db)
        evolved = evolve(db, [RenameTable("Movie", "Film")])
        new_ctx = TranslationContext(evolved.database, CACHED_CONFIG)
        assert old_ctx.schema_fingerprint != new_ctx.schema_fingerprint

    def test_faulty_translator_never_caches(self):
        from repro.testing import FaultInjector

        db = make_db()
        ctx = TranslationContext(db, CACHED_CONFIG)
        clean = SchemaFreeTranslator(db, CACHED_CONFIG, context=ctx)
        clean.translate(QUERY)
        faulty = SchemaFreeTranslator(
            db, CACHED_CONFIG, context=ctx, faults=FaultInjector()
        )
        # a fault-injecting translator must neither read nor write the
        # shared cache: injected faults have to fire on every call
        assert not faulty.translate(QUERY)[0].cached


# ---------------------------------------------------------------------------
# serving-tier surfaces
# ---------------------------------------------------------------------------


class TestServiceCache:
    def test_inline_service_marks_cached(self):
        from repro.service import QueryService, ServiceConfig

        db = make_db()
        config = ServiceConfig(workers=1, translator=CACHED_CONFIG)
        with QueryService(db, config) as service:
            first = service.serve_inline(QUERY)
            second = service.serve_inline(QUERY)
        assert not first.cached
        assert second.cached
        assert second.sql == first.sql
        assert second.to_dict()["cached"] is True

    def test_service_metrics_count_cache(self):
        from repro.obs import MetricsRegistry
        from repro.service import QueryService, ServiceConfig

        registry = MetricsRegistry()
        db = make_db()
        config = ServiceConfig(workers=1, translator=CACHED_CONFIG)
        with QueryService(db, config, metrics=registry) as service:
            service.serve_inline(QUERY)
            service.serve_inline(QUERY)
        assert registry.counter("repro_cache_hits_total").value() == 1
        assert registry.counter("repro_cache_misses_total").value() == 1

    def test_cache_lookup_span_emitted(self):
        from repro.obs import RingBufferExporter, Tracer

        ring = RingBufferExporter()
        tracer = Tracer(exporters=[ring])
        db = make_db()
        ctx = TranslationContext(db, CACHED_CONFIG)
        tr = SchemaFreeTranslator(db, CACHED_CONFIG, context=ctx, tracer=tracer)
        tr.translate(QUERY)
        tr.translate(QUERY)
        lookups = [s for s in ring.spans() if s.name == "cache.lookup"]
        assert len(lookups) == 2
        assert lookups[0].attributes["hit"] is False
        assert lookups[1].attributes["hit"] is True
