"""Every serving path answers each shipped workload like the warm translator.

Per workload (textbook, sophisticated, courses48) one translator warms a
shared context with a full pass and then translates the workload again
with ``translate_many`` at top-3.  That warm pass is the reference, and
each other path must give the same SQL and weights, interpretation by
interpretation:

* **cold** — a fresh translator per query, the process-wide string
  caches cleared first; each query's frontier counters conserve;
* **traced** — the warm pass with a real tracer exporting to a ring
  buffer;
* **SQLite** — the workload over ``export_to_sqlite`` + ``SqliteBackend``;
* **result cache** — the repeat mix (each query verbatim, then padded
  with blanks and a semicolon) served twice: every second-pass lookup
  hits;
* **service** — ``QueryService.serve_inline`` over the workload twice:
  exactly the requests whose canonical form came earlier are cached.

Memos, caches, tracing and backends change speed, never answers.
``tests/test_artifacts.py`` checks the artifact-attached path the same
way, and ``benchmarks/bench_translate.py`` times the warm, repeat-mix
and artifact paths.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import SchemaFreeTranslator
from repro.backends import SqliteBackend
from repro.core.config import DEFAULT_CONFIG
from repro.core.rescache import canonical_fingerprint
from repro.core.similarity import clear_string_caches
from repro.datasets import make_course_database, make_movie_database
from repro.engine.io import export_to_sqlite
from repro.obs import RingBufferExporter, Tracer
from repro.service import QueryService, ServiceConfig
from repro.workloads import (
    COURSE_QUERIES,
    SOPHISTICATED_QUERIES,
    TEXTBOOK_QUERIES,
)

TOP_K = 3

WORKLOADS = {
    "textbook": (make_movie_database, TEXTBOOK_QUERIES),
    "sophisticated": (make_movie_database, SOPHISTICATED_QUERIES),
    "courses48": (make_course_database, COURSE_QUERIES),
}


def answers(results) -> list[list[tuple[str, float]]]:
    return [[(t.sql, t.weight) for t in result] for result in results]


def caching_config(entries: int):
    return dataclasses.replace(DEFAULT_CONFIG, result_cache_size=entries + 16)


@pytest.fixture(scope="module", params=list(WORKLOADS))
def workload(request):
    """(database, queries, warm answers)."""
    factory, workload_queries = WORKLOADS[request.param]
    queries = [q.sf_sql or q.gold_sql for q in workload_queries]
    database = factory()
    translator = SchemaFreeTranslator(database)
    translator.translate_many(queries, top_k=TOP_K)  # warm the context
    warm = answers(translator.translate_many(queries, top_k=TOP_K))
    return database, queries, warm


class CountingSqliteBackend(SqliteBackend):
    """A SQLite backend that logs every column read."""

    def __init__(self, source) -> None:
        super().__init__(source)
        self.reads: list[tuple[str, str]] = []

    def column_values(self, relation_name: str, attribute_name: str) -> list:
        self.reads.append((relation_name, attribute_name))
        return super().column_values(relation_name, attribute_name)


class TestWorkloadParity:
    def test_cold_translators_match_warm(self, workload):
        database, queries, warm = workload
        cold = []
        pushed = 0
        for query in queries:
            clear_string_caches()
            translator = SchemaFreeTranslator(database)
            cold.append(translator.translate(query, top_k=TOP_K))
            counts = translator.last_translation_stats.generator
            assert counts["pushed"] == (
                counts["expanded"] + counts["pruned"] + counts["leftover"]
            ), query
            pushed += counts["pushed"]
        assert pushed > 0
        assert answers(cold) == warm

    def test_traced_pass_matches_untraced(self, workload):
        database, queries, warm = workload
        exporter = RingBufferExporter(capacity=4096)
        translator = SchemaFreeTranslator(
            database, tracer=Tracer(exporters=[exporter])
        )
        translator.translate_many(queries, top_k=TOP_K)
        assert answers(translator.translate_many(queries, top_k=TOP_K)) == warm
        assert exporter.spans()

    def test_sqlite_backend_matches_memory(self, workload):
        database, queries, warm = workload
        backend = CountingSqliteBackend(export_to_sqlite(database, ":memory:"))
        translator = SchemaFreeTranslator(backend)
        batch = translator.translate_many(queries, top_k=TOP_K)
        assert answers(batch) == warm
        # each column is read once and built into one sample
        assert backend.reads
        assert len(set(backend.reads)) == len(backend.reads)
        assert translator.context.stats.sample_builds == len(backend.reads)

    def test_result_cache_hits_every_repeat_identically(self, workload):
        database, queries, warm = workload
        mix = [form for query in queries for form in (query, f"  {query} ;")]
        translator = SchemaFreeTranslator(database, caching_config(len(mix)))
        translator.translate_many(mix, top_k=TOP_K)
        cached = translator.translate_many(mix, top_k=TOP_K)
        memo = translator.last_translation_stats.memo
        assert memo.get("result_hits") == len(mix)
        assert memo.get("result_misses", 0) == 0
        assert all(t.cached for result in cached for t in result)
        assert answers(cached) == [answer for answer in warm for _ in (0, 1)]

    def test_service_caches_exactly_the_in_order_repeats(self, workload):
        database, queries, warm = workload
        requests = queries * 2
        seen: set[str] = set()
        expected = []
        for query in requests:
            fingerprint = canonical_fingerprint(query)
            expected.append(fingerprint in seen)
            seen.add(fingerprint)
        config = ServiceConfig(
            top_k=TOP_K, translator=caching_config(len(requests))
        )
        with QueryService(database, config) as service:
            responses = [service.serve_inline(query) for query in requests]
            memo = service.snapshot()["memo"]
        assert [r.cached for r in responses] == expected
        assert answers(r.translations for r in responses) == warm * 2
        assert sum(m["result_hits"] for m in memo.values()) == sum(expected)
