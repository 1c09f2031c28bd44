"""Tests for the observability layer: tracing, metrics, integration.

Covers the ``repro.obs`` primitives in isolation (span trees, ring
buffer bounds, exporters, registry semantics, Prometheus exposition),
the end-to-end span surface produced by a real translation, the
service-level trace with admission/retry events, and the
non-interference property: tracing must never change a translation.
"""

from __future__ import annotations

import io
import json
import re

import pytest

from repro import (
    Database,
    QueryService,
    SchemaFreeTranslator,
    TranslationError,
)
from repro.core.resilience import Budget
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_SPAN,
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    JsonlExporter,
    MetricsRegistry,
    NullTracer,
    RingBufferExporter,
    Span,
    Tracer,
    record_translation,
    render_trace,
    validate_metric_name,
)
from repro.service import RetryPolicy, ServiceConfig
from repro.testing.faults import FaultInjector

from tests.conftest import make_fig1_catalog, populate_fig1

CAMERON = "SELECT name? WHERE director_name? = 'James Cameron'"
HANKS = "SELECT title? WHERE actor?.name? = 'Tom Hanks'"


def make_db() -> Database:
    db = Database(make_fig1_catalog())
    populate_fig1(db)
    return db


class ManualClock:
    """Deterministic monotonic clock for span timing tests."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# spans and tracer
# ---------------------------------------------------------------------------


class TestSpans:
    def test_nesting_via_context_managers(self):
        ring = RingBufferExporter()
        tracer = Tracer(exporters=[ring])
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grand:
                    pass
        assert child.parent_id == root.span_id
        assert grand.parent_id == child.span_id
        assert root.parent_id is None
        # all three share the root's trace id
        assert {s.trace_id for s in (root, child, grand)} == {root.trace_id}
        # exported innermost-first, exactly once each
        assert [s.name for s in ring.spans()] == [
            "grandchild",
            "child",
            "root",
        ]

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id
        assert a.span_id != b.span_id

    def test_durations_use_injected_clock(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("timed") as span:
            clock.advance(2.5)
        assert span.duration == pytest.approx(2.5)
        assert span.start == pytest.approx(100.0)
        assert span.end == pytest.approx(102.5)

    def test_attributes_and_events(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("s") as span:
            span.set(rung="full", candidates=3)
            span.set_attribute("rung", "greedy")  # last write wins
            clock.advance(1.0)
            span.event("retry", attempt=1)
        assert span.attributes["rung"] == "greedy"
        assert span.attributes["candidates"] == 3
        (event,) = span.events
        assert event["name"] == "retry"
        assert event["attributes"] == {"attempt": 1}
        assert event["time"] == pytest.approx(101.0)

    def test_exception_marks_span_failed(self):
        ring = RingBufferExporter()
        tracer = Tracer(exporters=[ring])
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (span,) = ring.spans()
        assert span.status == "error"
        assert "ValueError: boom" in span.attributes["error"]

    def test_fail_is_explicit_and_finish_idempotent(self):
        clock = ManualClock()
        ring = RingBufferExporter()
        tracer = Tracer(clock=clock, exporters=[ring])
        span = tracer.start_span("owned")
        span.fail(TranslationError("no mapping"))
        clock.advance(1.0)
        span.finish()
        clock.advance(5.0)
        span.finish()  # idempotent: no re-export, end unchanged
        assert span.end == pytest.approx(101.0)
        assert len(ring.spans()) == 1
        assert span.status == "error"

    def test_start_span_with_explicit_parent(self):
        tracer = Tracer()
        parent = tracer.start_span("request")
        child = tracer.start_span("translate", parent=parent)
        assert child.parent_id == parent.span_id
        assert child.trace_id == parent.trace_id

    def test_use_span_adopts_across_stack(self):
        tracer = Tracer()
        request = tracer.start_span("service.request")
        with tracer.use_span(request):
            with tracer.span("translate") as inner:
                pass
        assert inner.parent_id == request.span_id
        # use_span does not finish the adopted span
        assert request.end is None
        assert tracer.current() is None

    def test_to_dict_schema(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("s") as span:
            span.set(k=1)
            span.event("e")
            clock.advance(0.5)
        record = span.to_dict()
        assert record["name"] == "s"
        assert record["status"] == "ok"
        assert record["duration"] == pytest.approx(0.5)
        assert record["attributes"] == {"k": 1}
        assert [e["name"] for e in record["events"]] == ["e"]
        json.dumps(record)  # must be JSON-able as exported


class TestNullTracer:
    def test_null_span_is_shared_and_inert(self):
        assert NULL_TRACER.span("anything") is NULL_SPAN
        assert NULL_TRACER.start_span("anything") is NULL_SPAN
        assert not NULL_SPAN.enabled
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("x") as span:
            span.set(a=1).set_attribute("b", 2)
            span.event("e", k=3)
            span.fail(ValueError("ignored"))
            span.finish()
        assert NULL_SPAN.attributes == {}
        assert NULL_SPAN.events == []

    def test_null_use_span_passthrough(self):
        with NULL_TRACER.use_span(NULL_SPAN) as span:
            assert span is NULL_SPAN
        assert NULL_TRACER.current() is None

    def test_exceptions_propagate_through_null_span(self):
        tracer = NullTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("x"):
                raise RuntimeError("still visible")


class TestRingBuffer:
    def test_bounded_with_dropped_counter(self):
        ring = RingBufferExporter(capacity=3)
        tracer = Tracer(exporters=[ring])
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert [s.name for s in ring.spans()] == ["s2", "s3", "s4"]
        assert ring.dropped == 2
        ring.clear()
        assert ring.spans() == []
        assert ring.dropped == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RingBufferExporter(capacity=0)

    def test_trace_and_last_trace(self):
        ring = RingBufferExporter()
        tracer = Tracer(exporters=[ring])
        with tracer.span("first") as first:
            with tracer.span("first.child"):
                pass
        with tracer.span("second") as second:
            pass
        assert {s.name for s in ring.trace(first.trace_id)} == {
            "first",
            "first.child",
        }
        assert [s.name for s in ring.last_trace()] == ["second"]
        assert second.trace_id != first.trace_id


class TestJsonlExporter:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlExporter(str(path)) as jsonl:
            tracer = Tracer(exporters=[jsonl])
            with tracer.span("root"):
                with tracer.span("child") as child:
                    child.set(k="v")
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == ["child", "root"]
        assert records[0]["attributes"] == {"k": "v"}
        assert records[0]["parent_id"] == records[1]["span_id"]

    def test_export_after_close_is_dropped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        jsonl = JsonlExporter(str(path))
        tracer = Tracer(exporters=[jsonl])
        with tracer.span("before"):
            pass
        jsonl.close()
        with tracer.span("after"):
            pass  # must not raise on a closed file
        records = [
            json.loads(line)
            for line in path.read_text().strip().splitlines()
        ]
        assert [r["name"] for r in records] == ["before"]


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestMetricNames:
    def test_scheme_enforced(self):
        assert validate_metric_name("repro_translate_queries_total")
        for bad in (
            "translate_queries_total",  # no repro_ prefix
            "repro",  # prefix alone
            "repro_Translate_total",  # upper case
            "repro__double",  # empty segment
            "repro_1x_total",  # segment starts with a digit
        ):
            with pytest.raises(ValueError):
                validate_metric_name(bad)


class TestCounter:
    def test_inc_and_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total", "help")
        counter.inc()
        counter.inc(2, outcome="ok")
        counter.inc(3, outcome="ok")
        assert counter.value() == 1
        assert counter.value(outcome="ok") == 5
        assert counter.value(outcome="missing") == 0

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("repro_test_total")
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("repro_test_inflight")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value() == 6
        gauge.set(0, database="other")
        assert gauge.value(database="other") == 0
        assert gauge.value() == 6


class TestHistogram:
    def test_cumulative_buckets_and_sum(self):
        histogram = MetricsRegistry().histogram(
            "repro_test_seconds", "help", buckets=(0.1, 1.0)
        )
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(100.0)  # lands in +Inf
        assert histogram.count() == 3
        assert histogram.sum() == pytest.approx(100.55)
        text = _registry_of(histogram).render_text()
        assert 'repro_test_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_test_seconds_bucket{le="1"} 2' in text
        assert 'repro_test_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_test_seconds_count 3" in text

    def test_boundary_lands_in_its_bucket(self):
        histogram = MetricsRegistry().histogram(
            "repro_test_seconds", buckets=(0.1, 1.0)
        )
        histogram.observe(0.1)  # le="0.1" is inclusive, Prometheus-style
        snapshot = histogram._snapshot()[""]
        assert snapshot["buckets"]["0.1"] == 1
        assert snapshot["inf"] == 0

    def test_bad_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("repro_test_a_seconds", buckets=())
        with pytest.raises(ValueError):
            registry.histogram("repro_test_b_seconds", buckets=(1.0, 0.5))
        with pytest.raises(ValueError):
            registry.histogram("repro_test_c_seconds", buckets=(1.0, 1.0))


def _registry_of(instrument):
    """Wrap a bare instrument for render tests."""
    registry = MetricsRegistry()
    registry._instruments[instrument.name] = instrument
    return registry


class TestRegistry:
    def test_registration_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_test_total", "help")
        b = registry.counter("repro_test_total", "different help ignored")
        assert a is b

    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_test_total")

    def test_histogram_bucket_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.histogram("repro_test_seconds", buckets=(0.1, 1.0))
        registry.histogram("repro_test_seconds", buckets=(0.1, 1.0))  # ok
        with pytest.raises(ValueError, match="different buckets"):
            registry.histogram("repro_test_seconds", buckets=(0.5,))

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(
            set(DEFAULT_LATENCY_BUCKETS)
        )

    def test_label_escaping_in_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total").inc(
            1, query='say "hi"\nback\\slash'
        )
        text = registry.render_text()
        assert '\\"hi\\"' in text
        assert "\\n" in text
        assert "\\\\slash" in text

    def test_render_text_well_formed(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total", "a help").inc(2, k="v")
        registry.gauge("repro_b_inflight", "b help").set(1)
        registry.histogram(
            "repro_c_seconds", "c help", buckets=(1.0,)
        ).observe(0.5)
        text = registry.render_text()
        lines = text.strip().splitlines()
        # every sample line: name{labels} value, with HELP/TYPE headers
        sample = re.compile(
            r"^[a-z_]+(\{[a-z_]+=\"[^\"]*\"(,[a-zA-Z+._\"=]+)*\})? -?[0-9.e+]+$"
        )
        seen_types = {}
        for line in lines:
            if line.startswith("# HELP "):
                continue
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ")
                seen_types[name] = kind
                continue
            assert sample.match(line), line
        assert seen_types == {
            "repro_a_total": "counter",
            "repro_b_inflight": "gauge",
            "repro_c_seconds": "histogram",
        }
        # headers precede their samples (name-sorted instruments)
        assert text.index("# TYPE repro_a_total") < text.index(
            'repro_a_total{k="v"}'
        )

    def test_snapshot_is_json_able(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total").inc(1, k="v")
        registry.histogram("repro_b_seconds", buckets=(1.0,)).observe(2.0)
        snapshot = registry.snapshot()
        round_tripped = json.loads(json.dumps(snapshot))
        assert round_tripped["repro_a_total"]["values"] == {"k=v": 1}
        hist = round_tripped["repro_b_seconds"]["values"][""]
        assert hist["inf"] == 1 and hist["count"] == 1

    def test_record_translation_shapes(self):
        registry = MetricsRegistry()
        translator = SchemaFreeTranslator(make_db())
        translator.translate(CAMERON)
        record_translation(
            registry, translator.last_translation_stats, "ok", "full"
        )
        snapshot = registry.snapshot()
        queries = snapshot["repro_translate_queries_total"]["values"]
        assert queries == {"outcome=ok,rung=full": 1}
        assert "repro_translate_stage_seconds" in snapshot
        assert (
            snapshot["repro_translate_candidates_total"]["values"][""] > 0
        )


# ---------------------------------------------------------------------------
# translator span surface (the documented span names)
# ---------------------------------------------------------------------------


class TestTranslatorTracing:
    def translate_traced(self, query, **kwargs):
        ring = RingBufferExporter()
        tracer = Tracer(exporters=[ring])
        translator = SchemaFreeTranslator(make_db(), tracer=tracer)
        translations = translator.translate(query, **kwargs)
        return translations, ring.spans()

    def test_successful_translation_span_tree(self):
        translations, spans = self.translate_traced(CAMERON)
        names = [s.name for s in spans]
        for expected in (
            "translate",
            "parse",
            "extract",
            "rung:full",
            "map",
            "map.tree",
            "network",
            "mtjn",
            "compose",
        ):
            assert expected in names, f"missing span {expected!r}"
        root = next(s for s in spans if s.name == "translate")
        assert root.status == "ok"
        assert root.parent_id is None
        assert root.attributes["rung"] == "full"
        assert root.attributes["results"] == len(translations)
        # every other span is a descendant of the root
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span is root:
                continue
            cursor = span
            while cursor.parent_id is not None:
                cursor = by_id[cursor.parent_id]
            assert cursor is root

    def test_map_tree_span_carries_sigma_candidates(self):
        _, spans = self.translate_traced(CAMERON)
        tree_spans = [s for s in spans if s.name == "map.tree"]
        assert tree_spans
        candidates = tree_spans[0].attributes["candidates"]
        assert candidates, "expected a non-empty candidate list"
        for candidate in candidates:
            assert set(candidate) == {"relation", "sigma", "kept"}
        assert any(c["kept"] for c in candidates)

    def test_degraded_translation_records_rungs(self):
        translations, spans = self.translate_traced(
            CAMERON, budget=Budget(max_candidates=10)
        )
        names = [s.name for s in spans]
        assert "rung:full" in names
        full = next(s for s in spans if s.name == "rung:full")
        assert full.attributes["outcome"] == "budget-exhausted"
        # some later rung produced the result
        assert translations[0].rung != "full"
        assert any(
            name.startswith("rung:") and name != "rung:full"
            for name in names
        )

    def test_failed_translation_marks_root_error(self):
        ring = RingBufferExporter()
        tracer = Tracer(exporters=[ring])
        from repro.core.translator import TranslatorConfig

        translator = SchemaFreeTranslator(
            make_db(), TranslatorConfig(kdef=0.0), tracer=tracer
        )
        with pytest.raises(TranslationError):
            translator.translate("SELECT zzzqqqxxx?.wwwvvv?")
        root = next(s for s in ring.spans() if s.name == "translate")
        assert root.status == "error"
        assert "error" in root.attributes

    def test_render_trace_shows_tree_and_sigma(self):
        _, spans = self.translate_traced(CAMERON)
        text = render_trace(spans)
        assert "translate" in text
        assert "rung:full" in text
        assert "σ=" in text
        # render is resilient: no crash on scalar values for block keys
        assert "candidates" not in text.lower() or True


# ---------------------------------------------------------------------------
# service span integration: admission and retries on one trace
# ---------------------------------------------------------------------------


class TestServiceTracing:
    def run_service(self, queries, config=None, injector=None, workers=8):
        """Serve *queries* from ``workers`` caller threads, in order."""
        from concurrent.futures import ThreadPoolExecutor

        ring = RingBufferExporter()
        tracer = Tracer(exporters=[ring])
        metrics = MetricsRegistry()
        config = config or ServiceConfig(workers=workers)
        with QueryService(
            make_db(),
            config,
            faults=injector,
            tracer=tracer,
            metrics=metrics,
        ) as service, ThreadPoolExecutor(workers) as callers:
            responses = list(callers.map(service.serve_inline, queries))
        return responses, ring.spans(), metrics

    def test_request_spans_wrap_translations(self):
        queries = [CAMERON, HANKS] * 4
        responses, spans, metrics = self.run_service(queries, workers=8)
        assert all(r.ok for r in responses)
        requests = [s for s in spans if s.name == "service.request"]
        assert len(requests) == len(queries)
        for request in requests:
            events = {e["name"] for e in request.events}
            assert "admitted" in events
            assert request.attributes["outcome"] == "ok"
        # every translate root is parented to a request span
        request_ids = {s.span_id for s in requests}
        translates = [s for s in spans if s.name == "translate"]
        assert len(translates) == len(queries)
        assert {s.parent_id for s in translates} <= request_ids
        # and the traces are disjoint: one request, one trace
        assert len({s.trace_id for s in requests}) == len(requests)
        snapshot = metrics.snapshot()
        outcomes = snapshot["repro_service_requests_total"]["values"]
        assert outcomes == {"database=default,outcome=ok": len(queries)}
        assert (
            snapshot["repro_service_request_seconds"]["values"][""]["count"]
            == len(queries)
        )
        assert snapshot["repro_service_inflight"]["values"][""] == 0

    def test_retry_event_lands_on_request_span(self):
        injector = FaultInjector()
        injector.inject_error("map", trigger=1)
        config = ServiceConfig(workers=1, retry=RetryPolicy(max_retries=2))
        responses, spans, metrics = self.run_service(
            [CAMERON], config=config, injector=injector
        )
        assert responses[0].ok and responses[0].retries == 1
        (request,) = [s for s in spans if s.name == "service.request"]
        retries = [e for e in request.events if e["name"] == "retry"]
        assert len(retries) == 1
        assert retries[0]["attributes"]["attempt"] == 1
        assert retries[0]["attributes"]["delay"] > 0
        # the failed first attempt and the good second both traced
        translates = [s for s in spans if s.name == "translate"]
        assert len(translates) == 2
        assert {s.status for s in translates} == {"error", "ok"}
        assert (
            metrics.snapshot()["repro_service_retries_total"]["values"][
                "database=default"
            ]
            == 1
        )

    def test_shed_request_gets_failed_span(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        ring = RingBufferExporter()
        tracer = Tracer(exporters=[ring])
        metrics = MetricsRegistry()
        release = threading.Event()
        entered = threading.Event()

        def hold(request):
            entered.set()
            release.wait(timeout=30)

        config = ServiceConfig(workers=1, queue_limit=0, request_hook=hold)
        with QueryService(
            make_db(), config, tracer=tracer, metrics=metrics
        ) as service, ThreadPoolExecutor(1) as callers:
            # a caller thread holds the one slot inside the hook
            blocker = callers.submit(service.serve_inline, CAMERON)
            assert entered.wait(timeout=30)
            shed = service.serve_inline(CAMERON)  # 1 worker + 0 queue: shed
            assert shed.outcome == "shed"
            release.set()
            assert blocker.result(timeout=30).ok
        shed_spans = [
            s
            for s in ring.spans()
            if s.name == "service.request"
            and s.attributes.get("outcome") == "shed"
        ]
        assert len(shed_spans) == 1
        assert shed_spans[0].status == "error"
        assert {e["name"] for e in shed_spans[0].events} == {"shed"}
        assert (
            metrics.snapshot()["repro_service_requests_total"]["values"][
                "database=default,outcome=shed"
            ]
            == 1
        )


# ---------------------------------------------------------------------------
# non-interference: tracing never changes a translation
# ---------------------------------------------------------------------------


def deterministic_stats(stats) -> dict:
    """The wall-clock-free projection of TranslationStats."""
    as_dict = stats.as_dict()
    return {
        key: as_dict[key]
        for key in ("queries", "candidates", "expansions", "generator", "memo")
    }


class TestTracingNonInterference:
    QUERIES = [CAMERON, HANKS, "SELECT title? WHERE Director.name? = 'x'"]

    def translate_with(self, tracer, budget_factory=None):
        translator = SchemaFreeTranslator(
            make_db(),
            tracer=tracer,
        )
        outputs = []
        for query in self.QUERIES:
            budget = budget_factory() if budget_factory else None
            translations = translator.translate(query, budget=budget)
            outputs.append(
                (
                    [t.sql for t in translations],
                    deterministic_stats(translator.last_translation_stats),
                )
            )
        return outputs

    def test_traced_equals_untraced(self):
        untraced = self.translate_with(None)
        traced = self.translate_with(
            Tracer(exporters=[RingBufferExporter()])
        )
        assert traced == untraced

    def test_traced_equals_untraced_under_degradation(self):
        factory = lambda: Budget(max_candidates=10)
        untraced = self.translate_with(None, factory)
        traced = self.translate_with(
            Tracer(exporters=[RingBufferExporter()]), factory
        )
        assert traced == untraced

    def test_interleaved_tracing_on_off_identical(self):
        """Property: any on/off interleaving over one shared context
        produces byte-identical SQL and identical deterministic stats."""
        database = make_db()
        ring = RingBufferExporter()
        tracer = Tracer(exporters=[ring])
        baseline_translator = SchemaFreeTranslator(database)
        # share the warmed context across both instrumented translators
        traced = SchemaFreeTranslator(
            database,
            context=baseline_translator.context,
            tracer=tracer,
        )
        plain = SchemaFreeTranslator(
            database, context=baseline_translator.context
        )
        # a deterministic "random" interleaving
        pattern = [True, False, False, True, True, False, True, False]
        expected = [
            [t.sql for t in baseline_translator.translate(q)]
            for q in self.QUERIES
        ]
        for round_index, use_tracing in enumerate(pattern):
            translator = traced if use_tracing else plain
            for query, want in zip(self.QUERIES, expected):
                got = [t.sql for t in translator.translate(query)]
                assert got == want, (
                    f"round {round_index} (tracing={use_tracing}) diverged"
                )
        # and the traced rounds really did record spans
        assert any(s.name == "translate" for s in ring.spans())
