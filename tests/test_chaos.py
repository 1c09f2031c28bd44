"""Chaos-harness tests: FaultyBackend, ResilientBackend, the
(operation x fault-kind) matrix, and the schema-evolution harness."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.backends import (
    CLOSED,
    BackendDegraded,
    BackendUnavailable,
    BreakerConfig,
    MemoryBackend,
    ResilientBackend,
    TransientBackendError,
)
from repro.cli import EXIT_BACKEND, exit_code_for
from repro.core import SchemaFreeTranslator, TranslationContext
from repro.obs import MetricsRegistry, RingBufferExporter, Tracer
from repro.backends.retry import NO_RETRY, RetryPolicy
from repro.testing import (
    BACKEND_OPS,
    DropForeignKey,
    EvolutionHarness,
    FaultInjector,
    FaultyBackend,
    MergeTables,
    RenameColumn,
    RenameTable,
    SplitTable,
    VirtualClock,
    evolve,
    recover_vocabulary,
    standard_mutations,
)
from repro.testing.faults import _KINDS_BY_OP
from repro.datasets import make_course_database
from repro.workloads import COURSE_QUERIES, TEXTBOOK_QUERIES

from .conftest import make_fig1_catalog, populate_fig1
from repro import Database


def make_chaos_stack(fig1_db, *, breaker=None, retry=None, timeouts=None):
    """ResilientBackend over FaultyBackend over MemoryBackend, on one
    shared, purely virtual clock (no real time passes in any chaos test,
    and none leaks into a timeout)."""
    injector = FaultInjector(clock=VirtualClock(origin=None))
    faulty = FaultyBackend(MemoryBackend(fig1_db), injector)
    resilient = ResilientBackend(
        faulty,
        clock=injector.clock,
        sleep=injector.advance,
        breaker=breaker,
        retry=retry,
        timeouts=timeouts,
    )
    return resilient, faulty, injector


# ---------------------------------------------------------------------------
# FaultyBackend
# ---------------------------------------------------------------------------


class TestFaultyBackend:
    def test_error_fires_once_at_trigger(self, fig1_db):
        faulty = FaultyBackend(MemoryBackend(fig1_db))
        faulty.inject_error("sample", trigger=2)
        assert faulty.column_values("Movie", "title")  # visit 1: clean
        with pytest.raises(TransientBackendError):
            faulty.column_values("Movie", "title")  # visit 2: fires
        assert faulty.column_values("Movie", "title")  # visit 3: spent
        assert faulty.log == [("sample", "error")]

    def test_hang_advances_virtual_clock_only(self, fig1_db):
        # a purely virtual clock: a wall-clock origin would let any host
        # stall between the two readings leak into the difference
        faulty = FaultyBackend(
            MemoryBackend(fig1_db),
            FaultInjector(clock=VirtualClock(origin=None)),
        )
        faulty.inject_hang("count", seconds=30.0)
        before = faulty.injector.clock()
        assert faulty.count("Movie") == 3
        assert faulty.injector.clock() - before == pytest.approx(30.0)

    def test_torn_batch_is_silently_halved(self, fig1_db):
        faulty = FaultyBackend(MemoryBackend(fig1_db))
        whole = faulty.column_values("Person", "name")  # visit 1
        faulty.inject_torn("sample", trigger=2)
        torn = faulty.column_values("Person", "name")  # visit 2: fires
        assert torn == whole[: len(whole) // 2]

    def test_partial_reflect_raises_degraded_with_pruned_catalog(self, fig1_db):
        faulty = FaultyBackend(MemoryBackend(fig1_db))
        faulty.inject_partial_reflect(drop=2)
        with pytest.raises(BackendDegraded) as info:
            faulty.catalog
        partial = info.value.partial
        full = fig1_db.catalog
        assert len(partial.relations) == len(full.relations) - 2
        kept = {r.name for r in partial.relations}
        for fk in partial.foreign_keys:
            assert fk.source_relation in kept and fk.target_relation in kept

    def test_invalid_op_and_kind_rejected(self, fig1_db):
        faulty = FaultyBackend(MemoryBackend(fig1_db))
        with pytest.raises(ValueError):
            faulty.inject_error("mutate")
        with pytest.raises(ValueError):
            faulty.inject_torn("version")

    def test_seeded_schedule_is_reproducible(self, fig1_db):
        a = FaultyBackend(MemoryBackend(fig1_db))
        b = FaultyBackend(MemoryBackend(fig1_db))
        plan_a = [(f.op, f.kind, f.trigger) for f in a.schedule_from_seed(7)]
        plan_b = [(f.op, f.kind, f.trigger) for f in b.schedule_from_seed(7)]
        assert plan_a == plan_b
        assert plan_a != [
            (f.op, f.kind, f.trigger) for f in a.schedule_from_seed(8)
        ]


# ---------------------------------------------------------------------------
# ResilientBackend
# ---------------------------------------------------------------------------


class TestResilientBackend:
    def test_transient_fault_retries_to_success(self, fig1_db):
        rb, faulty, _ = make_chaos_stack(fig1_db)
        faulty.inject_error("sample")
        values = rb.column_values("Movie", "title")
        assert sorted(values) == ["Avatar", "The Terminal", "Titanic"]
        assert rb.health.retries == 1
        assert not rb.health.degraded
        assert rb.breaker.state == CLOSED

    def test_exhausted_execute_raises_backend_unavailable(self, fig1_db):
        rb, faulty, _ = make_chaos_stack(fig1_db)
        faulty.inject_error("execute", repeat=True)
        with pytest.raises(BackendUnavailable) as info:
            rb.execute("SELECT title FROM Movie")
        assert exit_code_for(info.value) == EXIT_BACKEND
        assert info.value.diagnostic is not None
        assert info.value.diagnostic.stage == "backend"

    def test_sampling_outage_degrades_to_empty_column(self, fig1_db):
        rb, faulty, _ = make_chaos_stack(fig1_db)
        faulty.inject_error("sample", repeat=True)
        assert rb.column_values("Movie", "title") == []
        assert rb.health.stats_degraded
        assert rb.start_advice == ("greedy", "statistics sampling failed")
        assert rb.health.diagnostics

    def test_hang_times_out_on_virtual_clock_then_recovers(self, fig1_db):
        rb, faulty, _ = make_chaos_stack(fig1_db)
        faulty.inject_hang("sample", seconds=600.0)  # >> 5s sample timeout
        values = rb.column_values("Movie", "title")
        assert len(values) == 3
        assert rb.health.retries == 1

    def test_partial_reflection_keeps_partial_catalog(self, fig1_db):
        rb, faulty, _ = make_chaos_stack(fig1_db)
        faulty.inject_partial_reflect(drop=1)
        catalog = rb.catalog
        assert len(catalog.relations) == len(fig1_db.catalog.relations) - 1
        assert rb.health.catalog_partial
        assert rb.start_advice == ("greedy", "partial catalog")
        # cached: the second read does not re-reflect
        assert rb.catalog is catalog

    def test_version_outage_serves_last_known_version(self, fig1_db):
        rb, faulty, _ = make_chaos_stack(fig1_db)
        known = rb.data_version
        faulty.inject_error("version", repeat=True)
        assert rb.data_version == known
        assert rb.health.version_stale

    def test_version_outage_with_no_history_is_terminal(self, fig1_db):
        rb, faulty, _ = make_chaos_stack(fig1_db)
        faulty.inject_error("version", repeat=True)
        with pytest.raises(BackendUnavailable):
            rb.data_version

    def test_semantic_error_propagates_unchanged(self, fig1_db):
        from repro.catalog import SchemaError

        rb, _, _ = make_chaos_stack(fig1_db)
        with pytest.raises(SchemaError):
            rb.column_values("Movei_Typo", "title")
        assert not rb.health.degraded
        assert rb.breaker.state == CLOSED

    def test_breaker_trips_and_pins_rung(self, fig1_db):
        rb, faulty, _ = make_chaos_stack(
            fig1_db,
            breaker=BreakerConfig(failure_threshold=2),
            retry=NO_RETRY,
        )
        faulty.inject_error("count", repeat=True)
        for _ in range(2):
            with pytest.raises(BackendUnavailable):
                rb.count("Movie")
        assert rb.breaker.state != CLOSED
        assert rb.start_advice == ("greedy", "circuit breaker open")

    def test_retry_and_degrade_metrics_and_spans(self, fig1_db):
        ring = RingBufferExporter()
        metrics = MetricsRegistry()
        injector = FaultInjector()
        faulty = FaultyBackend(MemoryBackend(fig1_db), injector)
        rb = ResilientBackend(
            faulty,
            clock=injector.clock,
            sleep=injector.advance,
            tracer=Tracer(exporters=[ring]),
            metrics=metrics,
        )
        faulty.inject_error("sample")  # one retry
        faulty.inject_error("execute", repeat=True)  # terminal
        rb.column_values("Movie", "title")
        with pytest.raises(BackendUnavailable):
            rb.execute("SELECT title FROM Movie")
        names = [span.name for span in ring.spans()]
        assert "backend.retry" in names
        rendered = metrics.render_text()
        assert "repro_backend_retry_total" in rendered

    def test_faultless_translation_is_byte_identical(self, fig1_db):
        bare = MemoryBackend(fig1_db)
        rb = ResilientBackend(MemoryBackend(fig1_db))
        t_bare = SchemaFreeTranslator(bare)
        t_res = SchemaFreeTranslator(rb)
        for query in TEXTBOOK_QUERIES[:8]:
            sql = query.sf_sql or query.gold_sql
            assert (
                t_bare.translate_best(sql).sql == t_res.translate_best(sql).sql
            )
        assert not rb.health.degraded

    def test_translator_folds_backend_advice_into_ladder(self, fig1_db):
        rb, faulty, _ = make_chaos_stack(fig1_db)
        faulty.inject_error("sample", repeat=True)
        translator = SchemaFreeTranslator(rb)
        # first translation discovers the sampling outage mid-query;
        # the advice is folded at the *start* of the next one
        translator.translate_best("SELECT title? WHERE year? > 1995")
        assert rb.health.stats_degraded
        result = translator.translate_best("SELECT title? WHERE year? > 1995")
        steps = tuple(result.degradation)
        assert any("backend degraded" in step for step in steps)
        assert any("statistics sampling failed" in step for step in steps)


# ---------------------------------------------------------------------------
# the (operation x fault kind) matrix — ISSUE satellite
# ---------------------------------------------------------------------------

MATRIX = [
    (op, kind) for op in BACKEND_OPS for kind in _KINDS_BY_OP[op]
]

#: per-cell allowed typed outcomes; anything outside fails the matrix
EXPECTED_VERDICTS = {
    ("reflect", "error"): {"backend-error"},
    ("reflect", "hang"): {"backend-error"},
    ("reflect", "partial-reflect"): {"degraded"},
    ("sample", "error"): {"degraded"},
    ("sample", "hang"): {"degraded"},
    ("sample", "torn"): {"ok"},
    ("execute", "error"): {"backend-error"},
    ("execute", "hang"): {"backend-error"},
    ("execute", "torn"): {"ok"},
    ("count", "error"): {"backend-error"},
    ("count", "hang"): {"backend-error"},
    ("version", "error"): {"backend-error"},
    ("version", "hang"): {"backend-error"},
}


def drive(rb: ResilientBackend, op: str):
    if op == "reflect":
        return rb.catalog
    if op == "sample":
        return rb.column_values("Movie", "title")
    if op == "execute":
        return rb.execute("SELECT title FROM Movie")
    if op == "count":
        return rb.count("Movie")
    if op == "version":
        return rb.data_version
    raise AssertionError(f"unknown op {op}")


def run_cell(fig1_db, op: str, kind: str, request_id: int):
    """One matrix cell: inject the fault repeatedly, drive the op, and
    classify the outcome.  Returns (verdict, exit_code)."""
    injector = FaultInjector()
    faulty = FaultyBackend(MemoryBackend(fig1_db), injector)
    rb = ResilientBackend(
        faulty,
        clock=injector.clock,
        sleep=injector.advance,
        request_id=request_id,
    )
    if kind == "error":
        faulty.inject_error(op, repeat=True)
    elif kind == "hang":
        # every attempt hangs past any per-op deadline: the terminal
        # path (retries exhausted) is what the cell asserts
        faulty.inject_hang(op, seconds=3600.0, repeat=True)
    elif kind == "torn":
        faulty.inject_torn(op, repeat=True)
    elif kind == "partial-reflect":
        faulty.inject_partial_reflect(drop=1)
    try:
        drive(rb, op)
    except Exception as exc:  # the matrix's whole point: classify, never crash — the test REPL survives
        from repro.backends.errors import BackendError

        if isinstance(exc, BackendError):
            return "backend-error", exit_code_for(exc)
        return f"unhandled:{type(exc).__name__}", exit_code_for(exc)
    if rb.health.degraded:
        return "degraded", 0
    if rb.health.retries:
        return "retried", 0
    return "ok", 0


class TestFaultMatrix:
    @pytest.mark.parametrize("op,kind", MATRIX)
    def test_every_cell_ends_in_a_typed_outcome(self, fig1_db, op, kind):
        verdict, code = run_cell(fig1_db, op, kind, request_id=0)
        assert verdict in EXPECTED_VERDICTS[(op, kind)], (
            f"({op}, {kind}) produced {verdict!r}"
        )
        assert code in (0, EXIT_BACKEND)

    @pytest.mark.parametrize("op,kind", MATRIX)
    def test_verdicts_stable_across_retry_jitter_seeds(self, fig1_db, op, kind):
        outcomes = {
            run_cell(fig1_db, op, kind, request_id=seed)
            for seed in (0, 17, 4242)
        }
        assert len(outcomes) == 1, (
            f"({op}, {kind}) verdict depends on the jitter seed: {outcomes}"
        )

    def test_seeded_schedules_never_crash_translation(self, fig1_db):
        """Every seeded multi-fault schedule ends in a typed outcome:
        a translation result or a ReproError — never a raw crash."""
        from repro.errors import ReproError

        for seed in range(6):
            injector = FaultInjector()
            faulty = FaultyBackend(MemoryBackend(fig1_db), injector)
            faulty.schedule_from_seed(seed)
            rb = ResilientBackend(
                faulty, clock=injector.clock, sleep=injector.advance
            )
            try:
                translator = SchemaFreeTranslator(rb)
                result = translator.translate_best(
                    "SELECT title? WHERE year? > 1995"
                )
                rb.execute(result.query)
            except ReproError as exc:
                assert exit_code_for(exc) in (2, 3, 4, 5, 7)


# ---------------------------------------------------------------------------
# schema evolution
# ---------------------------------------------------------------------------


@pytest.fixture()
def fresh_fig1():
    db = Database(make_fig1_catalog())
    populate_fig1(db)
    return db


class TestMutations:
    def test_rename_table_moves_rows_and_fks(self, fresh_fig1):
        evolved = RenameTable("Movie", "Film").apply(fresh_fig1)
        catalog = evolved.catalog
        assert not catalog.has_relation("Movie")
        assert catalog.has_relation("Film")
        assert evolved.database.count("Film") == 3
        fk_targets = {fk.target_relation for fk in catalog.foreign_keys}
        assert "Film" in fk_targets and "Movie" not in fk_targets
        assert evolved.relation_renames == {"Movie": "Film"}

    def test_rename_column_updates_pk_fk_and_rows(self, fresh_fig1):
        evolved = RenameColumn("Movie", "movie_id", "film_id").apply(fresh_fig1)
        movie = evolved.catalog.relation("Movie")
        assert movie.primary_key == ("film_id",)
        assert sorted(evolved.database.column_values("Movie", "film_id")) == [
            10, 11, 12,
        ]
        renamed_fk = [
            fk
            for fk in evolved.catalog.foreign_keys
            if fk.target_relation == "Movie"
        ]
        assert renamed_fk and all(
            fk.target_attribute == "film_id" for fk in renamed_fk
        )

    def test_split_table_moves_column_behind_fk(self, fresh_fig1):
        evolved = SplitTable("Movie", ("release_year",), "Movie_Detail").apply(
            fresh_fig1
        )
        assert not evolved.catalog.relation("Movie").has_attribute(
            "release_year"
        )
        detail = evolved.catalog.relation("Movie_Detail")
        assert detail.has_attribute("release_year")
        assert evolved.database.count("Movie_Detail") == 3
        assert sorted(
            evolved.database.column_values("Movie_Detail", "release_year")
        ) == [1997, 2004, 2009]

    def test_merge_inlines_target_and_joins_rows(self, fresh_fig1):
        evolved = MergeTables("Movie_Producer", "Company").apply(fresh_fig1)
        assert not evolved.catalog.has_relation("Company")
        merged = evolved.catalog.relation("Movie_Producer")
        assert merged.has_attribute("name")
        names = evolved.database.column_values("Movie_Producer", "name")
        assert "20th Century Fox" in names
        assert evolved.relation_renames == {"Company": "Movie_Producer"}

    def test_drop_foreign_key_removes_only_that_edge(self, fresh_fig1):
        before = len(fresh_fig1.catalog.foreign_keys)
        evolved = DropForeignKey("Actor", "Movie").apply(fresh_fig1)
        assert len(evolved.catalog.foreign_keys) == before - 1
        assert evolved.database.count("Actor") == 4

    def test_evolve_composes_rename_chains(self, fresh_fig1):
        evolved = evolve(
            fresh_fig1,
            [RenameTable("Movie", "Film"), RenameTable("Film", "Feature")],
        )
        assert evolved.relation_renames == {
            "Movie": "Feature",
            "Film": "Feature",
        }
        assert evolved.database.count("Feature") == 3


class TestVocabularyRecovery:
    def test_recovers_rename_string_similarity_misses(self, fresh_fig1):
        evolved = RenameTable("Movie", "Zorbflick").apply(fresh_fig1)
        recovery = recover_vocabulary(
            fresh_fig1.catalog,
            evolved.catalog,
            ["SELECT m.title FROM Movie m, Actor a WHERE a.movie_id = m.movie_id"],
        )
        assert ("Zorbflick", "Movie") in recovery.relation_aliases

    def test_recovers_unique_remainder_column_rename(self, fresh_fig1):
        evolved = RenameColumn("Movie", "release_year", "zz_when").apply(
            fresh_fig1
        )
        recovery = recover_vocabulary(fresh_fig1.catalog, evolved.catalog)
        assert ("Movie", "zz_when", "release_year") in recovery.attribute_aliases

    def test_aliases_restore_translation_after_opaque_rename(self, fresh_fig1):
        evolved = RenameTable("Movie", "Zorbflick").apply(fresh_fig1)
        recovery = recover_vocabulary(fresh_fig1.catalog, evolved.catalog)
        context = TranslationContext(
            evolved.database, aliases=recovery.aliases
        )
        translator = SchemaFreeTranslator(evolved.database, context=context)
        result = translator.translate_best("SELECT movie?.title?")
        assert "Zorbflick" in result.sql


class TestEvolutionHarness:
    def test_stability_one_for_untouched_relation(self, fresh_fig1):
        harness = EvolutionHarness(
            fresh_fig1,
            [("Q1", "SELECT person?.name? WHERE gender? = 'male'")],
        )
        record = harness.check(RenameTable("Company", "Studio"))
        assert record.verdicts == {"Q1": "stable"}
        assert record.stability == 1.0

    def test_report_scores_per_mutation_class(self, fresh_fig1):
        harness = EvolutionHarness(
            fresh_fig1,
            [
                ("Q1", "SELECT movie?.title? WHERE year? > 1995"),
                ("Q2", "SELECT person?.name?"),
            ],
        )
        report = harness.run(standard_mutations(fresh_fig1.catalog))
        assert report.ok
        by_class = report.by_class()
        assert set(by_class) >= {"rename-table", "rename-column"}
        for score in by_class.values():
            assert 0.0 <= score <= 1.0
        payload = report.as_dict()
        assert payload["stability_by_class"] == by_class

    def test_courses48_sweep_matches_the_pinned_report(self):
        # the evolution section of scripts/run_chaos.py, pinned: any
        # change to a verdict or a recovered alias is a diff
        pinned = json.loads(
            (Path(__file__).parent / "data" / "evolution_report.json").read_text()
        )
        database = make_course_database()
        report = EvolutionHarness(database, COURSE_QUERIES).run(
            standard_mutations(database.catalog)
        )
        assert json.loads(json.dumps(report.as_dict())) == (
            pinned["workloads"]["courses48"]
        )

    def test_recovery_improves_or_matches_stability(self, fresh_fig1):
        queries = [("Q1", "SELECT movie?.title? WHERE year? > 1995")]
        mutation = RenameTable("Movie", "Zorbflick")
        with_recovery = EvolutionHarness(
            fresh_fig1,
            queries,
            log_sql=[
                "SELECT m.title FROM Movie m, Director d "
                "WHERE d.movie_id = m.movie_id"
            ],
        ).check(mutation)
        without = EvolutionHarness(
            fresh_fig1, queries, recover=False
        ).check(mutation)
        assert with_recovery.stability >= without.stability
