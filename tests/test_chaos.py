"""Chaos-harness tests: FaultyBackend, backend faults on the served
path, the (operation x fault-kind) matrix, and the schema-evolution
harness."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.backends import MemoryBackend, TransientBackendError
from repro.cli import EXIT_BACKEND, EXIT_TRANSLATION, exit_code_for
from repro.core import SchemaFreeTranslator, TranslationContext
from repro.core.resilience import BudgetExceeded
from repro.backends.retry import RetryPolicy
from repro.service import QueryService, ServiceConfig
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

QUERY = "SELECT title? WHERE year? > 1995"
DEADLINE = 5.0


def make_served_stack(fig1_db, *, retry=None):
    """A QueryService over FaultyBackend over MemoryBackend, on one
    shared, purely virtual clock (no real time passes in any chaos test,
    and none leaks into a deadline).  Fault triggers count visits from
    the first request: building the service reads the backend first."""
    injector = FaultInjector(clock=VirtualClock(origin=None))
    faulty = FaultyBackend(MemoryBackend(fig1_db), injector)
    config = ServiceConfig(deadline=DEADLINE, retry=retry or RetryPolicy())
    service = QueryService(faulty, config, faults=injector)
    faulty.reset()
    return service, faulty


def fault_free_sql(fig1_db, query: str = QUERY) -> str:
    return SchemaFreeTranslator(fig1_db).translate_best(query).sql


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

    def test_repeating_execute_fault_fails_the_shell_typed(self, fig1_db):
        # an execute fault that outlasts any retry: the one-shot reports
        # it as a backend failure, with the backend's diagnostic
        import io

        from repro.cli import Shell

        faulty = FaultyBackend(MemoryBackend(fig1_db))
        shell = Shell(faulty)
        faulty.inject_error("execute", repeat=True)
        out = io.StringIO()
        shell.run_command(QUERY, out=out)
        error = shell.last_error
        assert isinstance(error, TransientBackendError)
        assert exit_code_for(error) == EXIT_BACKEND
        assert error.diagnostic is not None
        assert error.diagnostic.stage == "backend"
        assert "execution error" in out.getvalue()
        assert ("execute", "error") in faulty.log

    def test_invalid_op_and_kind_rejected(self, fig1_db):
        faulty = FaultyBackend(MemoryBackend(fig1_db))
        with pytest.raises(ValueError):
            faulty.inject_error("mutate")
        with pytest.raises(ValueError):
            faulty.inject_torn("version")
        with pytest.raises(ValueError):
            faulty.inject_torn("reflect")

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
# backend faults on the served path: QueryService is the one retry owner
# ---------------------------------------------------------------------------


class TestServedBackendFaults:
    def test_outage_fails_each_request_until_it_clears(self, fig1_db):
        # no breaker and no sticky health: the first request after the
        # backend recovers runs the full search, like any other
        service, faulty = make_served_stack(fig1_db)
        faulty.inject_error("sample", repeat=True)
        for _ in range(2):
            assert not service.serve_inline(QUERY).ok
        faulty.reset()
        response = service.serve_inline(QUERY)
        assert response.ok
        assert response.rung == "full"
        assert response.retries == 0
        assert not response.degraded
        assert response.sql == fault_free_sql(fig1_db)

    def test_hang_spends_the_deadline_then_recovers(self, fig1_db):
        service, faulty = make_served_stack(fig1_db)
        faulty.inject_hang("sample", seconds=600.0)  # >> the 5 s deadline
        refused = service.serve_inline(QUERY)
        assert not refused.ok
        assert isinstance(refused.error, BudgetExceeded)
        assert exit_code_for(refused.error) == EXIT_TRANSLATION
        assert refused.retries == 0  # a spent deadline is not retried
        response = service.serve_inline(QUERY)  # the next request has time
        assert response.ok
        assert response.sql == fault_free_sql(fig1_db)

    def test_faultless_translation_is_byte_identical(self, fig1_db):
        service, faulty = make_served_stack(fig1_db)
        for query in TEXTBOOK_QUERIES[:8]:
            sql = query.sf_sql or query.gold_sql
            response = service.serve_inline(sql)
            assert response.ok, response.error
            assert response.retries == 0
            assert response.sql == fault_free_sql(fig1_db, sql)
        assert faulty.log == []


# ---------------------------------------------------------------------------
# the (operation x fault kind) matrix, through QueryService
# ---------------------------------------------------------------------------

MATRIX = [
    (op, kind) for op in BACKEND_OPS for kind in _KINDS_BY_OP[op]
]

#: per-cell expected outcome of one served request when the fault fires
#: on every visit.  The served path translates: it reflects (the first
#: request builds the service's translator, which reads the catalog),
#: samples and reads the data version, and never executes or counts rows.
EXPECTED_VERDICTS = {
    ("reflect", "error"): "failed:TransientBackendError",
    ("reflect", "hang"): "failed:BudgetExceeded",
    ("sample", "error"): "failed:TransientBackendError",
    ("sample", "hang"): "failed:BudgetExceeded",
    ("sample", "torn"): "ok",
    ("execute", "error"): "unreached",
    ("execute", "hang"): "unreached",
    ("execute", "torn"): "unreached",
    ("count", "error"): "unreached",
    ("count", "hang"): "unreached",
    ("version", "error"): "failed:TransientBackendError",
    ("version", "hang"): "failed:BudgetExceeded",
}


@dataclass(frozen=True)
class SeededRetry(RetryPolicy):
    """The default retry policy with its jitter keyed by an extra seed."""

    seed: int = 0

    def backoff(self, request_id: int, attempt: int) -> float:
        return super().backoff(request_id + self.seed, attempt)


def run_cell(fig1_db, op: str, kind: str, seed: int):
    """One matrix cell: inject the fault on every visit, serve one
    request, and classify it.  Returns (verdict, exit_code, retries)."""
    service, faulty = make_served_stack(fig1_db, retry=SeededRetry(seed=seed))
    if kind == "error":
        faulty.inject_error(op, repeat=True)
    elif kind == "hang":
        faulty.inject_hang(op, seconds=3600.0, repeat=True)
    elif kind == "torn":
        faulty.inject_torn(op, repeat=True)
    try:
        response = service.serve_inline(QUERY)
    except Exception as exc:  # the matrix's whole point: classify, never crash
        return f"unhandled:{type(exc).__name__}", exit_code_for(exc), 0
    if not response.ok:
        verdict = f"failed:{type(response.error).__name__}"
        return verdict, exit_code_for(response.error), response.retries
    return ("ok" if faulty.log else "unreached"), 0, response.retries


class TestFaultMatrix:
    @pytest.mark.parametrize("op,kind", MATRIX)
    def test_every_cell_ends_in_a_typed_outcome(self, fig1_db, op, kind):
        verdict, code, retries = run_cell(fig1_db, op, kind, seed=0)
        assert verdict == EXPECTED_VERDICTS[(op, kind)], (
            f"({op}, {kind}) produced {verdict!r}"
        )
        if verdict == "failed:TransientBackendError":
            assert (code, retries) == (EXIT_BACKEND, 2)
        elif verdict == "failed:BudgetExceeded":
            assert (code, retries) == (EXIT_TRANSLATION, 0)
        else:
            assert (code, retries) == (0, 0)

    @pytest.mark.parametrize("op,kind", MATRIX)
    def test_verdicts_stable_across_retry_jitter_seeds(self, fig1_db, op, kind):
        outcomes = {
            run_cell(fig1_db, op, kind, seed)
            for seed in (0, 17, 4242)
        }
        assert len(outcomes) == 1, (
            f"({op}, {kind}) verdict depends on the jitter seed: {outcomes}"
        )

    def test_seeded_schedules_never_crash_translation(self, fig1_db):
        """Every seeded multi-fault schedule ends each served request
        typed: an answer or a failed response with an exit code."""
        for seed in range(6):
            service, faulty = make_served_stack(fig1_db)
            faulty.schedule_from_seed(seed)
            for query in (QUERY, "SELECT name? WHERE title? = 'Titanic'"):
                response = service.serve_inline(query)
                if not response.ok:
                    assert exit_code_for(response.error) in (
                        EXIT_TRANSLATION, EXIT_BACKEND
                    )


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
