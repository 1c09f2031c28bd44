"""Deterministic concurrency suite.

Two layers of coverage:

* hammer tests for every shared structure hardened in this PR —
  :class:`~repro.core.resilience.Budget` (and its slice families),
  :class:`~repro.testing.faults.FaultInjector`,
  :class:`~repro.engine.database.Database` writes — asserting *exact*
  counter totals, not just "no crash";
* the acceptance stress test: 8 caller threads sharing one service over
  200 mixed queries with injected transient errors and delays, checked
  byte-for-byte against a serial baseline.

Determinism discipline: totals, retry/shed counts, fired-fault counts
and final SQL are all scheduler-independent; only *which* thread draws
an injected fault varies, and the assertions never depend on that.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro import (
    Budget,
    BudgetExceeded,
    Database,
    QueryService,
    SchemaFreeTranslator,
    TranslationContext,
)
from repro.errors import ReproError
from repro.service import RetryPolicy, ServiceConfig
from repro.testing.faults import FaultInjector, VirtualClock

from tests.conftest import make_fig1_catalog, populate_fig1

THREADS = 8


def make_db() -> Database:
    db = Database(make_fig1_catalog())
    populate_fig1(db)
    return db


def in_threads(worker, count: int = THREADS) -> list:
    """Run ``worker(index)`` in *count* threads; re-raise any failure."""
    errors: list[BaseException] = []
    results: list = [None] * count
    barrier = threading.Barrier(count)

    def runner(index: int) -> None:
        try:
            barrier.wait(timeout=30)
            results[index] = worker(index)
        except BaseException as exc:  # noqa: BLE001 - re-raises below
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(index,)) for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    if errors:
        raise errors[0]
    return results


# ---------------------------------------------------------------------------
# Budget
# ---------------------------------------------------------------------------


class TestBudgetAtomicity:
    def test_uncapped_charges_sum_exactly(self):
        budget = Budget()
        per_thread = 1000

        def worker(_index):
            for _ in range(per_thread):
                budget.charge_candidates(1)
            for _ in range(per_thread // 2):
                budget.charge_expansions(2)

        in_threads(worker)
        assert budget.candidates == THREADS * per_thread
        assert budget.expansions == THREADS * per_thread

    def test_slice_noting_propagates_exactly(self):
        root = Budget()
        middle = root.slice()
        children = [middle.slice() for _ in range(THREADS)]
        per_thread = 500

        def worker(index):
            child = children[index]
            for _ in range(per_thread):
                child.charge_candidates(1)

        in_threads(worker)
        for child in children:
            assert child.candidates == per_thread
        # every charge was noted once on every ancestor
        assert middle.candidates == THREADS * per_thread
        assert root.candidates == THREADS * per_thread

    def test_cap_is_enforced_and_sticky_under_contention(self):
        budget = Budget(max_candidates=100)

        def worker(_index):
            tripped = 0
            for _ in range(200):
                try:
                    budget.charge_candidates(1)
                except BudgetExceeded:
                    tripped += 1
                    break
            return tripped

        results = in_threads(worker)
        # every thread observed the exhaustion...
        assert results == [1] * THREADS
        assert budget.is_exhausted
        # ...each thread overshoots by at most its own in-flight charge
        assert 100 < budget.candidates <= 100 + THREADS
        # and exhaustion is sticky for any later caller
        with pytest.raises(BudgetExceeded):
            budget.check("network")


# ---------------------------------------------------------------------------
# FaultInjector
# ---------------------------------------------------------------------------


class TestFaultInjectorThreadSafety:
    def test_visit_counts_are_exact(self):
        injector = FaultInjector()
        per_thread = 100

        def worker(_index):
            for _ in range(per_thread):
                injector.fire("map")

        in_threads(worker)
        assert injector.visits["map"] == THREADS * per_thread

    def test_once_fault_fires_exactly_once_across_threads(self):
        injector = FaultInjector()
        fault = injector.inject_error("map", trigger=400)
        hits = []
        per_thread = 100

        def worker(_index):
            seen = 0
            for _ in range(per_thread):
                try:
                    injector.fire("map")
                except Exception:  # noqa: BLE001 - the injected fault; re-raises nothing
                    seen += 1
            hits.append(seen)

        in_threads(worker)
        assert injector.visits["map"] == THREADS * per_thread
        assert fault.fired == 1
        assert sum(hits) == 1  # exactly one thread drew it
        assert injector.log.count(("map", "error")) == 1

    def test_delay_offsets_accumulate_exactly(self):
        # purely virtual: a wall-clock origin would add real elapsed time
        injector = FaultInjector(clock=VirtualClock(origin=None))

        def worker(_index):
            for _ in range(100):
                injector.advance(0.01)

        in_threads(worker)
        assert injector.clock() == pytest.approx(THREADS * 100 * 0.01)


# ---------------------------------------------------------------------------
# Database writes
# ---------------------------------------------------------------------------


class TestDatabaseWriteSafety:
    def test_concurrent_inserts_count_exactly(self):
        db = Database(make_fig1_catalog())
        before = db.data_version
        per_thread = 50

        def worker(index):
            for i in range(per_thread):
                pk = 1000 + index * per_thread + i
                db.insert("Person", [pk, f"person-{pk}", "other"])

        in_threads(worker)
        assert db.count("Person") == THREADS * per_thread
        assert db.data_version - before == THREADS * per_thread
        # primary keys survived the race intact
        pks = db.column_values("Person", "person_id")
        assert len(set(pks)) == len(pks)


# ---------------------------------------------------------------------------
# acceptance stress test: 8 workers, 200 mixed queries, injected faults
# ---------------------------------------------------------------------------

#: 25 distinct queries: joins, filters, projections, aggregates and a few
#: that fail deterministically (syntax errors).  Each is submitted
#: 8 times below.
STRESS_QUERIES = [
    "SELECT name? WHERE director_name? = 'James Cameron'",
    "SELECT title? WHERE actor?.name? = 'Tom Hanks'",
    "SELECT title? WHERE director?.name? = 'Steven Spielberg'",
    "SELECT name? WHERE actor?.movie?.title? = 'Titanic'",
    "SELECT title? WHERE release_year? = 1997",
    "SELECT title? WHERE release_year? > 2000",
    "SELECT name? WHERE gender? = 'female'",
    "SELECT company?.name? WHERE movie?.title? = 'Avatar'",
    "SELECT title?, release_year?",
    "SELECT name?",
    "SELECT person?.name?, movie?.title?",
    "SELECT title? WHERE producer?.name? = 'Paramount'",
    "SELECT name? WHERE movie?.release_year? = 2009",
    "SELECT title? WHERE actor?.gender? = 'female'",
    "SELECT director?.name? WHERE title? = 'Avatar'",
    "SELECT actor?.name? WHERE title? = 'Titanic'",
    "SELECT COUNT(title?)",
    "SELECT release_year? WHERE title? = 'The Terminal'",
    "SELECT gender? WHERE name? = 'Kate Winslet'",
    "SELECT company_name? WHERE title? = 'Titanic'",
    "SELECT title? WHERE director_name? = 'James Cameron' AND release_year? = 2009",
    "SELECT name? WHERE director?.movie?.title? = 'Avatar'",
    # deterministic failures: syntax errors never reach the pipeline
    "SELECT name? WHERE",
    "SELECT FROM WHERE",
    "SELECT title? WHERE release_year? =",
]
REPEATS = 8


class PerCallerFaults(FaultInjector):
    """One :class:`FaultInjector` per caller thread behind one service.

    Each stage visit goes to the injector its thread bound with
    :meth:`bind`, so a fault's trigger counts only that caller's visits.
    A caller serves its requests one after another, so which of them a
    fault hits does not depend on how the threads interleave.  Every
    injector shares this one's virtual clock.
    """

    def __init__(self, callers: int) -> None:
        super().__init__()
        self.callers = [
            FaultInjector(clock=self.virtual_clock) for _ in range(callers)
        ]
        self._bound = threading.local()

    def bind(self, index: int) -> None:
        self._bound.injector = self.callers[index]

    def fire(self, stage, budget=None) -> None:
        self._bound.injector.fire(stage, budget)


class TestServiceStress:
    def serial_baseline(self, db: Database) -> dict[str, tuple]:
        """(kind, payload) per query from one translator, no service."""
        translator = SchemaFreeTranslator(db)
        baseline: dict[str, tuple] = {}
        for query in STRESS_QUERIES:
            try:
                translations = translator.translate(query, top_k=1)
            except Exception as exc:  # noqa: BLE001 - recorded, compared, re-raises in service run
                baseline[query] = ("error", type(exc).__name__)
            else:
                baseline[query] = (
                    "ok",
                    translations[0].sql,
                    translations[0].rung,
                )
        return baseline

    def test_eight_workers_match_serial_baseline(self):
        db = make_db()
        baseline = self.serial_baseline(make_db())

        injector = PerCallerFaults(THREADS)
        # five one-shot transient errors, one each on callers 0-4.  A
        # trigger counts only its own caller's map visits, and a retry
        # runs on the same caller right after the fault, so it meets the
        # next visit, never a second trigger: each fault costs exactly
        # one retry whatever the thread scheduling
        fault_count = 5
        for index in range(fault_count):
            injector.callers[index].inject_error("map", trigger=3 + index)
        # a few virtual-clock delays on the other callers: harmless
        # without deadlines, but they exercise the offset bookkeeping
        # under load
        for index in range(fault_count, THREADS):
            injector.callers[index].inject_delay(
                "map", seconds=0.01, trigger=2 + index
            )

        config = ServiceConfig(
            workers=THREADS,
            queue_limit=256,
            retry=RetryPolicy(max_retries=2),
        )
        queries = STRESS_QUERIES * REPEATS
        responses: list = [None] * len(queries)
        with QueryService(db, config, faults=injector) as service:

            def caller(index):
                injector.bind(index)
                for position in range(index, len(queries), THREADS):
                    responses[position] = service.serve_inline(
                        queries[position]
                    )

            in_threads(caller)

        # --- no shedding, no unhandled exceptions, order preserved ----
        assert len(responses) == len(queries)
        assert [r.query for r in responses] == queries
        assert service.stats.shed == 0

        # --- byte-identical to the serial baseline --------------------
        failing = {q for q, b in baseline.items() if b[0] == "error"}
        for response in responses:
            expected = baseline[response.query]
            if expected[0] == "ok":
                assert response.ok, (response.query, response.error)
                assert response.sql == expected[1]
                assert response.rung == expected[2] == "full"
                assert not response.degraded
            else:
                assert not response.ok
                assert type(response.error).__name__ == expected[1]

        # --- deterministic aggregate counters -------------------------
        ok_count = len(queries) - len(failing) * REPEATS
        assert service.stats.completed == ok_count
        assert service.stats.failed == len(failing) * REPEATS
        assert service.stats.rungs == {"full": ok_count}

        # every injected fault fired exactly once and cost one retry
        fired = [c.log.count(("map", "error")) for c in injector.callers]
        assert fired == [1] * fault_count + [0] * (THREADS - fault_count)
        assert service.stats.retries == fault_count
        retried = [r for r in responses if r.retries]
        assert len(retried) == fault_count
        for response in retried:
            assert response.retries == 1
            assert response.ok  # retried to success

        # the shared context was never invalidated (no writes), and the
        # memo actually carried load across threads
        memo = service.context().stats
        assert memo.invalidations == 0
        assert memo.tree_sim_hits > 0

    def test_concurrent_submitters_one_service(self):
        """Many client threads sharing one service: ids stay unique and
        every call is served."""
        db = make_db()
        config = ServiceConfig(workers=4, queue_limit=256)
        pool = [STRESS_QUERIES[i] for i in (0, 1, 2, 4, 6)]  # all valid
        with QueryService(db, config) as service:

            def worker(_index):
                return [
                    service.serve_inline(pool[i % len(pool)])
                    for i in range(20)
                ]

            all_responses = [r for rs in in_threads(worker) for r in rs]
        ids = [r.request_id for r in all_responses]
        assert len(set(ids)) == len(ids) == THREADS * 20
        assert all(r.ok for r in all_responses)
        assert service.stats.completed == THREADS * 20


# ---------------------------------------------------------------------------
# memo revalidation racing writes
# ---------------------------------------------------------------------------


class TestRevalidationUnderWrites:
    def test_memos_left_by_racing_readers_are_exact(self):
        # translators share one context while a writer keeps moving the
        # samples under them; once the writes stop, every memo they left
        # must answer exactly as a translator built on the final data
        db = make_db()
        context = SchemaFreeTranslator(db).context
        queries = STRESS_QUERIES[:22]
        names = ["Tom Hanks", "Avatar", "Titanic", "Paramount", "Kate Winslet"]

        def worker(index):
            if index == 0:
                for i in range(60):
                    pk, name = 5000 + i, names[i % len(names)]
                    gender = ("female", "male", "other")[i % 3]
                    db.insert("Person", [pk, name, gender])
                    db.insert("Movie", [pk, name, 1990 + i])
                    db.insert("Company", [pk, name])
                    time.sleep(0.005)
                return
            translator = SchemaFreeTranslator(db, context=context)
            for i in range(40):
                try:
                    translator.translate(
                        queries[(index * 7 + i) % len(queries)], top_k=3
                    )
                except ReproError:
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            in_threads(worker, count=6)
        finally:
            sys.setswitchinterval(interval)
        shared = SchemaFreeTranslator(db, context=context)
        fresh = SchemaFreeTranslator(db)
        for query in queries:
            assert outcomes(shared, query) == outcomes(fresh, query), query

    def test_mapping_memo_left_by_racing_readers_is_exact(self):
        # a few queries read over and over, so most trees are mapping-
        # memo hits, while one thread moves samples — each drop racing
        # the mapping sets being computed.  Afterwards every memoized
        # set, hit twice, answers as a fresh build with the same aliases
        db = make_db()
        aliases = [
            ("Movie", None, "film"),
            ("Person", None, "human"),
            ("Company", None, "studio"),
        ]
        context = TranslationContext(db, aliases=aliases)
        queries = STRESS_QUERIES[:6]
        hits = []
        lookup = context.cached_mappings

        def counting(fingerprint):
            answer = lookup(fingerprint)
            hits.append(answer[0] is not None)
            return answer

        context.cached_mappings = counting

        def worker(index):
            if index == 0:
                for i in range(40):
                    pk = 6000 + i
                    name = ["Avatar", "Tom Hanks", "Titanic"][i % 3]
                    db.insert("Person", [pk, name, "female"])
                    db.insert("Movie", [pk, name, 2000 + i])
                    time.sleep(0.005)
                return
            translator = SchemaFreeTranslator(db, context=context)
            for i in range(60):
                try:
                    translator.translate(queries[(index + i) % len(queries)])
                except ReproError:
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            in_threads(worker, count=6)
        finally:
            sys.setswitchinterval(interval)
        assert any(hits)
        shared = SchemaFreeTranslator(db, context=context)
        fresh = SchemaFreeTranslator(
            db, context=TranslationContext(db, aliases=aliases)
        )
        for query in queries:
            want = outcomes(fresh, query)
            assert outcomes(shared, query) == want, query
            assert outcomes(shared, query) == want, query


class TestComposePartsUnderThreads:
    def test_threads_composing_shared_networks_get_serial_answers(self):
        # two shapes of one block share memoized networks, whose compose
        # parts each shape replaces in turn while the others read them
        queries = (
            "SELECT m.title?, p.name? FROM movie? m, person? p "
            "WHERE p.name? = 'Tom Hanks'",
            "SELECT M.title?, P.name? FROM movie? M, person? P "
            "WHERE P.name? = 'Tom Hanks'",
        )
        serial = SchemaFreeTranslator(make_db())
        want = {query: outcomes(serial, query) for query in queries}
        assert want[queries[0]] != want[queries[1]]
        db = make_db()
        context = SchemaFreeTranslator(db).context

        def worker(index):
            translator = SchemaFreeTranslator(db, context=context)
            return [
                (query, outcomes(translator, query))
                for query in (queries[(index + i) % 2] for i in range(30))
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = in_threads(worker)
        finally:
            sys.setswitchinterval(interval)
        assert all(answers is not None for answers in results)
        for answers in results:
            for query, answer in answers:
                assert answer == want[query], query


def outcomes(translator, query):
    try:
        return [
            (t.sql, t.weight, t.rung)
            for t in translator.translate(query, top_k=3)
        ]
    except ReproError as exc:
        return type(exc).__name__
