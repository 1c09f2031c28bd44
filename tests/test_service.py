"""Unit tests for the in-process query service.

Everything here is deterministic and sleep-free: clocks are either
manual counters or the fault injector's virtual clock, and backoff
"sleeps" advance that clock instead of waiting.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import (
    BudgetExceeded,
    Database,
    QueryService,
    ServiceOverloaded,
    SqlSyntaxError,
    TranslationError,
)
from repro.backends import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
    MemoryBackend,
    ResilientBackend,
)
from repro.core import SchemaFreeTranslator
from repro.core.config import DEFAULT_CONFIG
from repro.service import NO_RETRY, RetryPolicy, ServiceConfig, jitter_fraction
from repro.testing import FaultyBackend, VirtualClock
from repro.testing.faults import FaultInjector, InjectedFault

from tests.conftest import make_fig1_catalog, populate_fig1

CAMERON = "SELECT name? WHERE director_name? = 'James Cameron'"
HANKS = "SELECT title? WHERE actor?.name? = 'Tom Hanks'"


def make_db() -> Database:
    db = Database(make_fig1_catalog())
    populate_fig1(db)
    return db


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        policy = RetryPolicy()
        assert policy.backoff(7, 1) == policy.backoff(7, 1)
        assert policy.backoff(7, 2) == policy.backoff(7, 2)

    def test_jitter_spreads_requests(self):
        fractions = {jitter_fraction(rid, 1) for rid in range(50)}
        assert len(fractions) > 25  # not all collapsing onto one value

    def test_backoff_grows_exponentially_then_caps(self):
        policy = RetryPolicy(base=0.1, cap=0.4, jitter=0.0)
        assert policy.backoff(1, 1) == pytest.approx(0.1)
        assert policy.backoff(1, 2) == pytest.approx(0.2)
        assert policy.backoff(1, 3) == pytest.approx(0.4)
        assert policy.backoff(1, 10) == pytest.approx(0.4)  # capped

    def test_jitter_bounded_by_fraction(self):
        policy = RetryPolicy(base=0.1, cap=10.0, jitter=0.1)
        for rid in range(20):
            raw = 0.1
            assert raw <= policy.backoff(rid, 1) <= raw * 1.1

    def test_retryable_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(InjectedFault("boom"))
        assert not policy.is_retryable(TranslationError("nope"))
        assert NO_RETRY.max_retries == 0


# ---------------------------------------------------------------------------
# the backend circuit breaker's state machine (manual clock, no sleeps)
# ---------------------------------------------------------------------------


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=5.0):
        clock = ManualClock()
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=threshold, cooldown=cooldown),
            clock=clock,
        )
        return breaker, clock

    def test_starts_closed_full_strength(self):
        breaker, _ = self.make()
        assert breaker.state == CLOSED
        assert breaker.admit() is False
        assert breaker.state == CLOSED

    def test_trips_after_threshold_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        breaker.record(False)
        breaker.record(False)
        assert breaker.state == CLOSED
        breaker.record(False)
        assert breaker.state == OPEN
        assert breaker.trip_count == 1
        assert breaker.admit() is False
        assert breaker.state == OPEN

    def test_success_resets_consecutive_count(self):
        breaker, _ = self.make(threshold=2)
        breaker.record(False)
        breaker.record(True)
        breaker.record(False)
        assert breaker.state == CLOSED  # never 2 in a row

    def test_half_open_probe_after_cooldown(self):
        breaker, clock = self.make(threshold=1, cooldown=5.0)
        breaker.record(False)
        assert breaker.state == OPEN
        # before cooldown: still pinned
        clock.advance(4.9)
        assert breaker.admit() is False
        assert breaker.state == OPEN
        clock.advance(0.2)
        assert breaker.admit() is True  # the probe
        assert breaker.state == HALF_OPEN
        # others stay pinned while the probe is in flight
        assert breaker.admit() is False
        assert breaker.state == HALF_OPEN

    def test_probe_success_closes(self):
        breaker, clock = self.make(threshold=1, cooldown=1.0)
        breaker.record(False)
        clock.advance(1.0)
        probe = breaker.admit()
        assert probe
        breaker.record(True, probe=True)
        assert breaker.state == CLOSED
        assert breaker.admit() is False
        assert breaker.state == CLOSED

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker, clock = self.make(threshold=1, cooldown=5.0)
        breaker.record(False)
        clock.advance(5.0)
        probe = breaker.admit()
        assert probe
        breaker.record(False, probe=True)
        assert breaker.state == OPEN
        assert breaker.trip_count == 2
        # cooldown restarted at the re-open
        clock.advance(4.0)
        assert breaker.admit() is False
        assert breaker.state == OPEN
        clock.advance(1.0)
        assert breaker.admit() is True
        assert breaker.state == HALF_OPEN

    def test_abstain_releases_probe_without_closing(self):
        breaker, clock = self.make(threshold=1, cooldown=1.0)
        breaker.record(False)
        clock.advance(1.0)
        probe = breaker.admit()
        assert probe
        breaker.abstain(probe=True)
        assert breaker.state == HALF_OPEN
        # the next admit sends another probe
        assert breaker.admit() is True

    def test_transition_trace_is_exact(self):
        breaker, clock = self.make(threshold=1, cooldown=1.0)
        breaker.record(False)
        clock.advance(1.0)
        breaker.admit()
        breaker.record(True, probe=True)
        states = [(a, b) for a, b, _ in breaker.transitions]
        assert states == [
            (CLOSED, OPEN),
            (OPEN, HALF_OPEN),
            (HALF_OPEN, CLOSED),
        ]

    def test_open_failures_do_not_stack_trips(self):
        breaker, _ = self.make(threshold=1)
        breaker.record(False)
        breaker.record(False)
        breaker.record(False)
        assert breaker.trip_count == 1

    def test_open_breaker_pins_the_start_advice(self):
        clock = ManualClock()
        backend = ResilientBackend(
            MemoryBackend(make_db()),
            breaker=BreakerConfig(failure_threshold=1),
            clock=clock,
        )
        assert backend.start_advice is None
        backend.breaker.record(False)
        assert backend.start_advice == ("greedy", "circuit breaker open")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        # an open breaker always advises greedy: there is no rung to pick
        assert [f.name for f in dataclasses.fields(BreakerConfig)] == [
            "failure_threshold", "cooldown"
        ]


# ---------------------------------------------------------------------------
# admission control and load shedding
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_sheds_beyond_bounded_queue(self):
        # two caller threads each hold a slot inside the hook; the third
        # request, on this thread, finds capacity (1+1) exhausted
        gate = threading.Event()
        entered = threading.Semaphore(0)

        def hold(request):
            entered.release()
            gate.wait(timeout=30)

        config = ServiceConfig(workers=1, queue_limit=1, request_hook=hold)
        with QueryService(make_db(), config) as service, ThreadPoolExecutor(
            2
        ) as callers:
            first = callers.submit(service.serve_inline, CAMERON)
            second = callers.submit(service.serve_inline, HANKS)
            assert entered.acquire(timeout=30)
            assert entered.acquire(timeout=30)
            shed = service.serve_inline(CAMERON)  # capacity exceeded
            assert shed.shed
            assert shed.outcome == "shed"
            assert isinstance(shed.error, ServiceOverloaded)
            assert shed.error.diagnostic.stage == "admission"
            gate.set()
            assert first.result(timeout=30).ok
            assert second.result(timeout=30).ok
        assert service.stats.shed == 1
        assert service.stats.completed == 2
        assert ("shed", 3) in service.events

    def test_slot_released_after_completion(self):
        config = ServiceConfig(workers=1, queue_limit=0)
        with QueryService(make_db(), config) as service:
            for _ in range(3):  # sequential: the single slot is reused
                assert service.serve_inline(CAMERON).ok
        assert service.stats.shed == 0

    def test_run_preserves_submission_order(self):
        # request ids are handed out in call order
        with QueryService(make_db(), ServiceConfig(workers=4)) as service:
            queries = [CAMERON, HANKS, CAMERON, HANKS]
            responses = [service.serve_inline(query) for query in queries]
        assert [r.query for r in responses] == queries
        assert [r.request_id for r in responses] == [1, 2, 3, 4]

    def test_unknown_database_rejected(self):
        with QueryService(make_db()) as service:
            with pytest.raises(KeyError):
                service.serve_inline(CAMERON, database="nope")

    def test_needs_at_least_one_database(self):
        with pytest.raises(ValueError):
            QueryService({})


# ---------------------------------------------------------------------------
# retries on transient faults (virtual clock, no sleeping)
# ---------------------------------------------------------------------------


class TestRetries:
    def test_transient_fault_retried_to_success(self):
        injector = FaultInjector()
        injector.inject_error("map", trigger=1)  # first map visit only
        config = ServiceConfig(workers=1, retry=RetryPolicy(max_retries=2))
        with QueryService(make_db(), config, faults=injector) as service:
            response = service.serve_inline(CAMERON)
        assert response.ok
        assert response.retries == 1
        assert response.rung == "full"
        # the backoff was the deterministic schedule, on the virtual clock
        expected = config.retry.backoff(response.request_id, 1)
        assert ("retry", response.request_id, 1, expected) in service.events
        assert response.elapsed >= expected  # virtual time, not wall time
        assert service.stats.retries == 1

    def test_retries_exhausted_fails_typed(self):
        injector = FaultInjector()
        injector.inject_error("map", repeat=True)
        config = ServiceConfig(workers=1, retry=RetryPolicy(max_retries=2))
        with QueryService(make_db(), config, faults=injector) as service:
            response = service.serve_inline(CAMERON)
        assert not response.ok
        assert response.retries == 2
        assert isinstance(response.error, InjectedFault)
        assert service.stats.failed == 1
        assert service.stats.retries == 2

    def test_non_transient_errors_fail_fast(self):
        config = ServiceConfig(workers=1, retry=RetryPolicy(max_retries=3))
        with QueryService(make_db(), config) as service:
            response = service.serve_inline("SELECT name? WHERE")
        assert not response.ok
        assert response.retries == 0
        assert isinstance(response.error, SqlSyntaxError)

    def test_no_retry_policy(self):
        injector = FaultInjector()
        injector.inject_error("map", trigger=1)
        config = ServiceConfig(workers=1, retry=NO_RETRY)
        with QueryService(make_db(), config, faults=injector) as service:
            response = service.serve_inline(CAMERON)
        assert not response.ok
        assert response.retries == 0


# ---------------------------------------------------------------------------
# deadlines mapped onto budgets
# ---------------------------------------------------------------------------


class TestDeadlines:
    def test_injected_delay_exhausts_deadline_and_is_refused(self):
        injector = FaultInjector()
        # every map entry costs 10 virtual seconds: the 0.5s deadline is
        # gone before the full search starts, so greedy has no time either
        injector.inject_delay("map", seconds=10.0, repeat=True)
        config = ServiceConfig(
            workers=1,
            deadline=0.5,
            retry=NO_RETRY,
        )
        with QueryService(make_db(), config, faults=injector) as service:
            response = service.serve_inline(CAMERON)
        assert not response.ok  # refused, not guessed
        assert isinstance(response.error, BudgetExceeded)
        steps = response.error.diagnostic.degradation
        assert steps[0].startswith("full search abandoned")
        assert steps[-1] == "greedy join path skipped: deadline passed"

    def test_budget_pressure_degrades_only_its_own_request(self):
        # the service keeps no health state: three requests that lose
        # their full-search budget leave the fourth at full strength
        injector = FaultInjector()
        for visit in (1, 2, 3):
            injector.inject_budget_exhaustion("network", trigger=visit)
        config = ServiceConfig(workers=1, retry=NO_RETRY)
        with QueryService(make_db(), config, faults=injector) as service:
            rungs = [service.serve_inline(CAMERON).rung for _ in range(4)]
        assert rungs == ["greedy", "greedy", "greedy", "full"]

    def test_deadline_none_never_degrades(self):
        with QueryService(make_db(), ServiceConfig(workers=1)) as service:
            response = service.serve_inline(CAMERON)
        assert response.ok
        assert response.rung == "full"
        assert not response.degraded


# ---------------------------------------------------------------------------
# backend advice: folded once, by the translator
# ---------------------------------------------------------------------------


class TestBackendAdvice:
    """A ResilientBackend's rung advice reaches a served request through
    the translator alone, so the reason it records survives serving."""

    STEP = "backend degraded (statistics sampling failed)"
    CACHED = dataclasses.replace(DEFAULT_CONFIG, result_cache_size=16)

    def make_backend(self) -> ResilientBackend:
        injector = FaultInjector(clock=VirtualClock(origin=None))
        faulty = FaultyBackend(MemoryBackend(make_db()), injector)
        faulty.inject_error("sample", repeat=True)
        return ResilientBackend(
            faulty, clock=injector.clock, sleep=injector.advance
        )

    def test_served_request_keeps_the_backend_reason(self):
        translator = SchemaFreeTranslator(self.make_backend(), self.CACHED)
        translator.translate(CAMERON)  # sampling fails: health degrades
        direct = translator.translate(CAMERON)[0]

        config = ServiceConfig(workers=1, translator=self.CACHED)
        with QueryService(self.make_backend(), config) as service:
            service.serve_inline(CAMERON)
            stored = service.context().result_cache_entries()
            served = service.serve_inline(CAMERON)
            assert service.context().result_cache_entries() == stored

        assert served.ok
        steps = served.translations[0].degradation
        assert sum(step.startswith(self.STEP) for step in steps) == 1
        assert served.rung == direct.rung != "full"
        assert steps == direct.degradation
        assert not served.cached


# ---------------------------------------------------------------------------
# response / snapshot surface
# ---------------------------------------------------------------------------


class TestResponseSurface:
    def test_response_to_dict_round_trips_json(self):
        import json

        with QueryService(make_db(), ServiceConfig(workers=1)) as service:
            response = service.serve_inline(CAMERON)
        data = json.loads(json.dumps(response.to_dict()))
        assert data["outcome"] == "ok"
        assert data["rung"] == "full"
        assert data["sql"].startswith("SELECT")

    def test_snapshot_has_stats_breakers_memo(self):
        backend = ResilientBackend(MemoryBackend(make_db()))
        with QueryService(backend, ServiceConfig(workers=2)) as service:
            for query in (CAMERON, HANKS):
                service.serve_inline(query)
            snapshot = service.snapshot()
        assert snapshot["stats"]["completed"] == 2
        # the one breaker is the backend's
        assert "breakers" not in snapshot
        assert snapshot["backends"]["default"]["breaker"]["state"] == CLOSED
        assert "tree_sim_misses" in snapshot["memo"]["default"]

    def test_close_is_idempotent(self):
        service = QueryService(make_db(), ServiceConfig(workers=1))
        service.close()
        service.close()


# ---------------------------------------------------------------------------
# close semantics (served-tier contract)
# ---------------------------------------------------------------------------


class TestCloseAndPinning:
    def test_submit_after_close_refuses_typed(self):
        from repro import ServiceClosed

        service = QueryService(make_db(), ServiceConfig(workers=1))
        service.close()
        response = service.serve_inline(CAMERON)
        assert not response.ok
        assert isinstance(response.error, ServiceClosed)
        assert response.outcome == "failed"
        assert service.closed
        assert ("closed", response.request_id) in service.events

    def test_concurrent_close_and_submit_never_raises(self):
        """Requests racing close() on caller threads always return a
        response — either served or a typed ServiceClosed, never a
        raised exception."""
        from repro import ServiceClosed

        service = QueryService(make_db(), ServiceConfig(workers=2))
        responses = []
        errors = []
        start = threading.Barrier(5)

        def submitter():
            start.wait()
            for _ in range(10):
                try:
                    responses.append(service.serve_inline(CAMERON))
                except Exception as exc:  # pragma: no cover - the bug
                    errors.append(exc)

        def closer():
            start.wait()
            service.close()

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        threads.append(threading.Thread(target=closer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(responses) == 40
        for response in responses:
            assert response.ok or isinstance(
                response.error, ServiceClosed
            ), response.error

    def test_close_is_safe_from_many_threads(self):
        service = QueryService(make_db(), ServiceConfig(workers=1))
        threads = [
            threading.Thread(target=service.close) for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert service.closed


class TestServeInline:
    """serve_inline: the service's one entry, on the calling thread."""

    def test_matches_submit_byte_for_byte(self):
        # the service adds admission, budgets and retries around the
        # translator, never a different answer
        direct = SchemaFreeTranslator(make_db()).translate(CAMERON, top_k=3)
        config = ServiceConfig(workers=1, top_k=3)
        with QueryService(make_db(), config) as service:
            inline = service.serve_inline(CAMERON)
        assert inline.ok
        assert [t.sql for t in inline.translations] == [t.sql for t in direct]
        assert [t.weight for t in inline.translations] == [
            t.weight for t in direct
        ]
        assert inline.rung == direct[0].rung == "full"
        assert inline.outcome == "ok"

    def test_runs_on_the_calling_thread(self):
        seen = []
        config = ServiceConfig(
            workers=1, request_hook=lambda req: seen.append(
                threading.current_thread()
            )
        )
        with QueryService(make_db(), config) as service:
            service.serve_inline(CAMERON)
        assert seen == [threading.main_thread()]

    def test_refuses_typed_after_close(self):
        from repro import ServiceClosed

        service = QueryService(make_db(), ServiceConfig(workers=1))
        service.close()
        response = service.serve_inline(CAMERON)
        assert not response.ok
        assert isinstance(response.error, ServiceClosed)

    def test_releases_slot(self):
        with QueryService(
            make_db(), ServiceConfig(workers=1, queue_limit=0)
        ) as service:
            for _ in range(3):  # would shed on the 2nd if slots leaked
                assert service.serve_inline(CAMERON).ok
