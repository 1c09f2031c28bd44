"""In-process schema-free query service.

:class:`QueryService` wraps one or more databases (each with a shared,
lock-protected :class:`~repro.core.context.TranslationContext`) and
gives the translation pipeline the serving-layer behaviours a production
front end needs.  :meth:`QueryService.serve_inline` is its one entry: it
runs the request on the *calling* thread — a serving worker's frame
loop, the CLI batch loop, or any threads of the caller's own.  The
service starts no threads: the four translator stages are CPU-bound
Python, which threads sharing one interpreter cannot run in parallel.

* **admission control** — at most ``workers + queue_limit`` requests in
  flight across calling threads.  A request that would exceed it is
  *shed* immediately with a typed :class:`ServiceOverloaded` diagnostic
  instead of waiting;
* **deadlines** — each request gets a :class:`~repro.core.resilience.
  Budget` with the request deadline (measured from admission) and the
  configured search caps; every retry attempt runs under a fresh
  :meth:`~repro.core.resilience.Budget.slice` of it, so the attempt
  inherits exactly the time that remains;
* **retries** — transient faults are retried under
  :class:`~repro.backends.retry.RetryPolicy` with exponential backoff
  and deterministic jitter.  The backoff "sleep" and the budget clock
  are both injectable: built with a
  :class:`~repro.testing.faults.FaultInjector` the service reuses its
  virtual clock, so backoff and timeout paths are testable without
  wall-clock sleeping.

A budget that runs out is the translator's to handle, per request: it
falls back from the full search to one greedy join path, or refuses
with a typed error.  A transient backend error (a
:class:`~repro.backends.errors.TransientBackendError`) is retried here,
by re-running the whole translation: this loop is the only retry owner.
The service keeps no health state, so a backend that recovers serves
the next request at full strength.

Translator instances are **per calling thread** (their scratch state
is not shared); the per-database context *is* shared, which is safe
because its caches are lock-protected and its memoized values are pure —
concurrent callers get byte-identical results to a serial pass.

Typical use::

    from repro.service import QueryService, ServiceConfig

    with QueryService(db, ServiceConfig(deadline=0.5)) as svc:
        for query in ["SELECT name? WHERE title? = 'Titanic'", ...]:
            r = svc.serve_inline(query)
            print(r.request_id, r.outcome, r.rung, r.sql)
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Union

from ..core.config import DEFAULT_CONFIG, TranslatorConfig
from ..core.context import TranslationContext
from ..core.resilience import Budget
from ..core.translator import SchemaFreeTranslator, Translation
from ..engine import Database
from ..errors import Diagnostic, ReproError
from ..backends.retry import RetryPolicy
from ..obs import NULL_SPAN, NULL_TRACER, MetricsRegistry, record_translation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backends.base import Backend

DEFAULT_DATABASE = "default"


class ServiceOverloaded(ReproError):
    """Admission control rejected the request (too many in flight)."""


class ServiceClosed(ReproError):
    """The service is closed and admits no new work.

    Requests after (or racing) :meth:`QueryService.close` get this as a
    typed failed response, never a raised exception — the server's
    drain path relies on that being safe.
    """


@dataclass
class ServiceConfig:
    """Tuning knobs for one :class:`QueryService`."""

    #: admission capacity: at most ``workers + queue_limit`` requests
    #: are in flight across calling threads; the rest are shed with a
    #: typed :class:`ServiceOverloaded`.  The service starts no threads
    #: of its own — each request runs on the thread that called
    #: :meth:`QueryService.serve_inline`.
    workers: int = 4
    queue_limit: int = 32
    #: default per-request deadline in seconds (None = no deadline)
    deadline: Optional[float] = None
    #: search caps applied to every request budget
    max_candidates: Optional[int] = None
    max_expansions: Optional[int] = None
    #: interpretations returned per request
    top_k: int = 1
    translator: TranslatorConfig = DEFAULT_CONFIG
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: test/instrumentation seam: called on the calling thread as each
    #: admitted request starts processing (e.g. to hold a slot and
    #: exercise admission control deterministically)
    request_hook: Optional[Callable[["ServiceRequest"], None]] = None
    #: database name -> path of a repro.artifacts file to attach the
    #: context from; a bad/mis-keyed artifact falls back to a fresh
    #: build (docs/ARTIFACTS.md), never failing service construction
    artifacts: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ServiceRequest:
    """One admitted unit of work."""

    request_id: int
    query: str
    database: str = DEFAULT_DATABASE
    top_k: Optional[int] = None
    deadline: Optional[float] = None


@dataclass
class ServiceResponse:
    """Everything the service knows about one finished request."""

    request_id: int
    query: str
    database: str
    ok: bool
    translations: Optional[list[Translation]] = None
    rung: Optional[str] = None
    retries: int = 0
    shed: bool = False
    error: Optional[ReproError] = None
    elapsed: float = 0.0

    @property
    def sql(self) -> Optional[str]:
        if self.translations:
            return self.translations[0].sql
        return None

    @property
    def degraded(self) -> bool:
        return bool(self.translations) and self.translations[0].is_degraded

    @property
    def cached(self) -> bool:
        """True when the answer came from the translation result cache."""
        return bool(self.translations) and self.translations[0].cached

    @property
    def outcome(self) -> str:
        """One-word summary: ok / degraded / shed / failed."""
        if self.shed:
            return "shed"
        if not self.ok:
            return "failed"
        return "degraded" if self.degraded else "ok"

    @property
    def diagnostic(self) -> Optional[Diagnostic]:
        if self.error is not None and self.error.diagnostic is not None:
            return self.error.diagnostic
        if self.translations and self.translations[0].diagnostic is not None:
            return self.translations[0].diagnostic
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "request_id": self.request_id,
            "query": self.query,
            "database": self.database,
            "outcome": self.outcome,
            "rung": self.rung,
            "retries": self.retries,
            "cached": self.cached,
            "sql": self.sql,
            "error": None if self.error is None else str(self.error),
            "elapsed": round(self.elapsed, 6),
        }


@dataclass
class ServiceStats:
    """Aggregate counters, updated under the service lock."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    retries: int = 0
    rungs: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "retries": self.retries,
            "rungs": dict(self.rungs),
        }


class _DatabaseState:
    """Shared per-database serving state: backend + context."""

    def __init__(
        self,
        name: str,
        database: "Backend",
        config: ServiceConfig,
        tracer=None,  # Optional[repro.obs.Tracer]
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.name = name
        self.database = database
        self.artifact_path = config.artifacts.get(name)
        self.artifact_error = None
        if self.artifact_path is not None:
            from ..artifacts import load_or_build_context

            self.context, self.artifact_error = load_or_build_context(
                database,
                self.artifact_path,
                config.translator,
                tracer=tracer if tracer is not None else NULL_TRACER,
                metrics=metrics,
            )
        else:
            self.context = TranslationContext(database, config.translator)
        #: True when the context was attached from the artifact file
        #: rather than built — surfaced in snapshots and worker ready
        #: frames so the chaos harness can assert fleet-wide sharing
        self.artifact_loaded = (
            self.artifact_path is not None and self.artifact_error is None
        )


class QueryService:
    """An admission-controlled schema-free query service."""

    def __init__(
        self,
        databases: Union[Database, "Backend", Mapping[str, Any]],
        config: Optional[ServiceConfig] = None,
        faults=None,  # Optional[repro.testing.faults.FaultInjector]
        tracer=None,  # Optional[repro.obs.Tracer]
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.faults = faults
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        # reuse the fault injector's virtual clock and use its advance()
        # as the backoff sleeper, so injected delays count against
        # deadlines and retry schedules run without wall-clock sleeping
        self.clock: Callable[[], float] = (
            faults.clock if faults is not None else time.monotonic
        )
        self._sleep: Callable[[float], None] = (
            faults.advance if faults is not None else time.sleep
        )
        if not isinstance(databases, Mapping):
            databases = {DEFAULT_DATABASE: databases}
        if not databases:
            raise ValueError("QueryService needs at least one database")
        self._states: dict[str, _DatabaseState] = {
            name: _DatabaseState(name, db, self.config, self.tracer, metrics)
            for name, db in databases.items()
        }
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.stats = ServiceStats()
        capacity = self.config.workers + self.config.queue_limit
        self._slots = threading.Semaphore(capacity)
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop admitting new work.

        Idempotent and safe to call from any thread.  Requests already
        admitted finish on their callers' threads; later ones get a
        typed :class:`ServiceClosed` response.
        """
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def context(self, database: str = DEFAULT_DATABASE) -> TranslationContext:
        return self._states[database].context

    def snapshot(self) -> dict[str, Any]:
        """JSON-serialisable service state (config, stats, memo and
        attached artifacts)."""
        with self._lock:
            stats = self.stats.as_dict()
        return {
            "config": {
                "workers": self.config.workers,
                "queue_limit": self.config.queue_limit,
                "deadline": self.config.deadline,
                "max_candidates": self.config.max_candidates,
                "max_expansions": self.config.max_expansions,
                "retries": self.config.retry.max_retries,
            },
            "stats": stats,
            "memo": {
                name: state.context.stats.as_dict()
                for name, state in self._states.items()
            },
            "artifacts": {
                name: {
                    "path": state.artifact_path,
                    "loaded": state.artifact_loaded,
                    "error": (
                        str(state.artifact_error)
                        if state.artifact_error is not None
                        else None
                    ),
                }
                for name, state in self._states.items()
                if state.artifact_path is not None
            },
        }

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def serve_inline(
        self,
        query: str,
        database: str = DEFAULT_DATABASE,
        top_k: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> ServiceResponse:
        """Serve one request on the *calling* thread; never raises for
        a served outcome.

        Admission, the deadline budget, retries, tracing and metrics all
        run here.  A request past capacity returns at once with
        ``shed=True`` and a :class:`ServiceOverloaded` error; one after
        (or racing) :meth:`close` returns a typed :class:`ServiceClosed`
        failure.  An unknown ``database`` raises :class:`KeyError`.
        """
        if database not in self._states:
            raise KeyError(f"unknown database {database!r}")
        with self._lock:
            self._next_id += 1
            request_id = self._next_id
            self.stats.submitted += 1
        request = ServiceRequest(
            request_id=request_id,
            query=query,
            database=database,
            top_k=top_k,
            deadline=self.config.deadline if deadline is None else deadline,
        )
        # one span per request, started before admission so shed and
        # closed outcomes land on a trace too
        span = self.tracer.start_span("service.request")
        if span.enabled:
            span.set(
                request_id=request_id,
                database=database,
                query=query[:200],
            )
            if request.deadline is not None:
                span.set(deadline=request.deadline)
        if self._closed:
            return self._refuse_closed(request, span)
        if not self._slots.acquire(blocking=False):
            return self._shed(request, span)
        span.event("admitted")
        budget = Budget(
            deadline=request.deadline,
            max_candidates=self.config.max_candidates,
            max_expansions=self.config.max_expansions,
            clock=self.clock,
        )
        # _process releases the slot and finishes the span
        return self._process(request, budget, span)

    def _shed(self, request: ServiceRequest, span=NULL_SPAN) -> ServiceResponse:
        capacity = self.config.workers + self.config.queue_limit
        error = ServiceOverloaded(
            f"service overloaded: {capacity} requests already in flight "
            f"(workers={self.config.workers}, "
            f"queue_limit={self.config.queue_limit})",
            diagnostic=Diagnostic(
                stage="admission",
                message="in-flight capacity full; request shed",
                detail={
                    "workers": self.config.workers,
                    "queue_limit": self.config.queue_limit,
                },
            ),
        )
        response = ServiceResponse(
            request_id=request.request_id,
            query=request.query,
            database=request.database,
            ok=False,
            shed=True,
            error=error,
        )
        with self._lock:
            self.stats.shed += 1
        span.event(
            "shed",
            workers=self.config.workers,
            queue_limit=self.config.queue_limit,
        )
        if span.enabled:
            span.set(outcome="shed")
        span.fail(error)
        span.finish()
        if self.metrics is not None:
            self.metrics.counter(
                "repro_service_requests_total",
                "Requests finished, by database and outcome",
            ).inc(1, database=request.database, outcome="shed")
        return response

    def _refuse_closed(
        self, request: ServiceRequest, span=NULL_SPAN
    ) -> ServiceResponse:
        error = ServiceClosed(
            "service closed: no new work admitted",
            diagnostic=Diagnostic(
                stage="admission",
                message="request raced or followed close()",
            ),
        )
        response = ServiceResponse(
            request_id=request.request_id,
            query=request.query,
            database=request.database,
            ok=False,
            error=error,
        )
        with self._lock:
            self.stats.failed += 1
        span.event("closed")
        if span.enabled:
            span.set(outcome="failed")
        span.fail(error)
        span.finish()
        if self.metrics is not None:
            self.metrics.counter(
                "repro_service_requests_total",
                "Requests finished, by database and outcome",
            ).inc(1, database=request.database, outcome="closed")
        return response

    # ------------------------------------------------------------------
    # request processing
    # ------------------------------------------------------------------
    def _translator(self, state: _DatabaseState) -> SchemaFreeTranslator:
        """The calling thread's translator for one database.

        Translator scratch state (``last_*`` fields, active stats) is
        not thread-safe, so each calling thread owns private instances;
        they all share the database's lock-protected context, so
        memoization still spans the whole service.
        """
        cache = getattr(self._local, "translators", None)
        if cache is None:
            cache = {}
            self._local.translators = cache
        translator = cache.get(state.name)
        if translator is None:
            translator = SchemaFreeTranslator(
                state.database,
                self.config.translator,
                faults=self.faults,
                context=state.context,
                tracer=self.tracer,
            )
            cache[state.name] = translator
        return translator

    def _process(
        self, request: ServiceRequest, budget: Budget, span=NULL_SPAN
    ) -> ServiceResponse:
        if self.metrics is not None:
            self.metrics.gauge(
                "repro_service_inflight",
                "Requests admitted and not yet finished",
            ).inc()
        try:
            # make the request span current so every translator span
            # nests under it on the same trace
            with self.tracer.use_span(span):
                if self.config.request_hook is not None:
                    self.config.request_hook(request)
                return self._process_inner(request, budget, span)
        finally:
            span.finish()
            if self.metrics is not None:
                self.metrics.gauge(
                    "repro_service_inflight",
                    "Requests admitted and not yet finished",
                ).dec()
            self._slots.release()

    def _process_inner(
        self, request: ServiceRequest, budget: Budget, span=NULL_SPAN
    ) -> ServiceResponse:
        state = self._states[request.database]
        started = self.clock()
        retries = 0
        while True:
            attempt = retries + 1
            try:
                # built inside the try: building it reads the backend's
                # catalog, which can fail like any other backend read
                translator = self._translator(state)
                # with a budget, translate() may fall back to greedy
                translations = translator.translate(
                    request.query,
                    top_k=request.top_k or self.config.top_k,
                    budget=budget.slice(),
                )
            except ReproError as exc:
                if (
                    self.config.retry.is_retryable(exc)
                    and retries < self.config.retry.max_retries
                    and not budget.time_exceeded()
                ):
                    delay = self.config.retry.backoff(
                        request.request_id, attempt
                    )
                    with self._lock:
                        self.stats.retries += 1
                    span.event(
                        "retry", attempt=attempt, delay=round(delay, 6)
                    )
                    if self.metrics is not None:
                        self.metrics.counter(
                            "repro_service_retries_total",
                            "Retry attempts after transient failures",
                        ).inc(1, database=request.database)
                    self._sleep(delay)
                    retries += 1
                    continue
                # not retryable: a syntax error, an unmappable query, or
                # a refusal (BudgetExceeded, NoJoinNetworkError) below
                # the greedy rung
                return self._finish(
                    request, started, retries,
                    ok=False, error=exc, rung=None, span=span,
                )
            rung = translations[0].rung if translations else "full"
            return self._finish(
                request, started, retries,
                ok=True, translations=translations, rung=rung, span=span,
            )

    def _finish(
        self,
        request: ServiceRequest,
        started: float,
        retries: int,
        ok: bool,
        translations: Optional[list[Translation]] = None,
        error: Optional[ReproError] = None,
        rung: Optional[str] = None,
        span=NULL_SPAN,
    ) -> ServiceResponse:
        response = ServiceResponse(
            request_id=request.request_id,
            query=request.query,
            database=request.database,
            ok=ok,
            translations=translations,
            rung=rung,
            retries=retries,
            error=error,
            elapsed=self.clock() - started,
        )
        with self._lock:
            if ok:
                self.stats.completed += 1
                if rung is not None:
                    self.stats.rungs[rung] = self.stats.rungs.get(rung, 0) + 1
            else:
                self.stats.failed += 1
        if span.enabled:
            span.set(
                outcome=response.outcome,
                retries=retries,
                elapsed=round(response.elapsed, 6),
            )
            if rung is not None:
                span.set(rung=rung)
            if not ok and error is not None:
                span.fail(error)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_service_requests_total",
                "Requests finished, by database and outcome",
            ).inc(1, database=request.database, outcome=response.outcome)
            self.metrics.histogram(
                "repro_service_request_seconds",
                "Seconds from admission to response, per request",
            ).observe(response.elapsed)
            if ok and translations and translations[0].stats is not None:
                record_translation(
                    self.metrics,
                    translations[0].stats,
                    outcome=response.outcome,
                    rung=rung or "full",
                )
        return response
