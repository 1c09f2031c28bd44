"""ResilientBackend — retry, timeout, degradation and breaker armor
around any :class:`~repro.backends.base.Backend` (DESIGN.md §13).

PR 5 put a pluggable backend on the translation critical path; this
wrapper keeps a flaky one from aborting translation outright.  Each
operation (``reflect`` / ``sample`` / ``execute`` / ``count`` /
``version``) runs inside a guard that composes four behaviours:

* **retry** — transient failures (:class:`~repro.backends.errors.
  TransientBackendError`, injected faults) retry with a
  :class:`~repro.backends.retry.RetryPolicy`: exponential backoff with
  deterministic per-request jitter, slept on an injectable sleeper so
  the fault injector's virtual clock makes whole retry storms testable
  in microseconds;
* **timeouts as sliced budgets** — every attempt gets a per-operation
  :class:`~repro.core.resilience.Budget` (sliced under ``self.budget``
  when one is attached, so backend time is *noted* against the request
  budget).  The check is cooperative: a hang that advanced the clock
  past the deadline is detected when the call returns and treated as a
  transient timeout;
* **graceful degradation** — when retries are exhausted the guard does
  not always give up: failed *sampling* returns an empty column (the
  translator proceeds with name-similarity-only statistics), partial
  *reflection* (:class:`~repro.backends.errors.BackendDegraded`) keeps
  the partial catalog, and a failed *version* probe serves the last
  known version.  Every degradation appends a structured
  :class:`~repro.errors.Diagnostic` to :attr:`ResilientBackend.health`
  and demotes :attr:`start_advice`, which the translator reads once per
  translation as its start rung;
* **circuit breaking** — a per-backend :class:`~repro.backends.breaker.
  CircuitBreaker` counts terminal failures; once tripped it pins the
  backend's databases to the ``greedy`` rung until a half-open probe
  recovers.  Semantic errors (bad SQL, division by zero) abstain — they
  say nothing about backend health and propagate unchanged.

Observability: each retry emits a ``backend.retry`` span and bumps
``repro_backend_retry_total{backend,op}``; each degradation emits
``backend.degrade`` and ``repro_backend_degraded_total{backend,op}``
(docs/OBSERVABILITY.md).

With no faults the wrapper is pass-through: same catalog object, same
samples, same rows — byte-identical translations to the bare backend,
with the same column reads and no retry or degradation (enforced by
``tests/test_workload_parity.py`` and by the parity phase of
``scripts/run_chaos.py`` over all 95 workload queries).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Union

from ..core.resilience import Budget
from ..errors import Diagnostic, ReproError
from ..obs import NULL_TRACER, MetricsRegistry, Tracer
from .base import Backend
from .breaker import CLOSED, BreakerConfig, CircuitBreaker
from .errors import (
    BackendDegraded,
    BackendError,
    BackendUnavailable,
    TransientBackendError,
)
from .retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..catalog import Catalog
    from ..engine.executor import Result
    from ..sqlkit import ast

__all__ = ["BackendHealth", "DEFAULT_TIMEOUTS", "ResilientBackend"]

#: Per-operation attempt deadlines in seconds (on the wrapper's clock).
DEFAULT_TIMEOUTS: Mapping[str, float] = {
    "reflect": 10.0,
    "sample": 5.0,
    "execute": 30.0,
    "count": 5.0,
    "version": 2.0,
}

#: How many degradation diagnostics :class:`BackendHealth` retains.
_HEALTH_DIAGNOSTIC_CAP = 32


@dataclass
class BackendHealth:
    """What the wrapper currently knows about its backend's fitness.

    The translator reads this (via ``database.health``) to attach the
    accumulated diagnostics to degraded translations; flags are sticky
    until :meth:`reset` because a backend that lost its statistics once
    should stay demoted until an operator (or a breaker probe cycle)
    says otherwise.
    """

    stats_degraded: bool = False
    catalog_partial: bool = False
    version_stale: bool = False
    retries: int = 0
    degradations: int = 0
    diagnostics: list = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return self.stats_degraded or self.catalog_partial or self.version_stale

    def note(self, diagnostic: Diagnostic) -> None:
        self.degradations += 1
        if len(self.diagnostics) < _HEALTH_DIAGNOSTIC_CAP:
            self.diagnostics.append(diagnostic)

    def reset(self) -> None:
        self.stats_degraded = False
        self.catalog_partial = False
        self.version_stale = False
        self.diagnostics.clear()

    def snapshot(self) -> dict:
        return {
            "degraded": self.degraded,
            "stats_degraded": self.stats_degraded,
            "catalog_partial": self.catalog_partial,
            "version_stale": self.version_stale,
            "retries": self.retries,
            "degradations": self.degradations,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


class ResilientBackend:
    """Wrap a backend with retries, timeouts, degradation and a breaker."""

    def __init__(
        self,
        inner: Backend,
        *,
        retry: Optional[RetryPolicy] = None,
        timeouts: Optional[Mapping[str, float]] = None,
        breaker: Optional[BreakerConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Optional[Callable[[float], None]] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        request_id: int = 0,
    ) -> None:
        """Armor *inner*.

        *retry* defaults to the standard policy (2 retries);
        *timeouts* maps op name → per-attempt deadline seconds (missing
        ops run undeadlined); *breaker* configures this backend's
        circuit breaker (None for defaults);
        *clock* and *sleep* are injectable for deterministic tests —
        pass ``FaultInjector.clock`` / ``FaultInjector.advance`` and no
        wall-clock time passes.  When *sleep* is omitted it is
        ``time.sleep`` on the real clock and a no-op on any other
        (virtual) clock.  *request_id* seeds the deterministic retry
        jitter.
        """
        self._inner = inner
        self.kind = f"resilient[{inner.kind}]"
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeouts = dict(
            DEFAULT_TIMEOUTS if timeouts is None else timeouts
        )
        self._clock = clock
        if sleep is None:
            sleep = time.sleep if clock is time.monotonic else (lambda _s: None)
        self._sleep = sleep
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.request_id = request_id
        #: optional request budget; per-op budgets slice under it so
        #: backend time is noted against the request's counters
        self.budget: Optional[Budget] = None
        self.breaker = CircuitBreaker(
            breaker if breaker is not None else BreakerConfig(),
            clock=clock,
            name=f"backend:{inner.kind}",
        )
        self.health = BackendHealth()
        self._catalog_cache: Optional["Catalog"] = None
        self._last_version: Optional[int] = None
        if metrics is None:
            self._retry_total = self._degraded_total = None
        else:
            self._retry_total = metrics.counter(
                "repro_backend_retry_total",
                "Backend operations retried after a transient failure.",
            )
            self._degraded_total = metrics.counter(
                "repro_backend_degraded_total",
                "Backend operations resolved by graceful degradation.",
            )

    # ------------------------------------------------------------------
    # ladder advice
    # ------------------------------------------------------------------
    @property
    def inner(self) -> Backend:
        return self._inner

    @property
    def start_advice(self) -> Optional[tuple[str, str]]:
        """``("greedy", reason)`` when this backend's state calls for
        skipping the full search, else None: the breaker is open, or
        statistics were lost or the catalog is partial (an expensive
        search over wrong statistics wastes the budget).  The reason
        names the set health flags, else the open breaker."""
        health = self.health
        if not (
            self.breaker.state != CLOSED
            or health.stats_degraded
            or health.catalog_partial
        ):
            return None
        causes = [cause for flag, cause in (
            (health.stats_degraded, "statistics sampling failed"),
            (health.catalog_partial, "partial catalog"),
            (health.version_stale, "stale data version"),
        ) if flag]
        return "greedy", ", ".join(causes) or "circuit breaker open"

    # ------------------------------------------------------------------
    # the guard
    # ------------------------------------------------------------------
    def _op_budget(self, op: str) -> Optional[Budget]:
        deadline = self.timeouts.get(op)
        if deadline is None and self.budget is None:
            return None
        if self.budget is not None:
            remaining = self.budget.remaining_time()
            if remaining is not None:
                deadline = remaining if deadline is None else min(deadline, remaining)
            return Budget(deadline=deadline, clock=self._clock, parent=self.budget)
        return Budget(deadline=deadline, clock=self._clock)

    def _count_retry(self, op: str) -> None:
        self.health.retries += 1
        if self._retry_total is not None:
            self._retry_total.inc(1, backend=self.kind, op=op)

    def _count_degraded(self, op: str, action: str, error: BaseException) -> Diagnostic:
        diagnostic = Diagnostic(
            stage="backend",
            message=f"{op} degraded: {action}",
            token=op,
            detail={"error": f"{type(error).__name__}: {error}"},
        )
        self.health.note(diagnostic)
        if self._degraded_total is not None:
            self._degraded_total.inc(1, backend=self.kind, op=op)
        with self.tracer.span("backend.degrade", backend=self.kind, op=op) as span:
            span.set_attribute("action", action)
            span.set_attribute("error", type(error).__name__)
        return diagnostic

    def _is_semantic(self, failure: BaseException) -> bool:
        """Deterministic caller-side errors: retrying cannot change the
        outcome and the breaker learns nothing from them."""
        from ..catalog import SchemaError

        if self.retry.is_retryable(failure):
            return False
        if isinstance(failure, SchemaError):
            return True  # unknown relation/attribute asked of the backend
        return isinstance(failure, ReproError) and not isinstance(
            failure, BackendError
        )

    def _guarded(self, op: str, fn: Callable[[], Any]) -> Any:
        """Run one backend operation under retry/timeout/breaker rules.

        Raises :class:`BackendUnavailable` after exhausting retries,
        propagates semantic ``ReproError``s unchanged, and lets
        :class:`BackendDegraded` through for the per-op wrappers to
        fold in.  The breaker records terminal failures and successes;
        semantic errors abstain.
        """
        probe = self.breaker.admit()
        attempt = 0
        while True:
            budget = self._op_budget(op)
            failure: Optional[BaseException] = None
            try:
                result = fn()
            except Exception as exc:  # classified below and re-raises typed errors only
                failure = exc
            if failure is None:
                if budget is not None and budget.time_exceeded():
                    failure = TransientBackendError(
                        f"backend op {op!r} exceeded its "
                        f"{budget.deadline:.3f}s timeout",
                        diagnostic=Diagnostic(
                            stage="backend",
                            message=f"{op} timed out",
                            token=op,
                            detail=budget.snapshot(),
                        ),
                    )
                else:
                    self.breaker.record(True, probe)
                    return result
            if self.retry.is_retryable(failure) and attempt < self.retry.max_retries:
                attempt += 1
                delay = self.retry.backoff(self.request_id, attempt)
                self._count_retry(op)
                with self.tracer.span(
                    "backend.retry", backend=self.kind, op=op
                ) as span:
                    span.set_attribute("attempt", attempt)
                    span.set_attribute("delay_s", round(delay, 6))
                    span.set_attribute("error", type(failure).__name__)
                self._sleep(delay)
                continue
            if isinstance(failure, BackendDegraded):
                # A partial result is service, not failure: the per-op
                # wrapper decides what to keep.
                self.breaker.abstain(probe)
                raise failure
            if self._is_semantic(failure):
                # Semantic error (bad SQL, division by zero, unknown
                # relation): deterministic, says nothing about backend
                # health — propagate unchanged.
                self.breaker.abstain(probe)
                raise failure
            self.breaker.record(False, probe)
            raise BackendUnavailable(
                f"backend op {op!r} failed after {attempt + 1} attempt(s): "
                f"{failure}",
                diagnostic=Diagnostic(
                    stage="backend",
                    message=f"{op} failed: {failure}",
                    token=op,
                    candidates=attempt + 1,
                    detail={"error": type(failure).__name__},
                ),
            ) from failure

    # ------------------------------------------------------------------
    # Backend protocol
    # ------------------------------------------------------------------
    @property
    def catalog(self) -> "Catalog":
        """The inner catalog, surviving partial reflection.

        A :class:`BackendDegraded` from the inner backend (or injected
        by the chaos harness) yields its partial catalog plus a
        diagnostic; the result is cached either way, matching the
        bare backends' reflect-once behaviour.
        """
        if self._catalog_cache is not None:
            return self._catalog_cache
        try:
            catalog = self._guarded("reflect", lambda: self._inner.catalog)
        except BackendDegraded as exc:
            if exc.partial is None:
                raise BackendUnavailable(
                    f"reflection degraded with no partial catalog: {exc}",
                    diagnostic=exc.diagnostic,
                ) from exc
            catalog = exc.partial
            self.health.catalog_partial = True
            self._count_degraded(
                "reflect", "continuing with partial catalog", exc
            )
        self._catalog_cache = catalog
        return catalog

    @property
    def data_version(self) -> int:
        """The inner version; serves the last known one when the probe
        fails terminally (stale caches beat no service — the diagnostic
        records the staleness)."""
        try:
            version = self._guarded("version", lambda: self._inner.data_version)
        except BackendUnavailable as exc:
            if self._last_version is None:
                raise
            self.health.version_stale = True
            self._count_degraded(
                "version", "serving last known data_version", exc
            )
            return self._last_version
        self._last_version = version
        if self.health.version_stale:
            self.health.version_stale = False
        return version

    def count(self, relation_name: str) -> int:
        return self._guarded("count", lambda: self._inner.count(relation_name))

    def column_values(self, relation_name: str, attribute_name: str) -> list:
        """One column's values — or an empty column when sampling is
        terminally down.  Empty samples mean the context scores that
        attribute by name similarity alone; translation proceeds on a
        lower rung instead of aborting."""
        try:
            return self._guarded(
                "sample",
                lambda: self._inner.column_values(relation_name, attribute_name),
            )
        except BackendUnavailable as exc:
            self.health.stats_degraded = True
            self._count_degraded(
                "sample",
                f"empty sample for {relation_name}.{attribute_name} "
                "(name-similarity-only statistics)",
                exc,
            )
            return []

    def execute(self, query: Union[str, "ast.Node"]) -> "Result":
        return self._guarded("execute", lambda: self._inner.execute(query))

    def close(self) -> None:
        try:
            self._inner.close()
        except Exception:  # last-ditch: the backend is being discarded
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResilientBackend({self._inner!r})"
