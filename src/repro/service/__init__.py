"""In-process serving layer over the schema-free translation pipeline.

:meth:`QueryService.serve_inline` serves one request on the calling
thread — the serving worker's frame loop, the CLI batch loop, or a
caller's own threads; the service starts none — with three behaviours a
front end needs under load (DESIGN.md §10):

* **admission control** — capacity is ``workers + queue_limit``
  requests in flight across calling threads; requests past it are
  *shed* immediately with a typed :class:`ServiceOverloaded` (bounded
  latency, no unbounded waiting);
* **deadlines as budgets** — a per-request deadline becomes a
  :class:`~repro.core.resilience.Budget` created *at admission*; an
  overrun falls back to the translator's greedy rung, or fails typed;
* **retries** — transient faults retry with exponential backoff and
  deterministic per-request jitter (:class:`RetryPolicy`).

The service owns no health state: each failure domain has one owner
(DESIGN.md §10.4).  A budget that runs out is handled per request by
the translator's two-rung degradation ladder, and backend health by
:class:`~repro.backends.ResilientBackend`, whose advice the translator
folds.

Every request's journey is observable: pass ``tracer=`` /
``metrics=`` to :class:`QueryService` and each request gets one
``service.request`` span carrying admission and retry events, plus the ``repro_service_*`` metric family — the full catalog
is docs/OBSERVABILITY.md.

**Exit codes.**  The CLI (``python -m repro``, see :mod:`repro.cli`)
maps this layer's outcomes — and the translator's typed errors — onto
one process exit code, the contract scripts and CI rely on:

=====  ==========================================================
code   meaning
=====  ==========================================================
0      success: every query translated (degraded still counts)
1      unhandled failure *outside* the CLI's error guard (a crash
       in Python startup or argument parsing; nothing typed)
2      syntax error (:class:`~repro.sqlkit.SqlSyntaxError`)
3      translation failure — no mapping / no join network
       (:class:`~repro.core.TranslationError`)
4      engine execution error (:class:`~repro.engine.EngineError`)
5      internal error: any other :class:`~repro.errors.ReproError`
6      ``--batch --processes`` only: at least one request was shed
       by the supervisor's admission control
7      the execution backend is unavailable (corrupted or locked
       file, retries exhausted —
       :class:`~repro.backends.errors.BackendError`)
8      a serving worker process crashed or hung
       (:class:`~repro.server.errors.WorkerCrashed` /
       :class:`~repro.server.errors.WorkerTimeout`; raised by the
       multi-process :mod:`repro.server` layer)
=====  ==========================================================

Codes 2–5, 7 and 8 come from ``repro.cli.exit_code_for``; a
``--processes`` batch exits 6 only when shed requests are its sole
failures, because shedding is a capacity signal, not a per-query
verdict.
The budget/degradation side of this table lives in
:mod:`repro.core.resilience`.

See :mod:`repro.service.service` for the threading model.
"""

from ..backends.retry import NO_RETRY, RetryPolicy, jitter_fraction
from .service import (
    DEFAULT_DATABASE,
    QueryService,
    ServiceClosed,
    ServiceConfig,
    ServiceOverloaded,
    ServiceRequest,
    ServiceResponse,
    ServiceStats,
)

__all__ = [
    "DEFAULT_DATABASE",
    "NO_RETRY",
    "QueryService",
    "RetryPolicy",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceOverloaded",
    "ServiceRequest",
    "ServiceResponse",
    "ServiceStats",
    "jitter_fraction",
]
