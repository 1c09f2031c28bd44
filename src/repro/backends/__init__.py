"""``repro.backends`` — pluggable execution backends (DESIGN.md §12–§13).

The paper's pipeline ends at "composing standard SQL" (§6.2); this
package is where the composed SQL actually runs.  A :class:`Backend`
protocol abstracts query execution and schema/statistics access, with
two implementations and one wrapper:

* :class:`MemoryBackend` — wraps the in-process :class:`repro.engine.
  Database` (the default substrate for tests and the bundled datasets);
* :class:`SqliteBackend` — stdlib ``sqlite3``: reflects the catalog
  from ``PRAGMA`` metadata, sources translation statistics through
  sampled ``SELECT``s, and executes dialect-lowered SQL with
  engine-parity UDFs;
* :class:`ResilientBackend` — fault-tolerance armor over any backend:
  retries with deterministic jitter, per-operation timeout budgets,
  graceful degradation (empty samples, partial catalogs) and a
  per-backend :class:`CircuitBreaker` that pins translation to the
  greedy ladder rung.  It is the one breaker in the system: backend
  health is this package's to judge, and the translator starts its
  ladder at the resulting ``start_advice`` (DESIGN.md §10.4).  Typed
  failures live in :mod:`repro.backends.errors`.

:func:`as_backend` upgrades a raw Database (which satisfies the
protocol structurally) into a MemoryBackend; anything already
implementing the protocol passes through unchanged.  Cross-backend
agreement is enforced by :mod:`repro.testing.differential`, and
fault/schema-drift behaviour by :mod:`repro.testing.faults` /
:mod:`repro.testing.evolution`.
"""

from __future__ import annotations

from typing import Optional, Union

from ..obs import MetricsRegistry, Tracer
from .base import Backend
from .breaker import CLOSED, HALF_OPEN, OPEN, BreakerConfig, CircuitBreaker
from .dialect import UnsupportedSqlError, lower, to_sqlite_sql
from .errors import (
    BackendDegraded,
    BackendError,
    BackendUnavailable,
    TransientBackendError,
)
from .memory import MemoryBackend
from .sqlite import SqliteBackend, map_declared_type, reflect_catalog

__all__ = [
    "Backend",
    "BackendDegraded",
    "BackendError",
    "BackendHealth",
    "BackendUnavailable",
    "BreakerConfig",
    "CLOSED",
    "CircuitBreaker",
    "HALF_OPEN",
    "MemoryBackend",
    "OPEN",
    "ResilientBackend",
    "RetryPolicy",
    "SqliteBackend",
    "TransientBackendError",
    "UnsupportedSqlError",
    "as_backend",
    "lower",
    "map_declared_type",
    "reflect_catalog",
    "to_sqlite_sql",
]


def as_backend(
    source,
    *,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Backend:
    """Return *source* as a Backend, wrapping a raw Database if needed."""
    from ..engine.database import Database

    if isinstance(source, Database):
        return MemoryBackend(source, tracer=tracer, metrics=metrics)
    return source


# Imported after as_backend is defined: the retry policy imports
# repro.testing (for InjectedFault), whose differential module imports
# this module's as_backend during circular bootstrap.
from .resilient import BackendHealth, ResilientBackend  # noqa: E402
from .retry import RetryPolicy  # noqa: E402
