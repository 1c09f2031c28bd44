"""``repro.backends`` — pluggable execution backends (DESIGN.md §12–§13).

The paper's pipeline ends at "composing standard SQL" (§6.2); this
package is where the composed SQL actually runs.  A :class:`Backend`
protocol abstracts query execution and schema/statistics access, with
two implementations:

* :class:`MemoryBackend` — wraps the in-process :class:`repro.engine.
  Database` (the default substrate for tests and the bundled datasets);
* :class:`SqliteBackend` — stdlib ``sqlite3``: reflects the catalog
  from ``PRAGMA`` metadata, sources translation statistics through
  sampled ``SELECT``s, and executes dialect-lowered SQL with
  engine-parity UDFs.

Backend failures are typed (:mod:`repro.backends.errors`).  A transient
one is retried by :class:`~repro.service.QueryService`, which re-runs
the whole translation under its :class:`RetryPolicy` (DESIGN.md §13);
nothing in this package retries.

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
from .dialect import UnsupportedSqlError, lower, to_sqlite_sql
from .errors import (
    BackendError,
    BackendUnavailable,
    TransientBackendError,
)
from .memory import MemoryBackend
from .sqlite import SqliteBackend, map_declared_type, reflect_catalog

__all__ = [
    "Backend",
    "BackendError",
    "BackendUnavailable",
    "MemoryBackend",
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
from .retry import RetryPolicy  # noqa: E402
