"""Typed backend-layer failures (DESIGN.md §13).

The backend sits on the translation critical path — reflection feeds the
view graph, sampling feeds similarity statistics, execution produces the
rows — so its failures need the same typed treatment the pipeline stages
get.  Two classes, by what the caller can do about them:

* :class:`TransientBackendError` — a hiccup worth retrying (a locked
  SQLite file, a dropped connection, an injected transport fault).
  :class:`~repro.service.QueryService` retries the whole translation
  under its :class:`~repro.backends.retry.RetryPolicy` before failing
  the request.
* :class:`BackendUnavailable` — terminal: the substrate is unusable
  (a corrupted database file, a closed connection).

Both map to CLI exit code 7, so scripts can tell "the backend is down"
from "the query is wrong".

This module imports nothing but :mod:`repro.errors`, so any layer —
including :mod:`repro.testing.faults`, which is upstream of the backends
package in import order — can raise these without cycles.
"""

from __future__ import annotations

from ..errors import ReproError

__all__ = [
    "BackendError",
    "BackendUnavailable",
    "TransientBackendError",
]


class BackendError(ReproError):
    """Root of backend-layer failures (reflection, sampling, execution
    infrastructure — *not* semantic errors like division by zero, which
    stay :class:`~repro.engine.EngineError`)."""


class TransientBackendError(BackendError):
    """A retryable backend hiccup: locked file, dropped connection,
    injected transport fault.  Worth a backoff-spaced retry."""


class BackendUnavailable(BackendError):
    """Terminal backend failure: the substrate is unusable (corrupted
    file, closed connection).  CLI exit code 7."""

