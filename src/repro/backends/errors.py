"""Typed backend-layer failures (DESIGN.md §13).

The backend sits on the translation critical path — reflection feeds the
view graph, sampling feeds similarity statistics, execution produces the
rows — so its failures need the same typed treatment the pipeline stages
got in PR 3.  Three classes, by what the caller can do about them:

* :class:`TransientBackendError` — a hiccup worth retrying (a locked
  SQLite file, a dropped connection, an injected transport fault).
  :class:`~repro.backends.resilient.ResilientBackend` retries these with
  its :class:`~repro.backends.retry.RetryPolicy` before
  escalating.
* :class:`BackendUnavailable` — terminal: retries were exhausted (or
  never applicable, e.g. a corrupted database file).  Maps to its own
  CLI exit code (7) so scripts can tell "the backend is down" from "the
  query is wrong".
* :class:`BackendDegraded` — the backend produced a *partial* result
  (``partial`` carries it, e.g. a partially-reflected catalog).  The
  resilient wrapper folds the partial result in and continues on the
  greedy ladder rung with a structured :class:`~repro.errors.Diagnostic`; only
  when nothing wraps the backend does it surface to the caller.

This module imports nothing but :mod:`repro.errors`, so any layer —
including :mod:`repro.testing.faults`, which is upstream of the backends
package in import order — can raise these without cycles.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import Diagnostic, ReproError

__all__ = [
    "BackendDegraded",
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
    """Terminal backend failure: retries exhausted or the substrate is
    unusable (corrupted file, closed connection).  CLI exit code 7."""


class BackendDegraded(BackendError):
    """The backend produced a partial result instead of failing outright.

    ``partial`` carries the partial payload (e.g. a catalog missing some
    relations).  :class:`~repro.backends.resilient.ResilientBackend`
    catches this, keeps the payload, records a diagnostic and continues
    degraded rather than aborting translation.
    """

    def __init__(
        self,
        *args: object,
        partial: Any = None,
        diagnostic: Optional[Diagnostic] = None,
    ) -> None:
        super().__init__(*args, diagnostic=diagnostic)
        self.partial = partial
