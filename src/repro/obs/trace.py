"""Structured tracing for the translation pipeline.

A :class:`Tracer` produces :class:`Span` records — named, timed,
attributed intervals arranged in a tree: the translator opens one root
span per ``translate()`` call and nests a span per pipeline stage,
degradation-ladder rung, relation tree mapped, and MTJN search under
it; the query service opens a ``service.request`` span per admitted
request so admission, queue wait and retry decisions land on
the same trace as the translation they wrap (DESIGN.md §11).

Design points:

* **zero-dependency and no-op-cheap** — the default collaborator is
  :data:`NULL_TRACER`, whose ``span()`` returns one shared, stateless
  :class:`NullSpan`; an uninstrumented run pays one method call and an
  empty context manager per site, and a traced run answers exactly
  like an untraced one (``tests/test_workload_parity.py``).  Call
  sites that would build expensive attribute payloads (per-candidate σ
  lists) guard on ``span.enabled`` / ``tracer.enabled`` first.
* **injectable clock** — ``Tracer(clock=...)`` accepts any monotonic
  float clock; built on a :class:`~repro.testing.faults.FaultInjector`
  virtual clock, span durations are fully deterministic in tests.
* **explicit parenting across threads** — spans nest implicitly via a
  per-thread stack (``with tracer.span(...)``), and a span started on
  one thread (the service's submit side) can be adopted by another (the
  worker) with :meth:`Tracer.use_span`, which is how translator spans
  end up under their request span.
* **bounded export** — finished spans go to every attached exporter:
  :class:`RingBufferExporter` keeps the last N in memory (the
  ``explain`` subcommand reads it back), :class:`JsonlExporter` appends
  one JSON object per line (the CI trace artifact; schema checked by
  ``scripts/check_trace.py``).

Span and event names are a stable, documented surface — the full list
with every attribute lives in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Optional


class Span:
    """One named, timed interval in a trace tree.

    Spans are context managers: entering pushes them on the tracer's
    per-thread stack (so nested ``tracer.span()`` calls become
    children), exiting records the end time, pops the stack, and hands
    the finished span to the tracer's exporters.  Attributes are plain
    ``str -> json-able`` pairs; events are timestamped point-in-time
    markers with their own attributes.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attributes",
        "events",
        "status",
        "_tracer",
    )

    #: real spans record; :class:`NullSpan` advertises False so call
    #: sites can skip building expensive attribute payloads
    enabled = True

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        start: float,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.attributes: dict[str, Any] = {}
        self.events: list[dict[str, Any]] = []
        self.status = "ok"

    # ------------------------------------------------------------------
    def set(self, **attributes: Any) -> "Span":
        """Attach attributes (last write wins); returns self."""
        self.attributes.update(attributes)
        return self

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def event(self, name: str, **attributes: Any) -> None:
        """Record a timestamped point-in-time event on this span."""
        self.events.append(
            {
                "time": self._tracer.clock(),
                "name": name,
                "attributes": attributes,
            }
        )

    def fail(self, error: BaseException) -> None:
        self.status = "error"
        self.attributes.setdefault("error", f"{type(error).__name__}: {error}")

    # ------------------------------------------------------------------
    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def finish(self) -> None:
        """End the span (idempotent) and export it.

        Used by owners that hold spans across threads (the service's
        request spans); ``with``-managed spans finish on exit.
        """
        if self.end is None:
            self.end = self._tracer.clock()
            self._tracer._export(self)

    def to_dict(self) -> dict[str, Any]:
        duration = self.duration
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": round(self.start, 6),
            "end": None if self.end is None else round(self.end, 6),
            "duration": None if duration is None else round(duration, 6),
            "status": self.status,
            "attributes": self.attributes,
            "events": [
                {
                    "time": round(event["time"], 6),
                    "name": event["name"],
                    "attributes": event["attributes"],
                }
                for event in self.events
            ],
        }

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None and self.status == "ok":
            self.fail(exc)
        self._tracer._pop(self)
        self.finish()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, trace={self.trace_id}, id={self.span_id}, "
            f"parent={self.parent_id})"
        )


class NullSpan:
    """The do-nothing span: one shared instance, no state, no cost.

    Every mutator is a no-op and ``enabled`` is False, so instrumented
    code can run unchanged — and unmeasurably close to free — when
    tracing is off.
    """

    __slots__ = ()
    enabled = False
    name = ""
    attributes: dict[str, Any] = {}
    events: list = []
    duration = None

    def set(self, **attributes: Any) -> "NullSpan":
        return self

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def event(self, name: str, **attributes: Any) -> None:
        pass

    def fail(self, error: BaseException) -> None:
        pass

    def finish(self) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = NullSpan()


class NullTracer:
    """The do-nothing tracer, the default everywhere.

    ``SchemaFreeTranslator`` and ``QueryService`` hold one of these
    unless a real :class:`Tracer` is injected, which is what makes
    instrumentation free when disabled.
    """

    __slots__ = ()
    enabled = False

    def span(self, name: str, **attributes: Any) -> NullSpan:
        return NULL_SPAN

    def start_span(
        self, name: str, parent: Optional[Span] = None, **attributes: Any
    ) -> NullSpan:
        return NULL_SPAN

    @contextmanager
    def use_span(self, span):
        yield span

    def current(self) -> None:
        return None


NULL_TRACER = NullTracer()


class Tracer:
    """Factory and per-thread context for :class:`Span` trees.

    ``clock`` must be a monotonic float clock (seconds); exporters
    receive each span exactly once, when it finishes.  All id
    allocation and exporter fan-out is lock-protected, so one tracer
    can serve every calling thread of a :class:`~repro.service.
    QueryService`; the span *stack* is per-thread, so concurrent
    requests never adopt each other's spans as parents.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        exporters: Iterable["SpanExporter"] = (),
    ) -> None:
        self.clock = clock
        self.exporters: list[SpanExporter] = list(exporters)
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def _allocate_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def start_span(
        self, name: str, parent: Optional[Span] = None, **attributes: Any
    ) -> Span:
        """A new span, parented to *parent* (or the calling thread's
        current span).  The caller owns it: either use it as a context
        manager or call :meth:`Span.finish` explicitly."""
        if parent is None:
            parent = self.current()
        span_id = self._allocate_id()
        trace_id = parent.trace_id if parent is not None else span_id
        parent_id = parent.span_id if parent is not None else None
        span = Span(self, name, trace_id, span_id, parent_id, self.clock())
        if attributes:
            span.attributes.update(attributes)
        return span

    def span(self, name: str, **attributes: Any) -> Span:
        """Shorthand: a new span ready for ``with`` (parent = current)."""
        return self.start_span(name, **attributes)

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def use_span(self, span: Span):
        """Adopt an existing, unfinished span as the calling thread's
        current span (cross-thread parenting).  Does not finish it."""
        self._push(span)
        try:
            yield span
        finally:
            self._pop(span)

    # internal: Span.__enter__/__exit__ plumbing
    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def _export(self, span: Span) -> None:
        with self._lock:
            for exporter in self.exporters:
                exporter.export(span)


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


class SpanExporter:
    """Interface: receives each finished span exactly once."""

    def export(self, span: Span) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class RingBufferExporter(SpanExporter):
    """Keeps the most recent ``capacity`` finished spans in memory.

    The bound is the whole point: a long-lived service can leave
    tracing on without the trace store growing with traffic.  The
    ``explain`` subcommand and tests read traces back with
    :meth:`spans` / :meth:`trace`.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self.dropped = 0

    def export(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            if len(self._spans) > self.capacity:
                del self._spans[0]
                self.dropped += 1

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def trace(self, trace_id: int) -> list[Span]:
        """All buffered spans of one trace, in finish order."""
        with self._lock:
            return [s for s in self._spans if s.trace_id == trace_id]

    def last_trace(self) -> list[Span]:
        """The spans of the most recently finished trace."""
        with self._lock:
            if not self._spans:
                return []
            trace_id = self._spans[-1].trace_id
            return [s for s in self._spans if s.trace_id == trace_id]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0


class JsonlExporter(SpanExporter):
    """Appends each finished span as one JSON object per line.

    The file format is the contract checked by
    ``scripts/check_trace.py`` and documented in
    ``docs/OBSERVABILITY.md``; CI uploads one of these per run as
    ``TRACE_textbook.jsonl``.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._handle = open(path, "w", encoding="utf-8")

    def export(self, span: Span) -> None:
        line = json.dumps(span.to_dict(), sort_keys=True, default=str)
        with self._lock:
            if self._handle.closed:
                return
            self._handle.write(line + "\n")

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()

    def __enter__(self) -> "JsonlExporter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
