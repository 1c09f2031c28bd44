"""Supervisor: crash-isolated worker processes under a watchdog.

The :class:`Supervisor` shards databases across worker *processes* (one
shard per database name, ``workers_per_shard`` processes per shard) and
gives the serving tier the property the in-process
:class:`~repro.service.QueryService` cannot: a poisoned query, an OOM
kill, or a native crash costs one worker process, never the service.

Architecture (one asyncio event loop owns every supervisor box)::

    submit() / asubmit() ──▶ per-shard FIFO queue
                                  │ dispatch: frames written on the loop
        ┌─────────────────────────┼──────────────────────────────┐
        │ event loop              ▼                              │
        │   add_reader(pipe) ◀── frames ──▶ worker process       │
        │     results, pongs;     (TranslationContext, backend)  │
        │     EOF = death                                        │
        │   call_later(tick_interval): heartbeats, request       │
        │     timeouts, due restarts (injectable clock)          │
        └────────────────────────────────────────────────────────┘

All supervisor state lives on the loop's thread, so nothing in it is
locked.  ``await astart()`` on a running loop (``repro serve``) makes
that loop the supervisor's and adds no thread; :meth:`start` from a
thread with no running loop runs the same loop on one private thread,
and the synchronous :meth:`submit`, :meth:`tick`, :meth:`drain`,
:meth:`snapshot` and friends hop onto it and wait.

* **crash detection** — a worker's pipe hitting EOF (or its process
  found dead) fails the in-flight request with a typed
  :class:`~repro.server.errors.WorkerCrashed` and schedules a restart;
* **hang detection** — the watchdog kills a worker whose in-flight
  request exceeded ``request_timeout`` (busy-hung) or which, while
  idle, missed heartbeat pongs for ``heartbeat_timeout`` (deaf); the
  request fails with :class:`~repro.server.errors.WorkerTimeout`;
* **restart budget** — restarts back off exponentially
  (``restart_backoff_base * 2**(n-1)`` capped at
  ``restart_backoff_cap``, counting restarts inside
  ``restart_window``); more than ``max_restarts`` in the window marks
  the shard *down* and fails its queue fast.  That is the whole health
  policy: a crash means a restart, never a cheaper translation — the
  translation rung is the worker's translator's to choose;
* **graceful drain** — :meth:`drain` stops admitting (typed
  :class:`~repro.server.errors.ServerDraining` refusals), flushes the
  queues, waits for each worker's ``Process.sentinel`` and returns a
  final snapshot.  SIGTERM handling on top lives in
  :mod:`repro.server.http`.

Every time-based decision reads the injectable ``clock`` — share one
:class:`~repro.testing.faults.VirtualClock` between the supervisor and
a :class:`~repro.testing.faults.FaultInjector` and the heartbeat
watchdog, restart backoff and worker retry jitter all observe a single
deterministic timeline (the watchdog still *repeats* on real time, or
disable it with ``auto_watchdog=False`` and call :meth:`tick` from the
test).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import math
import multiprocessing
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Mapping, Optional, Sequence, Union

from ..errors import Diagnostic
from ..obs import NULL_TRACER, MetricsRegistry
from ..service import ServiceOverloaded
from .errors import ServerDraining, WorkerCrashed, WorkerTimeout
from .frames import decode_error, decode_frame, send_frame
from .worker import DatabaseSpec, WorkerSpec, worker_main

DEFAULT_SHARD = "default"


@dataclass
class SupervisorConfig:
    """Tuning knobs for one :class:`Supervisor`."""

    #: worker processes per shard
    workers_per_shard: int = 1
    #: requests allowed to wait per shard beyond the ones in flight
    queue_limit: int = 64
    #: default per-request deadline (seconds, worker-side budget)
    deadline: Optional[float] = None
    #: interpretations returned per request
    top_k: int = 1
    #: search caps forwarded to every worker budget
    max_candidates: Optional[int] = None
    max_expansions: Optional[int] = None
    #: queries buffered per worker (1 = strict lock-step).  Deeper
    #: pipelines let the worker serve back-to-back from its pipe while
    #: the supervisor's turnaround overlaps, and let both sides coalesce
    #: several frames into one pipe write — on small hosts the context
    #: switches, not the bytes, are the serving overhead, and this is
    #: what keeps the fault-free process-pool cost inside the benchmark
    #: gate.  The worker always serves strictly one query at a time;
    #: the cost of depth is blast radius (a crash fails up to this many
    #: requests typed) and per-request timeout slack under backlog.
    pipeline_depth: int = 8
    #: kill a worker whose in-flight request exceeds this (seconds)
    request_timeout: float = 30.0
    #: ping an idle worker after this much silence (seconds)
    heartbeat_interval: float = 1.0
    #: kill an idle worker whose ping goes unanswered this long
    heartbeat_timeout: float = 5.0
    #: real seconds between watchdog passes, each one a ``call_later``
    #: on the supervisor's event loop (decisions use ``clock``)
    tick_interval: float = 0.02
    #: exponential restart backoff: base * 2**(n-1), capped
    restart_backoff_base: float = 0.1
    restart_backoff_cap: float = 5.0
    #: more than this many restarts inside ``restart_window`` seconds
    #: marks the shard down
    max_restarts: int = 5
    restart_window: float = 60.0
    #: real seconds to wait for a worker's ready frame in start()
    worker_ready_timeout: float = 60.0
    #: translation result cache entries per worker database (0 disables;
    #: forwarded to :class:`~repro.server.worker.WorkerSpec`, consistency
    #: contract in docs/CACHING.md)
    cache_size: int = 256
    #: honour %-prefixed chaos directives in workers (tests only)
    chaos_hooks: bool = False
    #: multiprocessing start method ("spawn" is crash-safe everywhere)
    start_method: str = "spawn"
    #: repeat the watchdog on the event loop (disable for manual ticks)
    auto_watchdog: bool = True
    #: directory for shared translation-context artifacts; when set,
    #: the supervisor builds (or finds) one artifact per shard at
    #: construction and every worker — including every *replacement*
    #: worker after a crash — attaches from it instead of rebuilding
    #: (docs/ARTIFACTS.md).  ``None`` keeps the legacy cold rebuild.
    artifact_dir: Optional[str] = None
    #: LRU disk budget for ``artifact_dir`` (bytes)
    artifact_budget: int = 256 << 20


@dataclass
class ServerResponse:
    """Everything the supervisor knows about one finished request."""

    request_id: int
    query: str
    database: str
    ok: bool
    sql: Optional[str] = None
    rung: Optional[str] = None
    outcome: str = "failed"
    weight: Optional[float] = None
    degradation: tuple[str, ...] = ()
    retries: int = 0
    shed: bool = False
    #: the worker answered from its translation result cache
    cached: bool = False
    worker_pid: Optional[int] = None
    error: Optional[BaseException] = None
    elapsed: float = 0.0

    @property
    def diagnostic(self) -> Optional[Diagnostic]:
        if self.error is not None:
            return getattr(self.error, "diagnostic", None)
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "request_id": self.request_id,
            "query": self.query,
            "database": self.database,
            "outcome": self.outcome,
            "sql": self.sql,
            "rung": self.rung,
            "retries": self.retries,
            "cached": self.cached,
            "worker_pid": self.worker_pid,
            "error": None if self.error is None else str(self.error),
            "error_type": (
                None if self.error is None else type(self.error).__name__
            ),
            "elapsed": round(self.elapsed, 6),
        }


@dataclass
class ServerStats:
    """Aggregate supervisor counters, updated on the loop's thread."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    refused: int = 0
    crashed: int = 0
    timed_out: int = 0
    restarts: int = 0
    pings: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "refused": self.refused,
            "crashed": self.crashed,
            "timed_out": self.timed_out,
            "restarts": self.restarts,
            "pings": self.pings,
        }


def _check_request(
    query: Any, database: Any, top_k: Any, deadline: Any
) -> None:
    """Admission's input rules; a ``ValueError`` names the bad field.

    Checked in the caller's thread before anything is queued, so a bad
    value is refused once here instead of failing inside a worker.
    """
    if not isinstance(query, str):
        raise ValueError("'query' must be a string")
    if not isinstance(database, str):
        raise ValueError("'database' must be a string")
    if top_k is not None and (
        isinstance(top_k, bool) or not isinstance(top_k, int) or top_k < 1
    ):
        raise ValueError("'top_k' must be a positive integer")
    if deadline is not None and (
        isinstance(deadline, bool)
        or not isinstance(deadline, (int, float))
        or not math.isfinite(deadline)
        or deadline <= 0
    ):
        raise ValueError("'deadline' must be null or a positive finite number")


class _Pending:
    """One admitted request while queued or in flight."""

    __slots__ = (
        "request_id",
        "query",
        "database",
        "top_k",
        "deadline",
        "future",
        "span",
        "submitted_at",
        "dispatched_at",
    )

    def __init__(self, query, database, top_k, deadline, span, future):
        #: assigned at admission, on the loop's thread
        self.request_id = 0
        self.query = query
        self.database = database
        self.top_k = top_k
        self.deadline = deadline
        #: a concurrent Future for :meth:`Supervisor.submit`, an asyncio
        #: one for :meth:`Supervisor.asubmit` on the supervisor's loop;
        #: either way it is resolved on the loop's thread
        self.future = future
        self.span = span
        self.submitted_at: Optional[float] = None
        self.dispatched_at: Optional[float] = None


# worker lifecycle states
_STARTING = "starting"
_READY = "ready"
_BUSY = "busy"
_DEAD = "dead"


class _Worker:
    """Supervisor-side handle for one worker process."""

    def __init__(self, shard: str, slot: int, generation: int) -> None:
        self.shard = shard
        self.slot = slot
        self.generation = generation
        self.process = None
        self.conn = None
        #: the pipe's descriptor, registered with the loop while read
        self.fd: Optional[int] = None
        self.state = _STARTING
        #: resolved by the worker's ready frame
        self.ready: Optional[asyncio.Future] = None
        #: FIFO of dispatched-but-unanswered requests; the worker is
        #: strictly serial, so results always answer the head
        self.inflight: deque[_Pending] = deque()
        self.last_seen: float = 0.0
        self.ping_id: Optional[int] = None
        self.ping_sent_at: Optional[float] = None
        self.build_seconds: Optional[float] = None
        #: database names this worker attached from the shared artifact
        #: (ready-frame "artifacts"; empty = cold build / legacy worker)
        self.artifacts: list[str] = []

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class _Shard:
    """One database shard: its spec, workers, queue and restart state."""

    def __init__(self, name: str, spec: WorkerSpec):
        self.name = name
        self.spec = spec
        self.workers: list[_Worker] = []
        self.queue: deque[_Pending] = deque()
        #: clock timestamps of recent restarts (pruned to the window)
        self.restart_times: list[float] = []
        #: (due_at, slot) restarts waiting for their backoff to elapse
        self.pending_restarts: list[tuple[float, int]] = []
        self.down = False
        self.down_reason: Optional[str] = None


class Supervisor:
    """Multi-process serving supervisor with a heartbeat watchdog."""

    def __init__(
        self,
        databases: Union[DatabaseSpec, Mapping[str, DatabaseSpec]],
        config: Optional[SupervisorConfig] = None,
        clock: Optional[Callable[[], float]] = None,
        tracer=None,  # Optional[repro.obs.Tracer]
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config or SupervisorConfig()
        #: every timeout, backoff and cooldown decision reads this —
        #: inject a shared VirtualClock for deterministic chaos tests
        self.clock: Callable[[], float] = (
            clock if clock is not None else time.monotonic
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        if metrics is not None:
            # bound once: _count_request runs for every request
            self._requests_total = metrics.counter(
                "repro_server_requests_total",
                "Requests finished by the supervisor, by shard and outcome",
            )
            # workers keep their own registries in their own processes;
            # the supervisor mirrors hit/miss from the result frame so
            # /metrics shows cache behaviour without cross-process scrapes
            self._cache_hits_total = metrics.counter(
                "repro_cache_hits_total",
                "Translation result cache hits (canonical-fingerprint key)",
            )
            self._cache_misses_total = metrics.counter(
                "repro_cache_misses_total", "Translation result cache misses"
            )
            self._request_seconds = metrics.histogram(
                "repro_server_request_seconds",
                "Seconds from dispatch to result frame, per request",
            )
        if isinstance(databases, DatabaseSpec):
            databases = {DEFAULT_SHARD: databases}
        if not databases:
            raise ValueError("Supervisor needs at least one database")
        self._mp = multiprocessing.get_context(self.config.start_method)
        #: deterministic event trace, e.g. ("crash", shard, pid),
        #: ("timeout", shard, reason), ("restart", shard, attempt),
        #: ("shard-down", shard), ("artifact-failed", shard, reason),
        #: ("drain",) — created before the shards so artifact
        #: preparation can record failures
        self.events: list[tuple] = []
        self._shards: dict[str, _Shard] = {}
        for name, spec in databases.items():
            worker_spec = WorkerSpec(
                shard=name,
                databases={name: spec},
                top_k=self.config.top_k,
                deadline=self.config.deadline,
                max_candidates=self.config.max_candidates,
                max_expansions=self.config.max_expansions,
                cache_size=self.config.cache_size,
                chaos_hooks=self.config.chaos_hooks,
                artifacts=self._ensure_shard_artifacts(name, spec),
            )
            self._shards[name] = _Shard(name, worker_spec)
        self._next_id = 0
        self._ping_id = 0
        self.stats = ServerStats()
        self._started = False
        self._draining = False
        self._closed = False
        #: the event loop that owns every worker pipe and all state
        #: below; set by astart() or by start()'s private thread
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread_id: Optional[int] = None
        #: the private loop thread, when start() made one
        self._thread: Optional[threading.Thread] = None
        self._watchdog: Optional[asyncio.TimerHandle] = None
        self._drain_task: Optional[asyncio.Task] = None
        #: resolved when a drain's queues and pipelines are empty
        self._idle: Optional[asyncio.Future] = None

    def _ensure_shard_artifacts(
        self, name: str, spec: DatabaseSpec
    ) -> Optional[dict[str, str]]:
        """Build (or find) the shard's shared context artifact.

        Paid once at supervisor construction instead of once per worker
        per generation: every worker the shard ever spawns — including
        replacements after crashes — attaches the same file.  Failure
        to build is logged as an event and degrades to the legacy cold
        rebuild; it never stops the fleet from starting.
        """
        if self.config.artifact_dir is None:
            return None
        from dataclasses import replace as _replace

        from ..artifacts import ArtifactStore, ensure_artifact
        from ..core.config import DEFAULT_CONFIG
        from .worker import build_backend

        store = ArtifactStore(
            self.config.artifact_dir, self.config.artifact_budget
        )
        # mirror the worker's translator config exactly (the cache-size
        # fields are excluded from the artifact key's config digest,
        # but mirroring keeps this correct if that set ever narrows)
        translator = _replace(
            DEFAULT_CONFIG, result_cache_size=self.config.cache_size
        )
        backend = None
        try:
            backend = build_backend(spec)
            path = ensure_artifact(
                backend,
                store,
                translator,
                tracer=self.tracer,
                metrics=self.metrics,
            )
            return {name: path}
        except Exception as exc:  # last-ditch: serving beats artifacts
            self.events.append(("artifact-failed", name, str(exc)))
            return None
        finally:
            close = getattr(backend, "close", None)
            if close is not None:
                close()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, wait_ready: bool = True) -> "Supervisor":
        """Spawn every shard's workers (idempotent).

        For a thread with no running event loop: the supervisor's loop
        runs on one private thread.  With ``wait_ready`` (default)
        blocks — in *real* time, process startup is physical — until
        every worker announced ``ready``.  On a running loop, use
        ``await astart()``.
        """
        if self._closed:
            raise RuntimeError("supervisor already closed")
        if self._loop is None:
            try:
                asyncio.get_running_loop()
            except RuntimeError:
                self._start_thread()
            else:
                raise RuntimeError(
                    "an event loop runs on this thread: "
                    "await Supervisor.astart() instead"
                )
        if self._on_loop():
            raise RuntimeError("start() would block the supervisor's loop")
        asyncio.run_coroutine_threadsafe(
            self.astart(wait_ready), self._loop
        ).result()
        return self

    async def astart(self, wait_ready: bool = True) -> "Supervisor":
        """:meth:`start` on a running loop, which becomes the
        supervisor's loop: the workers' pipes and the watchdog run on
        it, and no thread is added."""
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            self._loop_thread_id = threading.get_ident()
        elif loop is not self._loop:
            raise RuntimeError("supervisor runs on another event loop")
        if self._closed:
            raise RuntimeError("supervisor already closed")
        if not self._started:
            self._started = True
            for shard in self._shards.values():
                for slot in range(self.config.workers_per_shard):
                    shard.workers.append(self._spawn(shard, slot, 0))
            if self.config.auto_watchdog:
                self._watchdog = loop.call_later(
                    self.config.tick_interval, self._watch
                )
        workers = [
            (shard, worker)
            for shard in self._shards.values()
            for worker in shard.workers
        ]
        if wait_ready and workers:
            # a worker that dies first resolves its ready future with
            # the typed error (see _fail_worker), which ends the wait
            await asyncio.wait(
                [worker.ready for _, worker in workers],
                timeout=self.config.worker_ready_timeout,
                return_when=asyncio.FIRST_EXCEPTION,
            )
            for _, worker in workers:
                if worker.ready.done() and worker.ready.exception():
                    raise worker.ready.exception()
            for shard, worker in workers:
                if not worker.ready.done():
                    raise TimeoutError(
                        f"worker {shard.name}/{worker.slot} not ready "
                        f"after {self.config.worker_ready_timeout}s"
                    )
        return self

    def __enter__(self) -> "Supervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def _on_loop(self) -> bool:
        """True on the thread that is running the supervisor's loop."""
        return (
            threading.get_ident() == self._loop_thread_id
            and self._loop.is_running()
        )

    def _call(self, fn: Callable, *args):
        """Run ``fn(*args)`` on the loop's thread and return its result.

        Runs it directly when already there, or when no loop runs the
        supervisor (never started, or its loop has ended) — then nothing
        else touches the state either.
        """
        loop = self._loop
        if loop is None or self._on_loop() or not loop.is_running():
            return fn(*args)
        done: Future = Future()

        def call() -> None:
            try:
                done.set_result(fn(*args))
            except BaseException as exc:  # re-raises in the calling thread
                done.set_exception(exc)

        try:
            loop.call_soon_threadsafe(call)
        except RuntimeError:  # the loop closed since the check above
            return fn(*args)
        while True:
            try:
                return done.result(timeout=1.0)
            except concurrent.futures.TimeoutError:
                if not loop.is_running() and not done.done():
                    # the loop stopped before it ran the call
                    raise RuntimeError("supervisor closed") from None

    def _start_thread(self) -> None:
        """Run a new event loop on one private thread (see start())."""
        loop = asyncio.new_event_loop()
        running = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(loop)
            loop.call_soon(running.set)
            loop.run_forever()

        self._loop = loop
        self._thread = threading.Thread(
            target=run, name="repro-server-loop", daemon=True
        )
        self._thread.start()
        self._loop_thread_id = self._thread.ident
        running.wait()

    def _stop_thread(self) -> None:
        """Stop and close start()'s private loop (no-op without one)."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        loop = self._loop
        loop.call_soon_threadsafe(loop.stop)
        thread.join()
        loop.close()
        self._loop_thread_id = None

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        query: str,
        database: str = DEFAULT_SHARD,
        top_k: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> "Future[ServerResponse]":
        """Submit one query to its shard; waits only for admission.

        The future always resolves to a :class:`ServerResponse` — shed,
        draining-refused, crashed and timed-out requests resolve with
        ``ok=False`` and a typed ``error``, mirroring
        :class:`~repro.service.QueryService`.  Bad input raises
        ``ValueError`` (see :func:`_check_request`), an unknown
        database ``KeyError``; neither is admitted.
        """
        pending = self._pending(query, database, top_k, deadline, Future())
        self._call(self._admit, pending)
        return pending.future

    def asubmit(
        self,
        query: str,
        database: str = DEFAULT_SHARD,
        top_k: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> "Awaitable[ServerResponse]":
        """:meth:`submit` for a coroutine: an awaitable on the running
        loop.  On the supervisor's own loop the request is admitted in
        place and its answer resolves an asyncio future directly."""
        loop = asyncio.get_running_loop()
        if loop is not self._loop:
            return asyncio.wrap_future(
                self.submit(query, database, top_k, deadline)
            )
        pending = self._pending(
            query, database, top_k, deadline, loop.create_future()
        )
        self._admit(pending)
        return pending.future

    def run(
        self,
        queries: Sequence[str],
        database: str = DEFAULT_SHARD,
        top_k: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> list[ServerResponse]:
        """Submit a batch and gather responses in request order."""
        futures = [
            self.submit(q, database=database, top_k=top_k, deadline=deadline)
            for q in queries
        ]
        return [future.result() for future in futures]

    def _pending(self, query, database, top_k, deadline, future) -> _Pending:
        """Check one request in the caller's thread and wrap it."""
        _check_request(query, database, top_k, deadline)
        if database not in self._shards:
            raise KeyError(f"unknown database {database!r}")
        if not self._started:
            raise RuntimeError("Supervisor.start() has not been called")
        return _Pending(
            query,
            database,
            top_k if top_k is not None else self.config.top_k,
            deadline if deadline is not None else self.config.deadline,
            self.tracer.start_span("server.request"),
            future,
        )

    def _admit(self, pending: _Pending) -> None:
        """Number, admit and dispatch one request, or refuse it typed."""
        self._next_id += 1
        pending.request_id = self._next_id
        self.stats.submitted += 1
        database = pending.database
        span = pending.span
        if span.enabled:
            span.set(
                request_id=pending.request_id,
                shard=database,
                query=pending.query[:200],
            )
        shard = self._shards[database]
        if self._draining or self._closed:
            self._refuse(
                pending,
                ServerDraining(
                    "server draining: no new admissions",
                    diagnostic=Diagnostic(
                        stage="admission",
                        message="SIGTERM drain in progress",
                    ),
                ),
                counter="refused",
            )
            return
        if shard.down:
            self._refuse(
                pending,
                WorkerCrashed(
                    f"shard {database!r} is down: {shard.down_reason}",
                    diagnostic=Diagnostic(
                        stage="admission",
                        message="restart budget exhausted; shard down",
                        detail={"shard": database},
                    ),
                ),
                counter="failed",
            )
            return
        inflight = sum(len(w.inflight) for w in shard.workers)
        capacity = self.config.workers_per_shard + self.config.queue_limit
        if inflight + len(shard.queue) >= capacity:
            self._refuse(
                pending,
                ServiceOverloaded(
                    f"shard {database!r} overloaded: "
                    f"{inflight} in flight and "
                    f"{len(shard.queue)} queued",
                    diagnostic=Diagnostic(
                        stage="admission",
                        message="bounded shard queue full; request shed",
                        detail={"shard": database, "capacity": capacity},
                    ),
                ),
                counter="shed",
                shed=True,
            )
            return
        pending.submitted_at = self.clock()
        shard.queue.append(pending)
        span.event("queued", depth=len(shard.queue))
        self._dispatch(shard)

    def _refuse(
        self,
        pending: _Pending,
        error,
        counter: str,
        shed: bool = False,
    ) -> None:
        """Resolve a request without dispatching it."""
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        response = ServerResponse(
            request_id=pending.request_id,
            query=pending.query,
            database=pending.database,
            ok=False,
            outcome="shed" if shed else "failed",
            shed=shed,
            error=error,
        )
        span = pending.span
        span.event("refused", reason=counter)
        if span.enabled:
            span.set(outcome=response.outcome)
        span.fail(error)
        span.finish()
        self._count_request(pending.database, response.outcome)
        self._resolve(pending, response)

    # ------------------------------------------------------------------
    # dispatch and completion
    # ------------------------------------------------------------------
    def _dispatch(self, shard: _Shard) -> None:
        """Hand queued work to ready workers.

        Each worker takes up to ``pipeline_depth`` dispatched requests:
        the head is being served, the rest sit in the pipe so the
        worker never idles waiting for the supervisor's turnaround.
        Idle workers are preferred over partially-loaded ones.
        """
        depth = max(1, self.config.pipeline_depth)
        sends: dict[int, tuple[_Worker, list[dict]]] = {}
        while shard.queue:
            candidates = [
                w
                for w in shard.workers
                if w.state in (_READY, _BUSY) and len(w.inflight) < depth
            ]
            if not candidates:
                break
            worker = min(candidates, key=lambda w: len(w.inflight))
            pending = shard.queue.popleft()
            pending.dispatched_at = self.clock()
            worker.inflight.append(pending)
            worker.state = _BUSY
            pending.span.event("dispatched", worker_pid=worker.pid)
            sends.setdefault(worker.slot, (worker, []))[1].append(
                {
                    "op": "query",
                    "id": pending.request_id,
                    "query": pending.query,
                    "database": pending.database,
                    "top_k": pending.top_k,
                    "deadline": pending.deadline,
                }
            )
        for worker, frames in sends.values():
            try:
                # several queries for one worker ride one batch frame
                send_frame(
                    worker.conn,
                    frames[0]
                    if len(frames) == 1
                    else {"op": "batch", "frames": frames},
                )
            except (BrokenPipeError, OSError):
                # the worker died between dispatch decisions; the death
                # path requeues nothing (these requests are in flight)
                # but fails them typed and restarts
                self._on_worker_death(worker, "dispatch hit a dead pipe")

    def _complete(
        self, worker: _Worker, frame: dict, dispatch: bool = True
    ) -> None:
        """A ``result`` frame arrived for the worker's in-flight request.

        ``dispatch=False`` defers the pipeline refill (and the drain
        wake-up) to the caller — the batch path completes a whole
        coalesced frame before dispatching once.
        """
        head = worker.inflight[0] if worker.inflight else None
        if head is None or head.request_id != frame.get("id"):
            return  # stale result from a worker we already timed out
        pending = worker.inflight.popleft()
        if worker.inflight:
            # the worker starts the next pipelined request *now*, so
            # its request_timeout window starts now too — not at the
            # earlier send time
            worker.inflight[0].dispatched_at = self.clock()
        elif worker.state == _BUSY:
            worker.state = _READY
        error = decode_error(frame.get("error"))
        ok = bool(frame.get("ok"))
        response = ServerResponse(
            request_id=pending.request_id,
            query=pending.query,
            database=pending.database,
            ok=ok,
            sql=frame.get("sql"),
            rung=frame.get("rung"),
            outcome=frame.get("outcome", "ok" if ok else "failed"),
            weight=frame.get("weight"),
            degradation=tuple(frame.get("degradation", ())),
            retries=int(frame.get("retries", 0)),
            cached=bool(frame.get("cached")),
            worker_pid=worker.pid,
            error=error,
            elapsed=float(frame.get("elapsed", 0.0)),
        )
        if ok:
            self.stats.completed += 1
        else:
            self.stats.failed += 1
        self._count_request(
            pending.database,
            response.outcome,
            response.elapsed,
            cached=response.cached if ok else None,
        )
        span = pending.span
        span.event("completed", outcome=response.outcome)
        if span.enabled:
            span.set(
                outcome=response.outcome,
                rung=response.rung,
                worker_pid=worker.pid,
            )
        if error is not None:
            span.fail(error)
        span.finish()
        self._resolve(pending, response)
        if dispatch:
            self._dispatch(self._shards[worker.shard])
            self._wake_drain()

    @staticmethod
    def _resolve(pending: _Pending, response: ServerResponse) -> None:
        # a caller may have cancelled its future (a coroutine awaiting
        # asubmit() was cancelled); the answer then has nowhere to go
        if not pending.future.done():
            pending.future.set_result(response)

    def _count_request(
        self,
        shard: str,
        outcome: str,
        elapsed: Optional[float] = None,
        cached: Optional[bool] = None,
    ) -> None:
        if self.metrics is None:
            return
        self._requests_total.inc(1, shard=shard, outcome=outcome)
        if cached is not None:
            counter = (
                self._cache_hits_total if cached else self._cache_misses_total
            )
            counter.inc(1, shard=shard)
        if elapsed is not None:
            self._request_seconds.observe(elapsed)

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, shard: _Shard, slot: int, generation: int) -> _Worker:
        """Start one worker process and read its pipe on the loop."""
        worker = _Worker(shard.name, slot, generation)
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        worker.conn = parent_conn
        worker.process = self._mp.Process(
            target=worker_main,
            args=(child_conn, shard.spec),
            name=f"repro-worker-{shard.name}-{slot}",
            daemon=True,
        )
        worker.process.start()
        child_conn.close()
        worker.last_seen = self.clock()
        worker.ready = self._loop.create_future()
        worker.fd = parent_conn.fileno()
        self._loop.add_reader(worker.fd, self._on_readable, worker)
        return worker

    def _on_readable(self, worker: _Worker) -> None:
        """The worker's pipe is readable: take one frame (EOF = death).

        ``recv_bytes`` blocks the loop until the whole frame is in, and
        that wait is short only because a worker writes every frame with
        one ``send_bytes``: a readable pipe holds the start of a frame
        whose remaining bytes are already being written.
        """
        try:
            frame = decode_frame(worker.conn.recv_bytes())
        except (EOFError, OSError):
            self._on_worker_death(worker, "pipe closed")
            return
        except Exception:  # a malformed frame is a wedged worker — treated as death, which re-raises as a typed WorkerCrashed on the request
            self._on_worker_death(worker, "malformed frame")
            return
        worker.last_seen = self.clock()
        if self._handle_frame(worker, frame) == "bye":
            # clean shutdown: stop reading before the exit's EOF, which
            # is not a death; the drain waits on the process sentinel
            self._loop.remove_reader(worker.fd)

    def _handle_frame(self, worker: _Worker, frame: dict) -> Optional[str]:
        """Dispatch one frame from a worker; returns "bye" on shutdown."""
        op = frame.get("op")
        if op == "batch":
            # results the worker coalesced under backlog: complete them
            # all first, then refill the pipeline with one dispatch pass
            # (and so, usually, one coalesced query frame)
            verdict = None
            for sub in frame.get("frames", ()):
                if sub.get("op") == "result":
                    self._complete(worker, sub, dispatch=False)
                elif self._handle_frame(worker, sub) == "bye":
                    verdict = "bye"
                    break
            self._dispatch(self._shards[worker.shard])
            self._wake_drain()
            return verdict
        if op == "ready":
            worker.build_seconds = frame.get("build_seconds")
            worker.artifacts = list(frame.get("artifacts", ()))
            if worker.state == _STARTING:
                worker.state = _READY
            if not worker.ready.done():
                worker.ready.set_result(None)
            self._dispatch(self._shards[worker.shard])
        elif op == "result":
            self._complete(worker, frame)
        elif op == "pong":
            if frame.get("id") == worker.ping_id:
                worker.ping_id = None
                worker.ping_sent_at = None
        elif op == "bye":
            return "bye"
        return None

    def _detach(self, worker: _Worker) -> None:
        """Stop reading the worker's pipe and close it (idempotent)."""
        if worker.conn is None:
            return
        self._loop.remove_reader(worker.fd)
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.conn = None

    def _on_worker_death(self, worker: _Worker, reason: str) -> None:
        """Fail the dead worker's in-flight request and plan a restart."""
        if worker.state == _DEAD:
            self._detach(worker)  # the watchdog got here first
            return
        when = "before ready" if worker.state == _STARTING else "mid-service"
        self._fail_worker(
            worker,
            WorkerCrashed(
                f"worker {worker.shard}/{worker.slot} "
                f"(pid {worker.pid}) died {when}: {reason}",
                diagnostic=Diagnostic(
                    stage="backend",
                    message="worker process crashed",
                    detail={
                        "shard": worker.shard,
                        "pid": worker.pid,
                        "exitcode": (
                            worker.process.exitcode
                            if worker.process is not None
                            else None
                        ),
                        "reason": reason,
                    },
                ),
            ),
            kind="crash",
        )

    def _kill_hung(self, worker: _Worker, why: str, waited: float) -> None:
        """Watchdog verdict: the worker is hung."""
        self._fail_worker(
            worker,
            WorkerTimeout(
                f"worker {worker.shard}/{worker.slot} (pid {worker.pid}) "
                f"unresponsive: {why} after {waited:.3f}s",
                diagnostic=Diagnostic(
                    stage="backend",
                    message="worker hung; killed by watchdog",
                    detail={
                        "shard": worker.shard,
                        "pid": worker.pid,
                        "why": why,
                        "waited": round(waited, 6),
                    },
                ),
            ),
            kind="timeout",
        )

    def _fail_worker(self, worker: _Worker, error, kind: str) -> None:
        """Common crash/hang path: fail in-flight typed, kill the
        process, schedule the restart."""
        shard = self._shards[worker.shard]
        worker.state = _DEAD
        self._detach(worker)
        if not worker.ready.done():
            # fails a start() waiting on it now, not at its timeout;
            # retrieved here, so a start() that is not waiting leaves
            # asyncio no unretrieved exception to log
            worker.ready.set_exception(error)
            worker.ready.exception()
        pendings = list(worker.inflight)
        worker.inflight.clear()
        if kind == "crash":
            self.stats.crashed += 1
            self.events.append(("crash", shard.name, worker.pid))
        else:
            self.stats.timed_out += 1
            self.events.append(("timeout", shard.name, str(error)))
            if worker.process is not None and worker.process.is_alive():
                worker.process.kill()
        if self.metrics is not None:
            self.metrics.counter(
                "repro_server_worker_deaths_total",
                "Worker processes lost, by shard and kind",
            ).inc(1, shard=shard.name, kind=kind)
        for pending in pendings:
            self.stats.failed += 1
            response = ServerResponse(
                request_id=pending.request_id,
                query=pending.query,
                database=pending.database,
                ok=False,
                outcome="failed",
                worker_pid=worker.pid,
                error=error,
                elapsed=(
                    self.clock() - pending.dispatched_at
                    if pending.dispatched_at is not None
                    else 0.0
                ),
            )
            self._count_request(
                pending.database, "worker-failed", response.elapsed
            )
            span = pending.span
            span.event("worker-failed", kind=kind)
            if span.enabled:
                span.set(outcome="failed", worker_pid=worker.pid)
            span.fail(error)
            span.finish()
            self._resolve(pending, response)
        self._wake_drain()
        self._plan_restart(shard, worker)

    def _plan_restart(self, shard: _Shard, worker: _Worker) -> None:
        """Schedule the dead worker's replacement under the restart
        budget."""
        if self._closed or (self._draining and not shard.queue):
            return
        now = self.clock()
        window_start = now - self.config.restart_window
        shard.restart_times = [
            t for t in shard.restart_times if t >= window_start
        ]
        attempt = len(shard.restart_times) + 1
        if attempt > self.config.max_restarts:
            shard.down = True
            shard.down_reason = (
                f"{attempt - 1} restarts within "
                f"{self.config.restart_window}s; budget is "
                f"{self.config.max_restarts}"
            )
            self.events.append(("shard-down", shard.name))
            if self.metrics is not None:
                self.metrics.gauge(
                    "repro_server_shard_down",
                    "1 when the shard's restart budget is exhausted",
                ).set(1, shard=shard.name)
            # the shard is done: fail everything still queued, fast
            while shard.queue:
                stale = shard.queue.popleft()
                self.stats.failed += 1
                error = WorkerCrashed(
                    f"shard {shard.name!r} is down: {shard.down_reason}",
                    diagnostic=Diagnostic(
                        stage="admission",
                        message="restart budget exhausted; shard down",
                        detail={"shard": shard.name},
                    ),
                )
                stale.span.fail(error)
                stale.span.finish()
                self._count_request(stale.database, "worker-failed")
                self._resolve(
                    stale,
                    ServerResponse(
                        request_id=stale.request_id,
                        query=stale.query,
                        database=stale.database,
                        ok=False,
                        outcome="failed",
                        error=error,
                    ),
                )
            self._wake_drain()
            return
        delay = min(
            self.config.restart_backoff_cap,
            self.config.restart_backoff_base * (2 ** (attempt - 1)),
        )
        shard.restart_times.append(now)
        shard.pending_restarts.append((now + delay, worker.slot))
        self.events.append(("restart-scheduled", shard.name, attempt, delay))

    def _restart_due(self, shard: _Shard) -> None:
        """Spawn replacements whose backoff has elapsed."""
        if not shard.pending_restarts:
            return
        now = self.clock()
        due = [r for r in shard.pending_restarts if r[0] <= now]
        if not due:
            return
        shard.pending_restarts = [
            r for r in shard.pending_restarts if r[0] > now
        ]
        for _, slot in due:
            old = shard.workers[slot]
            generation = old.generation + 1
            span = self.tracer.start_span("server.worker.restart")
            if span.enabled:
                span.set(
                    shard=shard.name,
                    slot=slot,
                    generation=generation,
                    old_pid=old.pid,
                )
            shard.workers[slot] = self._spawn(shard, slot, generation)
            self.stats.restarts += 1
            self.events.append(("restart", shard.name, generation))
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_server_worker_restarts_total",
                    "Worker processes restarted, by shard",
                ).inc(1, shard=shard.name)
            if span.enabled:
                span.set(new_pid=shard.workers[slot].pid)
            span.finish()

    # ------------------------------------------------------------------
    # the watchdog
    # ------------------------------------------------------------------
    def _watch(self) -> None:
        """The watchdog: one pass, then the next ``tick_interval``
        later on the same loop."""
        try:
            self._tick()
        finally:
            self._watchdog = self._loop.call_later(
                self.config.tick_interval, self._watch
            )

    def tick(self) -> None:
        """One watchdog pass (also callable directly from tests).

        Checks, per worker: silent process death, busy-hang (in-flight
        request past ``request_timeout``), idle heartbeat (ping after
        ``heartbeat_interval`` of silence, kill after
        ``heartbeat_timeout`` without a pong), and due restarts.
        """
        self._call(self._tick)

    def _tick(self) -> None:
        now = self.clock()
        for shard in self._shards.values():
            for worker in list(shard.workers):
                if worker.state == _DEAD:
                    continue
                if not worker.alive():
                    self._on_worker_death(worker, "process not alive")
                    continue
                if worker.state == _BUSY and worker.inflight:
                    # head of the pipeline is the request being served;
                    # later ones haven't started yet
                    dispatched_at = worker.inflight[0].dispatched_at
                    # 0.0 is a real timestamp on a virtual clock
                    waited = now - (
                        dispatched_at if dispatched_at is not None else now
                    )
                    if waited > self.config.request_timeout:
                        self._kill_hung(worker, "request timeout", waited)
                        continue
                if worker.state == _READY:
                    if worker.ping_sent_at is not None:
                        if (
                            now - worker.ping_sent_at
                            > self.config.heartbeat_timeout
                        ):
                            if self.metrics is not None:
                                self.metrics.counter(
                                    "repro_server_heartbeat_misses_total",
                                    "Idle workers killed for missing "
                                    "heartbeats, by shard",
                                ).inc(1, shard=shard.name)
                            self._kill_hung(
                                worker,
                                "heartbeat missed",
                                now - worker.ping_sent_at,
                            )
                            continue
                    elif (
                        now - worker.last_seen
                        >= self.config.heartbeat_interval
                    ):
                        self._ping_id += 1
                        worker.ping_id = self._ping_id
                        worker.ping_sent_at = now
                        self.stats.pings += 1
                        try:
                            send_frame(
                                worker.conn,
                                {"op": "ping", "id": worker.ping_id},
                            )
                        except (BrokenPipeError, OSError):
                            self._on_worker_death(
                                worker, "ping hit a dead pipe"
                            )
                            continue
            self._restart_due(shard)

    # ------------------------------------------------------------------
    # drain and close
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> dict[str, Any]:
        """Graceful shutdown: stop admitting, flush, stop, snapshot.

        New submissions refuse typed (:class:`ServerDraining`) the
        moment the drain starts; everything already admitted — queued
        or in flight — completes (crashed workers are still restarted
        while their shard has queued work).  Returns the final
        :meth:`snapshot`, stamped with the drain duration, and stops
        :meth:`start`'s private loop.  On the supervisor's own loop,
        use ``await adrain()``.
        """
        if self._on_loop():
            raise RuntimeError("drain() would block the supervisor's loop")
        loop = self._loop
        if loop is None or not loop.is_running():
            # nothing runs the supervisor: no work can be in flight
            if self._closed:
                return self._snapshot()
            started = time.monotonic()
            self._begin_drain()
            return self._finish_drain(started)
        snapshot = asyncio.run_coroutine_threadsafe(
            self.adrain(timeout), loop
        ).result()
        self._stop_thread()
        return snapshot

    async def adrain(self, timeout: Optional[float] = None) -> dict[str, Any]:
        """:meth:`drain` for a coroutine on any loop; concurrent calls
        share one drain."""
        if asyncio.get_running_loop() is not self._loop:
            if self._loop is None or not self._loop.is_running():
                return self.drain(timeout)
            snapshot = await asyncio.wrap_future(
                asyncio.run_coroutine_threadsafe(
                    self.adrain(timeout), self._loop
                )
            )
            self._stop_thread()
            return snapshot
        if self._drain_task is None:
            if self._closed:
                return self._snapshot()
            self._drain_task = self._loop.create_task(self._drain(timeout))
        return await asyncio.shield(self._drain_task)

    async def _drain(self, timeout: Optional[float]) -> dict[str, Any]:
        started = time.monotonic()
        self._begin_drain()
        # flush: wait for queues and in-flight work (real-time wait —
        # the work itself runs on real CPUs)
        if self._busy():
            self._idle = self._loop.create_future()
            await asyncio.wait([self._idle], timeout=timeout)
        await self._shutdown_workers()
        return self._finish_drain(started)

    def _begin_drain(self) -> None:
        self._draining = True
        self.events.append(("drain",))

    def _finish_drain(self, started: float) -> dict[str, Any]:
        self._closed = True
        snapshot = self._snapshot()
        snapshot["drain_seconds"] = round(time.monotonic() - started, 6)
        if self.metrics is not None:
            self.metrics.gauge(
                "repro_server_drain_seconds",
                "Wall seconds the final graceful drain took",
            ).set(snapshot["drain_seconds"])
        return snapshot

    def _busy(self) -> bool:
        return any(
            shard.queue or any(w.inflight for w in shard.workers)
            for shard in self._shards.values()
        )

    def _wake_drain(self) -> None:
        """Let a waiting drain go on once nothing is queued or in
        flight; called wherever work finishes."""
        idle = self._idle
        if idle is not None and not idle.done() and not self._busy():
            idle.set_result(None)

    def close(self) -> None:
        """Drain-and-stop (idempotent); context-manager exit path."""
        if self._closed:
            return
        loop = self._loop
        if loop is not None and not loop.is_running():
            # the loop this supervisor ran on has ended, so nothing can
            # be flushed: stop what is left of the workers outright
            for shard in self._shards.values():
                for worker in shard.workers:
                    if worker.alive():
                        worker.process.kill()
                        worker.process.join(timeout=5.0)
        self.drain()

    async def _shutdown_workers(self) -> None:
        """Ask every live worker to exit, then enforce it."""
        if self._watchdog is not None:
            # an exiting worker is not a crash to restart
            self._watchdog.cancel()
        for shard in self._shards.values():
            shard.pending_restarts.clear()
        workers = [w for shard in self._shards.values() for w in shard.workers]
        for worker in workers:
            if worker.state == _DEAD:
                continue  # no pipe; its process is still reaped below
            try:
                send_frame(worker.conn, {"op": "shutdown"})
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            if not await self._exited(worker.process, 5.0):
                worker.process.kill()
                await self._exited(worker.process, 5.0)
            worker.state = _DEAD
            self._detach(worker)

    async def _exited(self, process, timeout: float) -> bool:
        """Wait, without blocking the loop, until *process* exits: its
        ``sentinel`` turns readable.  Reaps it and returns True, or
        returns False after *timeout* seconds."""
        if process.exitcode is None:
            gone = self._loop.create_future()
            self._loop.add_reader(
                process.sentinel, lambda: gone.done() or gone.set_result(None)
            )
            try:
                await asyncio.wait([gone], timeout=timeout)
            finally:
                self._loop.remove_reader(process.sentinel)
            if not gone.done():
                return False
        # the sentinel closes as the process exits; the reap follows
        process.join(timeout)
        return True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._started

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def closed(self) -> bool:
        return self._closed

    def worker_pids(self, database: str = DEFAULT_SHARD) -> list[int]:
        """Live worker pids for one shard (chaos harness seam)."""
        return self._call(
            lambda: [
                w.pid
                for w in self._shards[database].workers
                if w.state != _DEAD and w.pid is not None
            ]
        )

    def readiness(self) -> dict[str, Any]:
        """The /readyz payload: per-shard readiness plus drain state."""
        return self._call(self._readiness)

    def _readiness(self) -> dict[str, Any]:
        shards = {}
        all_ready = True
        for name, shard in self._shards.items():
            live = [w for w in shard.workers if w.state in (_READY, _BUSY)]
            ready = bool(live) and not shard.down
            all_ready = all_ready and ready
            shards[name] = {
                "ready": ready,
                "down": shard.down,
                "down_reason": shard.down_reason,
                "workers": {
                    "live": len(live),
                    "configured": self.config.workers_per_shard,
                    "restarting": len(shard.pending_restarts),
                },
                "queued": len(shard.queue),
            }
        return {
            "ready": all_ready and not self._draining and not self._closed,
            "draining": self._draining,
            "closed": self._closed,
            "shards": shards,
        }

    def snapshot(self) -> dict[str, Any]:
        """JSON-serialisable supervisor state."""
        return self._call(self._snapshot)

    def _snapshot(self) -> dict[str, Any]:
        return {
            "config": {
                "workers_per_shard": self.config.workers_per_shard,
                "queue_limit": self.config.queue_limit,
                "deadline": self.config.deadline,
                "request_timeout": self.config.request_timeout,
                "heartbeat_interval": self.config.heartbeat_interval,
                "heartbeat_timeout": self.config.heartbeat_timeout,
                "max_restarts": self.config.max_restarts,
                "restart_window": self.config.restart_window,
                "start_method": self.config.start_method,
            },
            "stats": self.stats.as_dict(),
            "readiness": self._readiness(),
            "shards": {
                name: {
                    "restart_times": [
                        round(t, 6) for t in shard.restart_times
                    ],
                    "artifact": (shard.spec.artifacts or {}).get(name),
                    "workers": [
                        {
                            "slot": w.slot,
                            "generation": w.generation,
                            "pid": w.pid,
                            "state": w.state,
                            "awaiting_pong": w.ping_sent_at is not None,
                            "build_seconds": w.build_seconds,
                            "artifacts": list(w.artifacts),
                        }
                        for w in shard.workers
                    ],
                }
                for name, shard in self._shards.items()
            },
        }
