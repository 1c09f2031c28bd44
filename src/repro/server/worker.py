"""Worker-process side of the multi-process serving layer.

A worker is one OS process owning everything a shard needs to serve
queries: the backend built from a picklable :class:`DatabaseSpec`, a
private :class:`~repro.core.context.TranslationContext`, and a
:class:`~repro.service.QueryService` served on the process's one
thread (which brings the per-request deadline budgets and retry policy
along for free).  Crash isolation is the point: a
poisoned query, an OOM, or a native crash takes down this process only —
the supervisor fails the in-flight request typed and restarts.

The process speaks the :mod:`repro.server.frames` protocol over one
duplex pipe: it announces ``ready`` after building its contexts, then
loops ``recv → handle → send`` until a ``shutdown`` frame (or pipe EOF,
meaning the supervisor died) ends it.  The loop is single-threaded by
design — a worker handles one query at a time, so a heartbeat ``ping``
answered immediately proves the worker is idle and healthy, and an
unanswered one means it is either busy (the supervisor checks the
in-flight request's timeout instead) or wedged.

Under backlog the loop *coalesces* frames: the supervisor may pipeline
several queries (singly or as one ``batch`` frame), and the worker
holds finished results while more input is already buffered — flushing
at :data:`FLUSH_LIMIT` results, after :data:`FLUSH_INTERVAL` seconds,
and always before blocking on an empty pipe.  On hosts where worker
and supervisor share cores, the context switches per pipe write are
the dominant serving overhead, and batching amortizes them; queries
are still served strictly one at a time, in order.

**Chaos hooks.**  With ``WorkerSpec(chaos_hooks=True)`` (never the
default) queries starting with ``%`` become test directives executed
*in the worker process*: ``%sleep:N`` holds the request N seconds (the
window a chaos harness uses to ``kill -9`` the pid mid-request),
``%hang`` wedges the worker busy, ``%deaf`` answers ok then stops
reading frames (an idle-hung worker: heartbeats go unanswered), and
``%crash`` calls ``os._exit`` — a crash the supervisor cannot
distinguish from a real one.  This is how the crash/hang/drain matrix
stays deterministic.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Optional

from .frames import encode_error, recv_frame, send_frame

#: chaos directives honoured when ``WorkerSpec.chaos_hooks`` is set
CHAOS_PREFIX = "%"

#: results coalesced into one frame before a flush is forced; bounds
#: how long a backlog can starve the supervisor of completions
FLUSH_LIMIT = 16

#: seconds of unflushed results before a flush is forced anyway, so
#: slow queries under a deep backlog never look like a hung worker
FLUSH_INTERVAL = 0.05


@dataclass(frozen=True)
class DatabaseSpec:
    """A picklable recipe for building one database in a worker.

    ``kind`` selects the builder: ``dataset`` (a built-in synthetic
    dataset by name), ``sqlite`` (a SQLite file reflected through
    :class:`~repro.backends.sqlite.SqliteBackend`), or ``saved`` (a
    directory written by :func:`repro.engine.io.save_database`).
    Workers rebuild their backends from specs instead of unpickling
    live objects, so a restarted worker always starts from the same
    clean state the first one did.
    """

    kind: str
    target: str
    sample_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("dataset", "sqlite", "saved"):
            raise ValueError(
                f"unknown DatabaseSpec kind {self.kind!r}; "
                "expected 'dataset', 'sqlite' or 'saved'"
            )


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs, in picklable form."""

    shard: str
    databases: dict[str, DatabaseSpec]
    top_k: int = 1
    deadline: Optional[float] = None
    max_candidates: Optional[int] = None
    max_expansions: Optional[int] = None
    #: translation result cache entries per database (0 disables);
    #: see docs/CACHING.md for the consistency contract
    cache_size: int = 256
    #: honour ``%``-prefixed chaos directives (tests/harnesses only)
    chaos_hooks: bool = False
    #: database name -> path of a shared repro.artifacts file; the
    #: supervisor builds (or finds) one artifact per shard and every
    #: worker attaches read-only instead of rebuilding its context.
    #: ``None`` entries and load failures fall back to a fresh build.
    artifacts: Optional[dict[str, str]] = None


def build_backend(spec: DatabaseSpec):
    """Materialise one :class:`DatabaseSpec` into a backend/database."""
    if spec.kind == "dataset":
        from ..cli import DATASETS

        try:
            factory = DATASETS[spec.target]
        except KeyError:
            raise ValueError(
                f"unknown dataset {spec.target!r}; "
                f"expected one of {sorted(DATASETS)}"
            ) from None
        return factory()
    if spec.kind == "sqlite":
        from ..backends import SqliteBackend

        return SqliteBackend(spec.target, sample_limit=spec.sample_limit)
    from ..engine.io import load_database

    return load_database(spec.target)


def _response_payload(request_id: int, response) -> dict[str, Any]:
    """A ServiceResponse as a ``result`` frame payload."""
    first = (response.translations or [None])[0]
    return {
        "op": "result",
        "id": request_id,
        "ok": response.ok,
        "outcome": response.outcome,
        "sql": response.sql,
        "rung": response.rung,
        "weight": first.weight if first is not None else None,
        "degradation": list(first.degradation) if first is not None else [],
        "retries": response.retries,
        "cached": response.cached,
        "elapsed": round(response.elapsed, 6),
        "error": (
            encode_error(response.error) if response.error is not None else None
        ),
    }


def _apply_chaos(directive: str, conn, request_id: int) -> dict[str, Any]:
    """Execute one chaos directive; returns the frame to send (if any).

    ``%crash`` never returns.  ``%deaf`` returns its ok-frame but tells
    the caller (via ``"deaf": True``) to stop reading afterwards.
    """
    name, _, argument = directive[1:].partition(":")
    if name == "crash":
        os._exit(int(argument) if argument else 9)
    if name == "hang":
        # busy-hang: wedged mid-request, watchdog must kill us
        time.sleep(float(argument) if argument else 3600.0)
    if name == "sleep":
        time.sleep(float(argument) if argument else 1.0)
    payload = {
        "op": "result",
        "id": request_id,
        "ok": True,
        "outcome": "ok",
        "sql": f"-- chaos:{name}",
        "rung": "full",
        "weight": 0.0,
        "degradation": [],
        "retries": 0,
        "elapsed": 0.0,
        "error": None,
    }
    if name == "deaf":
        payload["deaf"] = True
    return payload


def worker_main(conn, spec: WorkerSpec) -> None:
    """Process entry point: build the shard's state, then serve frames.

    Runs until a ``shutdown`` frame or pipe EOF.  Never raises: every
    failure is either a typed per-request ``result`` frame or — if the
    serving loop itself breaks — a silent exit the supervisor observes
    as a crash, which is the honest signal.
    """
    import signal

    # the supervisor coordinates shutdown; a tty Ctrl-C must not kill
    # workers before the supervisor has drained them
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    from dataclasses import replace

    from ..core.config import DEFAULT_CONFIG
    from ..service import QueryService, ServiceConfig

    built_at = time.monotonic()
    backends = {
        name: build_backend(db_spec)
        for name, db_spec in sorted(spec.databases.items())
    }
    service = QueryService(
        backends,
        ServiceConfig(
            workers=1,
            queue_limit=0,
            deadline=spec.deadline,
            max_candidates=spec.max_candidates,
            max_expansions=spec.max_expansions,
            top_k=spec.top_k,
            translator=replace(
                DEFAULT_CONFIG, result_cache_size=spec.cache_size
            ),
            artifacts=dict(spec.artifacts or {}),
        ),
    )
    artifact_info = service.snapshot().get("artifacts", {})
    send_frame(
        conn,
        {
            "op": "ready",
            "pid": os.getpid(),
            "shard": spec.shard,
            "databases": sorted(backends),
            "build_seconds": round(time.monotonic() - built_at, 6),
            # which databases attached their context from the shared
            # artifact (vs fell back to a fresh build) — the chaos
            # harness asserts replacements start from the artifact
            "artifacts": sorted(
                name
                for name, info in artifact_info.items()
                if info.get("loaded")
            ),
        },
    )
    import select
    from collections import deque

    incoming: deque = deque()
    results: list[dict[str, Any]] = []
    last_flush = time.perf_counter()
    # registered once: ``conn.poll(0)`` builds, registers and closes a
    # selector on every call
    pipe = select.poll()
    pipe.register(conn.fileno(), select.POLLIN)

    def waiting() -> bool:
        """A frame (or EOF) is waiting on the pipe: a read won't block."""
        return bool(pipe.poll(0))

    def flush() -> None:
        """Send buffered results — one frame, or one batch frame."""
        nonlocal last_flush
        last_flush = time.perf_counter()
        if not results:
            return
        if len(results) == 1:
            send_frame(conn, results[0])
        else:
            send_frame(conn, {"op": "batch", "frames": list(results)})
        results.clear()

    def backlogged() -> bool:
        """More input is already waiting — hold the flush and keep
        serving, so results coalesce into one frame per backlog."""
        return bool(incoming) or waiting()

    try:
        while True:
            if incoming:
                frame = incoming.popleft()
            else:
                if not waiting():
                    # about to block: everything coalesced so far must
                    # go out now or the supervisor waits on us waiting
                    flush()
                try:
                    frame = recv_frame(conn)
                except (EOFError, OSError):
                    return  # supervisor died; nothing left to serve
            op = frame.get("op")
            if op == "batch":
                incoming.extend(frame.get("frames", ()))
                continue
            if op == "shutdown":
                flush()
                send_frame(conn, {"op": "bye", "pid": os.getpid()})
                return
            if op == "ping":
                flush()
                send_frame(conn, {"op": "pong", "id": frame.get("id")})
                continue
            if op != "query":
                continue  # unknown ops are ignored, not fatal
            request_id = frame.get("id", 0)
            query = frame.get("query", "")
            if spec.chaos_hooks and query.startswith(CHAOS_PREFIX):
                flush()
                payload = _apply_chaos(query, conn, request_id)
                deaf = payload.pop("deaf", False)
                send_frame(conn, payload)
                if deaf:
                    time.sleep(3600.0)  # idle-hang: stop reading frames
                continue
            # served on this loop's thread: the worker's one thread
            response = service.serve_inline(
                query,
                database=frame.get("database") or "default",
                top_k=frame.get("top_k"),
                deadline=frame.get("deadline"),
            )
            results.append(_response_payload(request_id, response))
            if (
                not backlogged()
                or len(results) >= FLUSH_LIMIT
                or time.perf_counter() - last_flush >= FLUSH_INTERVAL
            ):
                flush()
    finally:
        service.close()
        conn.close()
