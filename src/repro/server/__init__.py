"""``repro.server`` — supervised multi-process serving (DESIGN.md §15).

The process-isolation tier above :class:`~repro.service.QueryService`:
a :class:`Supervisor` shards databases across worker *processes*
(crash isolation one process cannot give), watches them with a
heartbeat watchdog on an injectable clock, fails requests on dead or
hung workers with typed :class:`WorkerCrashed` / :class:`WorkerTimeout`
(CLI exit code 8), restarts workers under an exponential-backoff
budget, and marks a shard down once that budget is spent.  Process
health is all it judges: a crash means a restart, never a cheaper
translation.  :mod:`repro.server.http` puts a minimal asyncio HTTP/JSON
front end with SIGTERM graceful drain on top, on the same event loop
that reads the worker pipes and runs the watchdog.

Layering: ``frames`` (wire format) ← ``worker`` (child process) ←
``supervisor`` (parent) ← ``http`` (front end).  Nothing here is
imported by the translation core.
"""

from .errors import ServerDraining, WorkerCrashed, WorkerError, WorkerTimeout
from .frames import (
    MAX_FRAME_BYTES,
    FrameError,
    decode_error,
    decode_frame,
    encode_error,
    encode_frame,
)
from .http import ServerApp, serve
from .supervisor import (
    DEFAULT_SHARD,
    ServerResponse,
    ServerStats,
    Supervisor,
    SupervisorConfig,
)
from .worker import DatabaseSpec, WorkerSpec, build_backend, worker_main

__all__ = [
    "DEFAULT_SHARD",
    "DatabaseSpec",
    "FrameError",
    "MAX_FRAME_BYTES",
    "ServerApp",
    "ServerDraining",
    "ServerResponse",
    "ServerStats",
    "Supervisor",
    "SupervisorConfig",
    "WorkerCrashed",
    "WorkerError",
    "WorkerSpec",
    "WorkerTimeout",
    "build_backend",
    "decode_error",
    "decode_frame",
    "encode_error",
    "encode_frame",
    "serve",
    "worker_main",
]
