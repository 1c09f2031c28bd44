"""Length-prefixed JSON frames between supervisor and workers.

Wire format: a 4-byte big-endian payload length, then exactly that many
bytes of UTF-8 JSON.  ``multiprocessing`` pipes already delimit
messages, so the prefix is deliberately redundant there — it is an
integrity check (a torn or corrupted message fails typed instead of
decoding garbage) and it keeps the frame self-delimiting, so the same
codec can run over any byte stream (the asyncio HTTP front end shares
the encoded-error vocabulary below).

Every frame is a JSON object with an ``op`` field:

=================  =============================================
``op``             direction / meaning
=================  =============================================
``ready``          worker → supervisor, once after startup: pid,
                   hosted databases, context build seconds
``query``          supervisor → worker: id, query, database,
                   top_k, deadline
``result``         worker → supervisor: id, outcome, sql, rung,
                   retries, degradation, elapsed, error
``ping``/``pong``  heartbeat probe and its echo (id-correlated)
``shutdown``       supervisor → worker: drain and exit
``bye``            worker → supervisor: shutdown acknowledged
=================  =============================================

Typed errors cross the process boundary as ``{"type", "message",
"diagnostic"}`` dictionaries; :func:`decode_error` reconstructs the
closest class in the :class:`~repro.errors.ReproError` taxonomy (falling
back to ``ReproError`` itself for unknown or unreconstructible types) so
``repro.cli.exit_code_for`` keeps working across the wire.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Optional

from ..errors import Diagnostic, ReproError

#: frames larger than this fail typed — a corrupted length prefix must
#: not trigger a multi-gigabyte allocation
MAX_FRAME_BYTES = 32 * 1024 * 1024

_PREFIX = struct.Struct(">I")


class FrameError(ReproError):
    """A frame violated the length-prefixed JSON wire format."""


def encode_frame(payload: dict[str, Any]) -> bytes:
    """Serialise one frame: 4-byte big-endian length + UTF-8 JSON."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _PREFIX.pack(len(body)) + body


def decode_frame(data: bytes) -> dict[str, Any]:
    """Decode and *validate* one frame produced by :func:`encode_frame`."""
    if len(data) < _PREFIX.size:
        raise FrameError(f"truncated frame: {len(data)} bytes, need >= 4")
    (length,) = _PREFIX.unpack_from(data)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds MAX_FRAME_BYTES")
    body = data[_PREFIX.size:]
    if len(body) != length:
        raise FrameError(
            f"frame length prefix says {length} bytes, got {len(body)}"
        )
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "op" not in payload:
        raise FrameError("frame payload must be an object with an 'op'")
    return payload


def send_frame(conn, payload: dict[str, Any]) -> None:
    """Send one frame over a ``multiprocessing`` connection."""
    conn.send_bytes(encode_frame(payload))


def recv_frame(conn) -> dict[str, Any]:
    """Receive and validate one frame (blocking).

    Raises ``EOFError``/``OSError`` untranslated when the peer died —
    the supervisor turns those into :class:`~repro.server.errors.
    WorkerCrashed`, which needs to see the raw condition.
    """
    return decode_frame(conn.recv_bytes())


# ---------------------------------------------------------------------------
# typed errors on the wire
# ---------------------------------------------------------------------------


def _error_registry() -> dict[str, type]:
    """Name → class map for reconstructing taxonomy errors.

    Imported lazily: frames sit below every other server module and
    must not create import cycles at package-load time.
    """
    from ..backends.errors import (
        BackendDegraded,
        BackendError,
        BackendUnavailable,
        TransientBackendError,
    )
    from ..core.composer import NoJoinNetworkError, TranslationError
    from ..core.resilience import BudgetExceeded
    from ..engine.errors import (
        EngineError,
        ExecutionError,
        IntegrityError,
        NameResolutionError,
    )
    from ..service import ServiceClosed, ServiceOverloaded
    from ..sqlkit import SqlSyntaxError
    from ..testing.faults import InjectedFault
    from .errors import ServerDraining, WorkerCrashed, WorkerTimeout

    classes = (
        BackendDegraded,
        BackendError,
        BackendUnavailable,
        BudgetExceeded,
        EngineError,
        ExecutionError,
        FrameError,
        InjectedFault,
        IntegrityError,
        NameResolutionError,
        NoJoinNetworkError,
        ReproError,
        ServerDraining,
        ServiceClosed,
        ServiceOverloaded,
        SqlSyntaxError,
        TransientBackendError,
        TranslationError,
        WorkerCrashed,
        WorkerTimeout,
    )
    return {cls.__name__: cls for cls in classes}


def encode_error(error: BaseException) -> dict[str, Any]:
    """One taxonomy error as a JSON-safe dictionary."""
    diagnostic = getattr(error, "diagnostic", None)
    return {
        "type": type(error).__name__,
        "message": str(error),
        "diagnostic": diagnostic.to_dict() if diagnostic is not None else None,
    }


def decode_error(data: Optional[dict[str, Any]]) -> Optional[ReproError]:
    """Reconstruct the nearest taxonomy class from its wire form."""
    if data is None:
        return None
    diagnostic = None
    raw = data.get("diagnostic")
    if isinstance(raw, dict):
        diagnostic = Diagnostic(
            stage=raw.get("stage", "translate"),
            message=raw.get("message", ""),
            token=raw.get("token"),
            input_span=(
                tuple(raw["input_span"]) if raw.get("input_span") else None
            ),
            candidates=raw.get("candidates", 0),
            degradation=tuple(raw.get("degradation", ())),
            detail=dict(raw.get("detail", {})),
        )
    cls = _error_registry().get(data.get("type", ""), ReproError)
    message = data.get("message", "")
    try:
        return cls(message, diagnostic=diagnostic)
    except Exception:  # re-raises as a typed ReproError fallback
        return ReproError(message, diagnostic=diagnostic)
