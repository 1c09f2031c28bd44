"""Typed failure taxonomy for the artifact subsystem.

Every way an on-disk artifact can disappoint a loader maps to one
subclass of :class:`ArtifactError`, and every subclass carries a
:class:`~repro.errors.Diagnostic` naming the file and the reason.  The
contract (docs/ARTIFACTS.md) is that these errors are **advisory**: the
loading tiers (`QueryService`, the serving workers, the CLI) catch
``ArtifactError``, record the diagnostic, and fall back to building the
context fresh from the backend — a bad artifact can cost a cold start,
never a wrong answer and never a failed query.
"""

from __future__ import annotations

from ..errors import Diagnostic, ReproError


def _diagnostic(path: str, reason: str) -> Diagnostic:
    return Diagnostic(
        stage="artifact",
        message=reason,
        detail={
            "artifact": path,
            "recovery": "fresh context build (automatic); delete the "
            "file or rebuild with `repro artifacts build`",
        },
    )


class ArtifactError(ReproError):
    """Root of the artifact failure taxonomy (always recoverable)."""

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(
            f"{reason} ({path})", diagnostic=_diagnostic(path, reason)
        )
        self.path = path
        self.reason = reason


class ArtifactCorrupt(ArtifactError):
    """Truncated file, bad magic, checksum mismatch, or undecodable key
    or state — the bytes cannot be trusted."""


class ArtifactVersionSkew(ArtifactError):
    """The file's format version differs from this build's
    :data:`~repro.artifacts.format.FORMAT_VERSION`; the layout may have
    changed, so nothing past the prelude is interpreted."""


class ArtifactKeyMismatch(ArtifactError):
    """The artifact is intact but keyed to a different (schema
    fingerprint, data_version, config digest) than the live backend —
    the rescache invalidation contract applied to disk: a bumped
    ``data_version`` or changed schema simply misses."""
