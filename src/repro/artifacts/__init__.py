"""Persistent, content-addressed translation-context artifacts.

The paper's offline preparation (schema graph + attribute statistics)
paid once, kept: a built :class:`~repro.core.context.TranslationContext`
is snapshotted into a versioned, checksummed ``*.rpra`` file keyed by
(schema fingerprint, data_version, config digest, format version), so
cold start across a worker fleet collapses to one checksummed read and
unpickle per process instead of one full rebuild each.
docs/ARTIFACTS.md is the format, keying, GC and fallback-contract
reference.

Public surface::

    store = ArtifactStore(directory)
    path = ensure_artifact(backend, store, config, warmup=queries)
    context, error = load_or_build_context(backend, path, config)

A bad artifact (truncated, corrupted, version-skewed, mis-keyed) is a
typed :class:`ArtifactError` and a fresh build — never a wrong answer,
never a failed query.
"""

from .api import (
    build_artifact,
    ensure_artifact,
    load_context,
    load_or_build_context,
    register_metrics,
)
from .errors import (
    ArtifactCorrupt,
    ArtifactError,
    ArtifactKeyMismatch,
    ArtifactVersionSkew,
)
from .format import FORMAT_VERSION, ArtifactReader, encode
from .store import (
    DEFAULT_DISK_BUDGET,
    ArtifactStore,
    StoredArtifact,
    artifact_key,
)

__all__ = [
    "ArtifactCorrupt",
    "ArtifactError",
    "ArtifactKeyMismatch",
    "ArtifactReader",
    "ArtifactStore",
    "ArtifactVersionSkew",
    "DEFAULT_DISK_BUDGET",
    "FORMAT_VERSION",
    "StoredArtifact",
    "artifact_key",
    "build_artifact",
    "encode",
    "ensure_artifact",
    "load_context",
    "load_or_build_context",
    "register_metrics",
]
