"""Content-addressed on-disk artifact store with an LRU disk budget.

Layout: one flat directory, one ``<key>.rpra`` file per artifact, where
the key is a digest over (schema fingerprint, data_version, format
version, config digest).  Addressing by content key gives the rescache
invalidation contract for free — a ``data_version`` bump or a schema
change produces a *different* key, so stale artifacts are never loaded,
only left behind to be garbage-collected.

Publication is atomic: the image is written to a same-directory temp
file, fsynced, then ``os.replace``d into place, so a reader never
observes a half-written artifact and concurrent builders of the same
key converge on identical bytes (last rename wins, both files valid).

:meth:`ArtifactStore.gc` enforces a byte budget by deleting the
least-recently-*used* files first — every :meth:`get` hit re-touches
the file's mtime, so hot artifacts survive and abandoned epochs age
out.  A build runs GC right after its :meth:`put`, sparing the file
it just published.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass

from ..core.config import TranslatorConfig
from .format import FORMAT_VERSION, config_digest

#: artifact file suffix (repro artifact)
SUFFIX = ".rpra"

#: default disk budget: generous for the bundled datasets (each
#: artifact is single-digit MB) while still bounding a long-lived
#: artifact directory shared by many schema epochs
DEFAULT_DISK_BUDGET = 256 << 20


def artifact_key(
    schema_fingerprint: str, data_version: int, config: TranslatorConfig
) -> str:
    """The content-address of one (schema, data epoch, config) triple."""
    material = (
        f"{schema_fingerprint}\n{data_version}\n{FORMAT_VERSION}\n"
        f"{config_digest(config)}"
    )
    return hashlib.sha256(material.encode()).hexdigest()[:40]


@dataclass(frozen=True)
class StoredArtifact:
    """One directory entry, as reported by :meth:`ArtifactStore.list`."""

    key: str
    path: str
    size: int
    mtime: float


class ArtifactStore:
    """A directory of published artifacts plus its byte budget."""

    def __init__(
        self, directory: str, max_bytes: int = DEFAULT_DISK_BUDGET
    ) -> None:
        self.directory = directory
        self.max_bytes = max_bytes
        os.makedirs(directory, exist_ok=True)

    def path_for(self, key: str) -> str:
        return os.path.join(self.directory, key + SUFFIX)

    def get(self, key: str) -> str | None:
        """The published path for *key*, or None; a hit re-touches the
        file so the LRU sweep sees it as recently used."""
        path = self.path_for(key)
        if not os.path.exists(path):
            return None
        try:
            os.utime(path)
        except OSError:
            # a concurrent GC may have deleted it between the checks;
            # treat as a miss rather than racing the sweep
            return None if not os.path.exists(path) else path
        return path

    def put(self, key: str, image: bytes) -> str:
        """Atomically publish *image* under *key*; returns the path."""
        path = self.path_for(key)
        fd, temp_path = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-" + key[:12], suffix=SUFFIX
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(image)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, path)
        except BaseException:  # re-raises once the temp file is unlinked
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        return path

    def list(self) -> list[StoredArtifact]:
        """Published artifacts, most recently used first."""
        entries: list[StoredArtifact] = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return entries
        for name in names:
            if not name.endswith(SUFFIX) or name.startswith(".tmp-"):
                continue
            path = os.path.join(self.directory, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append(
                StoredArtifact(
                    key=name[: -len(SUFFIX)],
                    path=path,
                    size=stat.st_size,
                    mtime=stat.st_mtime,
                )
            )
        entries.sort(key=lambda entry: entry.mtime, reverse=True)
        return entries

    def total_bytes(self) -> int:
        return sum(entry.size for entry in self.list())

    def gc(
        self, max_bytes: int | None = None, *, keep: str | None = None
    ) -> list[StoredArtifact]:
        """Delete least-recently-used artifacts until the directory fits
        the byte budget; returns what was evicted.  The artifact under
        *keep* (the one a builder just published) counts toward the
        budget but is never evicted."""
        budget = self.max_bytes if max_bytes is None else max_bytes
        entries = self.list()
        total = sum(entry.size for entry in entries)
        entries = [entry for entry in entries if entry.key != keep]
        evicted: list[StoredArtifact] = []
        while total > budget and entries:
            victim = entries.pop()  # oldest mtime last
            try:
                os.unlink(victim.path)
            except OSError:
                continue
            total -= victim.size
            evicted.append(victim)
        return evicted
