"""Binary layout of a translation-context artifact (``*.rpra``).

One file persists the exported state of a :class:`~repro.core.context.
TranslationContext` — its buildable schema half plus a snapshot of its
memo tables, column samples included — so a worker process attaches in
milliseconds instead of rebuilding neighbor lists, q-gram indexes, FK
path tables, column samples and similarity memos from the backend.
Layout (integers little-endian)::

    offset  size  field
    0       8     MAGIC  (b"REPROART")
    8       2     format version (u16)
    10      32    SHA-256 over everything after this field
    42      ...   body: two pickles back to back

The body's first pickle is the plain key tuple ``(schema fingerprint,
data_version, config digest)``, read before anything else so a file
built for another database is :class:`ArtifactKeyMismatch` without
decoding its state.  The second is the ``(ContextSchemaState,
ContextMemoState)`` pair.  A loader reads the file with one ``read()``
and verifies the checksum over the whole body before a single pickled
byte is interpreted.

Interned :class:`~repro.catalog.Relation` objects (identity-compared
across the pipeline) are cut from the state by the *persistent id*
protocol: each is written as its key and resolved against the loading
process's live catalog, which is also what makes the file safe to load
into a different process than built it.  Memoized view graphs, which
reference the live context, are slimmed to :class:`MemoizedGraph`
before encoding, so no other runtime object reaches the file.
"""

from __future__ import annotations

import copyreg
import hashlib
import io
import pickle
import struct
from dataclasses import fields
from typing import Any

from ..catalog import Catalog, Relation, SchemaError
from ..core.composer import COMPOSE_PARTS
from ..core.config import TranslatorConfig
from ..core.context import ContextMemoState, ContextSchemaState
from ..core.join_network import JoinNetwork
from ..core.view_graph import ViewInstance, XEdge
from .errors import ArtifactCorrupt, ArtifactKeyMismatch, ArtifactVersionSkew

MAGIC = b"REPROART"
#: bump on any layout or pickling-scheme change; a mismatch is
#: :class:`ArtifactVersionSkew` and the loader rebuilds fresh
FORMAT_VERSION = 2

#: magic, format version, SHA-256 of the body
_PRELUDE = struct.Struct("<8sH32s")

#: config fields that do not affect translation outcomes (they bound the
#: per-process result cache, which is never persisted) — excluded from
#: the config digest so serving configs that differ only in cache
#: budgets share artifacts
_CONFIG_DIGEST_EXCLUDE = frozenset(
    {"result_cache_size", "result_cache_bytes"}
)


def config_digest(config: TranslatorConfig) -> str:
    """Hex digest of every config field that shapes translation state."""
    parts = [
        f"{f.name}={getattr(config, f.name)!r}"
        for f in fields(config)
        if f.name not in _CONFIG_DIGEST_EXCLUDE
    ]
    return hashlib.sha256(";".join(sorted(parts)).encode()).hexdigest()


# ---------------------------------------------------------------------------
# pickling
# ---------------------------------------------------------------------------


#: frozen dataclasses whose ``__dict__`` accumulates lazily-computed
#: caches (``XEdge._key``, ``ViewInstance._edge_keys``) that are pure
#: functions of the declared fields — persisted stripped, rebuilt on
#: first use, which measurably cuts memo decode time.
#: :class:`~repro.core.join_network.JoinNetwork` is deliberately *not*
#: here: its ``_best_weight`` cache is the one we want in the file.  Only
#: its composition parts (:data:`~repro.core.composer.COMPOSE_PARTS`)
#: are stripped: they are rebuilt on a network's first compose, and
#: would grow the file by about a third.
_STRIP_CACHES = (XEdge, ViewInstance)


def _rebuild_stripped(cls: type, state: dict) -> Any:
    obj = object.__new__(cls)
    obj.__dict__.update(state)  # bypasses the frozen-dataclass guard
    return obj


class _ArtifactPickler(pickle.Pickler):
    """Writes interned relations as their keys and strips lazy caches;
    everything else (frozen dataclasses, join networks, plain dicts)
    pickles by value."""

    def reducer_override(self, obj: Any) -> Any:
        cls = type(obj)
        if cls in _STRIP_CACHES:
            state = {f.name: getattr(obj, f.name) for f in fields(cls)}
            return (_rebuild_stripped, (cls, state))
        if cls is JoinNetwork and COMPOSE_PARTS in obj.__dict__:
            # the default reduction of a network without the parts, so
            # the file is byte-identical to one never composed from
            state = dict(obj.__dict__)
            del state[COMPOSE_PARTS]
            return (copyreg.__newobj__, (cls,), state)
        return NotImplemented

    def persistent_id(self, obj: Any) -> Any:
        if isinstance(obj, Relation):
            return obj.key
        return None


class _ArtifactUnpickler(pickle.Unpickler):
    """Resolves relation keys against the loading process's catalog."""

    def __init__(self, file: io.BytesIO, catalog: Catalog) -> None:
        super().__init__(file)
        self._catalog = catalog

    def persistent_load(self, pid: Any) -> Any:
        return self._catalog.relation(pid)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


class MemoizedGraph:
    """Persisted stand-in for a memoized ExtendedViewGraph.

    On a network-memo hit the translator reads exactly two things from
    the cached graph: ``view_instances`` (to score each network via
    ``JoinNetwork.best_weight``) and ``summary()`` (span counters).
    Everything else — nodes, edges, adjacency, tree mappings, the
    evaluator — is construction state the completed search no longer
    needs, and pickling it dominated artifact decode time.

    The graph's *original* ``view_instances`` list rides along **by
    reference**, not copied: each memoized ``JoinNetwork`` carries a
    ``_best_weight`` cache keyed on that list's identity (filled while
    the builder served the warmup workload), and pickle's memo table
    preserves object identity within one dump — so a loaded worker's
    very first ``best_weight`` call is a cache hit instead of re-running
    the exponential tiling search.
    """

    __slots__ = ("view_instances", "counts")

    def __init__(self, view_instances, counts) -> None:
        self.view_instances = (
            view_instances
            if isinstance(view_instances, list)
            else list(view_instances)
        )
        self.counts = dict(counts)

    def summary(self) -> dict[str, int]:
        return dict(self.counts)

    def __getstate__(self):
        return (self.view_instances, self.counts)

    def __setstate__(self, state) -> None:
        self.view_instances, self.counts = state


def _slim_entry(xgraph: Any, networks: tuple) -> tuple[MemoizedGraph, tuple]:
    """Slim one network-memo entry for persistence.

    Beyond swapping the graph for a :class:`MemoizedGraph`, the
    instance list is pruned to the views *contained* in at least one of
    the entry's memoized networks — ``best_weight`` discards everything
    else on its first line, and since a memo hit only ever scores this
    entry's networks against this entry's list, dropped instances are
    unreachable.  Each network's ``_best_weight`` cache is then primed
    against the pruned list, so the identity the file preserves is the
    one a loaded worker will actually pass.
    """
    if isinstance(xgraph, MemoizedGraph):  # re-encoding a loaded context
        return xgraph, networks
    containers = [
        (
            frozenset(edge.key for edge in network.all_edges),
            set(network.nodes),
        )
        for network in networks
    ]
    kept = [
        instance
        for instance in xgraph.view_instances
        if any(
            instance.edge_keys <= edge_keys
            and all(node.node_id in node_ids for node in instance.nodes)
            for edge_keys, node_ids in containers
        )
    ]
    slim = MemoizedGraph(kept, xgraph.summary())
    for network in networks:
        network.best_weight(slim.view_instances)
    return slim, networks


def sign(body: bytes) -> bytes:
    """The full file image for *body*: the prelude (magic, format
    version, SHA-256 of *body*) followed by *body*."""
    return (
        _PRELUDE.pack(MAGIC, FORMAT_VERSION, hashlib.sha256(body).digest())
        + body
    )


def encode(
    schema_state: ContextSchemaState,
    memos: ContextMemoState,
    data_version: int,
    config: TranslatorConfig,
) -> bytes:
    """Serialize one context snapshot to the full file image."""
    key = (schema_state.schema_fingerprint, data_version, config_digest(config))
    slim = ContextMemoState(
        samples=memos.samples,
        tree_sims=memos.tree_sims,
        conditions=memos.conditions,
        networks={
            signature: _slim_entry(xgraph, networks_)
            for signature, (xgraph, networks_) in memos.networks.items()
        },
    )
    buffer = io.BytesIO()
    pickle.dump(key, buffer, protocol=pickle.HIGHEST_PROTOCOL)
    _ArtifactPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(
        (schema_state, slim)
    )
    return sign(buffer.getvalue())


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


class ArtifactReader:
    """One opened, checksum-verified artifact file with its key decoded.

    The constructor reads the file, checks magic and format version,
    verifies the checksum and unpickles the key; :meth:`state` decodes
    the rest against the live catalog once :meth:`check_key` has passed.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise ArtifactCorrupt(path, f"unreadable: {exc}") from exc
        if len(data) < _PRELUDE.size:
            raise ArtifactCorrupt(
                path, f"truncated prelude ({len(data)} bytes)"
            )
        magic, version, stored = _PRELUDE.unpack_from(data)
        if magic != MAGIC:
            raise ArtifactCorrupt(path, f"bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise ArtifactVersionSkew(
                path,
                f"format version {version} (this build reads "
                f"{FORMAT_VERSION})",
            )
        actual = hashlib.sha256(memoryview(data)[_PRELUDE.size :]).digest()
        if actual != stored:
            raise ArtifactCorrupt(
                path,
                f"checksum mismatch: stored {stored.hex()[:16]}…, "
                f"computed {actual.hex()[:16]}…",
            )
        self._body = io.BytesIO(data)
        self._body.seek(_PRELUDE.size)
        try:
            fingerprint, data_version, digest = pickle.load(self._body)
            self.schema_fingerprint = str(fingerprint)
            self.data_version = int(data_version)
            self.config_digest = str(digest)
        except Exception as exc:  # re-raises as a typed ArtifactError
            raise ArtifactCorrupt(path, f"undecodable key: {exc}") from exc

    def check_key(
        self,
        schema_fingerprint: str,
        data_version: int,
        config: TranslatorConfig,
    ) -> None:
        """Raise :class:`ArtifactKeyMismatch` unless this file was built
        for exactly the live backend's (schema, data epoch, config)."""
        if self.schema_fingerprint != schema_fingerprint:
            raise ArtifactKeyMismatch(
                self.path,
                f"schema fingerprint {self.schema_fingerprint[:12]}… does "
                f"not match live catalog {schema_fingerprint[:12]}…",
            )
        if self.data_version != data_version:
            raise ArtifactKeyMismatch(
                self.path,
                f"built at data_version {self.data_version}, backend is at "
                f"{data_version}",
            )
        live = config_digest(config)
        if self.config_digest != live:
            raise ArtifactKeyMismatch(
                self.path,
                f"config digest {self.config_digest[:12]}… does not match "
                f"live config {live[:12]}…",
            )

    def state(
        self, catalog: Catalog
    ) -> tuple[ContextSchemaState, ContextMemoState]:
        """Decode the exported context state against the live *catalog*."""
        try:
            state = _ArtifactUnpickler(self._body, catalog).load()
        except SchemaError as exc:
            # a relation the live catalog cannot resolve means the state
            # belongs to a different schema than the key claims —
            # corrupt, not merely mismatched
            raise ArtifactCorrupt(
                self.path, f"state references {exc}"
            ) from exc
        except Exception as exc:  # re-raises as a typed ArtifactError
            raise ArtifactCorrupt(
                self.path, f"undecodable state: {exc}"
            ) from exc
        if not (
            isinstance(state, tuple)
            and len(state) == 2
            and isinstance(state[0], ContextSchemaState)
            and isinstance(state[1], ContextMemoState)
        ):
            raise ArtifactCorrupt(
                self.path, f"state decoded to {type(state).__name__}"
            )
        return state
