"""Build, publish and load translation-context artifacts.

Three verbs, all keyed by :func:`~repro.artifacts.store.artifact_key`:

* :func:`build_artifact` — construct a context from the live backend,
  pre-materialise every column sample (and optionally warm the memo
  tables by translating a workload), then encode and atomically
  publish the snapshot;
* :func:`load_context` — open, verify and key-check one artifact file
  and attach it as a ready :class:`~repro.core.context.
  TranslationContext` — raises :class:`~repro.artifacts.errors.
  ArtifactError` on *any* disappointment, so callers wrap it in the
  fallback contract (catch, log the diagnostic, build fresh);
* :func:`ensure_artifact` — the supervisor/CLI entry point: return the
  published path for the backend's current key once the file verifies,
  building on a miss or on a published file that no longer verifies.

Every verb traces (``artifact.build`` / ``artifact.load`` /
``artifact.verify`` spans) and counts
(``repro_artifact_{builds,loads,hits,misses,evictions}_total``,
``repro_artifact_load_seconds``) when handed a tracer/registry —
cataloged in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable, Optional

from ..core.config import DEFAULT_CONFIG, TranslatorConfig
from ..core.context import TranslationContext
from ..core.rescache import schema_fingerprint
from ..obs import NULL_TRACER
from .errors import ArtifactError
from .format import ArtifactReader, encode
from .store import ArtifactStore, artifact_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backends.base import Backend
    from ..obs import MetricsRegistry, Tracer


def register_metrics(metrics: "MetricsRegistry") -> dict:
    """Idempotently register the artifact instrument set."""
    return {
        "builds": metrics.counter(
            "repro_artifact_builds_total",
            "context artifacts built and published",
        ),
        "loads": metrics.counter(
            "repro_artifact_loads_total",
            "contexts successfully attached from an artifact",
        ),
        "hits": metrics.counter(
            "repro_artifact_hits_total",
            "ensure_artifact calls answered by a published artifact",
        ),
        "misses": metrics.counter(
            "repro_artifact_misses_total",
            "ensure_artifact calls that had to build (includes "
            "load-time fallbacks to a fresh build, labelled reason)",
        ),
        "evictions": metrics.counter(
            "repro_artifact_evictions_total",
            "artifacts deleted by the LRU disk-budget sweep",
        ),
        "load_seconds": metrics.histogram(
            "repro_artifact_load_seconds",
            "wall-clock seconds to verify and attach one artifact",
        ),
    }


def _count(metrics: Optional["MetricsRegistry"], name: str, **labels) -> None:
    if metrics is not None:
        register_metrics(metrics)[name].inc(**labels)


def build_artifact(
    backend: "Backend",
    store: ArtifactStore,
    config: TranslatorConfig = DEFAULT_CONFIG,
    *,
    warmup: Iterable[str] = (),
    warmup_top_k: Optional[int] = None,
    tracer: "Tracer" = NULL_TRACER,
    metrics: Optional["MetricsRegistry"] = None,
) -> str:
    """Build the backend's context, snapshot it, publish; returns the
    published path.

    ``warmup`` is an optional iterable of schema-free SQL queries: each
    is translated against the building context so the artifact carries
    the workload's similarity/condition/network memos, not just the
    schema half.  ``warmup_top_k`` should match the k queries will be
    *served* with — the network-memo signature includes k, so warming
    at a different k still helps (samples, tree sims, conditions) but
    misses the generated-network table.  Warmup failures are swallowed
    — a query the workload cannot translate merely leaves its memo
    entries unbuilt.  All column samples are materialised regardless,
    so even an unwarmed artifact spares every worker the per-column
    backend scans.
    """
    key = artifact_key(
        schema_fingerprint(backend.catalog), backend.data_version, config
    )
    with tracer.span(
        "artifact.build", key=key, catalog=backend.catalog.name
    ) as span:
        context = TranslationContext(backend, config)
        for relation in context.relations:
            for attribute in relation.attributes:
                context.column_sample(relation.name, attribute.name)
        warmed = 0
        if warmup:
            from ..core.translator import SchemaFreeTranslator

            translator = SchemaFreeTranslator(
                backend, config, context=context
            )
            for query in warmup:
                try:
                    translator.translate(query, top_k=warmup_top_k)
                    warmed += 1
                except Exception:  # pragma: no cover - last-ditch: warm-up is best-effort
                    # an untranslatable query costs memo coverage, never
                    # the build; the serving path re-raises its own
                    # errors per query
                    continue
        schema_state, memos = context.export_state()
        image = encode(schema_state, memos, backend.data_version, config)
        path = store.put(key, image)
        evicted = store.gc(keep=key)
        span.set(
            bytes=len(image),
            samples=len(memos.samples),
            warmed=warmed,
            evicted=len(evicted),
        )
    _count(metrics, "builds")
    if evicted:
        _count(metrics, "evictions", amount=len(evicted))
    return path


def load_context(
    path: str,
    backend: "Backend",
    config: TranslatorConfig = DEFAULT_CONFIG,
    *,
    tracer: "Tracer" = NULL_TRACER,
    metrics: Optional["MetricsRegistry"] = None,
) -> TranslationContext:
    """Attach *path* as a ready context for *backend*.

    Raises :class:`ArtifactError` (corrupt / version skew / key
    mismatch) instead of ever returning a context that could answer
    differently from a fresh build — the caller owns the fallback.
    """
    started = time.perf_counter()
    with tracer.span("artifact.load", path=path) as span:
        with tracer.span("artifact.verify", path=path):
            reader = ArtifactReader(path)
            reader.check_key(
                schema_fingerprint(backend.catalog),
                backend.data_version,
                config,
            )
        schema_state, memos = reader.state(backend.catalog)
        context = TranslationContext.from_artifact(
            backend, config, schema_state, memos
        )
        span.set(samples=len(memos.samples), data_version=reader.data_version)
    _count(metrics, "loads")
    if metrics is not None:
        register_metrics(metrics)["load_seconds"].observe(
            time.perf_counter() - started
        )
    return context


def ensure_artifact(
    backend: "Backend",
    store: ArtifactStore,
    config: TranslatorConfig = DEFAULT_CONFIG,
    *,
    warmup: Iterable[str] = (),
    tracer: "Tracer" = NULL_TRACER,
    metrics: Optional["MetricsRegistry"] = None,
) -> str:
    """The published artifact path for the backend's current key,
    building on miss.

    A hit is read and key-checked first: a published file that no
    longer verifies (corrupted on disk, say) counts as a miss labelled
    with its error type and is rebuilt — ``put`` replaces it atomically
    — so workers are never handed a file every one of them would reject.
    """
    fingerprint = schema_fingerprint(backend.catalog)
    key = artifact_key(fingerprint, backend.data_version, config)
    existing = store.get(key)
    if existing is None:
        _count(metrics, "misses", reason="absent")
    else:
        try:
            ArtifactReader(existing).check_key(
                fingerprint, backend.data_version, config
            )
        except ArtifactError as error:
            _count(metrics, "misses", reason=type(error).__name__)
        else:
            _count(metrics, "hits")
            return existing
    return build_artifact(
        backend, store, config, warmup=warmup, tracer=tracer, metrics=metrics
    )


def load_or_build_context(
    backend: "Backend",
    path: Optional[str],
    config: TranslatorConfig = DEFAULT_CONFIG,
    *,
    tracer: "Tracer" = NULL_TRACER,
    metrics: Optional["MetricsRegistry"] = None,
) -> tuple[TranslationContext, Optional[ArtifactError]]:
    """The fallback contract in one call: attach *path* if possible,
    else build fresh; returns ``(context, error-or-None)`` so callers
    can surface the diagnostic without ever failing a query."""
    if path is not None:
        try:
            return load_context(
                path, backend, config, tracer=tracer, metrics=metrics
            ), None
        except ArtifactError as error:
            _count(metrics, "misses", reason=type(error).__name__)
            return TranslationContext(backend, config), error
    return TranslationContext(backend, config), None
