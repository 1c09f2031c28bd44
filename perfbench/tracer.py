"""Outside-in tracer: spans around calls into each module's entry points.

The wrappers patch module and class attributes from outside the program
(``repro.core.translator.parse``, ``RelationTreeMapper.map_trees``, ...)
and restore them afterwards; nothing under ``src/`` knows about them.
Each span records (name, start, end, parent, request id) in memory; the
spans are written out once the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import collections
import json
import time
from typing import Callable

#: span name -> per-layer metric fed by that span's self time
LAYER_OF_SPAN = {
    "sqlkit.parse": "sqlkit.parse_ms",
    "core.extract": "core.extract_ms",
    "core.map": "core.map_ms",
    "core.compose": "core.compose_ms",
    "core.network": "core.network_ms",
    "core.rescache": "core.rescache.lookup_ms",
    "core.context.ensure_current": "core.context.ensure_current_ms",
    "core.translator": "core.translator_self_ms",
    "backends.sample": "backends.sample_ms",
    "backends.version": "backends.version_ms",
    "service": "service.overhead_ms",
    "read": "other_ms",
}

#: span name -> per-layer call-count metric
CALLS_OF_SPAN = {
    "core.map": "core.map.calls",
    "core.compose": "core.compose.calls",
    "backends.sample": "backends.sample.calls",
}


def entry_points(backend_classes=()) -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped entry point."""
    from repro.core import translator as translator_module
    from repro.core.composer import Composer
    from repro.core.context import TranslationContext
    from repro.core.mapper import RelationTreeMapper
    from repro.core.mtjn import MTJNGenerator
    from repro.core.view_graph import ExtendedViewGraph
    from repro.service import QueryService

    points = [
        (translator_module, "parse", "sqlkit.parse"),
        (translator_module, "extract", "core.extract"),
        (translator_module, "build_relation_trees", "core.extract"),
        (RelationTreeMapper, "map_trees", "core.map"),
        (translator_module, "network_signature", "core.network"),
        (ExtendedViewGraph, "__init__", "core.network"),
        (MTJNGenerator, "generate", "core.network"),
        (Composer, "compose", "core.compose"),
        (translator_module, "fingerprint_parsed", "core.rescache"),
        (TranslationContext, "result_cache_key", "core.rescache"),
        (TranslationContext, "cached_result", "core.rescache"),
        (TranslationContext, "remember_result", "core.rescache"),
        (TranslationContext, "ensure_current", "core.context.ensure_current"),
        (translator_module.SchemaFreeTranslator, "translate", "core.translator"),
        (QueryService, "serve_inline", "service"),
    ]
    for cls in backend_classes:
        points.append((cls, "column_values", "backends.sample"))
        points.append((cls, "data_version", "backends.version"))
    return points


class Tracer:
    """In-memory span recorder with attribute-patching wrappers."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, request id)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.request = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)

        return traced

    def install(self, points) -> None:
        for owner, attribute, name in points:
            if isinstance(owner, type):
                original = owner.__dict__[attribute]
            else:
                original = getattr(owner, attribute)
            if isinstance(original, property):
                patched = property(self.wrap(name, original.fget))
            else:
                patched = self.wrap(name, original)
            self._restore.append((owner, attribute, original))
            setattr(owner, attribute, patched)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self seconds and span count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = collections.defaultdict(float)
        counts: dict[str, int] = collections.Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[index]
            counts[name] += 1
        return dict(totals), dict(counts)

    def root_seconds(self, root: str) -> float:
        """Total duration of the spans named *root*."""
        return sum(end - start for name, start, end, _, _ in self.spans if name == root)

    def orphans(self, root: str) -> int:
        """Spans that do not lie inside a *root* span of their own
        request: time a per-read breakdown would miss."""
        count = 0
        for name, _, _, parent, request in self.spans:
            if name == root:
                continue
            while parent >= 0 and self.spans[parent][0] != root:
                parent = self.spans[parent][3]
            if parent < 0 or self.spans[parent][4] != request:
                count += 1
        return count

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, request in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )


def layer_metrics(tracer: Tracer, reads: int) -> dict[str, float]:
    """Per-read self time (ms) of every layer and per-read call counts."""
    totals, counts = tracer.self_times()
    metrics = {metric: 0.0 for metric in LAYER_OF_SPAN.values()}
    metrics.update({metric: 0.0 for metric in CALLS_OF_SPAN.values()})
    for name, seconds in totals.items():
        metrics[LAYER_OF_SPAN[name]] += seconds * 1000.0 / reads
    for name, metric in CALLS_OF_SPAN.items():
        metrics[metric] = counts.get(name, 0) / reads
    return metrics
