"""Zero-dependency metrics registry with Prometheus-style exposition.

Three instrument kinds, all thread-safe under one registry lock:

* :class:`Counter` — monotonically increasing totals (requests served,
  cache hits, worker restarts);
* :class:`Gauge` — last-write-wins point values (in-flight requests,
  shard down);
* :class:`Histogram` — fixed-bucket cumulative distributions
  (per-stage translation latency, queue wait).  Buckets are fixed at
  registration so exposition never reshapes under load.

Metric names follow the scheme ``repro_<area>_<name>_<unit>`` (enforced
by :func:`validate_metric_name`; DESIGN.md §11): the area is the
subsystem (``translate``, ``context``, ``service``, ``server``), the
unit suffix is ``_total`` for counters, a unit like ``_seconds`` for
histograms, and a bare noun for gauges.  Labels are plain keyword
arguments; each distinct label combination is its own time series.

Two export surfaces:

* :meth:`MetricsRegistry.render_text` — the Prometheus text exposition
  format (``# HELP`` / ``# TYPE`` / samples, histograms as cumulative
  ``_bucket{le=...}`` plus ``_sum``/``_count``), parseable by any
  Prometheus scraper and checked for well-formedness in
  ``tests/test_obs.py``;
* :meth:`MetricsRegistry.snapshot` — a JSON-able dict (the CI artifact
  ``METRICS_textbook.json``).

The full metric catalog the library emits lives in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Any, Mapping, Optional, Sequence

#: ``repro_<area>_<name>[_<unit>]`` — lower-snake, repro-prefixed
_NAME_RE = re.compile(r"^repro(_[a-z][a-z0-9]*)+$")

#: default latency buckets (seconds): micro-benchmark to interactive
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

LabelKey = tuple[tuple[str, str], ...]


def validate_metric_name(name: str) -> str:
    """Enforce the ``repro_<area>_<name>_<unit>`` naming scheme."""
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} does not match the "
            "repro_<area>_<name>_<unit> naming scheme"
        )
    return name


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(key: LabelKey, extra: str = "") -> str:
    parts = [f'{name}="{_escape_label_value(value)}"' for name, value in key]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Instrument:
    """Base: name, help text, and the registry-shared lock."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, lock: threading.Lock) -> None:
        self.name = validate_metric_name(name)
        self.help = help_text
        self._lock = lock

    def _samples(self) -> list[str]:  # pragma: no cover - interface
        raise NotImplementedError

    def _snapshot(self) -> Any:  # pragma: no cover - interface
        raise NotImplementedError


class Counter(_Instrument):
    """A monotonically increasing total, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, lock: threading.Lock) -> None:
        super().__init__(name, help_text, lock)
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def _samples(self) -> list[str]:
        return [
            f"{self.name}{_render_labels(key)} {_format_value(value)}"
            for key, value in sorted(self._values.items())
        ]

    def _snapshot(self) -> Any:
        return {
            ",".join(f"{k}={v}" for k, v in key) or "": value
            for key, value in sorted(self._values.items())
        }


class Gauge(_Instrument):
    """A point-in-time value that can move both ways."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str, lock: threading.Lock) -> None:
        super().__init__(name, help_text, lock)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    _samples = Counter._samples
    _snapshot = Counter._snapshot


class Histogram(_Instrument):
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``buckets`` are upper bounds, strictly increasing; an implicit
    ``+Inf`` bucket always exists.  Per label set it tracks cumulative
    bucket counts, the running sum, and the observation count.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, lock)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must be strictly increasing")
        self.buckets = bounds
        #: label key -> (per-bucket counts + +Inf slot, sum, count)
        self._series: dict[LabelKey, list] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        index = bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = [[0] * (len(self.buckets) + 1), 0.0, 0]
                self._series[key] = series
            series[0][index] += 1
            series[1] += value
            series[2] += 1

    def count(self, **labels: Any) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return 0 if series is None else series[2]

    def sum(self, **labels: Any) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return 0.0 if series is None else series[1]

    def _samples(self) -> list[str]:
        lines: list[str] = []
        for key, (counts, total, count) in sorted(self._series.items()):
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                labels = _render_labels(key, f'le="{_format_value(bound)}"')
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            cumulative += counts[-1]
            labels = _render_labels(key, 'le="+Inf"')
            lines.append(f"{self.name}_bucket{labels} {cumulative}")
            lines.append(
                f"{self.name}_sum{_render_labels(key)} {_format_value(total)}"
            )
            lines.append(f"{self.name}_count{_render_labels(key)} {count}")
        return lines

    def _snapshot(self) -> Any:
        out = {}
        for key, (counts, total, count) in sorted(self._series.items()):
            label = ",".join(f"{k}={v}" for k, v in key) or ""
            out[label] = {
                "buckets": {
                    _format_value(bound): c
                    for bound, c in zip(self.buckets, counts)
                },
                "inf": counts[-1],
                "sum": round(total, 6),
                "count": count,
            }
        return out


class MetricsRegistry:
    """Owns every instrument and renders them for export.

    Registration is idempotent: asking for an existing name returns the
    existing instrument (so modules can register lazily without
    coordinating), but re-registering under a different kind or — for
    histograms — different buckets is a hard error: two writers that
    disagree about what a name means is a bug worth surfacing.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def _register(self, cls, name: str, help_text: str, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                if (
                    isinstance(existing, Histogram)
                    and "buckets" in kwargs
                    and tuple(float(b) for b in kwargs["buckets"])
                    != existing.buckets
                ):
                    raise ValueError(
                        f"histogram {name!r} already registered with "
                        "different buckets"
                    )
                return existing
            instrument = cls(name, help_text, self._lock, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._register(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._register(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help_text, buckets=buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get(name)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def render_text(self) -> str:
        """Prometheus text exposition format, instruments name-sorted."""
        with self._lock:
            instruments = sorted(self._instruments.values(), key=lambda i: i.name)
        lines: list[str] = []
        for instrument in instruments:
            help_text = instrument.help.replace("\n", " ")
            lines.append(f"# HELP {instrument.name} {help_text}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            lines.extend(instrument._samples())
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> dict[str, Any]:
        """JSON-able snapshot: name -> {kind, help, values}."""
        with self._lock:
            instruments = sorted(self._instruments.values(), key=lambda i: i.name)
        return {
            instrument.name: {
                "kind": instrument.kind,
                "help": instrument.help,
                "values": instrument._snapshot(),
            }
            for instrument in instruments
        }


# ---------------------------------------------------------------------------
# shared recording helpers (one choke point per producer)
# ---------------------------------------------------------------------------


def record_translation(
    registry: MetricsRegistry, stats, outcome: str = "ok", rung: str = "full"
) -> None:
    """Fold one :class:`~repro.core.context.TranslationStats` into the
    registry.  Both the CLI one-shot path and the query service call
    this, so the translation metric families have exactly one producer
    shape (docs/OBSERVABILITY.md lists them)."""
    registry.counter(
        "repro_translate_queries_total",
        "Translations attempted, by outcome and final ladder rung",
    ).inc(stats.queries if stats is not None else 1, outcome=outcome, rung=rung)
    if stats is None:
        return
    stage_seconds = registry.histogram(
        "repro_translate_stage_seconds",
        "Wall-clock seconds spent per translation pipeline stage",
    )
    for stage, seconds in stats.stages.items():
        stage_seconds.observe(seconds, stage=stage)
    registry.histogram(
        "repro_translate_total_seconds",
        "End-to-end wall-clock seconds per translate() call",
    ).observe(stats.total_seconds)
    registry.counter(
        "repro_translate_candidates_total",
        "Mapping candidates charged against translation budgets",
    ).inc(stats.candidates)
    registry.counter(
        "repro_translate_expansions_total",
        "Join-network expansions charged against translation budgets",
    ).inc(stats.expansions)
    lookups = registry.counter(
        "repro_context_tree_sim_lookups_total",
        "Whole-tree similarity memo lookups, by result "
        "(one count per unique (tree, relation) pair per query)",
    )
    hits = stats.memo.get("tree_sim_hits", 0)
    misses = stats.memo.get("tree_sim_misses", 0)
    if hits:
        lookups.inc(hits, result="hit")
    if misses:
        lookups.inc(misses, result="miss")
    conditions = registry.counter(
        "repro_context_condition_lookups_total",
        "Condition-satisfaction memo lookups, by result",
    )
    chits = stats.memo.get("condition_hits", 0)
    cmisses = stats.memo.get("condition_misses", 0)
    if chits:
        conditions.inc(chits, result="hit")
    if cmisses:
        conditions.inc(cmisses, result="miss")
    for metric, help_text, key in (
        (
            "repro_cache_hits_total",
            "Translation result cache hits (canonical-fingerprint key)",
            "result_hits",
        ),
        (
            "repro_cache_misses_total",
            "Translation result cache misses",
            "result_misses",
        ),
        (
            "repro_cache_evictions_total",
            "Result cache entries evicted by the LRU entry/byte bounds",
            "result_evictions",
        ),
        (
            "repro_cache_invalidations_total",
            "Result cache invalidation events (data_version bumps)",
            "result_invalidations",
        ),
    ):
        delta = stats.memo.get(key, 0)
        if delta:
            registry.counter(metric, help_text).inc(delta)
    search = registry.counter(
        "repro_mtjn_search_total",
        "MTJN generator search events, by kind (frontier pushes, "
        "expansions, stale pops, dominance kills, leftovers, emissions, "
        "and whole-search network-memo hits)",
    )
    for kind, count in stats.generator.items():
        if count:
            search.inc(count, kind=kind)
