"""Render a span tree as an annotated text tree.

This is the presentation half of the ``repro explain`` subcommand: given
the finished spans of one trace (from a
:class:`~repro.obs.trace.RingBufferExporter` or re-loaded from a JSONL
trace file), reconstruct the parent/child tree and print it with
per-span durations, attributes, and events — the "why did this query
map this way" view: which rung produced the SQL, which relations each
relation tree considered and at what σ score, what the MTJN search
expanded, and (for service traces) when the request was admitted,
queued, or retried.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Union

from .trace import Span

#: attributes rendered as their own indented block rather than inline
#: (lists of per-candidate / per-step records)
_BLOCK_ATTRIBUTES = ("candidates", "steps", "interpretations")

#: inline attributes pushed to the front, in this order
_LEADING_ATTRIBUTES = ("query", "tree", "rung", "outcome")


def _as_dict(span: Union[Span, dict]) -> dict[str, Any]:
    return span if isinstance(span, dict) else span.to_dict()


def _format_seconds(seconds: Optional[float]) -> str:
    if seconds is None:
        return "(unfinished)"
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.1f}ms"


def _format_scalar(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, str):
        return value if value and " " not in value else repr(value)
    return str(value)


def _inline_attributes(attributes: dict[str, Any]) -> str:
    parts = []
    for key in _LEADING_ATTRIBUTES:
        if key in attributes:
            parts.append(f"{key}={_format_scalar(attributes[key])}")
    for key in sorted(attributes):
        if key in _LEADING_ATTRIBUTES:
            continue
        if key in _BLOCK_ATTRIBUTES and isinstance(
            attributes[key], (list, tuple)
        ):
            continue  # rendered as its own block below
        parts.append(f"{key}={_format_scalar(attributes[key])}")
    return ("  " + "  ".join(parts)) if parts else ""


def _block_lines(attributes: dict[str, Any]) -> list[str]:
    lines: list[str] = []
    for key in _BLOCK_ATTRIBUTES:
        rows = attributes.get(key)
        if not rows or not isinstance(rows, (list, tuple)):
            continue
        for row in rows:
            if isinstance(row, dict):
                if "sigma" in row:
                    mark = " *" if row.get("kept") else ""
                    lines.append(
                        f"σ={row['sigma']:.4f}  {row.get('relation', '?')}{mark}"
                    )
                else:
                    body = "  ".join(
                        f"{k}={_format_scalar(v)}" for k, v in row.items()
                    )
                    lines.append(body)
            else:
                lines.append(f"- {row}")
    return lines


def _event_lines(span: dict[str, Any], origin: float) -> list[str]:
    lines = []
    for event in span.get("events", ()):
        offset = event["time"] - origin
        attrs = "  ".join(
            f"{k}={_format_scalar(v)}"
            for k, v in sorted(event.get("attributes", {}).items())
        )
        suffix = f"  {attrs}" if attrs else ""
        lines.append(f"@{offset * 1000:+.1f}ms {event['name']}{suffix}")
    return lines


def render_trace(
    spans: Iterable[Union[Span, dict]], trace_id: Optional[int] = None
) -> str:
    """One text tree for one trace.

    *spans* may contain several traces (a ring buffer, a whole JSONL
    file); *trace_id* selects one, defaulting to the trace of the last
    span seen.  Orphan spans (parent not in the buffer — e.g. evicted
    by the ring bound) are promoted to roots rather than dropped.
    """
    records = [_as_dict(span) for span in spans]
    if not records:
        return "(no spans recorded)"
    if trace_id is None:
        trace_id = records[-1]["trace_id"]
    records = [r for r in records if r["trace_id"] == trace_id]
    if not records:
        return f"(no spans for trace {trace_id})"
    by_id = {r["span_id"]: r for r in records}
    children: dict[Optional[int], list[dict]] = {}
    for record in records:
        parent = record["parent_id"]
        if parent is not None and parent not in by_id:
            parent = None  # orphan: promote to root
        children.setdefault(parent, []).append(record)
    for siblings in children.values():
        siblings.sort(key=lambda r: (r["start"], r["span_id"]))
    origin = min(r["start"] for r in records)

    lines: list[str] = []

    def walk(record: dict[str, Any], prefix: str, tail: bool, root: bool) -> None:
        connector = "" if root else ("└─ " if tail else "├─ ")
        status = "" if record.get("status", "ok") == "ok" else "  [ERROR]"
        lines.append(
            f"{prefix}{connector}{record['name']} "
            f"{_format_seconds(record.get('duration'))}"
            f"{_inline_attributes(record.get('attributes', {}))}{status}"
        )
        child_prefix = prefix if root else prefix + ("   " if tail else "│  ")
        kids = children.get(record["span_id"], [])
        detail = _block_lines(record.get("attributes", {}))
        detail += _event_lines(record, origin)
        bar = "│  " if kids else "   "
        for line in detail:
            lines.append(f"{child_prefix}{bar}  {line}")
        for index, kid in enumerate(kids):
            walk(kid, child_prefix, index == len(kids) - 1, root=False)

    roots = children.get(None, [])
    for index, root_record in enumerate(roots):
        walk(root_record, "", tail=index == len(roots) - 1, root=True)
    return "\n".join(lines)
