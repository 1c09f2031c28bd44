"""Translation result cache: canonical SF-SQL in, full SQL out.

The translation pipeline is deterministic given the schema, the data
statistics, and the translator's view set — so a repeated SF-SQL query
(the dominant pattern for a service: production NLIDB traffic is
heavily repetitive) can skip mapper and MTJN search entirely and be
answered from a cache of finished translations.  This module supplies
the two halves of that cache; the *storage* lives on
:class:`~repro.core.context.TranslationContext` (one cache per
database, shared by every translator, service calling thread, and
server worker that shares the context), and the *policy* is documented
as a first-class consistency contract in ``docs/CACHING.md``.

**Canonicalization.**  :func:`canonical_fingerprint` maps a query to
the digest of its canonical rendering, so trivially-rewritten queries
share one cache entry.  The canonical form normalizes exactly the
rewrites that are *output-invariant* — fingerprint equality must imply
byte-identical translation, or a hit could serve bytes a fresh run
would not produce:

* whitespace, keyword case, redundant parentheses and trailing
  semicolons (free: ``parse`` then ``render`` is already canonical);
* the case of ``GUESS`` name terms (``Movie? = movie?``): similarity
  scoring lower-cases every name before q-gram comparison, and the
  composer replaces every guess with the exact catalog spelling on the
  full rung, so guess case can affect neither scores nor output bytes.

Never normalized, deliberately: ``EXACT`` identifiers and user aliases
(the composer preserves them verbatim in the output FROM/qualifier
positions), ``VAR``/``ANON`` variable names (they can surface as
binding names), and literals (they are copied into the output).

**Bounding.**  :class:`ResultCache` is a size- and memory-bounded LRU
in the style of the context's network memo: entries are touched by
dict-reorder on hit and the oldest entries are evicted once either the
entry cap or the byte budget is exceeded.  An entry whose own cost
exceeds the whole byte budget is refused outright (budget-severed
storage: one pathological query must not wipe the cache).

Admission control, invalidation, and the exact key tuple are enforced
by the callers (translator + context) and specified in
``docs/CACHING.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Optional, Union

from ..sqlkit import ast, parse, render

#: conservative per-entry bookkeeping overhead (key tuple, dict slot,
#: Translation payload tuple) charged on top of the rendered-SQL bytes
ENTRY_OVERHEAD = 256


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------


def _fold_term(term: ast.NameTerm) -> ast.NameTerm:
    """Lower-case a GUESS term; leave every other certainty verbatim."""
    if term.certainty is ast.Certainty.GUESS:
        lowered = term.text.lower()
        if lowered != term.text:
            return ast.NameTerm(lowered, term.certainty)
    return term


def canonicalize(node: ast.Node) -> ast.Node:
    """The query rebuilt with every GUESS name term case-folded.

    :func:`ast.transform` does not descend into :class:`ast.NameTerm`
    fields (terms are not nodes), so this walks the dataclass fields
    directly, rebuilding bottom-up like ``transform`` does.
    """
    replacements: dict[str, Any] = {}
    for field in dataclasses.fields(node):  # type: ignore[arg-type]
        value = getattr(node, field.name)
        new_value = _canonical_value(value)
        if new_value is not value:
            replacements[field.name] = new_value
    if replacements:
        node = dataclasses.replace(node, **replacements)  # type: ignore[type-var]
    return node


def _canonical_value(value: Any) -> Any:
    if isinstance(value, ast.NameTerm):
        return _fold_term(value)
    if isinstance(value, ast.Node):
        return canonicalize(value)
    if isinstance(value, tuple):
        items = tuple(_canonical_value(item) for item in value)
        if any(a is not b for a, b in zip(items, value)):
            return items
        return value
    return value


def canonical_text(query: Union[str, ast.Node]) -> str:
    """The canonical rendering of *query* (parse → fold → render)."""
    if isinstance(query, str):
        query = parse(query)
    return render(canonicalize(query))


def canonical_fingerprint(query: Union[str, ast.Node]) -> str:
    """Hex digest of the query's canonical rendering.

    Two queries share a fingerprint iff they are equal after the
    output-invariant normalizations documented in the module docstring
    — whitespace, keyword case, formatting, and GUESS-term case.
    """
    return hashlib.sha256(canonical_text(query).encode("utf-8")).hexdigest()


#: raw query text -> canonical fingerprint.  The fingerprint is a pure
#: function of the text, so this process-global memo (the same idiom as
#: similarity's string caches) is always sound; it exists because the
#: cache-hit path would otherwise spend most of its time re-rendering
#: the canonical form of a query string it has seen before.  Flushed
#: wholesale at the cap — repetitive serving traffic re-fills it in one
#: pass, and the GIL makes the individual dict operations safe.
_FINGERPRINT_MEMO: dict[str, str] = {}
_FINGERPRINT_MEMO_CAP = 4096


def memoized_fingerprint(raw: str) -> Optional[str]:
    """The fingerprint of a query text already seen, or None: a cache
    lookup keyed by it needs no parse."""
    return _FINGERPRINT_MEMO.get(raw)


def fingerprint_parsed(parsed: ast.Node, raw: Optional[str] = None) -> str:
    """:func:`canonical_fingerprint` of an already-parsed query, served
    from the text memo when the caller still has the raw string."""
    if raw is not None:
        memoized = _FINGERPRINT_MEMO.get(raw)
        if memoized is not None:
            return memoized
    fingerprint = hashlib.sha256(
        render(canonicalize(parsed)).encode("utf-8")
    ).hexdigest()
    if raw is not None:
        if len(_FINGERPRINT_MEMO) >= _FINGERPRINT_MEMO_CAP:
            _FINGERPRINT_MEMO.clear()
        _FINGERPRINT_MEMO[raw] = fingerprint
    return fingerprint


def clear_fingerprint_memo() -> None:
    """Drop the text->fingerprint memo (benchmarks simulating cold
    processes)."""
    _FINGERPRINT_MEMO.clear()


def schema_fingerprint(catalog) -> str:
    """Hex digest of everything the pipeline reads from the catalog.

    Covers relation and attribute names/types, primary keys, and the
    foreign-key edge list in declaration order.  Part of the result
    cache's key tuple so an entry can never outlive the schema it was
    translated against (the catalog is fixed per backend lifetime, but
    the fingerprint also rides saved artifacts and cache stats, where
    that guarantee does not hold).
    """
    parts: list[str] = [catalog.name]
    for relation in sorted(catalog, key=lambda r: r.key):
        parts.append(f"R {relation.key}")
        parts.append("K " + ",".join(relation.primary_key))
        for attribute in relation.attributes:
            parts.append(f"A {attribute.key} {attribute.data_type}")
    for fk in catalog.foreign_keys:
        parts.append(
            f"F {fk.source_relation}.{fk.source_attribute}->"
            f"{fk.target_relation}.{fk.target_attribute}"
        )
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# bounded storage
# ---------------------------------------------------------------------------


class ResultCache:
    """Size- and memory-bounded LRU over finished translation payloads.

    Not thread-safe by itself: :class:`~repro.core.context.
    TranslationContext` wraps every call in its cache lock (the same
    lock that serialises the similarity and network memos) and owns the
    hit/miss/eviction counters.  Payloads are immutable tuples of
    ``(query AST, weight, network, rung)`` — never live
    :class:`~repro.core.translator.Translation` objects, whose ``stats``
    field is reassigned per call.
    """

    def __init__(self, max_entries: int, max_bytes: int) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: dict[tuple, tuple[tuple, int]] = {}
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def cost_bytes(self) -> int:
        """Approximate bytes held (rendered SQL + per-entry overhead)."""
        return self._bytes

    def lookup(self, key: tuple) -> Optional[tuple]:
        """The payload stored under *key* (LRU-touched), or None."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        # dict preserves insertion order: re-append = LRU touch
        del self._entries[key]
        self._entries[key] = entry
        return entry[0]

    def store(self, key: tuple, payload: tuple, cost: int) -> int:
        """Admit *payload* under *key*; returns the entries evicted.

        ``cost`` is the caller's byte estimate (rendered SQL lengths);
        the fixed :data:`ENTRY_OVERHEAD` is added on top.  A payload
        whose own cost exceeds the whole byte budget is refused — the
        cache never evicts everything to admit one giant entry.
        """
        if self.max_entries <= 0:
            return 0
        cost = cost + ENTRY_OVERHEAD
        if cost > self.max_bytes:
            return 0
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old[1]
        self._entries[key] = (payload, cost)
        self._bytes += cost
        evicted = 0
        while (
            len(self._entries) > self.max_entries
            or self._bytes > self.max_bytes
        ):
            oldest = next(iter(self._entries))
            _, oldest_cost = self._entries.pop(oldest)
            self._bytes -= oldest_cost
            evicted += 1
        return evicted

    def clear(self) -> int:
        """Drop everything; returns the number of entries dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self._bytes = 0
        return dropped
