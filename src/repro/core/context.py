"""Shared per-database translation state: the hot path's caching layer.

Every stage of the Figure 3 pipeline consumes quantities that depend only
on the database, not on the query being translated: relation neighbor
lists (§4.2 damped similarity), per-column distinct-value samples (§4.3
condition satisfaction), the q-gram/token make-up of every schema name,
and the FK adjacency the extended view graph is lifted from (§5.1).
Before this module each translator instance rebuilt all of them privately
— acceptable for one-shot translation, hopeless for the workload-serving
deployment the roadmap targets.

:class:`TranslationContext` computes each of these once per database and
is shared by :class:`~repro.core.similarity.SimilarityEvaluator`,
:class:`~repro.core.similarity.ConditionChecker`,
:class:`~repro.core.mapper.RelationTreeMapper` and
:class:`~repro.core.view_graph.ExtendedViewGraph`.  On top of the
precomputed state it carries cross-query memo tables:

* whole-tree similarities ``Sim(rt, R)`` keyed by the tree's canonical
  fingerprint (:func:`~repro.core.relation_tree.tree_fingerprint`) — a
  relation tree that recurs across a workload (``movie?`` with the same
  conditions) is scored once per relation, ever;
* the finished mapping set of each fingerprint, read off those scores,
  so a recurring tree costs one lookup (:meth:`TranslationContext.
  cached_mappings`);
* condition-satisfaction statuses keyed by (rendered probe, column);
* per-name similarity rows: what a name scores against every relation
  and attribute before any condition is read (:meth:`TranslationContext.
  cached_name_row`), so a never-seen tree runs only its condition checks.

The first and third are partitioned by what they read: tree similarities
by relation, condition statuses by column; the mapping sets go whenever
any tree-similarity partition does.  The name rows read names only, so
they stay for the context's lifetime (FIFO-bounded).  Schema-derived
state (neighbors, name index, FK adjacency) and the vocabulary aliases,
both fixed at construction, are immutable for the context's lifetime.
Data-derived state reads the data only through column samples, so when
the backend's ``data_version`` moves — the translator calls
:meth:`ensure_current` at the top of every translation — the samples
become a stale baseline, and a lookup about to read a memo first
re-reads the samples that memo was built on: a column whose sample
moved drops its condition statuses and its relation's tree
similarities; every other memo is kept.

The context reads its substrate only through the :class:`repro.backends.
base.Backend` protocol (``catalog``, ``column_values``, ``data_version``),
so it builds identically over the in-memory engine or a reflected SQLite
file; a raw :class:`repro.engine.Database` satisfies the protocol
structurally.

:class:`ContextStats` counts builds/hits/misses so tests can assert reuse
semantics and :class:`TranslationStats` can report cache effectiveness.
"""

from __future__ import annotations

import itertools
import sys
import threading
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional, Sequence

from ..catalog import Catalog, ForeignKey, Relation, normalize
from ..errors import Diagnostic, ReproError
from .config import DEFAULT_CONFIG, TranslatorConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backends.base import Backend
from .relation_tree import RelationTree, TreeFingerprint
from .rescache import ResultCache, schema_fingerprint
from .similarity import qgrams, stride_sample

#: per-name similarity rows kept per context (a row is one float per
#: relation, one tuple of attribute factors per relation, or a scoring
#: order)
NAME_ROW_CAP = 256

#: the alias names of an index built without aliases
_NO_ALIASES: Mapping = MappingProxyType({})

# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------


@dataclass
class ContextStats:
    """Build/hit/miss counters for everything the context owns.

    These are the "counter hooks" reuse tests assert against: translating
    twice over one context must not grow ``sample_builds`` or
    ``neighbor_builds`` on the second pass.
    """

    #: neighbor lists computed (once per relation, at construction)
    neighbor_builds: int = 0
    #: distinct columns whose sample was materialised
    sample_builds: int = 0
    #: sample lookups answered from the cache
    sample_hits: int = 0
    #: whole-tree similarity memo hits / misses
    tree_sim_hits: int = 0
    tree_sim_misses: int = 0
    #: condition-status memo hits / misses
    condition_hits: int = 0
    condition_misses: int = 0
    #: generated-network memo hits / misses (keyed by terminal-relation
    #: signature; see TranslationContext.cached_networks)
    network_hits: int = 0
    network_misses: int = 0
    #: translation result cache hits / misses (keyed by canonical SF-SQL
    #: fingerprint; see TranslationContext.cached_result)
    result_hits: int = 0
    result_misses: int = 0
    #: result-cache entries evicted by the LRU's entry/byte bounds
    result_evictions: int = 0
    #: result-cache invalidation events (data_version bumps) — each
    #: clears the whole cache
    result_invalidations: int = 0
    #: data_version bumps observed; each marks every relation stale
    invalidations: int = 0
    #: re-read columns found moved (dropping their statuses and their
    #: relation's tree-sims), plus relations dropped by a failed re-read
    revalidation_drops: int = 0

    def as_dict(self) -> dict[str, int]:
        # flat ints only; translate() snapshots this twice per call, so
        # the recursive dataclasses.asdict walk is hot-path overhead
        return dict(self.__dict__)


@dataclass
class TranslationStats:
    """Instrumentation for one ``translate()`` call (or a whole batch).

    ``stages`` maps pipeline stage (parse / map / network / compose) to
    accumulated wall-clock seconds; ``candidates`` and ``expansions``
    ride the :class:`~repro.core.resilience.Budget` counters; ``generator``
    carries the MTJN search counters accumulated across degradation
    rungs; ``memo`` is the delta of :class:`ContextStats` over the call.
    """

    stages: dict[str, float] = field(default_factory=dict)
    candidates: int = 0
    expansions: int = 0
    generator: dict[str, int] = field(default_factory=dict)
    memo: dict[str, int] = field(default_factory=dict)
    queries: int = 1
    total_seconds: float = 0.0

    def add_stage(self, stage: str, seconds: float) -> None:
        self.stages[stage] = self.stages.get(stage, 0.0) + seconds

    def merge(self, other: "TranslationStats") -> None:
        """Fold another translation's stats in (batch aggregation)."""
        for stage, seconds in other.stages.items():
            self.add_stage(stage, seconds)
        self.candidates += other.candidates
        self.expansions += other.expansions
        for key, value in other.generator.items():
            self.generator[key] = self.generator.get(key, 0) + value
        for key, value in other.memo.items():
            self.memo[key] = self.memo.get(key, 0) + value
        self.queries += other.queries
        self.total_seconds += other.total_seconds

    def as_dict(self) -> dict[str, Any]:
        return {
            "queries": self.queries,
            "total_seconds": round(self.total_seconds, 6),
            "stages": {k: round(v, 6) for k, v in self.stages.items()},
            "candidates": self.candidates,
            "expansions": self.expansions,
            "generator": dict(self.generator),
            "memo": dict(self.memo),
        }

    def render(self) -> str:
        """One compact block for the CLI's ``--stats`` output."""
        stages = "  ".join(
            f"{name} {seconds * 1000:.1f}ms"
            for name, seconds in sorted(self.stages.items())
        )
        lines = [
            f"stats: {self.total_seconds * 1000:.1f}ms total"
            + (f" over {self.queries} queries" if self.queries > 1 else ""),
            f"  stages: {stages}" if stages else "  stages: (none)",
            f"  work: {self.candidates} candidates, "
            f"{self.expansions} expansions"
            + (
                f" (generator: {', '.join(f'{k}={v}' for k, v in sorted(self.generator.items()))})"
                if self.generator
                else ""
            ),
        ]
        if self.memo:
            hits = self.memo.get("tree_sim_hits", 0)
            misses = self.memo.get("tree_sim_misses", 0)
            lines.append(
                f"  memo: tree-sim {hits} hits / {misses} misses, "
                f"samples {self.memo.get('sample_hits', 0)} hits / "
                f"{self.memo.get('sample_builds', 0)} builds, "
                f"conditions {self.memo.get('condition_hits', 0)} hits / "
                f"{self.memo.get('condition_misses', 0)} misses"
            )
            if self.memo.get("result_hits", 0) or self.memo.get(
                "result_misses", 0
            ):
                lines.append(
                    f"  result cache: {self.memo.get('result_hits', 0)} hits"
                    f" / {self.memo.get('result_misses', 0)} misses, "
                    f"{self.memo.get('result_evictions', 0)} evictions, "
                    f"{self.memo.get('result_invalidations', 0)} "
                    f"invalidations"
                )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# schema name index
# ---------------------------------------------------------------------------


class NameIndex:
    """Token/q-gram inverted index over relation and attribute names.

    Maps each q-gram and underscore-token of every schema identifier to
    the relations it occurs in.  The mapper uses it to *order* candidate
    relations by lexical affinity with a tree's name evidence before
    scoring, so that a budget that exhausts mid-mapping has already
    scored the likeliest candidates (scoring order never changes the
    final mapping set — candidates are re-sorted by similarity).
    Building the index also warms the process-wide q-gram caches for
    every schema name, so the first query pays no q-gram setup.

    *aliases* maps a relation key to extra names (vocabulary aliases of
    the relation or of its attributes), indexed as if they were its own
    identifiers.  Nothing changes the index after construction.
    """

    def __init__(
        self,
        catalog: Catalog,
        q: int,
        aliases: Mapping[str, Sequence[str]] = _NO_ALIASES,
    ) -> None:
        self.q = q
        self._grams: dict[str, set[str]] = {}  # gram -> relation keys
        self._tokens: dict[str, set[str]] = {}  # token -> relation keys
        for relation in catalog:
            names = [relation.name] + [
                attribute.name for attribute in relation.attributes
            ]
            names.extend(aliases.get(relation.key, ()))
            for name in names:
                for gram in qgrams(name, q):
                    self._grams.setdefault(gram, set()).add(relation.key)
                for token in name.lower().split("_"):
                    if token:
                        self._tokens.setdefault(token, set()).add(relation.key)

    def affinity(self, name: str) -> dict[str, int]:
        """Relation key -> count of shared q-grams/tokens with *name*."""
        scores: dict[str, int] = {}
        for gram in qgrams(name, self.q):
            for key in self._grams.get(gram, ()):
                scores[key] = scores.get(key, 0) + 1
        for token in name.lower().split("_"):
            for key in self._tokens.get(token, ()):
                scores[key] = scores.get(key, 0) + 1
        return scores

    def order(
        self, names: Iterable[str], relations: Sequence[Relation]
    ) -> list[Relation]:
        """*relations* re-ordered by total affinity with *names*, best
        first; ties break on the relation key so the order is stable."""
        totals: dict[str, int] = {}
        for name in names:
            for key, count in self.affinity(name).items():
                totals[key] = totals.get(key, 0) + count
        return sorted(
            relations,
            key=lambda relation: (-totals.get(relation.key, 0), relation.key),
        )


# ---------------------------------------------------------------------------
# the buildable / mutable state split
# ---------------------------------------------------------------------------


@dataclass
class ContextSchemaState:
    """The *buildable* half of a context: everything derived purely from
    the catalog (plus the config constants baked into the path table).

    Immutable for the database's lifetime, identical for every process
    that opens the same database, and therefore exactly what a
    :mod:`repro.artifacts` file persists.  A context built fresh and a
    context restored from this state are indistinguishable to the
    translation pipeline.
    """

    relations: tuple[Relation, ...]
    neighbors: dict[str, tuple[Relation, ...]]
    fk_edges: tuple[tuple[str, str, ForeignKey, tuple], ...]
    name_index: NameIndex
    schema_paths: dict[str, dict[str, float]]
    schema_parents: dict[str, dict[str, str]]
    schema_components: dict[str, int]
    schema_fingerprint: str


@dataclass
class ContextMemoState:
    """A snapshot of the *mutable* memo half of a context.

    Every entry is a pure function of (schema, data epoch, config, key),
    so seeding a fresh context with another context's memo state can
    change timings but never outcomes — the property the artifact
    round-trip tests pin byte-for-byte.  The result cache and the
    vocabulary aliases are deliberately absent: results bake in
    admission-time serving state, and aliases are a construction input
    of one context (docs/ARTIFACTS.md, "what is not persisted").

    The shape is flat — ``(fingerprint, relation)`` and ``(probe,
    relation, attribute)`` keys, attribute maps as dicts — whatever the
    live context's partitioned, compacted tables look like, so the
    artifact format does not follow the in-memory layout.
    """

    samples: dict[tuple[str, str], list[Any]] = field(default_factory=dict)
    tree_sims: dict[tuple[TreeFingerprint, str], tuple[float, dict]] = field(
        default_factory=dict
    )
    conditions: dict[tuple, str] = field(default_factory=dict)
    networks: dict[tuple, tuple] = field(default_factory=dict)


def _alias_maps(
    catalog: Catalog, aliases: Iterable[tuple[str, Optional[str], str]]
) -> tuple[Mapping, Mapping]:
    """The relation and attribute alias maps of *aliases* (see
    :class:`TranslationContext`), read-only."""
    relations: dict[str, tuple[str, ...]] = {}
    attributes: dict[tuple[str, str], tuple[str, ...]] = {}
    for relation_name, attribute_name, alias in aliases:
        relation = catalog.relation(relation_name)
        if attribute_name is None:
            table, key, own = relations, relation.key, relation.key
        else:
            attribute = relation.attribute(attribute_name)
            table, key = attributes, (relation.key, attribute.key)
            own = attribute.key
        clean = alias.strip()
        current = table.get(key, ())
        if not clean or normalize(clean) in {own, *map(normalize, current)}:
            continue
        table[key] = current + (clean,)
    return MappingProxyType(relations), MappingProxyType(attributes)


def _same_sample(old: list[Any], new: list[Any]) -> bool:
    """Whether a re-read sample equals its baseline, value *and* type
    (``1 == 1.0 == True``, but a condition may tell them apart)."""
    return old == new and all(
        type(a) is type(b) for a, b in zip(old, new)
    )


# ---------------------------------------------------------------------------
# the context
# ---------------------------------------------------------------------------


class TranslationContext:
    """Query-independent translation state for one database.

    Construct once per (database, config) pair and share across
    translator instances and queries; :class:`SchemaFreeTranslator`
    creates one automatically when none is passed.  All state is derived,
    so sharing is always safe: the worst case of a stale context is a
    rebuild, guarded by :meth:`ensure_current`.

    The data-derived caches (and their :class:`ContextStats` counters)
    are protected by one lock, so a context can be shared by the
    per-worker translators of a concurrent query service: a sample is
    built at most once per data epoch, and re-verifying a column is
    atomic with respect to in-flight lookups.  Memoized values are pure
    functions of (database contents, key), so two threads that race on
    the same miss compute the same value — sharing never changes
    translation outcomes.

    *aliases* are vocabulary aliases, ``(relation, attribute, alias)``
    triples with *attribute* None for a relation alias: the similarity
    evaluator scores a query name against the best of a real name and
    its aliases, so a relation renamed out from under a workload
    (``movie`` -> ``film``) can be recovered by mining the old name from
    the query log (``repro.testing.evolution.recover_vocabulary``).  The
    aliases also feed the :class:`NameIndex`, keeping an aliased
    relation early in :meth:`scoring_order` under tight budgets.  They
    are fixed for the context's lifetime: new vocabulary takes a new
    context.  An unknown relation or attribute raises
    :class:`~repro.catalog.SchemaError`; a blank alias, one equal to the
    real name, and a repeat are skipped.
    """

    def __init__(
        self,
        database: "Backend",
        config: TranslatorConfig = DEFAULT_CONFIG,
        aliases: Iterable[tuple[str, Optional[str], str]] = (),
    ) -> None:
        self._init_runtime(database, config, aliases)
        self._apply_schema_state(self._build_schema_state())
        self.stats.neighbor_builds += len(self.relations)
        self._init_data_state(ContextMemoState())

    @classmethod
    def from_artifact(
        cls,
        database: "Backend",
        config: TranslatorConfig,
        schema_state: ContextSchemaState,
        memos: ContextMemoState,
    ) -> "TranslationContext":
        """A context restored from persisted state instead of built.

        *Callers must have verified the key already* — the artifact
        loader (:func:`repro.artifacts.load_context`) only gets here
        after matching (schema fingerprint, data_version, config digest)
        against the live backend, so the restored schema state is
        structurally identical to what :meth:`_build_schema_state`
        would produce, and the context has no aliases.  Mutable serving
        state (result cache, stats, lock) starts as fresh as a built
        context's; the memo
        tables, column samples included, start from the artifact's
        snapshot and grow normally from there.
        """
        context = cls.__new__(cls)
        context._init_runtime(database, config)
        context._apply_schema_state(schema_state)
        context._init_data_state(memos)
        return context

    def _init_runtime(
        self,
        database: "Backend",
        config: TranslatorConfig,
        aliases: Iterable[tuple[str, Optional[str], str]] = (),
    ) -> None:
        """Per-process serving state: never persisted, never shared."""
        self.database = database
        self.config = config
        self.stats = ContextStats()
        self._lock = threading.Lock()
        self._data_version = database.data_version
        # -- vocabulary aliases (see the class docstring) ---------------
        #: relation key -> extra names scored alongside the real name,
        #: and (relation key, attribute key) -> extra attribute names
        self._relation_aliases, self._attribute_aliases = _alias_maps(
            database.catalog, aliases
        )
        self._network_memo_cap = 256
        # -- per-name similarity rows (see cached_name_row) --------------
        #: (kind, name) -> row; names are user input, so FIFO-bounded
        self._name_rows: dict[tuple[str, Any], tuple] = {}
        # -- translation result cache (canonical SF-SQL fingerprint) ---
        #: finished-translation LRU; disabled when the config's
        #: ``result_cache_size`` is 0.  See :meth:`cached_result`.
        self._result_cache = ResultCache(
            config.result_cache_size, config.result_cache_bytes
        )

    def _alias_names(self) -> dict[str, list[str]]:
        """Relation key -> the aliases of it and of its attributes."""
        names: dict[str, list[str]] = {}
        for key, extra in self._relation_aliases.items():
            names.setdefault(key, []).extend(extra)
        for (key, _), extra in self._attribute_aliases.items():
            names.setdefault(key, []).extend(extra)
        return names

    def _build_schema_state(self) -> ContextSchemaState:
        """Derive the buildable half from the live catalog (the path a
        :mod:`repro.artifacts` file short-circuits)."""
        catalog = self.database.catalog
        relations: tuple[Relation, ...] = tuple(catalog)
        neighbors = {
            relation.key: tuple(catalog.neighbors(relation.name))
            for relation in relations
        }
        # (source key, target key, fk, fk.key) per FK-PK pair, with all
        # normalization pre-applied for the extended view graph
        fk_edges = tuple(
            (
                normalize(fk.source_relation),
                normalize(fk.target_relation),
                fk,
                fk.key,
            )
            for fk in catalog.foreign_keys
        )
        # -- all-pairs FK join paths on the schema skeleton (§5.1) -----
        # Strongest-path weights (c ** hops), predecessor maps, and
        # connected components over the undirected FK skeleton, built
        # once per database.  Plain dicts of strings/floats/ints so the
        # table rides the serialized context artifact unchanged.
        # Every extended-view-graph edge weight is >= c and lifts a
        # skeleton edge, so skeleton unreachability is a sound negative
        # oracle for Algorithm 3 whenever the extended graph contains no
        # synthesised (non-FK) view edges.
        paths, parents, components = self._build_schema_paths(
            relations, fk_edges, self.config.c
        )
        return ContextSchemaState(
            relations=relations,
            neighbors=neighbors,
            fk_edges=fk_edges,
            name_index=NameIndex(
                catalog, self.config.qgram, self._alias_names()
            ),
            schema_paths=paths,
            schema_parents=parents,
            schema_components=components,
            #: hex digest of everything the pipeline reads from the
            #: catalog; part of every result-cache key (docs/CACHING.md)
            #: and of the artifact key (docs/ARTIFACTS.md)
            schema_fingerprint=schema_fingerprint(catalog),
        )

    def _apply_schema_state(self, state: ContextSchemaState) -> None:
        # -- schema-derived (immutable for the database's lifetime) ----
        self.relations = state.relations
        self._relation_by_key = {r.key: r for r in state.relations}
        #: the keys of :attr:`relations`, in order
        self.relation_keys = tuple(r.key for r in state.relations)
        #: relation key -> its position in :attr:`relations`, which is
        #: also its position in every name row
        self.relation_index = {
            r.key: index for index, r in enumerate(state.relations)
        }
        self._neighbors = state.neighbors
        self.fk_edges = state.fk_edges
        self.name_index = state.name_index
        self.schema_paths = state.schema_paths
        self.schema_parents = state.schema_parents
        self.schema_components = state.schema_components
        self.schema_fingerprint = state.schema_fingerprint

    def _init_data_state(self, memos: ContextMemoState) -> None:
        # -- data-derived (revalidated after a Database mutation) ------
        #: (relation key, attribute key) -> sample of the current epoch
        self._samples: dict[tuple[str, str], list[Any]] = dict(memos.samples)
        #: relation key -> {tree fingerprint: (score, attribute pairs,
        #: sampled columns)}; see :meth:`cached_tree_similarity`
        self._tree_sims: dict[str, dict[TreeFingerprint, tuple]] = {}
        self._column_sets: dict[frozenset, frozenset] = {}
        #: tree fingerprint -> finished mapping set, read off the tree-sim
        #: entries of every relation; see :meth:`cached_mappings`
        self._mappings: dict[TreeFingerprint, tuple] = {}
        #: tree fingerprint -> the (relation key, sampled columns) of its
        #: tree-sim entries that read a column, built on the first
        #: mapping-memo hit after a write; see :meth:`cached_mappings`
        self._mapping_reads: dict[TreeFingerprint, tuple] = {}
        #: tree-sim partition drops so far: a mapping set computed across
        #: a drop is not stored (see :meth:`remember_mappings`)
        self._tree_sim_epoch = 0
        #: (relation key, attribute key) -> {rendered probe: status}
        self._conditions: dict[tuple[str, str], dict[str, str]] = {}
        # -- revalidation state (see ensure_current) -------------------
        #: relations not yet touched since the last data_version bump
        self._stale: set[str] = set()
        #: relation key -> {attribute key: sample its memos were built
        #: on}, for every column not yet re-read since the bump
        self._baseline: dict[str, dict[str, list[Any]]] = {}
        # -- generated-network memo (terminal-relation signature) ------
        #: signature -> (ExtendedViewGraph, tuple[JoinNetwork, ...]),
        #: LRU-bounded; see :meth:`cached_networks`
        self._network_memo: dict[tuple, tuple] = dict(
            itertools.islice(memos.networks.items(), self._network_memo_cap)
        )
        # fold the flat snapshot into the partitioned tables
        for (fingerprint, relation), (score, attribute_map) in (
            memos.tree_sims.items()
        ):
            # the flat shape carries no sampled columns: None = all
            self._tree_sims.setdefault(relation, {})[fingerprint] = (
                score,
                tuple(attribute_map.items()),
                None,
            )
        for (probe, relation, attribute), status in memos.conditions.items():
            self._conditions.setdefault((relation, attribute), {})[
                sys.intern(probe)
            ] = status

    def export_state(self) -> tuple[ContextSchemaState, ContextMemoState]:
        """A consistent snapshot of both halves for artifact writing.

        The snapshot is of the backend's current data epoch: a pending
        ``data_version`` bump is applied and every stale relation
        revalidated first.  The memo tables are copied flat under the
        lock, so a concurrent translator can keep serving while the
        artifact builder pickles.

        A context built with vocabulary aliases is refused: its
        :class:`NameIndex` carries the alias names, while the artifact
        key's schema fingerprint and :meth:`from_artifact` know none.
        """
        if self._relation_aliases or self._attribute_aliases:
            raise ReproError(
                "cannot export a context built with vocabulary aliases",
                diagnostic=Diagnostic(
                    stage="artifact",
                    message="aliased name index under an alias-free key",
                    detail={"aliased": sorted(self._alias_names())},
                ),
            )
        self.ensure_current()
        with self._lock:
            for relation in self._relation_by_key:
                if relation in self._stale or relation in self._baseline:
                    self._touch(relation)
        schema_state = ContextSchemaState(
            relations=self.relations,
            neighbors=self._neighbors,
            fk_edges=self.fk_edges,
            name_index=self.name_index,
            schema_paths=self.schema_paths,
            schema_parents=self.schema_parents,
            schema_components=self.schema_components,
            schema_fingerprint=self.schema_fingerprint,
        )
        with self._lock:
            memos = ContextMemoState(
                samples=dict(self._samples),
                tree_sims={
                    (fingerprint, relation): (score, dict(pairs))
                    for relation, partition in self._tree_sims.items()
                    for fingerprint, (score, pairs, _) in partition.items()
                },
                conditions={
                    (probe, relation, attribute): status
                    for (relation, attribute), partition in (
                        self._conditions.items()
                    )
                    for probe, status in partition.items()
                },
                networks=dict(self._network_memo),
            )
        return schema_state, memos

    @staticmethod
    def _build_schema_paths(
        relations: tuple[Relation, ...],
        fk_edges: tuple[tuple[str, str, ForeignKey, tuple], ...],
        c: float,
    ) -> tuple[
        dict[str, dict[str, float]],
        dict[str, dict[str, str]],
        dict[str, int],
    ]:
        """All-pairs BFS over the FK skeleton: ``paths[a][b]`` is the
        strongest-path weight ``c ** hops`` between relations *a* and
        *b*, ``parents[a][b]`` the predecessor of *b* on that path, and
        ``components[a]`` the connected-component id of *a*."""
        adjacency: dict[str, list[str]] = {r.key: [] for r in relations}
        seen_pairs: set[tuple[str, str]] = set()
        for source_key, target_key, _fk, _fk_key in fk_edges:
            if source_key == target_key:
                continue
            for a, b in ((source_key, target_key), (target_key, source_key)):
                if (a, b) not in seen_pairs:
                    seen_pairs.add((a, b))
                    adjacency.setdefault(a, []).append(b)
        paths: dict[str, dict[str, float]] = {}
        parents: dict[str, dict[str, str]] = {}
        components: dict[str, int] = {}
        component = 0
        for relation in relations:
            start = relation.key
            hops = {start: 0}
            parent: dict[str, str] = {}
            frontier = [start]
            while frontier:
                next_frontier: list[str] = []
                for key in frontier:
                    for neighbor in adjacency.get(key, ()):
                        if neighbor not in hops:
                            hops[neighbor] = hops[key] + 1
                            parent[neighbor] = key
                            next_frontier.append(neighbor)
                frontier = next_frontier
            paths[start] = {key: c**count for key, count in hops.items()}
            parents[start] = parent
            if start not in components:
                for key in hops:
                    components[key] = component
                component += 1
        return paths, parents, components

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def ensure_current(self) -> None:
        """Mark data-derived state for revalidation if the data moved.

        Schema-derived state (neighbors, name index, FK adjacency) never
        changes — the catalog is fixed for the backend's lifetime.  Every
        data-derived memo reads the data only through column samples: a
        condition status ``(probe, rel, attr)`` reads ``sample(rel,
        attr)``, a tree similarity ``(fp, rel)`` reads samples of
        ``rel``'s own columns, and the network memo reads none (its key
        carries the ordered candidates, and edge weights read names).
        So a bump moves the current samples to a stale baseline and
        marks every relation stale; :meth:`_touch` re-reads a column
        only when a lookup is about to read a memo built on it.
        ``data_version`` covers the whole database, so this is what
        stands in for knowing which table changed.
        """
        with self._lock:
            if self.database.data_version == self._data_version:
                return
            for (relation, attribute), sample in self._samples.items():
                self._baseline.setdefault(relation, {})[attribute] = sample
            self._samples.clear()
            self._stale.update(self._relation_by_key)
            # finished translations bake in condition evidence, so they
            # go stale with the data too (docs/CACHING.md, trigger 1)
            self._result_cache.clear()
            self.stats.result_invalidations += 1
            self._data_version = self.database.data_version
            self.stats.invalidations += 1

    def _touch(
        self, relation: str, attributes: Optional[Iterable[str]] = None
    ) -> bool:
        """Bring one relation's memos up to date before a lookup reads
        them (lock held); True when a column had moved.

        The first touch since a bump *settles* the relation: the
        baselines of its columns that carry condition statuses become
        its pending columns, and the rest are forgotten — every sample a
        memo read was read by a condition check, which left a status
        there, and every status read a sample.  Then each pending column
        among *attributes* (all of them when None) is re-read once:
        equal to its baseline, value and type, it keeps every memo;
        different, it drops its own statuses and the relation's tree
        similarities.  If a read raises, every memo of the relation goes
        before the error propagates, so no unverified entry outlives its
        baseline.
        """
        owner = self._relation_by_key[relation]
        moved = settled = False
        try:
            if relation in self._stale:
                self._stale.discard(relation)
                old = self._baseline.pop(relation, {})
                pending = {}
                for attribute in owner.attributes:
                    key = (relation, attribute.key)
                    if key not in self._conditions:
                        continue
                    sample = old.get(attribute.key)
                    if sample is not None:
                        pending[attribute.key] = sample
                if pending:
                    self._baseline[relation] = pending
            pending = self._baseline.get(relation, {})
            for attribute in list(
                pending if attributes is None else attributes
            ):
                old = pending.pop(attribute, None)
                if old is None:
                    continue
                new = self._build_sample(
                    owner.name, owner.attribute(attribute).name
                )
                self._samples[(relation, attribute)] = new
                if not _same_sample(old, new):
                    self._conditions.pop((relation, attribute), None)
                    self._drop_tree_sims(relation)
                    self.stats.revalidation_drops += 1
                    moved = True
            if not pending:
                self._baseline.pop(relation, None)
            settled = True
        finally:
            if not settled:
                self._drop_relation(relation)
        return moved

    def _drop_relation(self, relation: str) -> None:
        """Drop every memo that reads *relation*'s data (lock held)."""
        self._drop_tree_sims(relation)
        for attribute in self._relation_by_key[relation].attributes:
            self._conditions.pop((relation, attribute.key), None)
        self._baseline.pop(relation, None)
        self._stale.discard(relation)
        self.stats.revalidation_drops += 1

    def _drop_tree_sims(self, relation: str) -> None:
        """Drop *relation*'s tree-sim partition (lock held).  Every
        mapping set read a score of every relation, so all of them go
        too, and the epoch moves past any mapping set still being
        computed from the dropped scores."""
        self._tree_sims.pop(relation, None)
        self._mappings.clear()
        self._mapping_reads.clear()
        self._tree_sim_epoch += 1

    # ------------------------------------------------------------------
    # schema-derived lookups
    # ------------------------------------------------------------------
    def neighbors(self, relation_key: str) -> tuple[Relation, ...]:
        """FK-adjacent relations of *relation_key* (paper §4.2)."""
        return self._neighbors[normalize(relation_key)]

    def scoring_order(self, tree: RelationTree) -> tuple[Relation, ...]:
        """All relations, ordered by lexical affinity with the tree's
        name evidence (root name, or attribute names when the root is
        unspecified).  Order affects only which candidates are scored
        first under a tight budget, never the resulting mapping set.

        It reads names only, so it is kept as the ``("order", names)``
        name row (see :meth:`cached_name_row`)."""
        names = []
        if tree.known_name:
            names.append(tree.known_name)
        else:
            names.extend(
                attribute.known_name
                for attribute in tree.attribute_trees
                if attribute.known_name
            )
        if not names:
            return self.relations
        key = ("order", tuple(names))
        order = self.cached_name_row(key)
        if order is None:
            order = tuple(self.name_index.order(names, self.relations))
            self.remember_name_row(key, order)
        return order

    # ------------------------------------------------------------------
    # vocabulary aliases (fixed at construction)
    # ------------------------------------------------------------------
    def relation_aliases(self, relation_key: str) -> tuple[str, ...]:
        return self._relation_aliases.get(normalize(relation_key), ())

    def attribute_aliases(
        self, relation_key: str, attribute_key: str
    ) -> tuple[str, ...]:
        return self._attribute_aliases.get(
            (normalize(relation_key), normalize(attribute_key)), ()
        )

    # ------------------------------------------------------------------
    # data-derived caches
    # ------------------------------------------------------------------
    def column_sample(self, relation: str, attribute: str) -> list[Any]:
        """Deterministic distinct-value sample of one column, built once
        and shared by every condition check until the data changes."""
        key = (normalize(relation), normalize(attribute))
        with self._lock:
            if key[0] in self._stale or key[0] in self._baseline:
                self._touch(key[0], (key[1],))
            cached = self._samples.get(key)
            if cached is not None:
                self.stats.sample_hits += 1
                return cached
            # build under the lock: serialises the (cheap, deterministic)
            # sample construction so concurrent workers never build the
            # same column twice and the build counter stays exact
            sample = self._build_sample(relation, attribute)
            self._samples[key] = sample
            return sample

    def _build_sample(self, relation: str, attribute: str) -> list[Any]:
        """Read one column from the backend and sample it (lock held)."""
        values = self.database.column_values(relation, attribute)
        distinct = list(dict.fromkeys(v for v in values if v is not None))
        self.stats.sample_builds += 1
        return stride_sample(distinct, self.config.condition_sample)

    def condition_status(self, key: tuple) -> Optional[str]:
        """Memoized status for one ``(rendered probe, relation key,
        attribute key)`` triple, or None."""
        probe, relation, attribute = key
        with self._lock:
            if relation in self._stale or relation in self._baseline:
                self._touch(relation, (attribute,))
            partition = self._conditions.get((relation, attribute))
            cached = partition.get(probe) if partition is not None else None
            if cached is not None:
                self.stats.condition_hits += 1
            else:
                self.stats.condition_misses += 1
            return cached

    def remember_condition(self, key: tuple, status: str) -> None:
        probe, relation, attribute = key
        with self._lock:
            self._conditions.setdefault((relation, attribute), {})[
                probe
            ] = status

    def cached_tree_similarity(
        self, key: tuple[TreeFingerprint, str], count: bool = True
    ) -> Optional[tuple[float, tuple, Optional[frozenset]]]:
        """Memoized ``(score, attribute pairs, sampled columns)`` for one
        (tree fingerprint, relation) pair, or None.  The pairs are the
        ``(attribute tree key, attribute name)`` items of the mapping;
        the sampled columns are the keys of the relation's columns whose
        samples the score read (None: unknown, so all of them), the only
        ones a hit after a ``data_version`` bump must re-verify.

        ``count`` is the hit/miss accounting switch: the
        :class:`~repro.core.similarity.SimilarityEvaluator` — the single
        choke point for these counters — passes False when it replays a
        key it already probed within the current translation (the
        degradation ladder re-mapping after an abandoned rung, a
        sub-query block repeating an outer tree), so each unique pair
        counts exactly once per query and a cold-context query can never
        report hits against itself.
        """
        fingerprint, relation = key
        with self._lock:
            partition = self._tree_sims.get(relation)
            cached = (
                partition.get(fingerprint) if partition is not None else None
            )
            if (
                cached is not None
                and (relation in self._stale or relation in self._baseline)
                and self._touch(relation, cached[2])
            ):
                cached = None
            if count:
                if cached is not None:
                    self.stats.tree_sim_hits += 1
                else:
                    self.stats.tree_sim_misses += 1
            return cached

    def remember_tree_similarity(
        self,
        key: tuple[TreeFingerprint, str],
        value: tuple[float, tuple, frozenset],
    ) -> None:
        fingerprint, relation = key
        score, pairs, columns = value
        with self._lock:
            # a few distinct column sets cover every entry: share them
            columns = self._column_sets.setdefault(columns, columns)
            self._tree_sims.setdefault(relation, {})[fingerprint] = (
                score,
                pairs,
                columns,
            )

    def _current(self, relation: str, columns: Optional[frozenset]) -> bool:
        """Whether a memo of *relation* that read *columns* (None: all of
        them) stands without a re-read (lock held)."""
        if relation in self._stale:
            return False
        pending = self._baseline.get(relation)
        return not pending or (
            columns is not None and pending.keys().isdisjoint(columns)
        )

    def cached_mappings(
        self, fingerprint: TreeFingerprint
    ) -> tuple[Optional[tuple], Optional[list[tuple]], int]:
        """``(entry, scores, epoch)`` for one tree fingerprint.

        ``entry`` is the memoized mapping set, or None.  An entry is
        ``(scored, threshold, top, pairs)``: the relations scored, the σ
        threshold, the best ``max(8, kept)`` ``(relation, σ)`` pairs, and
        the attribute pairs of the ``kept`` candidates, which lead
        ``top``.  MAP(rt) is a function of the per-relation scores
        (Definition 1), so the entry lives exactly as long as the
        fingerprint's tree-sim entries: any partition drop clears the
        memo.  Without an entry, ``scores`` holds the fingerprint's
        tree-sim entries ``(score, attribute pairs, sampled columns)``
        against every relation, in :attr:`relations` order, when all of
        them are memoized — what the per-relation probes would only read
        back, as after an artifact attach — and is None otherwise.
        ``epoch`` goes to :meth:`remember_mappings`.

        A lookup reads no sample.  While a relation is stale, or a
        column that a tree-sim entry of the fingerprint records is still
        pending re-verification, it answers neither: the per-relation
        probes re-read those columns, each after its own budget charge.
        An entry is checked against its *read list*, the ``(relation,
        sampled columns)`` of its tree-sim entries that read a column
        (None: all), since an entry that read none of a relation's
        columns stands whatever that relation has pending.  The list is
        built on the first hit that finds a column pending, so a
        workload without writes stores none.  Nothing is counted here:
        :class:`~repro.core.similarity.SimilarityEvaluator` counts a hit
        as one tree-sim hit per relation.
        """
        with self._lock:
            epoch = self._tree_sim_epoch
            tree_sims = self._tree_sims
            entry = self._mappings.get(fingerprint)
            if entry is not None:
                if self._stale:
                    return None, None, epoch
                baseline = self._baseline
                if not baseline:
                    return entry, None, epoch
                reads = self._mapping_reads.get(fingerprint)
                if reads is None:
                    # an entry implies a tree-sim entry for every relation
                    reads = []
                    for relation in self.relations:
                        columns = tree_sims[relation.key][fingerprint][2]
                        if columns is None or columns:
                            reads.append((relation.key, columns))
                    reads = self._mapping_reads[fingerprint] = tuple(reads)
                for key, columns in reads:
                    pending = baseline.get(key)
                    if pending and (
                        columns is None
                        or not pending.keys().isdisjoint(columns)
                    ):
                        return None, None, epoch
                return entry, None, epoch
            current = not self._stale and not self._baseline
            scores = []
            for relation in self.relations:
                key = relation.key
                partition = tree_sims.get(key)
                cached = (
                    None if partition is None else partition.get(fingerprint)
                )
                if cached is None or not (
                    current or self._current(key, cached[2])
                ):
                    return None, None, epoch
                scores.append(cached)
            return None, scores, epoch

    def remember_mappings(
        self, fingerprint: TreeFingerprint, entry: tuple, epoch: int
    ) -> None:
        """Store a mapping set computed since :meth:`cached_mappings`
        returned *epoch*, unless a tree-sim partition was dropped since:
        a probe may have read a score that no longer stands."""
        with self._lock:
            if epoch == self._tree_sim_epoch:
                self._mappings[fingerprint] = entry

    def cached_name_row(self, key: tuple[str, Any]) -> Optional[tuple]:
        """The row of one ``(kind, name)`` key, or None.

        A row holds what a name scores against every relation before any
        condition is read, in :attr:`relations` order (see
        :attr:`relation_index`).  Kind ``"root"``: the root similarity of
        the name against each relation (§4.2: direct, aliases, damped
        neighbours).  Kind ``"attribute"``: per relation, the name factor
        of each attribute in ``relation.attributes`` order (§4.3: the
        smoothed name similarity, ``kdef`` for a placeholder, whose name
        is None, and the primary-key bonus).  Kind ``"order"``, keyed by
        a tuple of names: :meth:`scoring_order`'s relations, best first.
        Rows read names only, and the vocabulary is fixed at
        construction, so neither a ``data_version`` bump nor an artifact
        touches them.  Not persisted.
        """
        with self._lock:
            return self._name_rows.get(key)

    def remember_name_row(self, key: tuple[str, Any], row: tuple) -> None:
        """Store one row; the oldest row goes past the cap."""
        with self._lock:
            self._name_rows[key] = row
            if len(self._name_rows) > NAME_ROW_CAP:
                del self._name_rows[next(iter(self._name_rows))]

    def count_tree_sim_hits(self, hits: int) -> None:
        """Count tree-sim hits answered through a mapping-memo hit."""
        with self._lock:
            self.stats.tree_sim_hits += hits

    def cached_networks(self, key: tuple) -> Optional[tuple]:
        """Memoized ``(extended graph, networks)`` for one terminal-
        relation signature (:func:`repro.core.mtjn.network_signature`),
        or None.

        The signature captures everything network generation reads —
        tree shapes and name evidence, the ordered candidate relations
        of every mapping, the view set, k, and the expansion cap — so
        two queries that differ only in conditions or selected
        attributes share one generated network set.  Edge weights read
        relation *names* only, never data or aliases, so a
        ``data_version`` bump cannot stale an entry: whatever changed a
        mapping changed its candidates, hence the key.  Entries are only
        LRU-evicted past a fixed cap.
        """
        with self._lock:
            entry = self._network_memo.get(key)
            if entry is not None:
                self.stats.network_hits += 1
                # dict preserves insertion order: re-append = LRU touch
                del self._network_memo[key]
                self._network_memo[key] = entry
            else:
                self.stats.network_misses += 1
            return entry

    def remember_networks(self, key: tuple, value: tuple) -> None:
        with self._lock:
            self._network_memo[key] = value
            while len(self._network_memo) > self._network_memo_cap:
                oldest = next(iter(self._network_memo))
                del self._network_memo[oldest]

    # ------------------------------------------------------------------
    # translation result cache
    # ------------------------------------------------------------------
    def result_cache_key(self, key: tuple) -> tuple:
        """The translator's partial key completed to the full tuple of
        the consistency contract: (canonical SF-SQL fingerprint, top_k,
        view set, schema fingerprint, data_version).

        The translator calls this once per query (right after
        :meth:`ensure_current`), so lookup and store happen under the
        same data epoch: a ``data_version`` bump racing a translation
        strands the in-flight entry under the old version instead of
        publishing a stale result under the new one.
        """
        with self._lock:
            return key + (self.schema_fingerprint, self._data_version)

    def cached_result(self, key: tuple) -> Optional[tuple]:
        """Finished-translation payload for one canonical key, or None.

        The payload is the immutable tuple stored by
        :meth:`remember_result` — the translator materialises fresh
        :class:`~repro.core.translator.Translation` objects from it on
        every hit (their ``stats`` field is per-call).  Lookup is an
        LRU touch; hits and misses land in :class:`ContextStats`, so
        ``--stats``, ``TranslationStats.memo`` deltas and the service
        snapshot all report cache effectiveness for free.
        """
        with self._lock:
            payload = self._result_cache.lookup(key)
            if payload is not None:
                self.stats.result_hits += 1
            else:
                self.stats.result_misses += 1
            return payload

    def remember_result(self, key: tuple, payload: tuple, cost: int) -> None:
        """Admit one finished translation set (admission checks — full
        rung, no degradation, no faults — are the translator's job;
        bounding and eviction accounting happen here)."""
        with self._lock:
            self.stats.result_evictions += self._result_cache.store(
                key, payload, cost
            )

    def result_cache_entries(self) -> int:
        """Current entry count (introspection/tests)."""
        with self._lock:
            return len(self._result_cache)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TranslationContext({self.database.catalog.name!r}, "
            f"{len(self.relations)} relations, "
            f"{sum(map(len, self._tree_sims.values()))} memoized tree-sims)"
        )
