"""Schema-evolution chaos harness: mutate the schema, replay the workload.

Schema-free SQL's core promise is robustness to *schema ignorance*: a
query written against a remembered schema should keep working when the
real schema differs.  Schema evolution is the time-axis version of the
same problem — the schema the user remembers is the one that existed
when they learned it.  This module makes that testable:

* **mutations** — programmatic schema changes that rebuild a fresh
  :class:`~repro.engine.Database` carrying the same data under a new
  catalog: :class:`RenameTable`, :class:`RenameColumn`,
  :class:`SplitTable`, :class:`MergeTables`, :class:`DropForeignKey`.
  Each records the ground-truth vocabulary delta (old name -> new home)
  so recovery can be scored;
* **vocabulary recovery** — :func:`recover_vocabulary` mines a query log
  (via :func:`repro.core.query_log.views_from_sql`) against the *old*
  catalog to learn which relations the workload actually exercises,
  then matches old names to their new homes by attribute-fingerprint
  overlap — recovering renames that pure string similarity misses
  (``movie`` -> ``film`` shares no q-gram).  Recovered names are
  given as aliases to the
  :class:`~repro.core.context.TranslationContext` the mutated database's
  translator is built on;
* **the harness** — :class:`EvolutionHarness` translates and executes
  every workload query on the baseline and on each mutated database and
  compares row multisets (the data is unchanged, so a stable
  translation returns identical rows).  Verdicts roll up into a
  per-mutation-class *stability score* reported by ``run_chaos.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

from ..catalog import Attribute, Catalog, Relation, SchemaError, normalize
from ..core.config import DEFAULT_CONFIG, TranslatorConfig
from ..core.context import TranslationContext
from ..core.query_log import views_from_sql
from ..core.similarity import string_similarity
from ..core.translator import SchemaFreeTranslator
from ..engine.database import Database
from ..workloads.base import WorkloadQuery
from .differential import Outcome, normalize_rows, workload_pairs

__all__ = [
    "DropForeignKey",
    "EvolutionHarness",
    "EvolutionReport",
    "EvolvedSchema",
    "MergeTables",
    "MutationRecord",
    "RenameColumn",
    "RenameTable",
    "SplitTable",
    "VocabularyRecovery",
    "evolve",
    "recover_vocabulary",
    "standard_mutations",
]

#: per-query verdicts
STABLE = "stable"  # both succeed, identical row multisets
CHANGED = "changed"  # both succeed, rows differ
LOST = "lost"  # baseline succeeded, mutated run failed
GAINED = "gained"  # baseline failed, mutated run succeeded
AGREED_ERROR = "agreed-error"  # both failed


# ---------------------------------------------------------------------------
# rebuilding helpers
# ---------------------------------------------------------------------------


def _copy_attr(attribute: Attribute, name: Optional[str] = None) -> Attribute:
    return Attribute(
        name if name is not None else attribute.name,
        attribute.data_type,
        attribute.nullable,
    )


def _copy_relation(relation: Relation) -> Relation:
    return Relation(
        relation.name,
        [_copy_attr(a) for a in relation.attributes],
        relation.primary_key,
    )


@dataclass
class EvolvedSchema:
    """A mutated database plus the ground-truth vocabulary delta."""

    database: Database
    #: old relation name -> the relation that now answers for it
    relation_renames: dict = field(default_factory=dict)
    #: (old relation, old attribute) -> (new relation, new attribute)
    attribute_renames: dict = field(default_factory=dict)

    @property
    def catalog(self) -> Catalog:
        return self.database.catalog


class _Rebuilder:
    """Copies a database's catalog and rows with targeted edits applied.

    FK enforcement is off in the rebuilt database: row copies preserve
    the source data verbatim, and a chaos mutation (dropping a relation
    a dangling reference points at) must not fail the rebuild itself.
    """

    def __init__(self, source: Database) -> None:
        self.source = source
        self.catalog = Catalog(source.catalog.name)

    def build(self, row_sources: Mapping[str, Iterable[Mapping]]) -> Database:
        self.catalog.validate()
        database = Database(self.catalog, enforce_foreign_keys=False)
        for relation in self.catalog.relations:
            rows = row_sources.get(relation.key)
            if rows is None:
                continue
            database.insert_many(relation.name, rows)
        return database


def _copy_foreign_keys(rebuilder, source_catalog, *, skip=(), rename=None):
    """Re-register every FK whose endpoints survived the mutation.

    *skip* drops FKs touching the named relations; *rename* maps old
    relation names to new ones; FKs whose attribute no longer exists on
    either endpoint are silently dropped (that is the mutation's point).
    """
    rename = rename or {}
    skipped = {normalize(name) for name in skip}
    for fk in source_catalog.foreign_keys:
        src_key = normalize(fk.source_relation)
        tgt_key = normalize(fk.target_relation)
        if src_key in skipped or tgt_key in skipped:
            continue
        src = rename.get(src_key, fk.source_relation)
        tgt = rename.get(tgt_key, fk.target_relation)
        try:
            rebuilder.catalog.add_foreign_key(
                src, fk.source_attribute, tgt, fk.target_attribute
            )
        except SchemaError:
            # an endpoint was renamed/moved away by this mutation
            continue


# ---------------------------------------------------------------------------
# mutations
# ---------------------------------------------------------------------------


@dataclass
class RenameTable:
    """Rename one relation; every FK endpoint follows."""

    table: str
    new_name: str
    kind = "rename-table"

    def describe(self) -> str:
        return f"rename table {self.table} -> {self.new_name}"

    def apply(self, database: Database) -> EvolvedSchema:
        old = database.catalog.relation(self.table)
        if database.catalog.has_relation(self.new_name):
            raise SchemaError(f"relation {self.new_name!r} already exists")
        rebuilder = _Rebuilder(database)
        for relation in database.catalog.relations:
            if relation.key == old.key:
                rebuilder.catalog.add_relation(
                    Relation(
                        self.new_name,
                        [_copy_attr(a) for a in old.attributes],
                        old.primary_key,
                    )
                )
            else:
                rebuilder.catalog.add_relation(_copy_relation(relation))
        _copy_foreign_keys(
            rebuilder, database.catalog, rename={old.key: self.new_name}
        )
        rows = {
            relation.key: database.rows(relation.name)
            for relation in database.catalog.relations
        }
        rows[normalize(self.new_name)] = rows.pop(old.key)
        return EvolvedSchema(
            rebuilder.build(rows),
            relation_renames={old.name: self.new_name},
        )


@dataclass
class RenameColumn:
    """Rename one attribute; the primary key and FKs follow."""

    table: str
    column: str
    new_name: str
    kind = "rename-column"

    def describe(self) -> str:
        return f"rename column {self.table}.{self.column} -> {self.new_name}"

    def apply(self, database: Database) -> EvolvedSchema:
        target = database.catalog.relation(self.table)
        old_attr = target.attribute(self.column)
        if target.has_attribute(self.new_name):
            raise SchemaError(
                f"attribute {self.new_name!r} already exists on {self.table!r}"
            )
        rebuilder = _Rebuilder(database)
        for relation in database.catalog.relations:
            if relation.key != target.key:
                rebuilder.catalog.add_relation(_copy_relation(relation))
                continue
            attributes = [
                _copy_attr(
                    a, self.new_name if a.key == old_attr.key else None
                )
                for a in relation.attributes
            ]
            pk = tuple(
                self.new_name if normalize(c) == old_attr.key else c
                for c in relation.primary_key
            )
            rebuilder.catalog.add_relation(
                Relation(relation.name, attributes, pk)
            )
        # FKs touching the renamed column are re-pointed by name
        for fk in database.catalog.foreign_keys:
            src_attr, tgt_attr = fk.source_attribute, fk.target_attribute
            if (
                normalize(fk.source_relation) == target.key
                and normalize(src_attr) == old_attr.key
            ):
                src_attr = self.new_name
            if (
                normalize(fk.target_relation) == target.key
                and normalize(tgt_attr) == old_attr.key
            ):
                tgt_attr = self.new_name
            rebuilder.catalog.add_foreign_key(
                fk.source_relation, src_attr, fk.target_relation, tgt_attr
            )
        rows = {
            relation.key: database.rows(relation.name)
            for relation in database.catalog.relations
        }
        new_key = normalize(self.new_name)
        rows[target.key] = [
            {
                (new_key if column == old_attr.key else column): value
                for column, value in row.items()
            }
            for row in rows[target.key]
        ]
        return EvolvedSchema(
            rebuilder.build(rows),
            attribute_renames={
                (target.name, old_attr.name): (target.name, self.new_name)
            },
        )


@dataclass
class SplitTable:
    """Move *columns* into a new relation keyed by the source's PK."""

    table: str
    columns: Tuple[str, ...]
    new_table: str
    kind = "split-table"

    def describe(self) -> str:
        cols = ", ".join(self.columns)
        return f"split {self.table}({cols}) -> {self.new_table}"

    def apply(self, database: Database) -> EvolvedSchema:
        source = database.catalog.relation(self.table)
        if len(source.primary_key) != 1:
            raise SchemaError(
                f"split requires a single-column primary key on {self.table!r}"
            )
        pk_attr = source.attribute(source.primary_key[0])
        moved = [source.attribute(c) for c in self.columns]
        moved_keys = {a.key for a in moved}
        if pk_attr.key in moved_keys:
            raise SchemaError("cannot split the primary key away")
        rebuilder = _Rebuilder(database)
        for relation in database.catalog.relations:
            if relation.key != source.key:
                rebuilder.catalog.add_relation(_copy_relation(relation))
                continue
            kept = [
                _copy_attr(a)
                for a in relation.attributes
                if a.key not in moved_keys
            ]
            rebuilder.catalog.add_relation(
                Relation(relation.name, kept, relation.primary_key)
            )
        rebuilder.catalog.add_relation(
            Relation(
                self.new_table,
                [_copy_attr(pk_attr)] + [_copy_attr(a) for a in moved],
                (pk_attr.name,),
            )
        )
        _copy_foreign_keys(rebuilder, database.catalog)
        rebuilder.catalog.add_foreign_key(
            self.new_table, pk_attr.name, source.name, pk_attr.name
        )
        rows = {
            relation.key: database.rows(relation.name)
            for relation in database.catalog.relations
        }
        original = rows[source.key]
        rows[source.key] = [
            {c: v for c, v in row.items() if c not in moved_keys}
            for row in original
        ]
        rows[normalize(self.new_table)] = [
            {
                c: v
                for c, v in row.items()
                if c in moved_keys or c == pk_attr.key
            }
            for row in original
        ]
        return EvolvedSchema(
            rebuilder.build(rows),
            attribute_renames={
                (source.name, a.name): (self.new_table, a.name) for a in moved
            },
        )


@dataclass
class MergeTables:
    """Inline an FK target's attributes into the referencing relation.

    Requires an FK ``source.attr -> target.pk``.  The target relation
    disappears; its non-key attributes move onto *source* (prefixed with
    the target's name on collision).  FKs from third relations to the
    dropped target are dropped too — exactly the dangling-reference
    hazard a real denormalisation migration creates.
    """

    source: str
    target: str
    kind = "merge-tables"

    def describe(self) -> str:
        return f"merge {self.target} into {self.source}"

    def _linking_fk(self, catalog: Catalog):
        for fk in catalog.foreign_keys:
            if (
                normalize(fk.source_relation) == normalize(self.source)
                and normalize(fk.target_relation) == normalize(self.target)
            ):
                return fk
        raise SchemaError(
            f"no foreign key from {self.source!r} to {self.target!r}"
        )

    def apply(self, database: Database) -> EvolvedSchema:
        src = database.catalog.relation(self.source)
        tgt = database.catalog.relation(self.target)
        fk = self._linking_fk(database.catalog)
        join_attr = normalize(fk.target_attribute)
        merged_names: dict = {}  # target attribute key -> merged name
        attributes = [_copy_attr(a) for a in src.attributes]
        for attribute in tgt.attributes:
            if attribute.key == join_attr:
                continue  # the join key is already present as the FK column
            name = attribute.name
            if src.has_attribute(name):
                name = f"{tgt.name}_{attribute.name}"
            merged_names[attribute.key] = normalize(name)
            attributes.append(_copy_attr(attribute, name))
        rebuilder = _Rebuilder(database)
        for relation in database.catalog.relations:
            if relation.key == tgt.key:
                continue
            if relation.key == src.key:
                rebuilder.catalog.add_relation(
                    Relation(src.name, attributes, src.primary_key)
                )
            else:
                rebuilder.catalog.add_relation(_copy_relation(relation))
        _copy_foreign_keys(rebuilder, database.catalog, skip=(tgt.name,))
        target_rows = {
            row.get(join_attr): row for row in database.rows(tgt.name)
        }
        fk_attr = normalize(fk.source_attribute)
        rows = {
            relation.key: database.rows(relation.name)
            for relation in database.catalog.relations
            if relation.key != tgt.key
        }
        merged_rows = []
        for row in rows[src.key]:
            match = target_rows.get(row.get(fk_attr), {})
            copy = dict(row)
            for old_key, new_key in merged_names.items():
                copy[new_key] = match.get(old_key)
            merged_rows.append(copy)
        rows[src.key] = merged_rows
        return EvolvedSchema(
            rebuilder.build(rows),
            relation_renames={tgt.name: src.name},
            attribute_renames={
                (tgt.name, tgt.attribute(old).name): (src.name, new)
                for old, new in merged_names.items()
            },
        )


@dataclass
class DropForeignKey:
    """Remove the FK edge between two relations (columns stay)."""

    source: str
    target: str
    kind = "drop-fk"

    def describe(self) -> str:
        return f"drop foreign key {self.source} -> {self.target}"

    def apply(self, database: Database) -> EvolvedSchema:
        src_key = normalize(self.source)
        tgt_key = normalize(self.target)
        doomed = [
            fk
            for fk in database.catalog.foreign_keys
            if normalize(fk.source_relation) == src_key
            and normalize(fk.target_relation) == tgt_key
        ]
        if not doomed:
            raise SchemaError(
                f"no foreign key from {self.source!r} to {self.target!r}"
            )
        doomed_keys = {fk.key for fk in doomed}
        rebuilder = _Rebuilder(database)
        for relation in database.catalog.relations:
            rebuilder.catalog.add_relation(_copy_relation(relation))
        for fk in database.catalog.foreign_keys:
            if fk.key in doomed_keys:
                continue
            rebuilder.catalog.add_foreign_key(
                fk.source_relation,
                fk.source_attribute,
                fk.target_relation,
                fk.target_attribute,
            )
        rows = {
            relation.key: database.rows(relation.name)
            for relation in database.catalog.relations
        }
        return EvolvedSchema(rebuilder.build(rows))


Mutation = Union[
    RenameTable, RenameColumn, SplitTable, MergeTables, DropForeignKey
]


def evolve(
    database: Database, mutations: Sequence[Mutation]
) -> EvolvedSchema:
    """Apply *mutations* in order, composing the vocabulary deltas.

    A name renamed twice (``a -> b``, then ``b -> c``) reports the
    end-to-end delta ``a -> c``.
    """
    current = database
    relation_renames: dict = {}
    attribute_renames: dict = {}
    for mutation in mutations:
        step = mutation.apply(current)
        current = step.database
        for old, new in relation_renames.items():
            relation_renames[old] = step.relation_renames.get(new, new)
        for old, new in step.relation_renames.items():
            relation_renames.setdefault(old, new)
        for old, new in attribute_renames.items():
            attribute_renames[old] = step.attribute_renames.get(new, new)
        for old, new in step.attribute_renames.items():
            attribute_renames.setdefault(old, new)
    return EvolvedSchema(current, relation_renames, attribute_renames)


# ---------------------------------------------------------------------------
# vocabulary recovery
# ---------------------------------------------------------------------------


@dataclass
class VocabularyRecovery:
    """Aliases recovered from a query log across a schema change."""

    #: (relation in the new catalog, recovered old name)
    relation_aliases: list = field(default_factory=list)
    #: (relation, attribute in the new catalog, recovered old name)
    attribute_aliases: list = field(default_factory=list)

    @property
    def aliases(self) -> list:
        """Every recovered name as the ``(relation, attribute or None,
        alias)`` triples a :class:`~repro.core.context.TranslationContext`
        takes at construction."""
        return [
            (relation, None, alias) for relation, alias in self.relation_aliases
        ] + list(self.attribute_aliases)

    def as_dict(self) -> dict:
        return {
            "relation_aliases": [list(t) for t in self.relation_aliases],
            "attribute_aliases": [list(t) for t in self.attribute_aliases],
        }


def _usage_weights(catalog: Catalog, logged_sql: Iterable[str]) -> dict:
    """Relation key -> how often the log's join structures touch it."""
    usage: dict = {}
    for sql in logged_sql:
        try:
            views = views_from_sql(catalog, sql)
        except Exception:  # malformed log line: skipped so the harness REPL survives
            continue
        for view in views:
            for relation_name in view.relations:
                key = normalize(relation_name)
                usage[key] = usage.get(key, 0) + 1
    return usage


def _fingerprint_overlap(old: Relation, new: Relation) -> float:
    """Jaccard overlap of attribute-name sets: the rename signal."""
    old_attrs = {a.key for a in old.attributes}
    new_attrs = {a.key for a in new.attributes}
    union = old_attrs | new_attrs
    if not union:
        return 0.0
    return len(old_attrs & new_attrs) / len(union)


def _match_attributes(
    recovery: VocabularyRecovery,
    old: Relation,
    new: Relation,
    qgram: int,
    token_damp: float,
) -> None:
    """Alias old-only attribute names onto new-only attributes.

    A unique remainder on both sides is matched outright (this is what
    string similarity misses: ``year`` -> ``released_in`` shares
    nothing); several remainders are paired greedily by string
    similarity so a batch rename still mostly lands.
    """
    old_only = [
        a for a in old.attributes if not new.has_attribute(a.name)
    ]
    new_only = [
        a for a in new.attributes if not old.has_attribute(a.name)
    ]
    if not old_only or not new_only:
        return
    if len(old_only) == 1 and len(new_only) == 1:
        recovery.attribute_aliases.append(
            (new.name, new_only[0].name, old_only[0].name)
        )
        return
    scored = sorted(
        (
            (string_similarity(o.name, n.name, qgram, token_damp), o, n)
            for o in old_only
            for n in new_only
        ),
        key=lambda item: (-item[0], item[1].key, item[2].key),
    )
    used_old: set = set()
    used_new: set = set()
    for score, o, n in scored:
        if score <= 0.0 or o.key in used_old or n.key in used_new:
            continue
        used_old.add(o.key)
        used_new.add(n.key)
        recovery.attribute_aliases.append((new.name, n.name, o.name))


def recover_vocabulary(
    old_catalog: Catalog,
    new_catalog: Catalog,
    logged_sql: Iterable[str] = (),
    config: TranslatorConfig = DEFAULT_CONFIG,
    min_overlap: float = 0.3,
) -> VocabularyRecovery:
    """Recover renamed vocabulary across ``old_catalog -> new_catalog``.

    Relations that vanished from the old catalog are matched to their
    new home by attribute-fingerprint overlap; ties break toward the
    relation the query log uses most (then lexicographically), so a
    workload-critical rename wins over an incidental one.  Matched
    relation pairs then contribute attribute aliases for their renamed
    columns, as do relations that survived with columns renamed in
    place.
    """
    recovery = VocabularyRecovery()
    usage = _usage_weights(old_catalog, logged_sql)
    new_relations = new_catalog.relations
    for old in old_catalog.relations:
        if new_catalog.has_relation(old.name):
            # survived: look for in-place column renames only
            _match_attributes(
                recovery,
                old,
                new_catalog.relation(old.name),
                config.qgram,
                config.token_damp,
            )
            continue
        candidates = sorted(
            (
                (_fingerprint_overlap(old, new), new)
                for new in new_relations
            ),
            key=lambda item: (-item[0], item[1].key),
        )
        if not candidates or candidates[0][0] < min_overlap:
            continue
        best_score, best = candidates[0]
        # the log's most-used relations deserve the alias on a tie
        tied = [n for s, n in candidates if s == best_score]
        if len(tied) > 1:
            best = max(
                tied,
                key=lambda n: (usage.get(n.key, 0), n.key),
            )
        recovery.relation_aliases.append((best.name, old.name))
        _match_attributes(
            recovery, old, best, config.qgram, config.token_damp
        )
    return recovery


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------


@dataclass
class MutationRecord:
    """One mutation's replay outcome over the whole workload."""

    kind: str
    description: str
    verdicts: dict = field(default_factory=dict)  # qid -> verdict
    details: dict = field(default_factory=dict)  # qid -> detail line
    recovery: Optional[VocabularyRecovery] = None

    @property
    def stability(self) -> float:
        """Fraction of baseline-successful queries that stayed stable."""
        relevant = [
            v for v in self.verdicts.values() if v in (STABLE, CHANGED, LOST)
        ]
        if not relevant:
            return 1.0
        return sum(1 for v in relevant if v == STABLE) / len(relevant)

    def counts(self) -> dict:
        counts: dict = {}
        for verdict in self.verdicts.values():
            counts[verdict] = counts.get(verdict, 0) + 1
        return counts

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "description": self.description,
            "stability": round(self.stability, 4),
            "counts": self.counts(),
            "verdicts": dict(sorted(self.verdicts.items())),
            "details": {
                qid: detail
                for qid, detail in sorted(self.details.items())
                if detail
            },
            "recovery": self.recovery.as_dict() if self.recovery else None,
        }


@dataclass
class EvolutionReport:
    """All mutation records plus the per-class stability roll-up."""

    records: list = field(default_factory=list)

    def by_class(self) -> dict:
        """Mutation kind -> mean stability across its mutations."""
        grouped: dict = {}
        for record in self.records:
            grouped.setdefault(record.kind, []).append(record.stability)
        return {
            kind: round(sum(scores) / len(scores), 4)
            for kind, scores in sorted(grouped.items())
        }

    @property
    def ok(self) -> bool:
        """True when every query of every mutation got *a* verdict.

        Stability below 1.0 is a measurement, not a failure — the score
        is the deliverable.  A missing verdict means the harness itself
        broke.
        """
        return all(record.verdicts for record in self.records)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "stability_by_class": self.by_class(),
            "mutations": [record.as_dict() for record in self.records],
        }


class EvolutionHarness:
    """Replay one workload across schema mutations and score stability.

    The baseline database is translated and executed once; each mutation
    rebuilds the same data under a changed schema, optionally recovers
    vocabulary from the workload's gold SQL (standing in for a query
    log), and replays every query.  Row multisets are compared with the
    differential harness's normalisation rules.
    """

    def __init__(
        self,
        database: Database,
        queries: Union[Iterable[WorkloadQuery], Iterable[Tuple[str, str]]],
        config: TranslatorConfig = DEFAULT_CONFIG,
        log_sql: Optional[Sequence[str]] = None,
        recover: bool = True,
    ) -> None:
        self.database = database
        self.config = config
        self.recover = recover
        materialised = list(queries)
        if materialised and isinstance(materialised[0], WorkloadQuery):
            self.pairs = workload_pairs(materialised)
            if log_sql is None:
                log_sql = [
                    q.gold_sql for q in materialised if q.gold_sql
                ]
        else:
            self.pairs = list(materialised)
        self.log_sql = list(log_sql or [])
        self._baseline: Optional[dict] = None

    # -- execution ------------------------------------------------------
    def _run_one(
        self, translator: SchemaFreeTranslator, database: Database, sql: str
    ) -> Outcome:
        outcome = Outcome(backend=database.catalog.name)
        try:
            translation = translator.translate_best(sql)
            outcome.sql = translation.sql
        except Exception as exc:  # errors are the measurement: recorded so the harness REPL survives
            outcome.error = f"translation: {exc}"
            outcome.error_type = type(exc).__name__
            return outcome
        try:
            result = database.execute(translation.query)
        except Exception as exc:  # errors are the measurement: recorded so the harness REPL survives
            outcome.error = str(exc)
            outcome.error_type = type(exc).__name__
            return outcome
        outcome.rows = list(result.rows)
        return outcome

    def baseline(self) -> dict:
        """qid -> baseline Outcome, computed once and cached."""
        if self._baseline is None:
            translator = SchemaFreeTranslator(self.database, self.config)
            self._baseline = {
                qid: self._run_one(translator, self.database, sql)
                for qid, sql in self.pairs
            }
        return self._baseline

    @staticmethod
    def _verdict(base: Outcome, mutated: Outcome) -> Tuple[str, str]:
        if base.failed and mutated.failed:
            return AGREED_ERROR, ""
        if base.failed:
            return GAINED, "mutated run succeeded where baseline failed"
        if mutated.failed:
            return (
                LOST,
                f"{mutated.error_type}: {mutated.error}",
            )
        if normalize_rows(base.rows or []) == normalize_rows(
            mutated.rows or []
        ):
            return STABLE, ""
        return (
            CHANGED,
            f"{len(base.rows or [])} baseline row(s) vs "
            f"{len(mutated.rows or [])} after mutation "
            f"(sql: {mutated.sql!r})",
        )

    # -- driving --------------------------------------------------------
    def check(self, mutation: Mutation) -> MutationRecord:
        """Apply one mutation (or a pre-built sequence) and replay."""
        if isinstance(mutation, (list, tuple)):
            evolved = evolve(self.database, mutation)
            kind = "+".join(m.kind for m in mutation)
            description = "; ".join(m.describe() for m in mutation)
        else:
            evolved = mutation.apply(self.database)
            kind = mutation.kind
            description = mutation.describe()
        record = MutationRecord(kind=kind, description=description)
        aliases: list = []
        if self.recover:
            recovery = recover_vocabulary(
                self.database.catalog,
                evolved.catalog,
                self.log_sql,
                self.config,
            )
            aliases = recovery.aliases
            record.recovery = recovery
        context = TranslationContext(
            evolved.database, self.config, aliases=aliases
        )
        translator = SchemaFreeTranslator(
            evolved.database, self.config, context=context
        )
        base = self.baseline()
        for qid, sql in self.pairs:
            outcome = self._run_one(translator, evolved.database, sql)
            verdict, detail = self._verdict(base[qid], outcome)
            record.verdicts[qid] = verdict
            record.details[qid] = detail
        return record

    def run(self, mutations: Sequence) -> EvolutionReport:
        report = EvolutionReport()
        for mutation in mutations:
            report.records.append(self.check(mutation))
        return report


def standard_mutations(catalog: Catalog) -> list:
    """A representative mutation per class, derived from the catalog.

    Deterministic: picks the first relation (by key) that satisfies each
    mutation's preconditions, so chaos runs are reproducible without a
    seed.
    """
    mutations: list = []
    relations = sorted(catalog.relations, key=lambda r: r.key)
    fks = catalog.foreign_keys
    if relations:
        first = relations[0]
        mutations.append(RenameTable(first.name, f"{first.name}_v2"))
        non_pk = [
            a
            for a in first.attributes
            if a.name not in first.primary_key
        ]
        if non_pk:
            mutations.append(
                RenameColumn(
                    first.name, non_pk[0].name, f"{non_pk[0].name}_v2"
                )
            )
    for relation in relations:
        non_pk = [
            a
            for a in relation.attributes
            if a.name not in relation.primary_key
        ]
        if len(relation.primary_key) == 1 and len(non_pk) >= 2:
            mutations.append(
                SplitTable(
                    relation.name,
                    (non_pk[-1].name,),
                    f"{relation.name}_detail",
                )
            )
            break
    if fks:
        fk = sorted(fks, key=lambda f: f.key)[0]
        mutations.append(MergeTables(fk.source_relation, fk.target_relation))
        mutations.append(
            DropForeignKey(fk.source_relation, fk.target_relation)
        )
    return mutations
