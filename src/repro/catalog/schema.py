"""Schema catalog: relations, attributes, and FK-PK relationships.

The catalog is the single source of truth consumed by every layer of the
reproduction:

* the execution engine validates tuples and join conditions against it;
* the Relation Tree Mapper (paper Section 4) matches guessed names against
  catalog names and checks value conditions against column contents;
* the view graph (paper Section 5) is built from its FK-PK edges.

Identifiers are case-insensitive, as in SQL, but the catalog preserves the
declared spelling for rendering translated queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .types import DataType


class SchemaError(ValueError):
    """Raised for inconsistent schema definitions or unknown identifiers."""


def normalize(name: str) -> str:
    """Canonical (case-insensitive) form of a SQL identifier."""
    return name.lower()


@dataclass(frozen=True)
class Attribute:
    """A typed column of a relation."""

    name: str
    data_type: DataType = DataType.TEXT
    nullable: bool = True

    @cached_property
    def key(self) -> str:
        """Case-insensitive lookup key for this attribute, computed once so
        every memo key built from it shares one string."""
        return normalize(self.name)


@dataclass(frozen=True)
class ForeignKey:
    """A single-column FK-PK reference between two relations.

    The paper's schema graph has one undirected edge per FK-PK pair
    (Section 5.1); the direction here records which side holds the
    foreign key, which the composer needs to emit join conditions.
    """

    source_relation: str
    source_attribute: str
    target_relation: str
    target_attribute: str

    @property
    def key(self) -> tuple[str, str, str, str]:
        return (
            normalize(self.source_relation),
            normalize(self.source_attribute),
            normalize(self.target_relation),
            normalize(self.target_attribute),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.source_relation}.{self.source_attribute} -> "
            f"{self.target_relation}.{self.target_attribute}"
        )


class Relation:
    """A named relation with ordered, typed attributes and a primary key."""

    def __init__(
        self,
        name: str,
        attributes: Sequence[Attribute],
        primary_key: Sequence[str] = (),
    ) -> None:
        if not name:
            raise SchemaError("relation name must be non-empty")
        self.name = name
        #: case-insensitive lookup key, computed once so every memo key
        #: built from it shares one string
        self.key = normalize(name)
        self._attributes: dict[str, Attribute] = {}
        for attribute in attributes:
            if attribute.key in self._attributes:
                raise SchemaError(
                    f"duplicate attribute {attribute.name!r} in relation {name!r}"
                )
            self._attributes[attribute.key] = attribute
        #: attributes in declaration order; a relation never changes after
        #: construction, so both tuples are built once here
        self.attributes: tuple[Attribute, ...] = tuple(
            self._attributes.values()
        )
        self.attribute_names: tuple[str, ...] = tuple(
            a.name for a in self.attributes
        )
        self.primary_key = tuple(primary_key)
        for pk_column in self.primary_key:
            if normalize(pk_column) not in self._attributes:
                raise SchemaError(
                    f"primary key column {pk_column!r} not in relation {name!r}"
                )

    def has_attribute(self, name: str) -> bool:
        return normalize(name) in self._attributes

    def attribute(self, name: str) -> Attribute:
        try:
            return self._attributes[normalize(name)]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {name!r}"
            ) from None

    def __len__(self) -> int:
        return len(self.attributes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation({self.name!r}, {len(self)} attributes)"


class Catalog:
    """A database schema: a set of relations plus FK-PK relationships."""

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._relations: dict[str, Relation] = {}
        self._foreign_keys: list[ForeignKey] = []
        self._fk_keys: set[tuple[str, str, str, str]] = set()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_relation(self, relation: Relation) -> Relation:
        if relation.key in self._relations:
            raise SchemaError(f"duplicate relation {relation.name!r}")
        self._relations[relation.key] = relation
        return relation

    def create_relation(
        self,
        name: str,
        columns: Sequence[tuple[str, DataType] | Attribute],
        primary_key: Sequence[str] = (),
    ) -> Relation:
        """Convenience wrapper building :class:`Relation` from tuples."""
        attributes = [
            column if isinstance(column, Attribute) else Attribute(*column)
            for column in columns
        ]
        return self.add_relation(Relation(name, attributes, primary_key))

    def add_foreign_key(
        self,
        source_relation: str,
        source_attribute: str,
        target_relation: str,
        target_attribute: Optional[str] = None,
    ) -> ForeignKey:
        """Register an FK-PK pair after validating both endpoints.

        If *target_attribute* is omitted, the target relation's
        single-column primary key is used.
        """
        source = self.relation(source_relation)
        target = self.relation(target_relation)
        if target_attribute is None:
            if len(target.primary_key) != 1:
                raise SchemaError(
                    f"relation {target.name!r} has no single-column primary "
                    f"key; specify target_attribute explicitly"
                )
            target_attribute = target.primary_key[0]
        source.attribute(source_attribute)
        target.attribute(target_attribute)
        foreign_key = ForeignKey(
            source.name,
            source.attribute(source_attribute).name,
            target.name,
            target.attribute(target_attribute).name,
        )
        if foreign_key.key in self._fk_keys:
            raise SchemaError(f"duplicate foreign key {foreign_key}")
        self._fk_keys.add(foreign_key.key)
        self._foreign_keys.append(foreign_key)
        return foreign_key

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def relations(self) -> list[Relation]:
        return list(self._relations.values())

    @property
    def relation_names(self) -> list[str]:
        return [r.name for r in self._relations.values()]

    @property
    def foreign_keys(self) -> list[ForeignKey]:
        return list(self._foreign_keys)

    def has_relation(self, name: str) -> bool:
        return normalize(name) in self._relations

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[normalize(name)]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return self.has_relation(name)

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    # ------------------------------------------------------------------
    # graph views (consumed by repro.core.view_graph)
    # ------------------------------------------------------------------
    def foreign_keys_between(
        self, first: str, second: str
    ) -> list[ForeignKey]:
        """All FK-PK pairs connecting two relations, in either direction."""
        a, b = normalize(first), normalize(second)
        return [
            fk
            for fk in self._foreign_keys
            if {normalize(fk.source_relation), normalize(fk.target_relation)}
            == ({a, b} if a != b else {a})
        ]

    def neighbors(self, name: str) -> list[Relation]:
        """Relations that *name* refers to or is referred by (paper §4.2)."""
        center = self.relation(name).key
        seen: dict[str, Relation] = {}
        for fk in self._foreign_keys:
            src = normalize(fk.source_relation)
            dst = normalize(fk.target_relation)
            if src == center and dst != center:
                seen.setdefault(dst, self.relation(dst))
            elif dst == center and src != center:
                seen.setdefault(src, self.relation(src))
        return list(seen.values())

    def edges(self) -> list[tuple[str, str]]:
        """Undirected schema-graph edges as (relation, relation) name pairs,
        one per FK-PK pair (parallel edges collapse)."""
        seen: set[frozenset[str]] = set()
        result: list[tuple[str, str]] = []
        for fk in self._foreign_keys:
            edge = frozenset(
                (normalize(fk.source_relation), normalize(fk.target_relation))
            )
            if edge not in seen:
                seen.add(edge)
                result.append((fk.source_relation, fk.target_relation))
        return result

    def validate(self) -> None:
        """Check overall schema consistency; raises :class:`SchemaError`."""
        for fk in self._foreign_keys:
            source = self.relation(fk.source_relation)
            target = self.relation(fk.target_relation)
            source.attribute(fk.source_attribute)
            target.attribute(fk.target_attribute)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Catalog({self.name!r}, {len(self)} relations, "
            f"{len(self._foreign_keys)} foreign keys)"
        )
