"""Seeded request generation: query variants, zipf draws and writes.

A *variant* of one of the 48 shipped course queries (paper §7.3)
replaces every ``alias.column = 'literal'`` condition with another value
read from that column.  The same substitution is applied to the gold
SQL and to the derived Schema-free SQL, so each variant comes with a
known gold answer.  Over the courses database this gives 2,892 distinct
variants (the originals included).
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import random
from typing import Sequence

from repro.sqlkit import ast, parse, render
from repro.sqlkit.ast import transform

#: tables the course queries read that take one inserted row per write
WRITE_TABLES = (
    "enrollment",
    "completed",
    "teaches",
    "student_club",
    "section_textbook",
    "comment",
    "student_scholarship",
    "advisor",
)


@dataclasses.dataclass(frozen=True)
class Variant:
    """One request: a base query with its literal values substituted."""

    qid: str
    values: tuple[str, ...]
    gold_sql: str
    sf_sql: str


def _is_literal_condition(node: ast.Node) -> bool:
    """``alias.column = 'string literal'``."""
    return (
        isinstance(node, ast.BinaryOp)
        and node.op == "="
        and isinstance(node.left, ast.ColumnRef)
        and node.left.relation is not None
        and isinstance(node.right, ast.Literal)
        and isinstance(node.right.value, str)
    )


def _slot(node: ast.BinaryOp) -> tuple[str, str]:
    return node.left.relation.text.lower(), node.left.attribute.text.lower()


def _bindings(query: ast.Node) -> dict[str, str]:
    """binding (lower) -> relation name, over every block of *query*."""
    return {
        node.binding.lower(): node.name.text
        for node in query.walk()
        if isinstance(node, ast.TableRef)
    }


def _substitute(query: ast.Node, values: dict[tuple[str, str], str]) -> ast.Node:
    def fn(node: ast.Node):
        if _is_literal_condition(node) and _slot(node) in values:
            return dataclasses.replace(node, right=ast.Literal(values[_slot(node)]))
        return None

    return transform(query, fn)


class VariantSpace:
    """Every variant of a query set over one database, addressable by
    ``(qid, values)`` keys in a fixed order."""

    def __init__(self, database, queries: Sequence) -> None:
        self._queries = {}
        self.keys: list[tuple[str, tuple[str, ...]]] = []
        #: the key of each shipped query's own literal values
        self.originals: set[tuple[str, tuple[str, ...]]] = set()
        for query in queries:
            gold = parse(query.gold_sql)
            bindings = _bindings(gold)
            conditions = [node for node in gold.walk() if _is_literal_condition(node)]
            slots = []
            for node in conditions:
                binding, column = _slot(node)
                column_values = database.column_values(bindings[binding], column)
                slots.append(
                    ((binding, column), sorted({v for v in column_values if isinstance(v, str)}))
                )
            self._queries[query.qid] = (gold, parse(query.sf_sql), slots)
            for values in itertools.product(*(choices for _, choices in slots)):
                self.keys.append((query.qid, values))
            self.originals.add((query.qid, tuple(node.right.value for node in conditions)))

    def variant(self, key: tuple[str, tuple[str, ...]]) -> Variant:
        qid, values = key
        gold, sf, slots = self._queries[qid]
        mapping = {slot: value for (slot, _), value in zip(slots, values)}
        return Variant(
            qid,
            values,
            render(_substitute(gold, mapping)),
            render(_substitute(sf, mapping)),
        )


def shuffled_keys(
    space: VariantSpace, rng: random.Random, exclude=frozenset()
) -> list[tuple[str, tuple[str, ...]]]:
    """Every variant key not in *exclude*, in a seeded random order."""
    keys = [key for key in space.keys if key not in exclude]
    rng.shuffle(keys)
    return keys


def covering_split(keys: list) -> tuple[list, list]:
    """Split variant keys, keeping their order, into a *cover* and the
    rest.

    A key joins the cover when it carries a literal value not yet seen
    in the same slot of the same base query.  Warming a translator on
    the cover lets every later variant, though new as a whole, find each
    of its conditions already seen.
    """
    seen: set = set()
    cover, rest = [], []
    for qid, values in keys:
        slots = {(qid, index, value) for index, value in enumerate(values)}
        if slots - seen:
            seen |= slots
            cover.append((qid, values))
        else:
            rest.append((qid, values))
    return cover, rest


def zipf_draws(rng: random.Random, pool_size: int, count: int, s: float) -> list[int]:
    """*count* indices into a pool, rank ``r`` drawn with weight
    ``1 / (r + 1) ** s``."""
    cumulative = list(
        itertools.accumulate(1.0 / (rank + 1) ** s for rank in range(pool_size))
    )
    total = cumulative[-1]
    return [
        min(bisect.bisect_left(cumulative, rng.random() * total), pool_size - 1)
        for _ in range(count)
    ]


def make_writes(database, rng: random.Random, count: int) -> list[tuple[str, tuple]]:
    """*count* single-row inserts ``(table, row)``, rotating over
    :data:`WRITE_TABLES`.

    Each row copies a random existing row of its table, re-draws every
    foreign-key column from the referenced column's values, and takes
    the next integer for a single-column primary key, so every insert
    is valid and can change the answers of the queries that read it.
    """
    catalog = database.catalog
    next_id: dict[str, int] = {}
    writes = []
    for index in range(count):
        table = WRITE_TABLES[index % len(WRITE_TABLES)]
        relation = catalog.relation(table)
        rows = database.rows(table)
        row = dict(rng.choice(rows))
        for fk in catalog.foreign_keys:
            if fk.source_relation == table:
                targets = database.column_values(fk.target_relation, fk.target_attribute)
                row[fk.source_attribute] = rng.choice(targets)
        if len(relation.primary_key) == 1:
            pk = relation.primary_key[0]
            if table not in next_id:
                next_id[table] = max(r[pk] for r in rows) + 1
            row[pk] = next_id[table]
            next_id[table] += 1
        writes.append((table, tuple(row[a.key] for a in relation.attributes)))
    return writes


def insert_sql(database, table: str) -> str:
    relation = database.catalog.relation(table)
    placeholders = ", ".join("?" for _ in relation.attributes)
    return f"INSERT INTO {relation.name} VALUES ({placeholders})"
