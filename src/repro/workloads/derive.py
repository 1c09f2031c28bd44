"""Mechanical derivation of Schema-free SQL from gold full SQL.

The paper generates its experimental SF-SQL mechanically:

* §7.2 (textbook queries): "delete all the FK-PK join paths in WHERE
  clause and the relation names in the FROM clause, then merge all the
  column names with their corresponding relation names" — i.e. the FROM
  clause disappears and every column becomes ``Relation.column`` (when a
  relation occurs several times, its alias survives as a ``?alias``
  placeholder so the occurrences stay distinct);
* §7.3 (course queries): "deleting all the FK-PK join paths in the WHERE
  clauses and all the relations in the FROM clauses excepting the
  relations at the ends of each join path, which are typically used for
  selection or projection".

Both derivations work block-at-a-time and leave nested sub-queries to a
recursive pass.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..catalog import Catalog
from ..sqlkit import ast, parse, render


def _binding_map(select: ast.Select) -> dict[str, tuple[str, Optional[str]]]:
    """binding (lower) -> (relation name, alias or None)."""
    bindings: dict[str, tuple[str, Optional[str]]] = {}
    stack = list(select.from_items)
    while stack:
        item = stack.pop()
        if isinstance(item, ast.TableRef):
            bindings[item.binding.lower()] = (item.name.text, item.alias)
        elif isinstance(item, ast.Join):
            stack.extend((item.left, item.right))
    return bindings


def _is_join_conjunct(
    conjunct: ast.Node, bindings: dict[str, tuple[str, Optional[str]]]
) -> bool:
    if not (
        isinstance(conjunct, ast.BinaryOp)
        and conjunct.op == "="
        and isinstance(conjunct.left, ast.ColumnRef)
        and isinstance(conjunct.right, ast.ColumnRef)
    ):
        return False
    left, right = conjunct.left, conjunct.right
    if left.relation is None or right.relation is None:
        return False
    left_binding = left.relation.text.lower()
    right_binding = right.relation.text.lower()
    return (
        left_binding in bindings
        and right_binding in bindings
        and left_binding != right_binding
    )


def _split_where(
    select: ast.Select, bindings
) -> tuple[list[ast.Node], list[ast.Node]]:
    """(join conjuncts, value conjuncts) of the outer WHERE."""
    joins: list[ast.Node] = []
    values: list[ast.Node] = []
    stack = [select.where] if select.where is not None else []
    while stack:
        expr = stack.pop()
        if isinstance(expr, ast.BinaryOp) and expr.op == "and":
            stack.extend((expr.left, expr.right))
        elif _is_join_conjunct(expr, bindings):
            joins.append(expr)
        else:
            values.append(expr)
    return joins, values


def _and_all(conjuncts: list[ast.Node]) -> Optional[ast.Node]:
    if not conjuncts:
        return None
    combined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        combined = ast.BinaryOp("and", combined, conjunct)
    return combined


def _referenced_bindings(select: ast.Select, value_conjuncts) -> set[str]:
    """Bindings used by selection/projection/grouping — the 'end
    relations' of §7.3."""
    roots: list[ast.Node] = [item.expr for item in select.items]
    roots.extend(value_conjuncts)
    roots.extend(select.group_by)
    if select.having is not None:
        roots.append(select.having)
    roots.extend(item.expr for item in select.order_by)
    used: set[str] = set()
    for root in roots:
        for node in _walk_block(root):
            if isinstance(node, ast.ColumnRef) and node.relation is not None:
                used.add(node.relation.text.lower())
    return used


def _walk_block(node: ast.Node):
    yield node
    for child in node.children():
        if isinstance(child, (ast.Select, ast.SetOp)):
            continue
        yield from _walk_block(child)


def _recurse_subqueries(select: ast.Select, derive) -> ast.Select:
    def rewrite(node: ast.Node):
        if isinstance(node, ast.SUBQUERY_NODES):
            return dataclasses.replace(node, query=derive(node.query))
        return None

    return ast.transform(select, rewrite, within_block=True)


# ---------------------------------------------------------------------------
# §7.2: textbook derivation (no FROM at all; qualified guessed columns)
# ---------------------------------------------------------------------------


def derive_textbook_sfsql(gold_sql: str) -> str:
    """Derive the §7.2-style SF-SQL: FROM removed, join paths removed,
    every column merged with its relation name as a guess."""
    return render(_derive_textbook(parse(gold_sql)))


def _derive_textbook(query: ast.Node) -> ast.Node:
    if isinstance(query, ast.SetOp):
        return dataclasses.replace(
            query,
            left=_derive_textbook(query.left),
            right=_derive_textbook(query.right),
        )
    assert isinstance(query, ast.Select)
    select = query
    bindings = _binding_map(select)
    relation_occurrences: dict[str, int] = {}
    for relation, _alias in bindings.values():
        key = relation.lower()
        relation_occurrences[key] = relation_occurrences.get(key, 0) + 1
    _, values = _split_where(select, bindings)

    def requalify(node: ast.Node):
        if not isinstance(node, ast.ColumnRef):
            return None
        attribute = ast.NameTerm(node.attribute.text, ast.Certainty.GUESS)
        if node.relation is None:
            # "merge all the column names with their corresponding
            # relation names" (§7.2): an unqualified column belongs to
            # the block's single FROM relation
            if len(bindings) == 1:
                relation, _alias = next(iter(bindings.values()))
                return ast.ColumnRef(
                    attribute=attribute,
                    relation=ast.NameTerm(relation, ast.Certainty.GUESS),
                )
            return dataclasses.replace(node, attribute=attribute)
        binding = node.relation.text.lower()
        if binding not in bindings:
            return dataclasses.replace(node, attribute=attribute)
        relation, alias = bindings[binding]
        if relation_occurrences[relation.lower()] > 1:
            # self-join: keep occurrences apart with a bound placeholder
            qualifier = ast.NameTerm(binding, ast.Certainty.VAR)
        else:
            qualifier = ast.NameTerm(relation, ast.Certainty.GUESS)
        return ast.ColumnRef(attribute=attribute, relation=qualifier)

    rewritten = ast.transform(select, requalify, within_block=True)
    rewritten = dataclasses.replace(
        rewritten,
        from_items=(),
        where=_and_all(
            [ast.transform(v, requalify, within_block=True) for v in values]
        ),
    )
    return _recurse_subqueries(rewritten, _derive_textbook)


# ---------------------------------------------------------------------------
# §7.3: course derivation (keep only end relations in FROM)
# ---------------------------------------------------------------------------


def derive_course_sfsql(gold_sql: str) -> str:
    """Derive the §7.3-style SF-SQL: drop FK-PK joins and every FROM
    relation that is not at the end of a join path."""
    return render(_derive_course(parse(gold_sql)))


def _derive_course(query: ast.Node) -> ast.Node:
    if isinstance(query, ast.SetOp):
        return dataclasses.replace(
            query,
            left=_derive_course(query.left),
            right=_derive_course(query.right),
        )
    assert isinstance(query, ast.Select)
    select = query
    bindings = _binding_map(select)
    _, values = _split_where(select, bindings)
    keep = _referenced_bindings(select, values)
    from_items = []
    stack = list(select.from_items)
    while stack:
        item = stack.pop(0)
        if isinstance(item, ast.TableRef):
            if item.binding.lower() in keep:
                from_items.append(item)
        elif isinstance(item, ast.Join):
            stack.extend((item.left, item.right))
    rewritten = dataclasses.replace(
        select,
        from_items=tuple(from_items),
        where=_and_all(values),
    )
    return _recurse_subqueries(rewritten, _derive_course)
