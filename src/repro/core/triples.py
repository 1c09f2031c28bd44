"""Expression-triple extraction (paper Section 3.1).

Every schema-relevant expression in a Schema-free SQL block is reduced to
an *expression triple* ``(relation name, attribute name, value condition)``
with unspecified entries marked ``None`` (the paper's ``*``).  Three kinds
of expressions contribute (verbatim from the paper):

(a) relation names in the FROM clause (with aliases),
(b) attribute names (with relation names if specified) in all other
    clauses,
(c) value constraint conditions in the WHERE clause.

Everything else — SQL keywords, aggregation functions, computation
symbols — is schema-irrelevant and passes through translation untouched.

Extraction works block-at-a-time: sub-queries are not descended into here;
the translator processes them as separate blocks (§2.2.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..sqlkit import ast


@dataclass(frozen=True)
class Condition:
    """One value constraint whose subject is a single column reference.

    ``predicate`` is the original WHERE predicate node; ``column`` is the
    subject occurrence inside it.  The similarity layer checks whether any
    value of a candidate column satisfies the predicate by re-evaluating
    it with the column reference bound to each candidate value (§4.3).
    """

    predicate: ast.Node
    column: ast.ColumnRef


@dataclass(frozen=True)
class ExpressionTriple:
    """(relation, attribute, condition) with None for unspecified entries."""

    relation: Optional[ast.NameTerm] = None
    alias: Optional[str] = None
    attribute: Optional[ast.NameTerm] = None
    condition: Optional[Condition] = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        rel = self.relation.render() if self.relation else "*"
        attr = self.attribute.render() if self.attribute else "*"
        cond = "..." if self.condition else "*"
        return f"({rel}, {attr}, {cond})"


@dataclass(frozen=True)
class JoinFragment:
    """A user-specified join-path fragment: equality between two qualified
    column references in the WHERE clause.  Fragments become views on the
    view graph (§5.1) rather than value conditions."""

    left: ast.ColumnRef
    right: ast.ColumnRef


@dataclass
class ExtractionResult:
    """All schema-relevant content of one query block."""

    triples: list[ExpressionTriple] = field(default_factory=list)
    fragments: list[JoinFragment] = field(default_factory=list)
    #: binding name (lower) -> TableRef for the block's FROM entries
    from_bindings: dict[str, ast.TableRef] = field(default_factory=dict)
    #: whether the block nests a first-level sub-query
    has_subqueries: bool = False


def extract(select: ast.Select) -> ExtractionResult:
    """Extract expression triples and join fragments from one SELECT block."""
    result = ExtractionResult()
    for table in _from_tables(select.from_items):
        binding = table.binding.lower()
        result.from_bindings[binding] = table
        result.triples.append(
            ExpressionTriple(relation=table.name, alias=table.alias)
        )

    conditions, fragments = _analyze_where(select.where)
    result.fragments = fragments
    condition_columns = {id(c.column): c for c in conditions}

    for node in _block_nodes(select):
        if isinstance(node, ast.ColumnRef):
            condition = condition_columns.get(id(node))
            result.triples.append(_triple_for(node, condition))
        elif isinstance(node, ast.SUBQUERY_NODES):
            result.has_subqueries = True
    return result


# ---------------------------------------------------------------------------
# walking (block-local: never descends into sub-queries)
# ---------------------------------------------------------------------------


def _from_tables(from_items: tuple[ast.Node, ...]) -> Iterator[ast.TableRef]:
    for item in from_items:
        if isinstance(item, ast.TableRef):
            yield item
        elif isinstance(item, ast.Join):
            yield from _from_tables((item.left, item.right))


def walk_block(node: ast.Node) -> Iterator[ast.Node]:
    """Walk an expression or block without entering nested sub-queries."""
    yield node
    for child in node.children():
        if isinstance(child, (ast.Select, ast.SetOp)):
            continue
        yield from walk_block(child)


def _block_nodes(select: ast.Select) -> Iterator[ast.Node]:
    """Every expression node of the block, in clause order (SELECT first,
    so the paper's rt1 ordering matches Figure 4)."""
    roots: list[ast.Node] = [item.expr for item in select.items]
    if select.where is not None:
        roots.append(select.where)
    roots.extend(select.group_by)
    if select.having is not None:
        roots.append(select.having)
    roots.extend(item.expr for item in select.order_by)
    # ON conditions of explicit joins are join fragments by construction,
    # but any column they mention is still schema-relevant content.
    for item in select.from_items:
        for node in _from_join_conditions(item):
            roots.append(node)
    for root in roots:
        yield from walk_block(root)


def _from_join_conditions(item: ast.Node) -> Iterator[ast.Node]:
    if isinstance(item, ast.Join):
        if item.condition is not None:
            yield item.condition
        yield from _from_join_conditions(item.left)
        yield from _from_join_conditions(item.right)


# ---------------------------------------------------------------------------
# WHERE analysis
# ---------------------------------------------------------------------------


def conjuncts_of(expr: Optional[ast.Node]) -> list[ast.Node]:
    """Split a boolean expression into top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return conjuncts_of(expr.left) + conjuncts_of(expr.right)
    return [expr]


def _is_value_expr(node: ast.Node) -> bool:
    """True when *node* contains no column references or sub-queries, so it
    can be evaluated to a constant for condition-satisfaction checks."""
    for descendant in walk_block(node):
        if isinstance(descendant, (ast.ColumnRef, ast.Select, ast.SetOp)):
            return False
        if isinstance(descendant, ast.SUBQUERY_NODES):
            return False
    return True


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}


def _analyze_where(
    where: Optional[ast.Node],
) -> tuple[list[Condition], list[JoinFragment]]:
    """Classify top-level WHERE conjuncts into value conditions (attached
    to their subject column) and join-path fragments."""
    conditions: list[Condition] = []
    fragments: list[JoinFragment] = []
    for conjunct in conjuncts_of(where):
        condition = _as_condition(conjunct)
        if condition is not None:
            conditions.append(condition)
            continue
        fragment = _as_fragment(conjunct)
        if fragment is not None:
            fragments.append(fragment)
    return conditions, fragments


def _as_condition(conjunct: ast.Node) -> Optional[Condition]:
    """A conjunct is a value condition when its subject is a single bare
    column reference and every other operand is a constant expression."""
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op in _FLIP:
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ast.ColumnRef) and _is_value_expr(right):
            return Condition(conjunct, left)
        if isinstance(right, ast.ColumnRef) and _is_value_expr(left):
            flipped = ast.BinaryOp(_FLIP[conjunct.op], right, left)
            return Condition(flipped, right)
        return None
    if isinstance(conjunct, ast.Between) and isinstance(conjunct.expr, ast.ColumnRef):
        if _is_value_expr(conjunct.low) and _is_value_expr(conjunct.high):
            return Condition(conjunct, conjunct.expr)
    if isinstance(conjunct, ast.InList) and isinstance(conjunct.expr, ast.ColumnRef):
        if all(_is_value_expr(item) for item in conjunct.items):
            return Condition(conjunct, conjunct.expr)
    if isinstance(conjunct, ast.Like) and isinstance(conjunct.expr, ast.ColumnRef):
        if _is_value_expr(conjunct.pattern):
            return Condition(conjunct, conjunct.expr)
    if isinstance(conjunct, ast.IsNull) and isinstance(conjunct.expr, ast.ColumnRef):
        return Condition(conjunct, conjunct.expr)
    return None


def _as_fragment(conjunct: ast.Node) -> Optional[JoinFragment]:
    if (
        isinstance(conjunct, ast.BinaryOp)
        and conjunct.op == "="
        and isinstance(conjunct.left, ast.ColumnRef)
        and isinstance(conjunct.right, ast.ColumnRef)
        and conjunct.left.relation is not None
        and conjunct.right.relation is not None
    ):
        return JoinFragment(conjunct.left, conjunct.right)
    return None


def _triple_for(
    column: ast.ColumnRef, condition: Optional[Condition]
) -> ExpressionTriple:
    return ExpressionTriple(
        relation=column.relation,
        alias=None,
        attribute=column.attribute,
        condition=condition,
    )
