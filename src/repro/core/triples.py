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


@dataclass(frozen=True, slots=True)
class Condition:
    """One value constraint whose subject is a single column reference.

    ``predicate`` is the original WHERE predicate node; ``column`` is the
    subject occurrence inside it.  The similarity layer checks whether any
    value of a candidate column satisfies the predicate by re-evaluating
    it with the column reference bound to each candidate value (§4.3).
    """

    predicate: ast.Node
    column: ast.ColumnRef


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
    """Extract expression triples and join fragments from one SELECT block.

    The WHERE clause's top-level conjuncts are classified into value
    conditions and join fragments first; then one walk over the block's
    expression nodes collects the column references (in clause order,
    SELECT first, so the paper's rt1 ordering matches Figure 4) and
    notices first-level sub-queries.
    """
    result = ExtractionResult()
    triples = result.triples
    from_bindings = result.from_bindings
    for table in _from_tables(select.from_items):
        from_bindings[table.binding.lower()] = table
        triples.append(ExpressionTriple(relation=table.name, alias=table.alias))

    conjuncts = conjuncts_of(select.where)
    conditions, result.fragments = _analyze_where(conjuncts)
    condition_of = {id(c.column): c for c in conditions}

    roots: list[ast.Node] = [item.expr for item in select.items]
    # the WHERE's AND nodes hold no column: its conjuncts stand in for it
    roots.extend(conjuncts)
    roots.extend(select.group_by)
    if select.having is not None:
        roots.append(select.having)
    roots.extend(item.expr for item in select.order_by)
    # ON conditions of explicit joins are join fragments by construction,
    # but any column they mention is still schema-relevant content.
    roots.extend(_join_conditions(select.from_items))
    roots.reverse()
    stack = roots
    # pre-order over an explicit stack: the next node to visit is last
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is ast.ColumnRef:
            triples.append(
                ExpressionTriple(
                    node.relation, None, node.attribute, condition_of.get(id(node))
                )
            )
            continue
        if cls in _SUBQUERIES:
            result.has_subqueries = True
        children = node.children()
        for child in reversed(children):
            if type(child) not in _BLOCKS:
                stack.append(child)
    return result


#: sub-query wrappers, and the block classes a block-local walk skips
_SUBQUERIES = frozenset(ast.SUBQUERY_NODES)
_BLOCKS = frozenset({ast.Select, ast.SetOp})


# ---------------------------------------------------------------------------
# walking (block-local: never descends into sub-queries)
# ---------------------------------------------------------------------------


def _from_tables(from_items: tuple[ast.Node, ...]) -> Iterator[ast.TableRef]:
    for item in from_items:
        if isinstance(item, ast.TableRef):
            yield item
        elif isinstance(item, ast.Join):
            yield from _from_tables((item.left, item.right))


def _join_conditions(from_items: tuple[ast.Node, ...]) -> list[ast.Node]:
    """The ON conditions of the explicit joins among *from_items*, each
    join's own before those nested in its left and then right side."""
    found: list[ast.Node] = []
    stack = list(reversed(from_items))
    while stack:
        item = stack.pop()
        if isinstance(item, ast.Join):
            if item.condition is not None:
                found.append(item.condition)
            stack.append(item.right)
            stack.append(item.left)
    return found


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
    stack = [node]
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is ast.Literal:
            continue
        if cls is ast.ColumnRef or cls in _BLOCKS or cls in _SUBQUERIES:
            return False
        stack.extend(node.children())
    return True


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}


def _analyze_where(
    conjuncts: list[ast.Node],
) -> tuple[list[Condition], list[JoinFragment]]:
    """Classify top-level WHERE conjuncts into value conditions (attached
    to their subject column) and join-path fragments."""
    conditions: list[Condition] = []
    fragments: list[JoinFragment] = []
    for conjunct in conjuncts:
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
