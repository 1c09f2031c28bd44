"""Abstract syntax tree for SQL and Schema-free SQL.

All nodes are frozen dataclasses.  Rewriting (e.g. the Standard SQL
Composer replacing guessed names with exact catalog names, paper §6.2)
goes through :func:`transform`, which rebuilds the tree bottom-up and
can stop at sub-query boundaries.

Schema-free name uncertainty is carried by :class:`NameTerm`: every
relation or attribute name in the tree records whether the user wrote it
exactly, guessed it (``foo?``), bound it to a dummy variable (``?x``) or
left it anonymous (``?``).  Plain SQL parses to trees whose every NameTerm
is EXACT, so one AST serves both languages.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Union


class Certainty(enum.Enum):
    """How sure the user was about a schema-element name (paper §2.1)."""

    EXACT = "exact"    # plain identifier
    GUESS = "guess"    # ``foo?``
    VAR = "var"        # ``?x``
    ANON = "anon"      # bare ``?`` (parser assigns a fresh dummy variable)


@dataclass(frozen=True)
class NameTerm:
    """One (possibly uncertain) schema-element name."""

    text: str
    certainty: Certainty = Certainty.EXACT

    @property
    def is_known(self) -> bool:
        """True when the user supplied an actual name (exact or guessed)."""
        return self.certainty in (Certainty.EXACT, Certainty.GUESS)

    def render(self) -> str:
        if self.certainty is Certainty.EXACT:
            return self.text
        if self.certainty is Certainty.GUESS:
            return f"{self.text}?"
        if self.certainty is Certainty.VAR:
            return f"?{self.text}"
        return "?"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def exact(name: str) -> NameTerm:
    """Shorthand for an exactly-specified name."""
    return NameTerm(name, Certainty.EXACT)


class Node:
    """Base class for all AST nodes."""

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes (descending into tuples)."""
        for name in _field_names(type(self)):
            yield from _nodes_in(getattr(self, name))

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


#: node class -> its dataclass field names, in constructor order
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _field_names(cls: type) -> tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = tuple(field.name for field in dataclasses.fields(cls))
        _FIELD_NAMES[cls] = names
    return names


def _nodes_in(value: Any) -> Iterator[Node]:
    if isinstance(value, Node):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _nodes_in(item)


def transform(
    node: Node,
    fn: Callable[[Node], Optional[Node]],
    within_block: bool = False,
) -> Node:
    """Rebuild *node* bottom-up, replacing each node with ``fn(node)``.

    *fn* receives a node whose children have already been transformed and
    returns either a replacement node or ``None`` to keep it unchanged.

    With ``within_block`` the walk stays inside *node*'s own query block
    (the Standard SQL Composer rewrites one block at a time, §6.2): a
    :class:`Select` or :class:`SetOp` below *node* is kept as it is and
    *fn* never sees it or anything inside it, while the sub-query
    wrapper around it (``IN (...)``, ``EXISTS``, ...) is still visited.
    """
    names = _field_names(type(node))
    values = None
    for index, name in enumerate(names):
        value = getattr(node, name)
        if not isinstance(value, (Node, tuple)):
            continue  # a name, literal value, flag or None
        new_value = _transform_value(value, fn, within_block)
        if new_value is not value:
            if values is None:
                values = [getattr(node, other) for other in names]
            values[index] = new_value
    if values is not None:
        # every field is an __init__ parameter, in field order
        node = type(node)(*values)
    replaced = fn(node)
    return node if replaced is None else replaced


def _transform_value(
    value: Any, fn: Callable[[Node], Optional[Node]], within_block: bool
) -> Any:
    if isinstance(value, Node):
        if within_block and isinstance(value, (Select, SetOp)):
            return value
        return transform(value, fn, within_block)
    if isinstance(value, tuple) and value:
        items = tuple(
            _transform_value(item, fn, within_block) for item in value
        )
        if any(a is not b for a, b in zip(items, value)):
            return items
        return value
    return value


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Literal(Node):
    """A constant: number, string, boolean, or NULL (``value is None``)."""

    value: Any


@dataclass(frozen=True)
class ColumnRef(Node):
    """A column reference, optionally qualified: ``[relation.]attribute``.

    Either part may be uncertain; ``year?`` parses to an unqualified
    ColumnRef whose attribute NameTerm is a GUESS.
    """

    attribute: NameTerm
    relation: Optional[NameTerm] = None

    def render(self) -> str:
        if self.relation is not None:
            return f"{self.relation.render()}.{self.attribute.render()}"
        return self.attribute.render()


@dataclass(frozen=True)
class Star(Node):
    """``*`` or ``relation.*`` in a SELECT list or COUNT."""

    qualifier: Optional[NameTerm] = None


@dataclass(frozen=True)
class FuncCall(Node):
    """A function call, aggregate or scalar; ``COUNT(*)`` has a Star arg."""

    name: str
    args: tuple[Node, ...] = ()
    distinct: bool = False


@dataclass(frozen=True)
class UnaryOp(Node):
    op: str  # ``-`` | ``+`` | ``NOT``
    operand: Node


@dataclass(frozen=True)
class BinaryOp(Node):
    op: str  # comparison, arithmetic, AND/OR, ``||``
    left: Node
    right: Node


@dataclass(frozen=True)
class Between(Node):
    expr: Node
    low: Node
    high: Node
    negated: bool = False


@dataclass(frozen=True)
class InList(Node):
    expr: Node
    items: tuple[Node, ...]
    negated: bool = False


@dataclass(frozen=True)
class Like(Node):
    expr: Node
    pattern: Node
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Node):
    expr: Node
    negated: bool = False


@dataclass(frozen=True)
class Case(Node):
    """``CASE [operand] WHEN ... THEN ... [ELSE ...] END``."""

    whens: tuple[tuple[Node, Node], ...]
    operand: Optional[Node] = None
    default: Optional[Node] = None


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectItem(Node):
    expr: Node
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef(Node):
    """One FROM-clause relation, possibly uncertain, possibly aliased."""

    name: NameTerm
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this table is referred to by in the rest of the query."""
        return self.alias if self.alias is not None else self.name.text


@dataclass(frozen=True)
class Join(Node):
    """An explicit ``JOIN ... ON`` between two FROM items."""

    left: Node  # TableRef | Join
    right: Node
    kind: str = "inner"  # inner | left | right | cross
    condition: Optional[Node] = None


@dataclass(frozen=True)
class OrderItem(Node):
    expr: Node
    ascending: bool = True


@dataclass(frozen=True)
class Select(Node):
    """A single SELECT block.

    In Schema-free SQL the FROM clause may be empty even though columns
    are referenced — the translator fills it in (join path relaxation).
    """

    items: tuple[SelectItem, ...]
    from_items: tuple[Node, ...] = ()  # TableRef | Join
    where: Optional[Node] = None
    group_by: tuple[Node, ...] = ()
    having: Optional[Node] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False


@dataclass(frozen=True)
class SetOp(Node):
    """``UNION [ALL]`` of two query blocks."""

    op: str  # currently only "union"
    left: Node  # Select | SetOp
    right: Node
    all: bool = False


#: Sub-query wrapper expressions -------------------------------------------

@dataclass(frozen=True)
class ScalarSubquery(Node):
    query: Node  # Select | SetOp


@dataclass(frozen=True)
class Exists(Node):
    query: Node
    negated: bool = False


@dataclass(frozen=True)
class InSubquery(Node):
    expr: Node
    query: Node
    negated: bool = False


@dataclass(frozen=True)
class QuantifiedCompare(Node):
    """``expr op ANY/ALL (subquery)``."""

    expr: Node
    op: str
    quantifier: str  # "any" | "all"
    query: Node


Query = Union[Select, SetOp]

SUBQUERY_NODES = (ScalarSubquery, Exists, InSubquery, QuantifiedCompare)


def subqueries_of(node: Node) -> Iterator[Node]:
    """Yield the Select/SetOp blocks *directly* nested inside *node* —
    i.e. first-level sub-queries only, without descending into them."""
    for child in node.children():
        if isinstance(child, (Select, SetOp)):
            yield child
        else:
            yield from subqueries_of(child)
