"""Abstract syntax tree for SQL and Schema-free SQL.

All nodes are frozen, slotted dataclasses, so a subtree may be shared
by many trees.  Rewriting (e.g. the Standard SQL Composer replacing
guessed names with exact catalog names, paper §6.2) goes through
:func:`transform`, which rebuilds the tree bottom-up, only along the
paths to what it replaced, and can stop at sub-query boundaries.

Schema-free name uncertainty is carried by :class:`NameTerm`: every
relation or attribute name in the tree records whether the user wrote it
exactly, guessed it (``foo?``), bound it to a dummy variable (``?x``) or
left it anonymous (``?``).  Plain SQL parses to trees whose every NameTerm
is EXACT, so one AST serves both languages.
"""

from __future__ import annotations

import dataclasses
import enum
import typing
from dataclasses import dataclass
from typing import Any, Callable, Container, Iterator, Optional, Union


class Certainty(enum.Enum):
    """How sure the user was about a schema-element name (paper §2.1)."""

    EXACT = "exact"    # plain identifier
    GUESS = "guess"    # ``foo?``
    VAR = "var"        # ``?x``
    ANON = "anon"      # bare ``?`` (parser assigns a fresh dummy variable)


#: the members, bound once: reading a member off an enum class costs a
#: descriptor call on every access
_EXACT, _GUESS, _VAR = Certainty.EXACT, Certainty.GUESS, Certainty.VAR


@dataclass(frozen=True, slots=True)
class NameTerm:
    """One (possibly uncertain) schema-element name."""

    text: str
    certainty: Certainty = Certainty.EXACT

    @property
    def is_known(self) -> bool:
        """True when the user supplied an actual name (exact or guessed)."""
        certainty = self.certainty
        return certainty is _EXACT or certainty is _GUESS

    def render(self) -> str:
        certainty = self.certainty
        if certainty is _EXACT:
            return self.text
        if certainty is _GUESS:
            return f"{self.text}?"
        if certainty is _VAR:
            return f"?{self.text}"
        return "?"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def exact(name: str) -> NameTerm:
    """Shorthand for an exactly-specified name."""
    return NameTerm(name, _EXACT)


class Node:
    """Base class for all AST nodes."""

    __slots__ = ()

    def children(self) -> list["Node"]:
        """The direct child nodes, in field order (descending into tuples)."""
        found: list[Node] = []
        for _, name, shape in _spec(type(self))[1]:
            value = getattr(self, name)
            if shape is _ONE:
                if value is not None:
                    found.append(value)
            elif shape is _MANY:
                found.extend(value)
            else:
                for pair in value:
                    found.extend(pair)
        return found

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants, pre-order."""
        stack: list[Node] = [self]
        while stack:
            node = stack.pop()
            yield node
            children = node.children()
            children.reverse()
            stack.extend(children)


#: How a field holds nodes: one node (or None), a tuple of nodes, or a
#: tuple of node pairs (``Case.whens``).
_ONE, _MANY, _PAIRS = "one", "many", "pairs"

#: node class -> ``(field names, node fields)``: every dataclass field
#: in constructor order, and ``(index, name, shape)`` of the fields that
#: can hold nodes.  Names, literal values and flags are never read.
_SPECS: dict[type, tuple[tuple[str, ...], tuple[tuple[int, str, str], ...]]] = {}


def _spec(cls: type) -> tuple[tuple[str, ...], tuple[tuple[int, str, str], ...]]:
    spec = _SPECS.get(cls)
    if spec is None:
        hints = typing.get_type_hints(cls)
        names = tuple(field.name for field in dataclasses.fields(cls))
        node_fields = tuple(
            (index, name, shape)
            for index, name in enumerate(names)
            for shape in (_shape(hints[name]),)
            if shape is not None
        )
        spec = _SPECS[cls] = (names, node_fields)
    return spec


def _is_node_type(hint: Any) -> bool:
    return isinstance(hint, type) and issubclass(hint, Node)


def _shape(hint: Any) -> Optional[str]:
    """The shape of a field annotated *hint*, or None for a scalar."""
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is Union:
        present = [arg for arg in args if arg is not type(None)]
        if len(present) == 1:
            return _shape(present[0])
        return _ONE if all(map(_is_node_type, present)) else None
    if _is_node_type(hint):
        return _ONE
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        item = args[0]
        if _is_node_type(item):
            return _MANY
        if typing.get_origin(item) is tuple and all(
            map(_is_node_type, typing.get_args(item))
        ):
            return _PAIRS
    return None


def transform(
    node: Node,
    fn: Callable[[Node], Optional[Node]],
    within_block: bool = False,
    only: Union[type, tuple[type, ...], None] = None,
) -> Node:
    """Rebuild *node* bottom-up, replacing each node with ``fn(node)``.

    *fn* receives a node whose children have already been transformed and
    returns either a replacement node or ``None`` to keep it unchanged.
    With *only* (a node class or a tuple of them) *fn* sees nodes of
    exactly those classes and no others.  A node none of whose children
    changed is kept as it is, so an unchanged subtree comes back as the
    same object.

    With ``within_block`` the walk stays inside *node*'s own query block
    (the Standard SQL Composer rewrites one block at a time, §6.2): a
    :class:`Select` or :class:`SetOp` below *node* is kept as it is and
    *fn* never sees it or anything inside it, while the sub-query
    wrapper around it (``IN (...)``, ``EXISTS``, ...) is still visited.
    """
    if isinstance(only, type):
        only = (only,)
    return _transform(node, fn, _BLOCKS if within_block else (), only)


def _transform(
    node: Node,
    fn: Callable[[Node], Optional[Node]],
    kept: Container[type],
    only: Optional[tuple[type, ...]],
) -> Node:
    """:func:`transform`, keeping nodes of the classes in *kept* as they
    are and calling *fn* on nodes of the classes in *only* (all, when
    None)."""
    cls = type(node)
    names, node_fields = _SPECS.get(cls) or _spec(cls)
    values = None
    for index, name, shape in node_fields:
        value = getattr(node, name)
        if shape is _ONE:
            if value is None:
                continue
            value_cls = type(value)
            if value_cls in _LEAVES:  # no children: no call to rebuild it
                if only is not None and value_cls not in only:
                    continue
                new_value = fn(value)
                if new_value is None:
                    continue
            elif value_cls in kept:
                continue
            else:
                new_value = _transform(value, fn, kept, only)
        elif shape is _MANY:
            new_value = _transform_items(value, fn, kept, only)
        else:
            new_value = tuple(
                _transform_items(pair, fn, kept, only) for pair in value
            )
            if all(a is b for a, b in zip(new_value, value)):
                new_value = value
        if new_value is not value:
            if values is None:
                values = [getattr(node, other) for other in names]
            values[index] = new_value
    if values is not None:
        # every field is an __init__ parameter, in field order
        node = cls(*values)
    if only is not None and cls not in only:
        return node
    replaced = fn(node)
    return node if replaced is None else replaced


def _transform_items(
    items: tuple,
    fn: Callable[[Node], Optional[Node]],
    kept: Container[type],
    only: Optional[tuple[type, ...]],
) -> tuple:
    """*items* transformed, or *items* itself when none changed."""
    changed = None
    for index, item in enumerate(items):
        item_cls = type(item)
        if item_cls in _LEAVES:
            if only is not None and item_cls not in only:
                continue
            new_item = fn(item)
            if new_item is None:
                continue
        elif item_cls in kept:
            continue
        else:
            new_item = _transform(item, fn, kept, only)
        if new_item is not item:
            if changed is None:
                changed = list(items)
            changed[index] = new_item
    return items if changed is None else tuple(changed)


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Literal(Node):
    """A constant: number, string, boolean, or NULL (``value is None``)."""

    value: Any


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Star(Node):
    """``*`` or ``relation.*`` in a SELECT list or COUNT."""

    qualifier: Optional[NameTerm] = None


@dataclass(frozen=True, slots=True)
class FuncCall(Node):
    """A function call, aggregate or scalar; ``COUNT(*)`` has a Star arg."""

    name: str
    args: tuple[Node, ...] = ()
    distinct: bool = False


@dataclass(frozen=True, slots=True)
class UnaryOp(Node):
    op: str  # ``-`` | ``+`` | ``NOT``
    operand: Node


@dataclass(frozen=True, slots=True)
class BinaryOp(Node):
    op: str  # comparison, arithmetic, AND/OR, ``||``
    left: Node
    right: Node


@dataclass(frozen=True, slots=True)
class Between(Node):
    expr: Node
    low: Node
    high: Node
    negated: bool = False


@dataclass(frozen=True, slots=True)
class InList(Node):
    expr: Node
    items: tuple[Node, ...]
    negated: bool = False


@dataclass(frozen=True, slots=True)
class Like(Node):
    expr: Node
    pattern: Node
    negated: bool = False


@dataclass(frozen=True, slots=True)
class IsNull(Node):
    expr: Node
    negated: bool = False


@dataclass(frozen=True, slots=True)
class Case(Node):
    """``CASE [operand] WHEN ... THEN ... [ELSE ...] END``."""

    whens: tuple[tuple[Node, Node], ...]
    operand: Optional[Node] = None
    default: Optional[Node] = None


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SelectItem(Node):
    expr: Node
    alias: Optional[str] = None


@dataclass(frozen=True, slots=True)
class TableRef(Node):
    """One FROM-clause relation, possibly uncertain, possibly aliased."""

    name: NameTerm
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this table is referred to by in the rest of the query."""
        return self.alias if self.alias is not None else self.name.text


@dataclass(frozen=True, slots=True)
class Join(Node):
    """An explicit ``JOIN ... ON`` between two FROM items."""

    left: Node  # TableRef | Join
    right: Node
    kind: str = "inner"  # inner | left | right | cross
    condition: Optional[Node] = None


@dataclass(frozen=True, slots=True)
class OrderItem(Node):
    expr: Node
    ascending: bool = True


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class SetOp(Node):
    """``UNION [ALL]`` of two query blocks."""

    op: str  # currently only "union"
    left: Node  # Select | SetOp
    right: Node
    all: bool = False


#: Sub-query wrapper expressions -------------------------------------------

@dataclass(frozen=True, slots=True)
class ScalarSubquery(Node):
    query: Node  # Select | SetOp


@dataclass(frozen=True, slots=True)
class Exists(Node):
    query: Node
    negated: bool = False


@dataclass(frozen=True, slots=True)
class InSubquery(Node):
    expr: Node
    query: Node
    negated: bool = False


@dataclass(frozen=True, slots=True)
class QuantifiedCompare(Node):
    """``expr op ANY/ALL (subquery)``."""

    expr: Node
    op: str
    quantifier: str  # "any" | "all"
    query: Node


Query = Union[Select, SetOp]

#: the classes that start a query block of their own
_BLOCKS = frozenset({Select, SetOp})

#: the classes whose nodes have no child nodes
_LEAVES = frozenset({Literal, ColumnRef, Star, TableRef})

SUBQUERY_NODES = (ScalarSubquery, Exists, InSubquery, QuantifiedCompare)


def subqueries_of(node: Node) -> Iterator[Node]:
    """Yield the Select/SetOp blocks *directly* nested inside *node* —
    i.e. first-level sub-queries only, without descending into them."""
    for child in node.children():
        if isinstance(child, (Select, SetOp)):
            yield child
        else:
            yield from subqueries_of(child)
