"""Render AST nodes back to SQL text.

Rendering is precedence-aware so round-tripping ``a AND (b OR c)`` keeps
its parentheses.  Schema-free uncertainty markers render back to their
surface forms (``foo?``, ``?x``, ``?``), so a partially-translated query
is always printable — useful for debugging and for showing the top-k
translations to the user (paper §2.2.4).
"""

from __future__ import annotations

import re

from . import ast
from .tokens import KEYWORDS

#: Names that can appear bare in SQL text; anything else must be quoted.
_PLAIN_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_$]*$")

#: Binding strength; higher binds tighter.  Used to decide parentheses.
_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "=": 4, "<>": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "||": 5,
    "*": 6, "/": 6, "%": 6,
}
_PREDICATE_LEVEL = 3  # BETWEEN / IN / LIKE / IS NULL

_QUERIES = (ast.Select, ast.SetOp)

_EXACT = ast.Certainty.EXACT


def render(node: ast.Node) -> str:
    """Render any query or expression node to SQL text."""
    if type(node) in _QUERIES:
        return _render_query(node)
    return _render_expr(node, 0)


def render_identifier(name: str) -> str:
    """Render *name* as a SQL identifier, quoting when required.

    Reserved words and names containing non-identifier characters (as in
    reflected real-world schemas — ``order``, ``line item``) are wrapped
    in double quotes with embedded ``"`` doubled, so the emitted SQL is
    accepted by SQLite and round-trips through our own tokenizer.
    """
    if _PLAIN_IDENT.match(name) and name.lower() not in KEYWORDS:
        return name
    escaped = name.replace('"', '""')
    return f'"{escaped}"'


def _render_name(term: ast.NameTerm) -> str:
    """Render a NameTerm; only EXACT names are plain identifiers that may
    need quoting — uncertainty markers keep their surface forms."""
    if term.certainty is _EXACT:
        return render_identifier(term.text)
    return term.render()


def _render_query(node: ast.Node) -> str:
    if isinstance(node, ast.SetOp):
        keyword = "UNION ALL" if node.all else "UNION"
        return f"{_render_query(node.left)} {keyword} {_render_query(node.right)}"
    assert isinstance(node, ast.Select)
    parts = ["SELECT"]
    if node.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_render_select_item(item) for item in node.items))
    if node.from_items:
        parts.append("FROM")
        parts.append(", ".join(_render_from_item(item) for item in node.from_items))
    if node.where is not None:
        parts.append("WHERE")
        parts.append(_render_expr(node.where, 0))
    if node.group_by:
        parts.append("GROUP BY")
        parts.append(", ".join(_render_expr(e, 0) for e in node.group_by))
    if node.having is not None:
        parts.append("HAVING")
        parts.append(_render_expr(node.having, 0))
    if node.order_by:
        parts.append("ORDER BY")
        parts.append(
            ", ".join(
                _render_expr(item.expr, 0) + ("" if item.ascending else " DESC")
                for item in node.order_by
            )
        )
    if node.limit is not None:
        parts.append(f"LIMIT {node.limit}")
        if node.offset is not None:
            parts.append(f"OFFSET {node.offset}")
    return " ".join(parts)


def _render_select_item(item: ast.SelectItem) -> str:
    text = _render_expr(item.expr, 0)
    if item.alias is not None:
        text += f" AS {render_identifier(item.alias)}"
    return text


def _render_from_item(item: ast.Node) -> str:
    if isinstance(item, ast.TableRef):
        text = _render_name(item.name)
        if item.alias is not None:
            text += f" AS {render_identifier(item.alias)}"
        return text
    if isinstance(item, ast.Join):
        left = _render_from_item(item.left)
        right = _render_from_item(item.right)
        keyword = {"inner": "JOIN", "left": "LEFT JOIN",
                   "right": "RIGHT JOIN", "cross": "CROSS JOIN"}[item.kind]
        text = f"{left} {keyword} {right}"
        if item.condition is not None:
            text += f" ON {_render_expr(item.condition, 0)}"
        return text
    raise TypeError(f"not a FROM item: {item!r}")  # pragma: no cover


def render_literal(value: object) -> str:
    """Render a literal value (the text of an :class:`ast.Literal`)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return str(value)


def _parenthesize(text: str, level: int, parent_level: int) -> str:
    return f"({text})" if level < parent_level else text


def _render_expr(node: ast.Node, parent_level: int) -> str:
    renderer = _RENDERERS.get(type(node))
    if renderer is None:  # pragma: no cover
        raise TypeError(f"cannot render {type(node).__name__}")
    return renderer(node, parent_level)


def render_column(node: ast.ColumnRef) -> str:
    """Render a column reference (the same text :func:`render` gives)."""
    text = _render_name(node.attribute)
    if node.relation is not None:
        text = f"{_render_name(node.relation)}.{text}"
    return text


def _literal(node: ast.Literal, parent_level: int) -> str:
    return render_literal(node.value)


def _column(node: ast.ColumnRef, parent_level: int) -> str:
    return render_column(node)


def _star(node: ast.Star, parent_level: int) -> str:
    return f"{_render_name(node.qualifier)}.*" if node.qualifier else "*"


def _func_call(node: ast.FuncCall, parent_level: int) -> str:
    inner = ", ".join(_render_expr(a, 0) for a in node.args)
    if node.distinct:
        inner = f"DISTINCT {inner}"
    return f"{node.name}({inner})"


def _unary(node: ast.UnaryOp, parent_level: int) -> str:
    if node.op == "not":
        text = f"NOT {_render_expr(node.operand, _PRECEDENCE['and'])}"
        return _parenthesize(text, _PRECEDENCE["and"], parent_level)
    return f"{node.op}{_render_expr(node.operand, 7)}"


def _binary(node: ast.BinaryOp, parent_level: int) -> str:
    level = _PRECEDENCE[node.op]
    op_text = node.op.upper() if node.op in ("and", "or") else node.op
    left = _render_expr(node.left, level)
    # right side of same-precedence needs parens only for non-associative
    # ops; comparisons never chain so bump the right side's requirement.
    right = _render_expr(node.right, level + (0 if node.op in ("and", "or") else 1))
    return _parenthesize(f"{left} {op_text} {right}", level, parent_level)


def _between(node: ast.Between, parent_level: int) -> str:
    keyword = "NOT BETWEEN" if node.negated else "BETWEEN"
    text = (
        f"{_render_expr(node.expr, _PREDICATE_LEVEL + 1)} {keyword} "
        f"{_render_expr(node.low, _PREDICATE_LEVEL + 1)} AND "
        f"{_render_expr(node.high, _PREDICATE_LEVEL + 1)}"
    )
    return _parenthesize(text, _PREDICATE_LEVEL, parent_level)


def _in_list(node: ast.InList, parent_level: int) -> str:
    keyword = "NOT IN" if node.negated else "IN"
    items = ", ".join(_render_expr(e, 0) for e in node.items)
    text = f"{_render_expr(node.expr, _PREDICATE_LEVEL + 1)} {keyword} ({items})"
    return _parenthesize(text, _PREDICATE_LEVEL, parent_level)


def _in_subquery(node: ast.InSubquery, parent_level: int) -> str:
    keyword = "NOT IN" if node.negated else "IN"
    text = (
        f"{_render_expr(node.expr, _PREDICATE_LEVEL + 1)} {keyword} "
        f"({_render_query(node.query)})"
    )
    return _parenthesize(text, _PREDICATE_LEVEL, parent_level)


def _like(node: ast.Like, parent_level: int) -> str:
    keyword = "NOT LIKE" if node.negated else "LIKE"
    text = (
        f"{_render_expr(node.expr, _PREDICATE_LEVEL + 1)} {keyword} "
        f"{_render_expr(node.pattern, _PREDICATE_LEVEL + 1)}"
    )
    return _parenthesize(text, _PREDICATE_LEVEL, parent_level)


def _is_null(node: ast.IsNull, parent_level: int) -> str:
    keyword = "IS NOT NULL" if node.negated else "IS NULL"
    text = f"{_render_expr(node.expr, _PREDICATE_LEVEL + 1)} {keyword}"
    return _parenthesize(text, _PREDICATE_LEVEL, parent_level)


def _exists(node: ast.Exists, parent_level: int) -> str:
    prefix = "NOT EXISTS" if node.negated else "EXISTS"
    return f"{prefix} ({_render_query(node.query)})"


def _scalar_subquery(node: ast.ScalarSubquery, parent_level: int) -> str:
    return f"({_render_query(node.query)})"


def _quantified(node: ast.QuantifiedCompare, parent_level: int) -> str:
    return (
        f"{_render_expr(node.expr, _PREDICATE_LEVEL + 1)} {node.op} "
        f"{node.quantifier.upper()} ({_render_query(node.query)})"
    )


def _case(node: ast.Case, parent_level: int) -> str:
    parts = ["CASE"]
    if node.operand is not None:
        parts.append(_render_expr(node.operand, 0))
    for condition, result in node.whens:
        parts.append(
            f"WHEN {_render_expr(condition, 0)} THEN {_render_expr(result, 0)}"
        )
    if node.default is not None:
        parts.append(f"ELSE {_render_expr(node.default, 0)}")
    parts.append("END")
    return " ".join(parts)


#: expression node class -> its renderer ``(node, parent level) -> text``
_RENDERERS = {
    ast.Literal: _literal,
    ast.ColumnRef: _column,
    ast.Star: _star,
    ast.FuncCall: _func_call,
    ast.UnaryOp: _unary,
    ast.BinaryOp: _binary,
    ast.Between: _between,
    ast.InList: _in_list,
    ast.InSubquery: _in_subquery,
    ast.Like: _like,
    ast.IsNull: _is_null,
    ast.Exists: _exists,
    ast.ScalarSubquery: _scalar_subquery,
    ast.QuantifiedCompare: _quantified,
    ast.Case: _case,
}
