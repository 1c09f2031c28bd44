"""Expression evaluation with SQL three-valued logic.

Rows are dictionaries keyed by lower-cased attribute name; a scope maps
lower-cased binding names (table name or alias) to one row each.  Scopes
chain outward so correlated sub-queries resolve free variables against
their enclosing query block, as required by the paper's block-at-a-time
nested-query processing (§2.2.5).

Unknown truth values are represented as ``None``; WHERE and HAVING keep a
row only when the condition evaluates to ``True``.
"""

from __future__ import annotations

import datetime
import re
from typing import Any, Callable, Optional

from ..sqlkit import ast
from .errors import ExecutionError, NameResolutionError
from .functions import call_scalar, is_aggregate

Row = dict[str, Any]


class Scope:
    """One level of name bindings: binding name -> current row."""

    def __init__(self, bindings: dict[str, Row], parent: Optional["Scope"] = None):
        self.bindings = bindings
        self.parent = parent

    def child(self, bindings: dict[str, Row]) -> "Scope":
        return Scope(bindings, parent=self)

    # ------------------------------------------------------------------
    def resolve(self, relation: Optional[str], attribute: str) -> Any:
        """Resolve ``[relation.]attribute`` through the scope chain."""
        attribute = attribute.lower()
        scope: Optional[Scope] = self
        while scope is not None:
            if relation is not None:
                row = scope.bindings.get(relation.lower())
                if row is not None:
                    if attribute in row:
                        return row[attribute]
                    raise NameResolutionError(
                        f"binding {relation!r} has no column {attribute!r}"
                    )
            else:
                matches = [
                    row for row in scope.bindings.values() if attribute in row
                ]
                if len(matches) > 1:
                    raise NameResolutionError(
                        f"ambiguous column {attribute!r}"
                    )
                if matches:
                    return matches[0][attribute]
            scope = scope.parent
        target = f"{relation}.{attribute}" if relation else attribute
        raise NameResolutionError(f"cannot resolve column {target!r}")


#: Signature of the callback used to run nested sub-queries.  It receives
#: the sub-query AST and the scope active at the point of reference and
#: returns the result rows as a list of tuples.
SubqueryRunner = Callable[[ast.Node, Scope], list[tuple]]


class Evaluator:
    """Evaluates expression ASTs against a :class:`Scope`."""

    #: node type -> the class's ``_eval_*`` function, filled on first
    #: use; every subclass gets its own (empty) table, so an override is
    #: never shadowed by an entry the base class cached
    _methods: dict[type, Callable] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._methods = {}

    def __init__(self, run_subquery: Optional[SubqueryRunner] = None) -> None:
        self._run_subquery = run_subquery

    # ------------------------------------------------------------------
    def evaluate(self, node: ast.Node, scope: Scope) -> Any:
        method = self._methods.get(type(node))
        if method is None:
            method = self._method_for(type(node))
        return method(self, node, scope)

    @classmethod
    def _method_for(cls, node_type: type) -> Callable:
        method = getattr(cls, f"_eval_{node_type.__name__.lower()}", None)
        if method is None:
            raise ExecutionError(f"cannot evaluate {node_type.__name__}")
        cls._methods[node_type] = method
        return method

    def is_true(self, node: ast.Node, scope: Scope) -> bool:
        """Three-valued condition check: only True passes."""
        return self.evaluate(node, scope) is True

    # -- leaves ---------------------------------------------------------
    def _eval_literal(self, node: ast.Literal, scope: Scope) -> Any:
        return node.value

    def _eval_columnref(self, node: ast.ColumnRef, scope: Scope) -> Any:
        relation = node.relation.text if node.relation is not None else None
        return scope.resolve(relation, node.attribute.text)

    # -- operators -------------------------------------------------------
    def _eval_unaryop(self, node: ast.UnaryOp, scope: Scope) -> Any:
        value = self.evaluate(node.operand, scope)
        if node.op == "not":
            return None if value is None else (not value)
        if value is None:
            return None
        if node.op == "-":
            return -value
        return +value

    def _eval_binaryop(self, node: ast.BinaryOp, scope: Scope) -> Any:
        op = node.op
        if op == "and":
            left = self.evaluate(node.left, scope)
            if left is False:
                return False
            right = self.evaluate(node.right, scope)
            if right is False:
                return False
            if left is None or right is None:
                return None
            return True
        if op == "or":
            left = self.evaluate(node.left, scope)
            if left is True:
                return True
            right = self.evaluate(node.right, scope)
            if right is True:
                return True
            if left is None or right is None:
                return None
            return False
        left = self.evaluate(node.left, scope)
        right = self.evaluate(node.right, scope)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return compare(op, left, right)
        if left is None or right is None:
            return None
        if op == "||":
            return f"{left}{right}"
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    raise ExecutionError("division by zero")
                result = left / right
                if isinstance(left, int) and isinstance(right, int):
                    return left // right if left % right == 0 else result
                return result
            if op == "%":
                if right == 0:
                    raise ExecutionError("modulo by zero")
                return left % right
        except TypeError as exc:
            raise ExecutionError(f"bad operands for {op!r}: {exc}") from exc
        raise ExecutionError(f"unknown operator {op!r}")  # pragma: no cover

    # -- predicates -------------------------------------------------------
    def _eval_between(self, node: ast.Between, scope: Scope) -> Any:
        value = self.evaluate(node.expr, scope)
        low = self.evaluate(node.low, scope)
        high = self.evaluate(node.high, scope)
        result = _and3(compare(">=", value, low), compare("<=", value, high))
        return _not3(result) if node.negated else result

    def _eval_inlist(self, node: ast.InList, scope: Scope) -> Any:
        value = self.evaluate(node.expr, scope)
        if value is None:
            return None
        saw_null = False
        for item in node.items:
            candidate = self.evaluate(item, scope)
            if candidate is None:
                saw_null = True
            elif compare("=", value, candidate) is True:
                return False if node.negated else True
        if saw_null:
            return None
        return True if node.negated else False

    def _eval_like(self, node: ast.Like, scope: Scope) -> Any:
        value = self.evaluate(node.expr, scope)
        pattern = self.evaluate(node.pattern, scope)
        if value is None or pattern is None:
            return None
        matched = like_match(str(value), str(pattern))
        return (not matched) if node.negated else matched

    def _eval_isnull(self, node: ast.IsNull, scope: Scope) -> Any:
        value = self.evaluate(node.expr, scope)
        is_null = value is None
        return (not is_null) if node.negated else is_null

    def _eval_case(self, node: ast.Case, scope: Scope) -> Any:
        if node.operand is not None:
            operand = self.evaluate(node.operand, scope)
            for condition, result in node.whens:
                if compare("=", operand, self.evaluate(condition, scope)) is True:
                    return self.evaluate(result, scope)
        else:
            for condition, result in node.whens:
                if self.evaluate(condition, scope) is True:
                    return self.evaluate(result, scope)
        if node.default is not None:
            return self.evaluate(node.default, scope)
        return None

    def _eval_funccall(self, node: ast.FuncCall, scope: Scope) -> Any:
        if is_aggregate(node.name):
            raise ExecutionError(
                f"aggregate {node.name}() used outside GROUP BY context"
            )
        args = [self.evaluate(arg, scope) for arg in node.args]
        return call_scalar(node.name, args)

    # -- sub-queries -------------------------------------------------------
    def _subquery_rows(self, query: ast.Node, scope: Scope) -> list[tuple]:
        if self._run_subquery is None:
            raise ExecutionError("sub-queries are not available in this context")
        return self._run_subquery(query, scope)

    def _eval_scalarsubquery(self, node: ast.ScalarSubquery, scope: Scope) -> Any:
        rows = self._subquery_rows(node.query, scope)
        if not rows:
            return None
        if len(rows) > 1:
            raise ExecutionError("scalar sub-query returned more than one row")
        if len(rows[0]) != 1:
            raise ExecutionError("scalar sub-query returned more than one column")
        return rows[0][0]

    def _eval_exists(self, node: ast.Exists, scope: Scope) -> Any:
        rows = self._subquery_rows(node.query, scope)
        found = bool(rows)
        return (not found) if node.negated else found

    def _eval_insubquery(self, node: ast.InSubquery, scope: Scope) -> Any:
        value = self.evaluate(node.expr, scope)
        if value is None:
            return None
        saw_null = False
        for row in self._subquery_rows(node.query, scope):
            candidate = row[0]
            if candidate is None:
                saw_null = True
            elif compare("=", value, candidate) is True:
                return False if node.negated else True
        if saw_null:
            return None
        return True if node.negated else False

    def _eval_quantifiedcompare(
        self, node: ast.QuantifiedCompare, scope: Scope
    ) -> Any:
        value = self.evaluate(node.expr, scope)
        results = [
            compare(node.op, value, row[0])
            for row in self._subquery_rows(node.query, scope)
        ]
        if node.quantifier == "any":
            if any(r is True for r in results):
                return True
            if any(r is None for r in results):
                return None
            return False
        # ALL
        if any(r is False for r in results):
            return False
        if any(r is None for r in results):
            return None
        return True


# ---------------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------------


def _not3(value: Any) -> Any:
    return None if value is None else (not value)


def _and3(left: Any, right: Any) -> Any:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _comparable(left: Any, right: Any) -> Optional[tuple[Any, Any]]:
    """Coerce *left*, *right* to a comparable pair, or None if incompatible."""
    if isinstance(left, bool) or isinstance(right, bool):
        if isinstance(left, bool) and isinstance(right, bool):
            return left, right
        return None
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left, right
    if isinstance(left, str) and isinstance(right, str):
        return left, right
    if isinstance(left, datetime.date) or isinstance(right, datetime.date):
        try:
            if isinstance(left, str):
                left = datetime.date.fromisoformat(left)
            if isinstance(right, str):
                right = datetime.date.fromisoformat(right)
        except ValueError:
            return None
        if isinstance(left, datetime.date) and isinstance(right, datetime.date):
            return left, right
    return None


def compare(op: str, left: Any, right: Any) -> Any:
    """SQL comparison with NULL propagation and type mismatch handling.

    Mismatched types compare unequal under ``=``/``<>`` (like most engines
    after failed coercion) and raise for ordering comparisons, which the
    similarity layer treats as "condition not satisfied".
    """
    if left is None or right is None:
        return None
    pair = _comparable(left, right)
    if pair is None:
        if op == "=":
            return False
        if op == "<>":
            return True
        raise ExecutionError(
            f"cannot order-compare {type(left).__name__} and {type(right).__name__}"
        )
    left, right = pair
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ExecutionError(f"unknown comparison {op!r}")  # pragma: no cover


def like_match(value: str, pattern: str) -> bool:
    """SQL LIKE with ``%`` and ``_`` wildcards, case-sensitive."""
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.fullmatch(regex, value, flags=re.DOTALL) is not None
