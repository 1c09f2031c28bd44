"""Recursive-descent parser for SQL and Schema-free SQL.

One grammar serves both languages: plain SQL is the special case in which
every name is EXACT and the FROM clause is fully populated.  Schema-free
SQL additionally allows guessed names (``foo?``), placeholders (``?x``,
``?``) anywhere a relation or attribute name may appear, and an absent or
partial FROM clause (paper Section 2.1).

The supported SQL subset covers everything the paper's experiments need:
SELECT [DISTINCT], FROM with comma-lists, aliases and explicit JOIN..ON,
WHERE, GROUP BY, HAVING, ORDER BY, LIMIT/OFFSET, arithmetic, comparisons,
BETWEEN / IN / LIKE / IS NULL / EXISTS / ANY / ALL, CASE, scalar and
aggregate functions, UNION [ALL] and arbitrarily nested sub-queries.
"""

from __future__ import annotations

from typing import Optional

from . import ast
from .ast import Certainty, NameTerm
from .tokens import SqlSyntaxError, Token, TokenType
from .tokenizer import tokenize

_COMPARISON_OPS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})


class Parser:
    """Single-use parser over a token stream."""

    def __init__(self, sql: str) -> None:
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0
        self._anon_counter = 0

    # ------------------------------------------------------------------
    # token-stream helpers
    # ------------------------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def accept_keyword(self, *words: str) -> Optional[Token]:
        token = self.tokens[self.pos]
        if token.keyword in words:
            self.pos += 1  # a keyword is never EOF
            return token
        return None

    def expect_keyword(self, word: str) -> Token:
        token = self.accept_keyword(word)
        if token is None:
            self.error(f"expected {word.upper()}")
        return token

    def accept(self, token_type: TokenType, value: Optional[str] = None) -> Optional[Token]:
        token = self.current
        if token.type is token_type and (value is None or token.value == value):
            return self.advance()
        return None

    def expect(self, token_type: TokenType, value: Optional[str] = None) -> Token:
        token = self.accept(token_type, value)
        if token is None:
            what = value if value is not None else token_type.value
            self.error(f"expected {what!r}, found {self.current.value!r}")
        return token

    def error(self, message: str) -> None:
        raise SqlSyntaxError(message, self.sql, self.current.position)

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def parse_query(self) -> ast.Node:
        query = self._query()
        self.accept(TokenType.SEMICOLON)
        if self.current.type is not TokenType.EOF:
            self.error(f"unexpected trailing input {self.current.value!r}")
        return query

    def _query(self) -> ast.Node:
        left: ast.Node = self._select_block()
        while self.accept_keyword("union"):
            all_flag = self.accept_keyword("all") is not None
            right = self._select_block()
            left = ast.SetOp("union", left, right, all=all_flag)
        return left

    # ------------------------------------------------------------------
    # SELECT block
    # ------------------------------------------------------------------
    def _select_block(self) -> ast.Select:
        if self.accept(TokenType.LPAREN):
            query = self._query()
            self.expect(TokenType.RPAREN)
            if not isinstance(query, ast.Select):
                self.error("parenthesised UNION blocks are not supported here")
            return query  # type: ignore[return-value]
        self.expect_keyword("select")
        distinct = False
        if self.accept_keyword("distinct"):
            distinct = True
        else:
            self.accept_keyword("all")
        items = self._select_list()
        from_items: tuple[ast.Node, ...] = ()
        if self.accept_keyword("from"):
            from_items = self._from_list()
        where = self._expr() if self.accept_keyword("where") else None
        group_by: tuple[ast.Node, ...] = ()
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by = self._expr_list()
        having = self._expr() if self.accept_keyword("having") else None
        order_by: tuple[ast.OrderItem, ...] = ()
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by = self._order_list()
        limit = offset = None
        if self.accept_keyword("limit"):
            limit = int(self.expect(TokenType.NUMBER).value)
            if self.accept_keyword("offset"):
                offset = int(self.expect(TokenType.NUMBER).value)
        return ast.Select(
            items=items,
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _select_list(self) -> tuple[ast.SelectItem, ...]:
        items = [self._select_item()]
        while self.accept(TokenType.COMMA):
            items.append(self._select_item())
        return tuple(items)

    def _select_item(self) -> ast.SelectItem:
        if self.accept(TokenType.OPERATOR, "*"):
            return ast.SelectItem(ast.Star())
        expr = self._expr()
        alias = None
        if self.accept_keyword("as"):
            alias = self._alias_name()
        elif self.current.type is TokenType.IDENT:
            alias = self.advance().value
        return ast.SelectItem(expr, alias)

    def _alias_name(self) -> str:
        token = self.current
        if token.type in (TokenType.IDENT, TokenType.GUESS):
            self.advance()
            return token.value
        self.error("expected alias name")
        raise AssertionError  # pragma: no cover - error() always raises

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------
    def _from_list(self) -> tuple[ast.Node, ...]:
        items = [self._from_item()]
        while self.accept(TokenType.COMMA):
            items.append(self._from_item())
        return tuple(items)

    def _from_item(self) -> ast.Node:
        item: ast.Node = self._table_ref()
        while True:
            kind = self._join_kind()
            if kind is None:
                return item
            right = self._table_ref()
            condition = self._expr() if self.accept_keyword("on") else None
            item = ast.Join(item, right, kind=kind, condition=condition)

    def _join_kind(self) -> Optional[str]:
        if self.accept_keyword("join"):
            return "inner"
        for kind in ("inner", "left", "right", "cross"):
            if self.current.keyword == kind:
                self.advance()
                self.accept_keyword("outer")
                self.expect_keyword("join")
                return kind
        return None

    def _table_ref(self) -> ast.TableRef:
        name = self._name_term()
        alias = None
        if self.accept_keyword("as"):
            alias = self._alias_name()
        elif self.current.type is TokenType.IDENT:
            alias = self.advance().value
        return ast.TableRef(name, alias)

    # ------------------------------------------------------------------
    # names
    # ------------------------------------------------------------------
    def _name_term(self) -> NameTerm:
        token = self.current
        if token.type is TokenType.IDENT:
            self.advance()
            return NameTerm(token.value, Certainty.EXACT)
        if token.type is TokenType.GUESS:
            self.advance()
            return NameTerm(token.value, Certainty.GUESS)
        if token.type is TokenType.VAR:
            self.advance()
            return NameTerm(token.value, Certainty.VAR)
        if token.type is TokenType.ANON:
            self.advance()
            self._anon_counter += 1
            return NameTerm(f"_anon{self._anon_counter}", Certainty.ANON)
        self.error(f"expected a name, found {token.value!r}")
        raise AssertionError  # pragma: no cover

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _expr_list(self) -> tuple[ast.Node, ...]:
        items = [self._expr()]
        while self.accept(TokenType.COMMA):
            items.append(self._expr())
        return tuple(items)

    def _order_list(self) -> tuple[ast.OrderItem, ...]:
        items = []
        while True:
            expr = self._expr()
            ascending = True
            if self.accept_keyword("desc"):
                ascending = False
            else:
                self.accept_keyword("asc")
            items.append(ast.OrderItem(expr, ascending))
            if not self.accept(TokenType.COMMA):
                return tuple(items)

    def _expr(self) -> ast.Node:
        return self._or_expr()

    def _or_expr(self) -> ast.Node:
        left = self._and_expr()
        while self.accept_keyword("or"):
            left = ast.BinaryOp("or", left, self._and_expr())
        return left

    def _and_expr(self) -> ast.Node:
        left = self._not_expr()
        while self.accept_keyword("and"):
            left = ast.BinaryOp("and", left, self._not_expr())
        return left

    def _not_expr(self) -> ast.Node:
        if self.accept_keyword("not"):
            return ast.UnaryOp("not", self._not_expr())
        return self._predicate()

    def _predicate(self) -> ast.Node:
        left = self._additive()
        token = self.current
        if token.type is TokenType.OPERATOR and token.value in _COMPARISON_OPS:
            op = self.advance().value
            if op == "!=":
                op = "<>"
            quantifier = None
            if self.current.keyword in ("any", "all"):
                quantifier = self.advance().keyword
            if quantifier is not None:
                self.expect(TokenType.LPAREN)
                query = self._query()
                self.expect(TokenType.RPAREN)
                return ast.QuantifiedCompare(left, op, quantifier, query)
            return ast.BinaryOp(op, left, self._additive())
        negated = False
        if self.current.keyword == "not":
            after = self.peek()
            if after.keyword in ("between", "in", "like"):
                self.advance()
                negated = True
        if self.accept_keyword("between"):
            low = self._additive()
            self.expect_keyword("and")
            high = self._additive()
            return ast.Between(left, low, high, negated=negated)
        if self.accept_keyword("in"):
            self.expect(TokenType.LPAREN)
            if self.current.keyword == "select":
                query = self._query()
                self.expect(TokenType.RPAREN)
                return ast.InSubquery(left, query, negated=negated)
            items = self._expr_list()
            self.expect(TokenType.RPAREN)
            return ast.InList(left, items, negated=negated)
        if self.accept_keyword("like"):
            return ast.Like(left, self._additive(), negated=negated)
        if self.accept_keyword("is"):
            is_negated = self.accept_keyword("not") is not None
            self.expect_keyword("null")
            return ast.IsNull(left, negated=is_negated)
        return left

    def _additive(self) -> ast.Node:
        left = self._multiplicative()
        while True:
            token = self.current
            if token.type is TokenType.OPERATOR and token.value in ("+", "-", "||"):
                self.advance()
                left = ast.BinaryOp(token.value, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> ast.Node:
        left = self._unary()
        while True:
            token = self.current
            if token.type is TokenType.OPERATOR and token.value in ("*", "/", "%"):
                self.advance()
                left = ast.BinaryOp(token.value, left, self._unary())
            else:
                return left

    def _unary(self) -> ast.Node:
        token = self.current
        if token.type is TokenType.OPERATOR and token.value in ("-", "+"):
            self.advance()
            return ast.UnaryOp(token.value, self._unary())
        return self._primary()

    def _primary(self) -> ast.Node:
        token = self.current
        if token.type is TokenType.NUMBER:
            self.advance()
            text = token.value
            return ast.Literal(float(text) if "." in text else int(text))
        if token.type is TokenType.STRING:
            self.advance()
            return ast.Literal(token.value)
        if token.keyword == "null":
            self.advance()
            return ast.Literal(None)
        if token.keyword == "case":
            return self._case()
        if token.keyword == "exists":
            self.advance()
            self.expect(TokenType.LPAREN)
            query = self._query()
            self.expect(TokenType.RPAREN)
            return ast.Exists(query)
        if token.type is TokenType.LPAREN:
            self.advance()
            if self.current.keyword == "select":
                query = self._query()
                self.expect(TokenType.RPAREN)
                return ast.ScalarSubquery(query)
            expr = self._expr()
            self.expect(TokenType.RPAREN)
            return expr
        if token.type in (
            TokenType.IDENT,
            TokenType.GUESS,
            TokenType.VAR,
            TokenType.ANON,
        ):
            # function call?
            if (
                token.type is TokenType.IDENT
                and self.peek().type is TokenType.LPAREN
            ):
                return self._func_call()
            return self._column_ref()
        self.error(f"unexpected token {token.value!r}")
        raise AssertionError  # pragma: no cover

    def _case(self) -> ast.Node:
        self.expect_keyword("case")
        operand = None
        if self.current.keyword != "when":
            operand = self._expr()
        whens: list[tuple[ast.Node, ast.Node]] = []
        while self.accept_keyword("when"):
            condition = self._expr()
            self.expect_keyword("then")
            result = self._expr()
            whens.append((condition, result))
        if not whens:
            self.error("CASE requires at least one WHEN branch")
        default = self._expr() if self.accept_keyword("else") else None
        self.expect_keyword("end")
        return ast.Case(tuple(whens), operand, default)

    def _func_call(self) -> ast.Node:
        name = self.expect(TokenType.IDENT).value
        self.expect(TokenType.LPAREN)
        distinct = self.accept_keyword("distinct") is not None
        args: list[ast.Node] = []
        if self.accept(TokenType.OPERATOR, "*"):
            args.append(ast.Star())
        elif self.current.type is not TokenType.RPAREN:
            args.append(self._expr())
            while self.accept(TokenType.COMMA):
                args.append(self._expr())
        self.expect(TokenType.RPAREN)
        return ast.FuncCall(name.lower(), tuple(args), distinct=distinct)

    def _column_ref(self) -> ast.Node:
        first = self._name_term()
        if self.accept(TokenType.DOT):
            if self.accept(TokenType.OPERATOR, "*"):
                return ast.Star(qualifier=first)
            second = self._name_term()
            return ast.ColumnRef(attribute=second, relation=first)
        return ast.ColumnRef(attribute=first)


def parse(sql: str) -> ast.Node:
    """Parse *sql* (SQL or Schema-free SQL) into an AST query node."""
    return Parser(sql).parse_query()


def parse_expression(sql: str) -> ast.Node:
    """Parse a standalone expression (used by tests and the engine)."""
    parser = Parser(sql)
    expr = parser._expr()
    if parser.current.type is not TokenType.EOF:
        parser.error(f"unexpected trailing input {parser.current.value!r}")
    return expr
