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

#: enum members, bound once: reading a member off an enum class costs
#: a descriptor call on every access
_ANON = TokenType.ANON
_COMMA = TokenType.COMMA
_DOT = TokenType.DOT
_EOF = TokenType.EOF
_GUESS = TokenType.GUESS
_IDENT = TokenType.IDENT
_LPAREN = TokenType.LPAREN
_NUMBER = TokenType.NUMBER
_OPERATOR = TokenType.OPERATOR
_RPAREN = TokenType.RPAREN
_SEMICOLON = TokenType.SEMICOLON
_STRING = TokenType.STRING
_VAR = TokenType.VAR
_NAMES = (_IDENT, _GUESS, _VAR, _ANON)
_EXACT_NAME = Certainty.EXACT
_GUESSED = Certainty.GUESS
_VARIABLE = Certainty.VAR
_ANONYMOUS = Certainty.ANON

_COMPARISON_OPS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})

#: arithmetic operators by binding strength: ``*`` ``/`` ``%`` bind
#: tighter than ``+`` ``-`` ``||``
_ARITHMETIC = {"+": 1, "-": 1, "||": 1, "*": 2, "/": 2, "%": 2}


class Parser:
    """Single-use parser over a token stream."""

    def __init__(self, sql: str) -> None:
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0
        self._anon_counter = 0

    # ------------------------------------------------------------------
    # token-stream helpers (the current token is ``tokens[pos]``)
    # ------------------------------------------------------------------
    def peek(self, offset: int = 1) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not _EOF:
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
        token = self.tokens[self.pos]
        if token.type is token_type and (value is None or token.value == value):
            return self.advance()
        return None

    def expect(self, token_type: TokenType, value: Optional[str] = None) -> Token:
        token = self.accept(token_type, value)
        if token is None:
            what = value if value is not None else token_type.value
            self.error(f"expected {what!r}, found {self.tokens[self.pos].value!r}")
        return token

    def error(self, message: str) -> None:
        raise SqlSyntaxError(message, self.sql, self.tokens[self.pos].position)

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def parse_query(self) -> ast.Node:
        query = self._query()
        self.accept(_SEMICOLON)
        self._expect_end()
        return query

    def _expect_end(self) -> None:
        token = self.tokens[self.pos]
        if token.type is not _EOF:
            self.error(f"unexpected trailing input {token.value!r}")

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
        if self.accept(_LPAREN):
            query = self._query()
            self.expect(_RPAREN)
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
            limit = int(self.expect(_NUMBER).value)
            if self.accept_keyword("offset"):
                offset = int(self.expect(_NUMBER).value)
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
        while self.accept(_COMMA):
            items.append(self._select_item())
        return tuple(items)

    def _select_item(self) -> ast.SelectItem:
        if self.accept(_OPERATOR, "*"):
            return ast.SelectItem(ast.Star())
        expr = self._expr()
        return ast.SelectItem(expr, self._alias())

    def _alias(self) -> Optional[str]:
        """An ``[AS] alias`` after a select item or table, or None."""
        token = self.tokens[self.pos]
        if token.keyword == "as":
            self.pos += 1
            return self._alias_name()
        if token.type is _IDENT:
            self.pos += 1
            return token.value
        return None

    def _alias_name(self) -> str:
        token = self.tokens[self.pos]
        if token.type in (_IDENT, _GUESS):
            self.pos += 1
            return token.value
        self.error("expected alias name")
        raise AssertionError  # pragma: no cover - error() always raises

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------
    def _from_list(self) -> tuple[ast.Node, ...]:
        items = [self._from_item()]
        while self.accept(_COMMA):
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
            if self.tokens[self.pos].keyword == kind:
                self.pos += 1
                self.accept_keyword("outer")
                self.expect_keyword("join")
                return kind
        return None

    def _table_ref(self) -> ast.TableRef:
        name = self._name_term()
        return ast.TableRef(name, self._alias())

    # ------------------------------------------------------------------
    # names
    # ------------------------------------------------------------------
    def _name_term(self) -> NameTerm:
        token = self.tokens[self.pos]
        kind = token.type
        if kind is _IDENT:
            certainty = _EXACT_NAME
        elif kind is _GUESS:
            certainty = _GUESSED
        elif kind is _VAR:
            certainty = _VARIABLE
        elif kind is _ANON:
            self.pos += 1
            self._anon_counter += 1
            return NameTerm(f"_anon{self._anon_counter}", _ANONYMOUS)
        else:
            self.error(f"expected a name, found {token.value!r}")
        self.pos += 1
        return NameTerm(token.value, certainty)

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _expr_list(self) -> tuple[ast.Node, ...]:
        items = [self._expr()]
        while self.accept(_COMMA):
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
            if not self.accept(_COMMA):
                return tuple(items)

    def _expr(self) -> ast.Node:
        """An OR of ANDs of (possibly negated) predicates."""
        left = self._and_expr()
        while self.tokens[self.pos].keyword == "or":
            self.pos += 1
            left = ast.BinaryOp("or", left, self._and_expr())
        return left

    def _and_expr(self) -> ast.Node:
        left = self._not_expr()
        while self.tokens[self.pos].keyword == "and":
            self.pos += 1
            left = ast.BinaryOp("and", left, self._not_expr())
        return left

    def _not_expr(self) -> ast.Node:
        if self.tokens[self.pos].keyword == "not":
            self.pos += 1
            return ast.UnaryOp("not", self._not_expr())
        return self._predicate()

    def _predicate(self) -> ast.Node:
        left = self._arithmetic()
        token = self.tokens[self.pos]
        if token.type is _OPERATOR and token.value in _COMPARISON_OPS:
            self.pos += 1
            op = "<>" if token.value == "!=" else token.value
            quantifier = self.tokens[self.pos].keyword
            if quantifier in ("any", "all"):
                self.pos += 1
                self.expect(_LPAREN)
                query = self._query()
                self.expect(_RPAREN)
                return ast.QuantifiedCompare(left, op, quantifier, query)
            return ast.BinaryOp(op, left, self._arithmetic())
        keyword = token.keyword
        if keyword is None:
            return left  # every predicate form below starts with a keyword
        negated = False
        if keyword == "not":
            after = self.peek()
            if after.keyword in ("between", "in", "like"):
                self.pos += 1
                negated = True
        if self.accept_keyword("between"):
            low = self._arithmetic()
            self.expect_keyword("and")
            high = self._arithmetic()
            return ast.Between(left, low, high, negated=negated)
        if self.accept_keyword("in"):
            self.expect(_LPAREN)
            if self.tokens[self.pos].keyword == "select":
                query = self._query()
                self.expect(_RPAREN)
                return ast.InSubquery(left, query, negated=negated)
            items = self._expr_list()
            self.expect(_RPAREN)
            return ast.InList(left, items, negated=negated)
        if self.accept_keyword("like"):
            return ast.Like(left, self._arithmetic(), negated=negated)
        if self.accept_keyword("is"):
            is_negated = self.accept_keyword("not") is not None
            self.expect_keyword("null")
            return ast.IsNull(left, negated=is_negated)
        return left

    def _arithmetic(self, min_level: int = 1) -> ast.Node:
        """Arithmetic by precedence climbing: an operand, then every
        operator binding at least *min_level* with its right operand
        (which takes only tighter operators), left-associatively."""
        tokens = self.tokens
        # an operator here can only be a sign
        if tokens[self.pos].type is _OPERATOR:
            left = self._unary()
        else:
            left = self._primary()
        while True:
            token = tokens[self.pos]
            if token.type is not _OPERATOR:
                return left
            level = _ARITHMETIC.get(token.value)
            if level is None or level < min_level:
                return left
            self.pos += 1
            left = ast.BinaryOp(token.value, left, self._arithmetic(level + 1))

    def _unary(self) -> ast.Node:
        token = self.tokens[self.pos]
        if token.type is _OPERATOR and token.value in ("-", "+"):
            self.pos += 1
            return ast.UnaryOp(token.value, self._unary())
        return self._primary()

    def _primary(self) -> ast.Node:
        token = self.tokens[self.pos]
        if token.type is _NUMBER:
            self.pos += 1
            text = token.value
            return ast.Literal(float(text) if "." in text else int(text))
        if token.type is _STRING:
            self.pos += 1
            return ast.Literal(token.value)
        if token.keyword == "null":
            self.pos += 1
            return ast.Literal(None)
        if token.keyword == "case":
            return self._case()
        if token.keyword == "exists":
            self.pos += 1
            self.expect(_LPAREN)
            query = self._query()
            self.expect(_RPAREN)
            return ast.Exists(query)
        if token.type is _LPAREN:
            self.pos += 1
            if self.tokens[self.pos].keyword == "select":
                query = self._query()
                self.expect(_RPAREN)
                return ast.ScalarSubquery(query)
            expr = self._expr()
            self.expect(_RPAREN)
            return expr
        if token.type in _NAMES:
            # function call?  (a name is never EOF, so a token follows)
            if (
                token.type is _IDENT
                and self.tokens[self.pos + 1].type is _LPAREN
            ):
                return self._func_call()
            # a column reference: ``[relation.]attribute`` or ``relation.*``
            first = self._name_term()
            if self.tokens[self.pos].type is _DOT:
                self.pos += 1
                if self.accept(_OPERATOR, "*"):
                    return ast.Star(qualifier=first)
                second = self._name_term()
                return ast.ColumnRef(attribute=second, relation=first)
            return ast.ColumnRef(attribute=first)
        self.error(f"unexpected token {token.value!r}")
        raise AssertionError  # pragma: no cover

    def _case(self) -> ast.Node:
        self.expect_keyword("case")
        operand = None
        if self.tokens[self.pos].keyword != "when":
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
        name = self.expect(_IDENT).value
        self.expect(_LPAREN)
        distinct = self.accept_keyword("distinct") is not None
        args: list[ast.Node] = []
        if self.accept(_OPERATOR, "*"):
            args.append(ast.Star())
        elif self.tokens[self.pos].type is not _RPAREN:
            args.append(self._expr())
            while self.accept(_COMMA):
                args.append(self._expr())
        self.expect(_RPAREN)
        return ast.FuncCall(name.lower(), tuple(args), distinct=distinct)


def parse(sql: str) -> ast.Node:
    """Parse *sql* (SQL or Schema-free SQL) into an AST query node."""
    return Parser(sql).parse_query()


def parse_expression(sql: str) -> ast.Node:
    """Parse a standalone expression (used by tests and the engine)."""
    parser = Parser(sql)
    expr = parser._expr()
    parser._expect_end()
    return expr
