"""Token definitions for the SQL / Schema-free SQL tokenizer."""

from __future__ import annotations

import enum

from ..errors import Diagnostic, ReproError


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"              # bare identifier, e.g. ``name``
    GUESS = "guess"              # guessed identifier, e.g. ``name?``
    VAR = "var"                  # named placeholder, e.g. ``?x``
    ANON = "anon"                # anonymous placeholder, bare ``?``
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"        # = <> != < <= > >= + - * / || %
    COMMA = "comma"
    DOT = "dot"
    LPAREN = "lparen"
    RPAREN = "rparen"
    SEMICOLON = "semicolon"
    EOF = "eof"


_KEYWORD = TokenType.KEYWORD

#: Reserved words recognised case-insensitively.  Everything else is an
#: identifier.  Aggregate/scalar function names are *not* reserved so they
#: can double as column names (the paper treats them as schema-irrelevant).
KEYWORDS = frozenset(
    {
        "select", "from", "where", "group", "order", "by", "having",
        "limit", "offset", "as", "and", "or", "not", "in", "like",
        "between", "is", "null", "exists", "distinct", "all", "any",
        "union", "asc", "desc", "on", "join", "inner", "left", "right",
        "outer", "cross", "case", "when", "then", "else", "end",
    }
)


class Token:
    """One lexical token with its source position (for error messages).

    A plain slotted class, not a frozen dataclass: the tokenizer builds
    one per lexeme, and a frozen dataclass pays ``object.__setattr__``
    for every field.  Treat it as immutable.
    """

    __slots__ = ("type", "value", "position", "keyword")

    def __init__(self, type: TokenType, value: str, position: int) -> None:
        self.type = type
        self.value = value
        self.position = position
        #: the lower-cased keyword, or None for any other token: what
        #: the parser's keyword tests compare, lowered once here
        self.keyword = value.lower() if type is _KEYWORD else None

    @property
    def upper(self) -> str:
        return self.value.upper()

    def _fields(self) -> tuple:
        return (self.type, self.value, self.position)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"Token(type={self.type!r}, value={self.value!r}, "
            f"position={self.position!r})"
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.type.value}:{self.value!r}@{self.position}"


class SqlSyntaxError(ReproError, SyntaxError):
    """Raised on malformed SQL / Schema-free SQL input."""

    def __init__(self, message: str, sql: str = "", position: int = -1) -> None:
        plain = message
        if position >= 0 and sql:
            prefix = sql[:position].rsplit("\n", 1)[-1]
            message = f"{message} (at position {position}, after {prefix[-40:]!r})"
        span = (position, position + 1) if position >= 0 else None
        super().__init__(
            message,
            diagnostic=Diagnostic(stage="parse", message=plain, input_span=span),
        )
        self.position = position
