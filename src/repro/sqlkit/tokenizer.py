"""Tokenizer for SQL and Schema-free SQL.

Beyond standard SQL lexemes, three Schema-free SQL forms are recognised
(paper Section 2.1):

* ``foo?``  — a *guessed* identifier (the user thinks the name is ``foo``);
* ``?x``    — a placeholder bound to the dummy variable ``x``;
* ``?``     — an anonymous placeholder (fresh dummy variable per occurrence).

The ``?`` must be adjacent to its identifier: ``foo ?`` is a guessed-free
identifier followed by an anonymous placeholder, exactly as a whitespace-
sensitive reading of the paper's grammar implies.
"""

from __future__ import annotations

from .tokens import KEYWORDS, SqlSyntaxError, Token, TokenType

_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
)
#: ASCII only: ``str.isdigit`` also accepts ``²`` (which ``int`` rejects)
#: and ``٣`` (which ``int`` reads as 3)
_DIGITS = frozenset("0123456789")
_IDENT_BODY = _IDENT_START | _DIGITS | frozenset("$")

#: Multi-character operators, longest first so `<=` wins over `<`.
_OPERATORS = ("<>", "!=", "<=", ">=", "||", "=", "<", ">", "+", "-", "*", "/", "%")

_SINGLE = {
    ",": TokenType.COMMA,
    ".": TokenType.DOT,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    ";": TokenType.SEMICOLON,
}


def tokenize(sql: str) -> list[Token]:
    """Convert *sql* into a token list terminated by an EOF token."""
    tokens: list[Token] = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        # -- whitespace ------------------------------------------------
        if ch.isspace():
            i += 1
            continue
        # -- comments --------------------------------------------------
        if sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end < 0 else end + 1
            continue
        if sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end < 0:
                raise SqlSyntaxError("unterminated block comment", sql, i)
            i = end + 2
            continue
        # -- string literals (single quotes, '' escape) ----------------
        if ch == "'":
            token, i = _read_string(sql, i)
            tokens.append(token)
            continue
        if ch == '"':
            token, i = _read_quoted_identifier(sql, i)
            tokens.append(token)
            continue
        # -- numbers ---------------------------------------------------
        if ch in _DIGITS or (
            ch == "." and i + 1 < n and sql[i + 1] in _DIGITS
        ):
            j = i
            seen_dot = False
            while j < n and (
                sql[j] in _DIGITS or (sql[j] == "." and not seen_dot)
            ):
                if sql[j] == ".":
                    # ``1.name`` is a number then DOT IDENT; require a digit
                    if j + 1 >= n or sql[j + 1] not in _DIGITS:
                        break
                    seen_dot = True
                j += 1
            tokens.append(Token(TokenType.NUMBER, sql[i:j], i))
            i = j
            continue
        # -- placeholders: ?x and bare ? -------------------------------
        if ch == "?":
            j = i + 1
            if j < n and sql[j] in _IDENT_START:
                k = j
                while k < n and sql[k] in _IDENT_BODY:
                    k += 1
                tokens.append(Token(TokenType.VAR, sql[j:k], i))
                i = k
            else:
                tokens.append(Token(TokenType.ANON, "?", i))
                i = j
            continue
        # -- identifiers / keywords / guesses --------------------------
        if ch in _IDENT_START:
            j = i
            while j < n and sql[j] in _IDENT_BODY:
                j += 1
            word = sql[i:j]
            if j < n and sql[j] == "?":
                tokens.append(Token(TokenType.GUESS, word, i))
                i = j + 1
            elif word.lower() in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, word, i))
                i = j
            else:
                tokens.append(Token(TokenType.IDENT, word, i))
                i = j
            continue
        # -- operators -------------------------------------------------
        for op in _OPERATORS:
            if sql.startswith(op, i):
                tokens.append(Token(TokenType.OPERATOR, op, i))
                i += len(op)
                break
        else:
            if ch in _SINGLE:
                tokens.append(Token(_SINGLE[ch], ch, i))
                i += 1
            else:
                raise SqlSyntaxError(f"unexpected character {ch!r}", sql, i)
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens


def _read_quoted_identifier(sql: str, start: int) -> tuple[Token, int]:
    """Read a double-quoted identifier with ``""`` escaping.

    Quoted names are always IDENT tokens, never keywords, so ``"order"``
    is a legal relation name — required for reflected real-world schemas.
    """
    parts: list[str] = []
    i = start + 1
    n = len(sql)
    while i < n:
        if sql[i] == '"':
            if i + 1 < n and sql[i + 1] == '"':
                parts.append('"')
                i += 2
                continue
            return Token(TokenType.IDENT, "".join(parts), start), i + 1
        parts.append(sql[i])
        i += 1
    raise SqlSyntaxError("unterminated quoted identifier", sql, start)


def _read_string(sql: str, start: int) -> tuple[Token, int]:
    """Read a single-quoted string literal with ``''`` escaping.

    Returns the token and the index just past the closing quote.
    """
    parts: list[str] = []
    i = start + 1
    n = len(sql)
    while i < n:
        if sql[i] == "'":
            if i + 1 < n and sql[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return Token(TokenType.STRING, "".join(parts), start), i + 1
        parts.append(sql[i])
        i += 1
    raise SqlSyntaxError("unterminated string literal", sql, start)
