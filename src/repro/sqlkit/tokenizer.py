"""Tokenizer for SQL and Schema-free SQL.

Beyond standard SQL lexemes, three Schema-free SQL forms are recognised
(paper Section 2.1):

* ``foo?``  — a *guessed* identifier (the user thinks the name is ``foo``);
* ``?x``    — a placeholder bound to the dummy variable ``x``;
* ``?``     — an anonymous placeholder (fresh dummy variable per occurrence).

The ``?`` must be adjacent to its identifier: ``foo ?`` is a guessed-free
identifier followed by an anonymous placeholder, exactly as a whitespace-
sensitive reading of the paper's grammar implies.

One compiled pattern reads one lexeme per ``match``, together with the
whitespace and comments before it; the name of the group that matched
says what it is.
"""

from __future__ import annotations

import re

from .tokens import KEYWORDS, SqlSyntaxError, Token, TokenType

#: Digits are ASCII ``[0-9]``, never ``\d``: ``\d`` also accepts ``²``
#: (which ``int`` rejects) and ``٣`` (which ``int`` reads as 3).
#: A string or quoted name ends at a quote that is not one half of a
#: doubled quote (``(?!')``), so an unterminated one never matches a
#: shorter prefix: it falls through to its ``OPEN_`` group, which
#: reports it at its opening quote.  The pattern has no possessive
#: quantifiers, which ``re`` accepts only from Python 3.11.  Nothing
#: follows the alternation, so each group's first greedy match is the
#: one taken.
_LEXEME = re.compile(
    r"""
    (?: \s+ | --[^\n]*\n? | /\*(?s:.*?)\*/ )*        # skipped
    (?:
        (?P<WORD>[A-Za-z_][A-Za-z0-9_$]*)(?P<GUESS>\?)?
      | (?P<COMMA>,)
      | (?P<NUMBER>[0-9]+(?:\.[0-9]+)? | \.[0-9]+)
      | (?P<DOT>\.)
      | (?P<STRING>'[^']*(?:''[^']*)*'(?!'))
      | (?P<VAR>\?[A-Za-z_][A-Za-z0-9_$]*)
      | (?P<ANON>\?)
      | (?P<LPAREN>\()
      | (?P<RPAREN>\))
      | (?P<QUOTED>"[^"]*(?:""[^"]*)*"(?!"))
      | (?P<OPEN_COMMENT>/\*)
      | (?P<OPERATOR><> | != | <= | >= | \|\| | [=<>+\-*/%])
      | (?P<SEMICOLON>;)
      | (?P<OPEN_STRING>')
      | (?P<OPEN_QUOTED>")
      | (?P<EOF>\Z)
      | (?P<BAD>(?s:.))
    )
    """,
    re.VERBOSE,
)

#: groups whose text is the token's value
_PLAIN = {
    name: TokenType[name]
    for name in (
        "COMMA", "NUMBER", "DOT", "ANON", "LPAREN", "RPAREN", "OPERATOR",
        "SEMICOLON",
    )
}

_UNTERMINATED = {
    "OPEN_STRING": "unterminated string literal",
    "OPEN_QUOTED": "unterminated quoted identifier",
    "OPEN_COMMENT": "unterminated block comment",
}

_KEYWORD = TokenType.KEYWORD
_IDENT = TokenType.IDENT
_GUESS = TokenType.GUESS
_STRING = TokenType.STRING
_VAR = TokenType.VAR


def tokenize(sql: str) -> list[Token]:
    """Convert *sql* into a token list terminated by an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    match = _LEXEME.match
    position = 0
    while True:
        lexeme = match(sql, position)
        kind = lexeme.lastgroup
        position = lexeme.end()
        if kind == "WORD":
            word = lexeme.group(kind)
            append(Token(
                _KEYWORD if word.lower() in KEYWORDS else _IDENT,
                word,
                lexeme.start(kind),
            ))
        elif kind in _PLAIN:
            append(Token(_PLAIN[kind], lexeme.group(kind), lexeme.start(kind)))
        elif kind == "GUESS":
            append(Token(
                _GUESS, lexeme.group("WORD"), lexeme.start("WORD")
            ))
        elif kind == "STRING":
            append(Token(
                _STRING,
                lexeme.group(kind)[1:-1].replace("''", "'"),
                lexeme.start(kind),
            ))
        elif kind == "VAR":
            append(Token(
                _VAR, lexeme.group(kind)[1:], lexeme.start(kind)
            ))
        elif kind == "QUOTED":
            # quoted names are always IDENT tokens, never keywords, so
            # ``"order"`` is a legal relation name — required for
            # reflected real-world schemas
            append(Token(
                _IDENT,
                lexeme.group(kind)[1:-1].replace('""', '"'),
                lexeme.start(kind),
            ))
        elif kind == "EOF":
            append(Token(TokenType.EOF, "", position))
            return tokens
        elif kind == "BAD":
            raise SqlSyntaxError(
                f"unexpected character {lexeme.group(kind)!r}",
                sql,
                lexeme.start(kind),
            )
        else:
            raise SqlSyntaxError(_UNTERMINATED[kind], sql, lexeme.start(kind))
