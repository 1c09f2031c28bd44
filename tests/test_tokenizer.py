"""Unit tests for the SQL / Schema-free SQL tokenizer."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlkit import SqlSyntaxError, TokenType, tokenize
from repro.sqlkit.tokenizer import _LEXEME
from repro.sqlkit.tokens import KEYWORDS, Token


def types(sql):
    return [t.type for t in tokenize(sql)][:-1]  # strip EOF


def values(sql):
    return [t.value for t in tokenize(sql)][:-1]


class TestBasics:
    def test_empty_input_yields_eof_only(self):
        tokens = tokenize("")
        assert len(tokens) == 1 and tokens[0].type is TokenType.EOF

    def test_keywords_case_insensitive(self):
        assert types("SELECT select SeLeCt") == [TokenType.KEYWORD] * 3

    def test_identifier(self):
        assert types("person") == [TokenType.IDENT]

    def test_identifier_with_digits_and_underscores(self):
        assert values("movie_2_id") == ["movie_2_id"]

    def test_number_integer(self):
        tokens = tokenize("1995")
        assert tokens[0].type is TokenType.NUMBER and tokens[0].value == "1995"

    def test_number_float(self):
        assert values("3.14") == ["3.14"]

    def test_number_then_dot_ident_not_merged(self):
        assert types("1.name") == [
            TokenType.NUMBER,
            TokenType.DOT,
            TokenType.IDENT,
        ]

    def test_string_literal(self):
        tokens = tokenize("'James Cameron'")
        assert tokens[0].type is TokenType.STRING
        assert tokens[0].value == "James Cameron"

    def test_string_escape_doubled_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_unterminated_string_raises(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_operators_longest_match(self):
        assert values("a <= b <> c != d || e") == [
            "a", "<=", "b", "<>", "c", "!=", "d", "||", "e",
        ]

    def test_line_comment_skipped(self):
        assert values("a -- comment\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert values("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("/* oops")

    def test_unexpected_character_raises(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("a @ b")

    @pytest.mark.parametrize(
        "sql, position",
        [
            # int('²') raises ValueError; int('٣') reads 3
            ("SELECT a FROM t WHERE a = ²", 26),
            ("SELECT a FROM t WHERE a = ٣", 26),
            ("SELECT a FROM t LIMIT ²", 22),
            ("SELECT a FROM t WHERE a = 1²", 27),
        ],
    )
    def test_non_ascii_digits_are_typed_syntax_errors(self, sql, position):
        from repro.sqlkit import parse

        with pytest.raises(SqlSyntaxError) as raised:
            parse(sql)
        assert raised.value.position == position

    def test_translate_reports_a_non_ascii_digit_as_syntax(
        self, fig1_translator
    ):
        with pytest.raises(SqlSyntaxError) as raised:
            fig1_translator.translate("SELECT name? WHERE name? = ²")
        assert raised.value.diagnostic.stage == "parse"

    def test_double_quoted_identifier(self):
        tokens = tokenize('"weird name"')
        assert tokens[0].type is TokenType.IDENT
        assert tokens[0].value == "weird name"


class TestSchemaFreeMarkers:
    def test_guess(self):
        tokens = tokenize("actor?")
        assert tokens[0].type is TokenType.GUESS and tokens[0].value == "actor"

    def test_guess_dotted(self):
        assert types("actor?.name?") == [
            TokenType.GUESS,
            TokenType.DOT,
            TokenType.GUESS,
        ]

    def test_var_placeholder(self):
        tokens = tokenize("?x")
        assert tokens[0].type is TokenType.VAR and tokens[0].value == "x"

    def test_anonymous_placeholder(self):
        tokens = tokenize("?")
        assert tokens[0].type is TokenType.ANON

    def test_anonymous_before_operator(self):
        assert types("? > 5") == [
            TokenType.ANON,
            TokenType.OPERATOR,
            TokenType.NUMBER,
        ]

    def test_space_separates_guess_from_anon(self):
        # ``foo ?`` is an exact identifier followed by an anonymous marker
        assert types("foo ?") == [TokenType.IDENT, TokenType.ANON]

    def test_keyword_with_question_mark_is_guess(self):
        # ``order?`` must not lex as the ORDER keyword
        tokens = tokenize("order?")
        assert tokens[0].type is TokenType.GUESS

    def test_positions_recorded(self):
        tokens = tokenize("a = 'x'")
        assert [t.position for t in tokens[:-1]] == [0, 2, 4]


# ----------------------------------------------------------------------
# differential: the one-pattern tokenizer against a character loop
# ----------------------------------------------------------------------

_REF_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
)
#: ASCII only: ``str.isdigit`` also accepts ``²`` (which ``int`` rejects)
#: and ``٣`` (which ``int`` reads as 3)
_REF_DIGITS = frozenset("0123456789")
_REF_IDENT_BODY = _REF_IDENT_START | _REF_DIGITS | frozenset("$")

#: Multi-character operators, longest first so `<=` wins over `<`.
_REF_OPERATORS = ("<>", "!=", "<=", ">=", "||", "=", "<", ">", "+", "-", "*", "/", "%")

_REF_SINGLE = {
    ",": TokenType.COMMA,
    ".": TokenType.DOT,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    ";": TokenType.SEMICOLON,
}


def reference_tokenize(sql: str) -> list[Token]:
    """The tokenizer as it was written before the one-pattern
    tokenizer: a character loop, one branch per lexeme kind."""
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
            token, i = _ref_read_string(sql, i)
            tokens.append(token)
            continue
        if ch == '"':
            token, i = _ref_read_quoted_identifier(sql, i)
            tokens.append(token)
            continue
        # -- numbers ---------------------------------------------------
        if ch in _REF_DIGITS or (
            ch == "." and i + 1 < n and sql[i + 1] in _REF_DIGITS
        ):
            j = i
            seen_dot = False
            while j < n and (
                sql[j] in _REF_DIGITS or (sql[j] == "." and not seen_dot)
            ):
                if sql[j] == ".":
                    # ``1.name`` is a number then DOT IDENT; require a digit
                    if j + 1 >= n or sql[j + 1] not in _REF_DIGITS:
                        break
                    seen_dot = True
                j += 1
            tokens.append(Token(TokenType.NUMBER, sql[i:j], i))
            i = j
            continue
        # -- placeholders: ?x and bare ? -------------------------------
        if ch == "?":
            j = i + 1
            if j < n and sql[j] in _REF_IDENT_START:
                k = j
                while k < n and sql[k] in _REF_IDENT_BODY:
                    k += 1
                tokens.append(Token(TokenType.VAR, sql[j:k], i))
                i = k
            else:
                tokens.append(Token(TokenType.ANON, "?", i))
                i = j
            continue
        # -- identifiers / keywords / guesses --------------------------
        if ch in _REF_IDENT_START:
            j = i
            while j < n and sql[j] in _REF_IDENT_BODY:
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
        for op in _REF_OPERATORS:
            if sql.startswith(op, i):
                tokens.append(Token(TokenType.OPERATOR, op, i))
                i += len(op)
                break
        else:
            if ch in _REF_SINGLE:
                tokens.append(Token(_REF_SINGLE[ch], ch, i))
                i += 1
            else:
                raise SqlSyntaxError(f"unexpected character {ch!r}", sql, i)
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens


def _ref_read_quoted_identifier(sql: str, start: int) -> tuple[Token, int]:
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


def _ref_read_string(sql: str, start: int) -> tuple[Token, int]:
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


def outcome(tokenizer, sql):
    """The token triples, or the error's type, message and position."""
    try:
        return [(t.type, t.value, t.position) for t in tokenizer(sql)]
    except SqlSyntaxError as error:
        return (type(error), str(error), error.position)


#: lexeme fragments that a concatenation turns into every token kind,
#: every error, and the boundaries between them
_PIECES = st.one_of(
    st.sampled_from(sorted(KEYWORDS) + ["SELECT", "From", "wHeRe"]),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_$]{0,6}", fullmatch=True),
    st.sampled_from([
        "name?", "?x", "?", "??", "?_1", "a?b", "order?", "$x", "x$",
        '"a b"', '"a""b"', '""', '"unterminated', '"a"""',
        "'s'", "'it''s'", "''", "'''", "'oops", "'a''", "'\n'",
        "-- line\n", "-- to the end", "--", "/* block */", "/**/", "/*/",
        "/* open", "*/",
        "1.name", ".5", "1.2.3", "1..2", "12abc", "3.", "0.0", "7",
        "=", "<>", "!=", "<=", ">=", "||", "<", ">", "+", "-", "*", "/",
        "%", "!", "|", "@", "#", ",", ".", "(", ")", ";",
        "²", "٣", "１", "é", " ", " ", "\x1c", "\x85",
        " ", "\t", "\n", "\r\n",
    ]),
    st.text(
        alphabet="aZ_0 9.'\"?-/*=<>!|(),;$\n ²", max_size=6
    ),
)


class TestAgainstCharacterLoop:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_PIECES, max_size=12).map("".join))
    def test_same_tokens_or_same_error(self, sql):
        assert outcome(tokenize, sql) == outcome(reference_tokenize, sql)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=40))
    def test_any_text(self, sql):
        assert outcome(tokenize, sql) == outcome(reference_tokenize, sql)

    @pytest.mark.parametrize(
        "sql",
        [
            "", " ", "'a''", "'a'''", '"a""', "1..2", "/*/", "/**/",
            "SELECT name? WHERE ?x.title? = 'it''s' -- end",
            "a /* x\ny */ b", "1.2.3", "?x?", "foo??", "\x1c1 .5",
            "'abc''", "'a'''b", "x = 'a''' ''", '"x"""y', '"a""" "',
        ],
    )
    def test_edge_cases(self, sql):
        assert outcome(tokenize, sql) == outcome(reference_tokenize, sql)

    def test_pattern_has_no_possessive_quantifier(self):
        # ``re`` accepts ``*+``, ``++`` and ``?+`` only from Python 3.11,
        # and the package supports 3.10
        assert not re.search(r"(?<!\\)[*+?]\+", _LEXEME.pattern)
