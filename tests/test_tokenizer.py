"""Unit tests for the SQL / Schema-free SQL tokenizer."""

import pytest

from repro.sqlkit import SqlSyntaxError, TokenType, tokenize


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
