"""Unit tests for expression evaluation and three-valued logic."""

import datetime

import pytest

from repro.engine import ExecutionError, NameResolutionError
from repro.engine.evaluator import Evaluator, Scope, compare, like_match
from repro.sqlkit import ast, parse, parse_expression


def ev(expr: str, **columns):
    scope = Scope({"t": {k.lower(): v for k, v in columns.items()}})
    return Evaluator().evaluate(parse_expression(expr), scope)


class TestComparisons:
    def test_numeric(self):
        assert ev("t.a > 1", a=2) is True
        assert ev("t.a > 1", a=1) is False

    def test_int_float_mixed(self):
        assert ev("t.a = 1", a=1.0) is True

    def test_strings(self):
        assert ev("t.a < 'b'", a="a") is True

    def test_null_propagates(self):
        assert ev("t.a = 1", a=None) is None
        assert ev("t.a <> 1", a=None) is None

    def test_type_mismatch_equality_false(self):
        assert ev("t.a = 'x'", a=1) is False
        assert ev("t.a <> 'x'", a=1) is True

    def test_type_mismatch_ordering_raises(self):
        with pytest.raises(ExecutionError):
            ev("t.a > 'x'", a=1)

    def test_date_string_coercion(self):
        assert ev("t.a > '2000-01-01'", a=datetime.date(2005, 1, 1)) is True

    def test_date_bad_string_incomparable(self):
        with pytest.raises(ExecutionError):
            ev("t.a > 'not-a-date'", a=datetime.date(2005, 1, 1))


class TestBooleanLogic:
    def test_and_kleene(self):
        assert ev("t.a = 1 AND t.b = 1", a=None, b=2) is False
        assert ev("t.a = 1 AND t.b = 1", a=None, b=1) is None
        assert ev("t.a = 1 AND t.b = 1", a=1, b=1) is True

    def test_or_kleene(self):
        assert ev("t.a = 1 OR t.b = 1", a=None, b=1) is True
        assert ev("t.a = 1 OR t.b = 2", a=None, b=1) is None

    def test_not_unknown(self):
        assert ev("NOT t.a = 1", a=None) is None
        assert ev("NOT t.a = 1", a=2) is True


class TestPredicates:
    def test_between(self):
        assert ev("t.y BETWEEN 1995 AND 2005", y=2000) is True
        assert ev("t.y BETWEEN 1995 AND 2005", y=1990) is False
        assert ev("t.y NOT BETWEEN 1995 AND 2005", y=1990) is True
        assert ev("t.y BETWEEN 1995 AND 2005", y=None) is None

    def test_in_list(self):
        assert ev("t.g IN ('a', 'b')", g="a") is True
        assert ev("t.g IN ('a', 'b')", g="c") is False
        assert ev("t.g NOT IN ('a', 'b')", g="c") is True

    def test_in_list_null_semantics(self):
        assert ev("t.g IN ('a', NULL)", g="c") is None
        assert ev("t.g IN ('a', NULL)", g="a") is True
        assert ev("t.g IN ('a')", g=None) is None

    def test_like(self):
        assert ev("t.s LIKE '%Star%'", s="Star Wars") is True
        assert ev("t.s LIKE 'St_r%'", s="Star Wars") is True
        assert ev("t.s LIKE 'Wars'", s="Star Wars") is False
        assert ev("t.s NOT LIKE '%x%'", s="abc") is True
        assert ev("t.s LIKE '%a%'", s=None) is None

    def test_is_null(self):
        assert ev("t.a IS NULL", a=None) is True
        assert ev("t.a IS NOT NULL", a=None) is False


class TestArithmetic:
    def test_basic(self):
        assert ev("t.a + 2 * 3", a=1) == 7
        assert ev("(t.a + 2) * 3", a=1) == 9

    def test_integer_division_exact(self):
        assert ev("t.a / 2", a=6) == 3

    def test_division_fractional(self):
        assert ev("t.a / 2", a=7) == 3.5

    def test_division_by_zero_raises(self):
        with pytest.raises(ExecutionError):
            ev("t.a / 0", a=1)

    def test_null_propagation(self):
        assert ev("t.a + 1", a=None) is None

    def test_concatenation(self):
        assert ev("t.a || '!'", a="hi") == "hi!"

    def test_modulo(self):
        assert ev("t.a % 3", a=7) == 1

    def test_unary(self):
        assert ev("-t.a", a=5) == -5


class TestScalarFunctions:
    def test_upper_lower(self):
        assert ev("upper(t.s)", s="ab") == "AB"
        assert ev("lower(t.s)", s="AB") == "ab"

    def test_length(self):
        assert ev("length(t.s)", s="abc") == 3

    def test_coalesce(self):
        assert ev("coalesce(t.a, 'x')", a=None) == "x"
        assert ev("coalesce(t.a, 'x')", a="y") == "y"

    def test_substr_one_based(self):
        assert ev("substr(t.s, 2, 2)", s="abcd") == "bc"

    def test_null_in_scalar_function(self):
        assert ev("upper(t.s)", s=None) is None

    def test_unknown_function_raises(self):
        with pytest.raises(ExecutionError):
            ev("frobnicate(t.s)", s="x")

    def test_case_expression(self):
        assert ev("CASE WHEN t.a > 0 THEN 'p' ELSE 'n' END", a=1) == "p"
        assert ev("CASE t.a WHEN 1 THEN 'one' END", a=2) is None


class TestScopes:
    def test_qualified_resolution(self):
        scope = Scope({"a": {"x": 1}, "b": {"x": 2}})
        assert scope.resolve("a", "x") == 1
        assert scope.resolve("B", "X") == 2

    def test_unqualified_unique(self):
        scope = Scope({"a": {"x": 1}, "b": {"y": 2}})
        assert scope.resolve(None, "y") == 2

    def test_unqualified_ambiguous_raises(self):
        scope = Scope({"a": {"x": 1}, "b": {"x": 2}})
        with pytest.raises(NameResolutionError):
            scope.resolve(None, "x")

    def test_outer_scope_chain(self):
        outer = Scope({"o": {"v": 42}})
        inner = outer.child({"i": {"w": 1}})
        assert inner.resolve("o", "v") == 42
        assert inner.resolve(None, "v") == 42

    def test_inner_shadows_outer(self):
        outer = Scope({"t": {"v": 1}})
        inner = outer.child({"t": {"v": 2}})
        assert inner.resolve("t", "v") == 2

    def test_missing_raises(self):
        scope = Scope({"t": {"x": 1}})
        with pytest.raises(NameResolutionError):
            scope.resolve("t", "nope")
        with pytest.raises(NameResolutionError):
            scope.resolve("ghost", "x")



class TestDispatch:
    def test_unsupported_node_raises_every_time(self):
        evaluator = Evaluator()
        node = parse("SELECT a FROM t")
        for _ in range(2):
            with pytest.raises(ExecutionError, match="cannot evaluate Select"):
                evaluator.evaluate(node, Scope({}))
        assert ast.Select not in Evaluator._methods

    def test_subclass_override_wins_after_base_cached_the_type(self):
        class Doubling(Evaluator):
            def _eval_literal(self, node, scope):
                return node.value * 2

        literal = parse_expression("21")
        assert Evaluator().evaluate(literal, Scope({})) == 21
        assert ast.Literal in Evaluator._methods
        assert Doubling().evaluate(literal, Scope({})) == 42
        # the subclass inherits what it does not override, and caching
        # its own entries leaves the base class's untouched
        assert Doubling().evaluate(parse_expression("1 + 2"), Scope({})) == 6
        assert Evaluator().evaluate(literal, Scope({})) == 21


class TestHelpers:
    def test_compare_null(self):
        assert compare("=", None, 1) is None

    def test_like_match_literal_specials(self):
        assert like_match("a.c", "a.c")
        assert not like_match("abc", "a.c")  # dot is literal, not wildcard
