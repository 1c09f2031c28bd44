"""Assorted unit tests: Result, derivation on set-ops, block transforms."""

import pytest

from repro.sqlkit.ast import transform
from repro.engine import ExecutionError
from repro.engine.executor import Result
from repro.sqlkit import ast, parse, parse_expression
from repro.workloads.base import WorkloadQuery
from repro.workloads.derive import derive_course_sfsql, derive_textbook_sfsql


class TestResult:
    def test_len_iter(self):
        result = Result(["a"], [(1,), (2,)])
        assert len(result) == 2
        assert list(result) == [(1,), (2,)]

    def test_scalar_ok(self):
        assert Result(["a"], [(42,)]).scalar() == 42

    def test_scalar_wrong_shape(self):
        with pytest.raises(ExecutionError):
            Result(["a"], [(1,), (2,)]).scalar()
        with pytest.raises(ExecutionError):
            Result(["a", "b"], [(1, 2)]).scalar()

    def test_as_dicts(self):
        result = Result(["a", "b"], [(1, "x")])
        assert result.as_dicts() == [{"a": 1, "b": "x"}]

    def test_equality_by_rows(self):
        assert Result(["a"], [(1,)]) == Result(["z"], [(1,)])
        assert Result(["a"], [(1,)]) != Result(["a"], [(2,)])


class TestBlockTransforms:
    def test_transform_block_stops_at_subqueries(self):
        expr = parse_expression("a + (SELECT max(b) FROM t WHERE c = 1)")

        touched = []

        def spy(node):
            if isinstance(node, ast.ColumnRef):
                touched.append(node.attribute.text)
            return None

        transform(expr, spy, within_block=True)
        assert touched == ["a"]  # b and c live inside the sub-query

    def test_transform_block_select_rewrites_all_clauses(self):
        select = parse(
            "SELECT a FROM t WHERE b = 1 GROUP BY c HAVING count(d) > 1 "
            "ORDER BY e"
        )

        def upper(node):
            if isinstance(node, ast.ColumnRef):
                return ast.ColumnRef(
                    ast.exact(node.attribute.text.upper()), node.relation
                )
            return None

        rewritten = transform(select, upper, within_block=True)
        names = [
            n.attribute.text
            for n in rewritten.walk()
            if isinstance(n, ast.ColumnRef)
        ]
        assert set(names) == {"A", "B", "C", "D", "E"}

    def test_transform_preserves_from_clause(self):
        select = parse("SELECT a FROM t, u")
        rewritten = transform(select, lambda n: None, within_block=True)
        assert rewritten.from_items == select.from_items


class TestDerivationSetOps:
    def test_textbook_union_derived_per_branch(self):
        sf = derive_textbook_sfsql(
            "SELECT name FROM person WHERE birth_year < 1940 "
            "UNION SELECT name FROM person WHERE birth_year > 1990"
        )
        assert sf.count("UNION") == 1
        assert sf.count("person?.name?") == 2
        assert "FROM" not in sf.upper()

    def test_course_union_derived_per_branch(self):
        sf = derive_course_sfsql(
            "SELECT s.name FROM student s, program p "
            "WHERE s.program_id = p.program_id AND p.level = 'BS' "
            "UNION "
            "SELECT i.name FROM instructor i, department d "
            "WHERE i.department_id = d.department_id AND d.name = 'History'"
        )
        assert "student AS s" in sf and "instructor AS i" in sf
        assert "program_id = " not in sf


class TestWorkloadQuery:
    def test_relation_count_counts_occurrences(self):
        query = WorkloadQuery(
            "x", "intent",
            "SELECT 1 FROM a, a b, c JOIN d ON c.i = d.i",
        )
        assert query.relation_count == 4

    def test_bucket_boundaries(self):
        def q(n):
            tables = ", ".join(f"t{i} x{i}" for i in range(n))
            return WorkloadQuery("x", "i", f"SELECT 1 FROM {tables}")

        assert q(2).bucket() == "2-4"
        assert q(4).bucket() == "2-4"
        assert q(5).bucket() == "5"
        assert q(6).bucket() == "6-10"
        assert q(10).bucket() == "6-10"

    def test_set_op_uses_outermost_left_block(self):
        query = WorkloadQuery(
            "x", "i",
            "SELECT 1 FROM a, b UNION SELECT 1 FROM c",
        )
        assert query.relation_count == 2

    def test_gold_ast_cached_semantics(self):
        query = WorkloadQuery("x", "i", "SELECT 1 FROM a")
        assert isinstance(query.gold_ast, ast.Select)
