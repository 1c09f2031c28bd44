"""Unit tests for the Standard SQL Composer (paper §6.2)."""

import dataclasses
import itertools

import pytest

from repro import Catalog, Database, DataType, SchemaFreeTranslator
from repro.core import TranslatorConfig
from repro.core.composer import Composer, TranslationError, _conjunct_key
from repro.core.mapper import RelationTreeMapper
from repro.core.mtjn import MTJNGenerator
from repro.core.relation_tree import build_relation_trees
from repro.core.similarity import SimilarityEvaluator
from repro.core.triples import extract
from repro.core.view_graph import ExtendedViewGraph, ViewGraph
from repro.datasets import make_course_database, make_movie_database
from repro.sqlkit import ast, parse, render
from repro.workloads import COURSE_QUERIES, TEXTBOOK_QUERIES

from tests.conftest import make_fig1_catalog, populate_fig1
from tests.helpers import PAPER_QUERY


def block_inputs(db, sql, k):
    """(select, trees, mappings, top-k networks, FROM bindings) of *sql*."""
    config = TranslatorConfig()
    query = parse(sql)
    extraction = extract(query)
    trees = build_relation_trees(extraction)
    evaluator = SimilarityEvaluator(db, config)
    mappings = RelationTreeMapper(db, config, evaluator).map_trees(trees)
    graph = ExtendedViewGraph(
        ViewGraph(db.catalog), trees, mappings, evaluator, config
    )
    networks = MTJNGenerator(graph, config).generate(k)
    return query, trees, mappings, networks, extraction.from_bindings


def compose_best(db, sql, outer_bindings=None):
    config = TranslatorConfig()
    query = parse(sql)
    extraction = extract(query)
    trees = build_relation_trees(extraction)
    if outer_bindings:
        # mimic the translator: correlated trees are not mapped locally
        trees = [
            tree
            for tree in trees
            if not (
                tree.key[0] == "name"
                and tree.key[1] in outer_bindings
                and tree.key[1] not in extraction.from_bindings
            )
        ]
    evaluator = SimilarityEvaluator(db, config)
    mapper = RelationTreeMapper(db, config, evaluator)
    mappings = mapper.map_trees(trees)
    graph = ExtendedViewGraph(
        ViewGraph(db.catalog), trees, mappings, evaluator, config
    )
    network = MTJNGenerator(graph, config).generate(1)[0]
    composer = Composer(db.catalog)
    [composed] = composer.compose(
        query, trees, mappings, [network], extraction.from_bindings,
        outer_bindings=outer_bindings,
    )
    return composed


class TestStep1NameInstantiation:
    def test_all_names_exact_after_compose(self, fig1_db):
        composed = compose_best(fig1_db, PAPER_QUERY)
        for node in composed.select.walk():
            if isinstance(node, ast.ColumnRef):
                assert node.attribute.certainty is ast.Certainty.EXACT
                if node.relation is not None:
                    assert node.relation.certainty is ast.Certainty.EXACT
            if isinstance(node, ast.TableRef):
                assert node.name.certainty is ast.Certainty.EXACT

    def test_guessed_attribute_replaced_by_catalog_name(self, fig1_db):
        composed = compose_best(
            fig1_db, "SELECT movie?.title? WHERE movie?.year? > 2000"
        )
        assert "release_year" in composed.sql

    def test_value_literals_untouched(self, fig1_db):
        composed = compose_best(fig1_db, PAPER_QUERY)
        assert "'James Cameron'" in composed.sql
        assert "1995" in composed.sql


class TestStep2FromClause:
    def test_repeated_relation_gets_aliases(self, fig1_db):
        composed = compose_best(fig1_db, PAPER_QUERY)
        assert composed.sql.count("Person AS") == 2

    def test_single_occurrence_keeps_plain_name(self, fig1_db):
        composed = compose_best(fig1_db, PAPER_QUERY)
        assert "Movie AS" not in composed.sql

    def test_user_alias_preserved(self, fig1_db):
        composed = compose_best(
            fig1_db, "SELECT m.title FROM Movie m WHERE m.release_year > 2000"
        )
        assert "Movie AS m" in composed.sql

    def test_every_mtjn_node_in_from(self, fig1_db):
        composed = compose_best(fig1_db, PAPER_QUERY)
        assert len(composed.select.from_items) == len(composed.network.nodes)


class TestStep3JoinConditions:
    def test_one_condition_per_edge(self, fig1_db):
        composed = compose_best(fig1_db, PAPER_QUERY)
        edges = len(composed.network.all_edges)
        join_conditions = [
            c
            for c in _conjuncts(composed.select.where)
            if isinstance(c, ast.BinaryOp)
            and c.op == "="
            and isinstance(c.left, ast.ColumnRef)
            and isinstance(c.right, ast.ColumnRef)
        ]
        assert len(join_conditions) == edges

    def test_user_join_condition_not_duplicated(self, fig1_db):
        composed = compose_best(
            fig1_db,
            "SELECT p.name FROM Person p, Director d "
            "WHERE p.person_id = d.person_id AND d.movie_id = 10",
        )
        text = composed.sql.lower()
        assert text.count("person_id = d.person_id") + text.count(
            "d.person_id = p.person_id"
        ) == 1

    def test_bindings_exposed_for_nested_blocks(self, fig1_db):
        composed = compose_best(fig1_db, PAPER_QUERY)
        assert "movie" in composed.bindings.values() or "movie" in {
            v.lower() for v in composed.bindings.values()
        }


class TestJoinConditionDedup:
    """A user condition equal to an FK edge's suppresses the edge; the
    comparison is structural, never rendered."""

    @staticmethod
    def person_id_conditions(composed):
        return [
            c
            for c in _conjuncts(composed.select.where)
            if isinstance(c, ast.BinaryOp)
            and isinstance(c.left, ast.ColumnRef)
            and isinstance(c.right, ast.ColumnRef)
            and c.left.attribute.text.lower() == "person_id"
        ]

    @pytest.mark.parametrize(
        "condition",
        [
            "d.person_id = p.person_id",  # reversed orientation
            "P.PERSON_ID = D.Person_Id",  # other letter case
        ],
    )
    def test_user_condition_not_duplicated(self, fig1_db, condition):
        composed = compose_best(
            fig1_db,
            "SELECT p.name FROM Person p, Director d "
            f"WHERE {condition} AND d.movie_id = 10",
        )
        assert len(self.person_id_conditions(composed)) == 1
        assert len(composed.network.all_edges) == 1

    def test_quoted_identifier_condition_not_duplicated(self):
        catalog = Catalog("quoted")
        catalog.create_relation(
            "customer",
            [("customer_id", DataType.INTEGER), ("name", DataType.TEXT)],
            primary_key=["customer_id"],
        )
        catalog.create_relation(
            "order",
            [("order_id", DataType.INTEGER), ("Customer Ref", DataType.INTEGER)],
            primary_key=["order_id"],
        )
        catalog.add_foreign_key("order", "Customer Ref", "customer")
        db = Database(catalog)
        db.insert("customer", [1, "Ann"])
        db.insert("order", [7, 1])
        composed = compose_best(
            db,
            'SELECT c.name FROM customer c, "order" o '
            'WHERE c.customer_id = o."Customer Ref"',
        )
        assert composed.sql == (
            'SELECT c.name FROM customer AS c, "order" AS o '
            'WHERE c.customer_id = o."Customer Ref"'
        )
        assert db.execute(composed.select).rows == [("Ann",)]

    def test_non_column_equality_never_suppresses_an_edge(self, fig1_db):
        composed = compose_best(
            fig1_db,
            "SELECT p.name FROM Person p, Director d WHERE d.movie_id = 10",
        )
        conjuncts = _conjuncts(composed.select.where)
        assert render(conjuncts[0]) == "d.movie_id = 10"
        assert len(conjuncts) == 1 + len(composed.network.all_edges)

    def test_keys_partition_conditions_as_rendering_does(self):
        # the render-based key this replaces: two conditions are one
        # condition when their sides render equal after lower()
        def rendered(condition):
            return frozenset(
                (render(condition.left).lower(), render(condition.right).lower())
            )

        relations = ["p", "P", "order", "ORDER", "line item", 'a"b', "a.b"]
        attributes = ["id", "ID", "select", "Line Item", "b.c"]
        columns = [
            ast.ColumnRef(ast.exact(attribute), ast.exact(relation))
            for relation in relations
            for attribute in attributes
        ]
        conditions = [
            ast.BinaryOp("=", left, right)
            for left, right in itertools.product(columns, repeat=2)
        ]
        by_render: dict = {}
        by_key: dict = {}
        for index, condition in enumerate(conditions):
            by_render.setdefault(rendered(condition), set()).add(index)
            by_key.setdefault(_conjunct_key(condition), set()).add(index)
        assert None not in by_key
        assert sorted(map(sorted, by_render.values())) == sorted(
            map(sorted, by_key.values())
        )
        # no conjunct left without a key renders like an exact condition
        others = [
            ast.BinaryOp(
                "=",
                ast.ColumnRef(ast.NameTerm("id", ast.Certainty.GUESS), ast.exact("p")),
                columns[0],
            ),
            ast.BinaryOp("=", ast.ColumnRef(ast.exact("id")), columns[0]),
            ast.BinaryOp("=", columns[0], ast.Literal(10)),
            ast.BinaryOp("<", columns[0], columns[1]),
        ]
        for other in others:
            assert _conjunct_key(other) is None
            if other.op == "=":
                assert rendered(other) not in by_render


def composed_fields(composed):
    return (
        composed.select,
        composed.sql,
        composed.weight,
        composed.bindings,
        composed.network,
    )


class TestBlockComposition:
    """Composing a block's networks in one call shares the rewrite;
    the results must equal composing each network alone."""

    def assert_shared_equals_alone(self, composer, select, trees, mappings,
                                   networks, from_bindings, outer=None,
                                   weights=None):
        together = composer.compose(
            select, trees, mappings, networks, from_bindings, outer,
            weights=weights,
        )
        assert len(together) == len(networks)
        for index, network in enumerate(networks):
            [alone] = composer.compose(
                select, trees, mappings, [network], from_bindings, outer,
                weights=None if weights is None else [weights[index]],
            )
            assert composed_fields(together[index]) == composed_fields(alone)

    def test_paper_query(self, fig1_db):
        inputs = block_inputs(fig1_db, PAPER_QUERY, 3)
        assert len(inputs[3]) > 1
        self.assert_shared_equals_alone(Composer(fig1_db.catalog), *inputs)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT name? WHERE title? = 'Avatar'",
            "SELECT person?.name?, p2?.name? WHERE movie?.title? = 'Titanic'",
        ],
    )
    def test_repeated_relation_bound_differently(self, fig1_db, sql):
        inputs = block_inputs(fig1_db, sql, 6)
        composer = Composer(fig1_db.catalog)
        results = composer.compose(*inputs)
        # one tree's relation is bound plainly in some networks and as a
        # Name_rtK alias in others: the rewrite cannot be shared by all
        aliased = ["_rt" in " ".join(result.bindings) for result in results]
        assert any(aliased) and not all(aliased)
        self.assert_shared_equals_alone(composer, *inputs)

    @pytest.mark.parametrize(
        "make_database, queries",
        [
            (make_course_database, COURSE_QUERIES),
            (make_movie_database, TEXTBOOK_QUERIES),
        ],
        ids=["courses", "textbook"],
    )
    def test_workload_blocks(self, monkeypatch, make_database, queries):
        # every block the translator composes on a shipped workload
        # (textbook has nested and correlated blocks)
        calls = []
        original = Composer.compose

        def recording(self, *args, **kwargs):
            calls.append((self, args, kwargs))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Composer, "compose", recording)
        translator = SchemaFreeTranslator(make_database())
        for query in queries:
            translator.translate(query.sf_sql or query.gold_sql, top_k=3)
        monkeypatch.setattr(Composer, "compose", original)
        assert any(len(args[3]) > 1 for _, args, _ in calls)
        for composer, args, kwargs in calls:
            self.assert_shared_equals_alone(composer, *args, **kwargs)

    def test_later_network_failure_raises_as_alone(self, fig1_db):
        select, trees, mappings, networks, from_bindings = block_inputs(
            fig1_db, "SELECT name? WHERE title? = 'Avatar'", 3
        )
        [tree] = [t for t in trees if t.key == ("attr", "name")]
        first = networks[0].nodes
        second = next(
            node.relation
            for node in networks[1].nodes.values()
            if node.tree_key == tree.key
        )
        assert all(node.relation != second for node in first.values())
        # the name tree loses the relation the second network maps it to
        mappings = dict(mappings)
        mappings[tree.key] = dataclasses.replace(
            mappings[tree.key],
            candidates=[
                c for c in mappings[tree.key].candidates
                if c.relation.key != second
            ],
        )
        composer = Composer(fig1_db.catalog)
        composer.compose(select, trees, mappings, networks[:1], from_bindings)
        with pytest.raises(TranslationError) as alone:
            composer.compose(select, trees, mappings, networks[1:2], from_bindings)
        with pytest.raises(TranslationError) as together:
            composer.compose(select, trees, mappings, networks, from_bindings)
        assert str(together.value) == str(alone.value)
        assert together.value.diagnostic == alone.value.diagnostic
        assert together.value.diagnostic.stage == "compose"

    def test_composing_a_block_renders_nothing(self, fig1_db, monkeypatch):
        import importlib

        import repro.core.composer as composer_module

        render_module = importlib.import_module("repro.sqlkit.render")

        inputs = block_inputs(
            fig1_db,
            "SELECT p.name FROM Person p, Director d "
            "WHERE d.person_id = p.person_id AND d.movie_id = 10",
            3,
        )
        renders = []

        def counting(node, *args):
            renders.append(node)
            raise AssertionError("compose rendered a node")

        monkeypatch.setattr(composer_module, "render", counting)
        for name in ("render", "_render_expr", "_render_query"):
            monkeypatch.setattr(render_module, name, counting)
        monkeypatch.setattr(ast.NameTerm, "render", counting)
        monkeypatch.setattr(ast.ColumnRef, "render", counting)
        results = Composer(fig1_db.catalog).compose(*inputs)
        assert results
        assert renders == []


class TestOuterReferences:
    def test_outer_qualified_ref_resolved(self, fig1_db):
        composed = compose_best(
            fig1_db,
            "SELECT count(*) FROM Director WHERE Director.person_id = outerp.person_id?",
            outer_bindings={"outerp": "person"},
        )
        assert "outerp.person_id" in composed.sql

    def test_outer_fuzzy_attribute_resolved_by_similarity(self, fig1_db):
        composed = compose_best(
            fig1_db,
            "SELECT count(*) FROM Director WHERE Director.person_id = outerp.person_identifier?",
            outer_bindings={"outerp": "person"},
        )
        assert "outerp.person_id" in composed.sql


def _conjuncts(expr):
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


#: one block in two shapes: the same trees and the same memoized
#: networks, but aliases that differ in case, so every binding differs
ALIASED = (
    "SELECT m.title?, p.name? FROM movie? m, person? p WHERE p.name? = 'x'",
    "SELECT M.title?, P.name? FROM movie? M, person? P WHERE P.name? = 'x'",
)


def fresh_fig1_translator():
    db = Database(make_fig1_catalog())
    populate_fig1(db)
    return SchemaFreeTranslator(db)


class TestNetworkParts:
    """A network keeps the parts composing a block under it takes from
    the network alone, guarded by the block's tree shape."""

    def test_one_network_composed_for_two_shapes(self, fig1_db):
        translator = SchemaFreeTranslator(fig1_db)
        lower = translator.translate(ALIASED[0], top_k=3)
        upper = translator.translate(ALIASED[1], top_k=3)
        # the second block is served the first one's memoized networks
        assert len(lower) > 1
        assert all(a.network is b.network for a, b in zip(lower, upper))
        for sql, translations in zip(ALIASED, (lower, upper)):
            fresh = fresh_fig1_translator().translate(sql, top_k=3)
            assert [t.sql for t in translations] == [t.sql for t in fresh]
        for translations, user in ((lower, {"m", "p"}), (upper, {"M", "P"})):
            for translation in translations:
                select = translation.query
                bindings = {item.binding for item in select.from_items}
                assert user < bindings
                joined = {
                    side.relation.text
                    for conjunct in _conjuncts(select.where)
                    for side in (conjunct.left, conjunct.right)
                    if isinstance(side, ast.ColumnRef)
                    and side.relation.text.lower() in {"m", "p"}
                }
                assert joined == user

    def test_parts_built_once_per_shape(self, fig1_db):
        composer = Composer(fig1_db.catalog)
        inputs = block_inputs(fig1_db, ALIASED[0], 3)
        first = composer.compose(*inputs)
        again = composer.compose(*inputs)
        for a, b in zip(first, again):
            assert a.select.from_items is b.select.from_items
            assert a.sql == b.sql

    def test_bindings_are_the_callers_own(self, fig1_db):
        composer = Composer(fig1_db.catalog)
        inputs = block_inputs(fig1_db, ALIASED[0], 3)
        first = composer.compose(*inputs)
        expected = [dict(result.bindings) for result in first]
        for result in first:
            result.bindings.clear()
            result.bindings["x"] = "person"
        again = composer.compose(*inputs)
        assert [result.bindings for result in again] == expected
        assert all(a.bindings is not b.bindings for a, b in zip(first, again))
