"""Unit tests for the similarity framework (paper §4)."""

import datetime
import sys

import pytest

from repro import Catalog, Database, DataType
from repro.backends import MemoryBackend, SqliteBackend
from repro.core import TranslatorConfig
from repro.core.context import TranslationContext
from repro.core.relation_tree import build_relation_trees, tree_fingerprint
from repro.core.similarity import (
    ConditionChecker,
    SimilarityEvaluator,
    _compatible,
    _probe_predicate,
    plan_condition,
    qgrams,
    stride_sample,
    string_similarity,
)
from repro.core.triples import Condition, extract
from repro.engine import ExecutionError, NameResolutionError
from repro.engine.evaluator import Evaluator, Scope
from repro.engine.io import export_to_sqlite
from repro.sqlkit import ast, parse, parse_expression, render


def trees_for(sql):
    return build_relation_trees(extract(parse(sql)))


@pytest.fixture()
def sim(fig1_db):
    return SimilarityEvaluator(fig1_db)


class TestStringSimilarity:
    def test_identical_is_one(self):
        assert string_similarity("actor", "Actor") == 1.0

    def test_disjoint_is_zero(self):
        assert string_similarity("zzz", "qqq") == 0.0

    def test_symmetry(self):
        a = string_similarity("director_name", "director")
        b = string_similarity("director", "director_name")
        assert a == b

    def test_partial_overlap_in_unit_interval(self):
        value = string_similarity("produce_company", "company")
        assert 0.0 < value < 1.0

    def test_empty_string(self):
        assert string_similarity("", "abc") == 0.0

    def test_qgram_padding(self):
        grams = qgrams("ab", 3)
        assert "##a" in grams and "ab#" in grams

    def test_similar_beats_dissimilar(self):
        assert string_similarity("director", "directors") > string_similarity(
            "director", "company"
        )

    def test_symmetry_survives_mixed_case(self):
        # the cache key is canonicalised (lower-cased, ordered), so the
        # asymmetric-argument cache-poisoning bug cannot recur
        a = string_similarity("Produce_Company", "company")
        b = string_similarity("COMPANY", "produce_company")
        assert a == b > 0.0


class TestStrideSampling:
    def test_small_input_kept_whole(self):
        assert stride_sample([1, 2, 3], 10) == [1, 2, 3]

    def test_sample_spans_whole_sequence(self):
        sample = stride_sample(list(range(100)), 10)
        assert len(sample) == 10
        # evidence must come from the whole column, not its first rows
        assert max(sample) >= 90
        assert sample == sorted(sample)  # deterministic, order-preserving

    def test_zero_limit_means_unlimited(self):
        assert stride_sample(list(range(5)), 0) == [0, 1, 2, 3, 4]

    def test_late_tuples_can_satisfy_conditions(self):
        # regression: sampling the first condition_sample distinct values
        # misclassified conditions satisfied only by late-inserted tuples
        catalog = Catalog("late")
        catalog.create_relation(
            "person",
            [("person_id", DataType.INTEGER), ("name", DataType.TEXT)],
            primary_key=["person_id"],
        )
        db = Database(catalog)
        for i in range(60):
            db.insert("person", [i, "needle" if i == 54 else f"filler_{i:03d}"])
        checker = ConditionChecker(db, TranslatorConfig(condition_sample=10))
        trees = build_relation_trees(
            extract(parse("SELECT x WHERE name? = 'needle'"))
        )
        tree = next(t for t in trees if t.key == ("attr", "name"))
        condition = tree.attribute_trees[0].conditions[0]
        person = db.catalog.relation("person")
        assert checker.status(condition, person, person.attribute("name")) == (
            "satisfied"
        )


class TestRootLevel:
    def test_exact_name_scores_one(self, sim, fig1_db):
        tree = trees_for("SELECT actor?.name?")[0]
        assert sim.root_similarity(tree, fig1_db.catalog.relation("Actor")) == 1.0

    def test_neighbor_similarity_damped(self, sim, fig1_db):
        # paper Example 4: rt with root actor? scores kref against Person
        tree = trees_for("SELECT actor?.name?")[0]
        person = fig1_db.catalog.relation("Person")
        assert sim.root_similarity(tree, person) == pytest.approx(0.7)

    def test_unspecified_root_uses_kdef_floor(self, sim, fig1_db):
        tree = trees_for("SELECT a WHERE zzzqqq? = 1")[0]
        company = fig1_db.catalog.relation("Company")
        assert sim.root_similarity(tree, company) >= 0.3

    def test_unspecified_root_attribute_fallback(self, sim, fig1_db):
        # director_name has no root, but the attribute name resembles the
        # Director relation, which neighbours Person
        tree = trees_for("SELECT a WHERE director_name? = 'X'")
        dn_tree = next(t for t in tree if t.key == ("attr", "director_name"))
        person = fig1_db.catalog.relation("Person")
        assert sim.root_similarity(dn_tree, person) > 0.3


class TestAttributeLevel:
    def test_exact_attribute_maps_to_itself(self, sim, fig1_db):
        tree = trees_for("SELECT actor?.gender?")[0]
        person = fig1_db.catalog.relation("Person")
        score, attr = sim.attribute_similarity(
            tree.attribute_trees[0], person
        )
        assert attr == "gender" and score > 0.9

    def test_condition_satisfaction_boosts(self, sim, fig1_db):
        # 'male' occurs in Person.gender, so the condition factor is
        # (1+1)/(1+1)=1 there, and (0+1)/(1+1)=1/2 elsewhere
        trees = trees_for("SELECT x WHERE gender? = 'male'")
        tree = next(t for t in trees if t.key == ("attr", "gender"))
        person = fig1_db.catalog.relation("Person")
        score, attr = sim.attribute_similarity(tree.attribute_trees[0], person)
        assert attr == "gender"

    def test_type_incompatible_condition_penalised(self, sim, fig1_db):
        # a text constant can never satisfy the integer company_id column
        trees = trees_for("SELECT x WHERE produce_company? = '20th Century Fox'")
        tree = trees[-1]
        company = fig1_db.catalog.relation("Company")
        score, attr = sim.attribute_similarity(tree.attribute_trees[0], company)
        assert attr == "name"

    def test_numeric_range_prefers_numeric_column(self, sim, fig1_db):
        trees = trees_for("SELECT x WHERE year? > 1995 AND year? < 2005")
        tree = next(t for t in trees if t.key == ("attr", "year"))
        movie = fig1_db.catalog.relation("Movie")
        score, attr = sim.attribute_similarity(tree.attribute_trees[0], movie)
        assert attr == "release_year"


class TestTreeLevel:
    def test_paper_rt1_prefers_person(self, sim, fig1_db):
        tree = trees_for(
            "SELECT count(actor?.name?) WHERE actor?.gender? = 'male'"
        )[0]
        person_score, _ = sim.tree_similarity(
            tree, fig1_db.catalog.relation("Person")
        )
        actor_score, _ = sim.tree_similarity(
            tree, fig1_db.catalog.relation("Actor")
        )
        # Actor has no name/gender columns, so Person must win despite the
        # root name matching Actor exactly (paper §4.1's product form)
        assert person_score > actor_score

    def test_attribute_map_recorded(self, sim, fig1_db):
        tree = trees_for("SELECT actor?.name?, actor?.gender?")[0]
        _, attribute_map = sim.tree_similarity(
            tree, fig1_db.catalog.relation("Person")
        )
        assert set(attribute_map.values()) == {"name", "gender"}


class TestConditionChecker:
    def test_satisfied_memoised(self, sim, fig1_db):
        trees = trees_for("SELECT x WHERE gender? = 'male'")
        tree = next(t for t in trees if t.key == ("attr", "gender"))
        condition = tree.attribute_trees[0].conditions[0]
        person = fig1_db.catalog.relation("Person")
        gender = person.attribute("gender")
        first = sim.checker.satisfied(condition, person, gender)
        second = sim.checker.satisfied(condition, person, gender)
        assert first is True and second is True

    def test_incompatible_status(self, sim, fig1_db):
        trees = trees_for("SELECT x WHERE name? = 'Tom Hanks'")
        tree = next(t for t in trees if t.key == ("attr", "name"))
        condition = tree.attribute_trees[0].conditions[0]
        person = fig1_db.catalog.relation("Person")
        assert (
            sim.checker.status(condition, person, person.attribute("person_id"))
            == "incompatible"
        )
        assert (
            sim.checker.status(condition, person, person.attribute("name"))
            == "satisfied"
        )

    def test_unsatisfied_status(self, sim, fig1_db):
        trees = trees_for("SELECT x WHERE name? = 'Nobody Here'")
        tree = next(t for t in trees if t.key == ("attr", "name"))
        condition = tree.attribute_trees[0].conditions[0]
        person = fig1_db.catalog.relation("Person")
        assert (
            sim.checker.status(condition, person, person.attribute("name"))
            == "unsatisfied"
        )


# ---------------------------------------------------------------------------
# scoring plans: made once per tree per query, equal to the per-pair path
# ---------------------------------------------------------------------------

SUBJECT = ast.ColumnRef(ast.exact("v"))


def _eq(value):
    return ast.BinaryOp("=", SUBJECT, ast.Literal(value))


#: every literal family (and NULL) under every predicate shape a
#: condition can take, plus nested AND/OR that only hand-built
#: conditions carry (extraction splits conjuncts, and OR is no condition)
PREDICATES = [
    _eq(3),
    _eq(2.5),
    _eq(True),
    _eq(False),
    _eq("alpha"),
    _eq("2021-03-04"),
    _eq("soon"),
    _eq(None),
    parse_expression("v > -2"),
    parse_expression("v <= 9.5"),
    parse_expression("v > '2021-03-04'"),
    parse_expression("v < 'zeta'"),
    parse_expression("v IS NULL"),
    parse_expression("v IS NOT NULL"),
    parse_expression("v LIKE 'al%'"),
    parse_expression("v NOT LIKE '2021%'"),
    parse_expression("v BETWEEN 1 AND 2.5"),
    parse_expression("v BETWEEN '2020-01-01' AND '2021-12-31'"),
    parse_expression("v BETWEEN 'a' AND 'b'"),
    parse_expression("v IN (1, 2, NULL)"),
    parse_expression("v IN ('a1', 'b2')"),
    parse_expression("v NOT IN ('2020-05-06', 'later')"),
    parse_expression("(v > 1 AND v < 5) OR v = 7"),
    parse_expression("v = 'x' OR (v > '2020-01-01' AND v < '2021-01-01')"),
    ast.BinaryOp(
        "or", _eq(True), ast.BinaryOp("and", _eq(None), parse_expression("v < 4"))
    ),
]
CORPUS = [Condition(predicate, SUBJECT) for predicate in PREDICATES]

#: queries whose extracted conditions cover each shape on real columns
PLAN_QUERIES = [
    "SELECT x WHERE price? > 10",
    "SELECT x WHERE price? <= 9.5",
    "SELECT x WHERE label? = 'alpha'",
    "SELECT x WHERE added? > '2021-03-04'",
    "SELECT x WHERE added? = 'soon'",
    "SELECT x WHERE code? IS NULL",
    "SELECT x WHERE label? LIKE 'al%'",
    "SELECT x WHERE weight? BETWEEN 1 AND 2.5",
    "SELECT x WHERE code? IN ('a1', 'b2')",
    "SELECT item?.label? WHERE item?.price? > 3 "
    "AND item?.added? < '2021-06-01' AND item?.active? IS NOT NULL",
    "SELECT b?.code?, b?.weight? WHERE b?.made? = '2020-05-06' "
    "AND b?.weight? > 1 AND b?.code? LIKE 'b%'",
]


def make_typed_database() -> Database:
    """Two relations with a column of every :class:`DataType`."""
    catalog = Catalog("typed")
    catalog.create_relation(
        "item",
        [
            ("item_id", DataType.INTEGER),
            ("label", DataType.TEXT),
            ("price", DataType.FLOAT),
            ("active", DataType.BOOLEAN),
            ("added", DataType.DATE),
        ],
        primary_key=["item_id"],
    )
    catalog.create_relation(
        "batch",
        [
            ("batch_id", DataType.INTEGER),
            ("item_id", DataType.INTEGER),
            ("code", DataType.TEXT),
            ("made", DataType.DATE),
            ("weight", DataType.FLOAT),
            ("sealed", DataType.BOOLEAN),
        ],
        primary_key=["batch_id"],
    )
    catalog.add_foreign_key("batch", "item_id", "item")
    db = Database(catalog)
    day = datetime.date
    db.insert("item", [1, "alpha", 2.5, True, day(2021, 3, 4)])
    db.insert("item", [2, "beta", 7.0, False, day(2019, 1, 1)])
    db.insert("item", [3, None, None, None, None])
    db.insert("batch", [10, 1, "a1", day(2020, 5, 6), 1.5, True])
    db.insert("batch", [11, 2, None, day(2022, 8, 9), 3.0, None])
    db.insert("batch", [12, 1, "c3", None, None, False])
    return db


def plan_trees():
    """The query trees, plus one tree carrying the whole corpus."""
    trees = [t for sql in PLAN_QUERIES for t in trees_for(sql)]
    tree = next(
        t for t in trees_for("SELECT x WHERE v? = 1") if t.key == ("attr", "v")
    )
    tree.attribute_trees[0].conditions[:] = CORPUS
    return trees + [tree]


class PerPairChecker(ConditionChecker):
    """Condition checks as they were before plans: every (condition,
    column) pair re-derives compatibility, probe and memo key."""

    def check(self, condition, relation, attribute):
        if not _compatible(condition.predicate, attribute.data_type):
            return "incompatible"
        probe = _probe_predicate(condition)
        memo_key = (render(probe), relation.key, attribute.key)
        if self._context is not None:
            cached = self._context.condition_status(memo_key)
        else:
            cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        result = "unsatisfied"
        for value in self._sample(relation.name, attribute.name):
            scope = Scope({"__probe__": {"__value__": value}})
            try:
                if Evaluator().is_true(probe, scope):
                    result = "satisfied"
                    break
            except (ExecutionError, NameResolutionError):
                result = "incompatible"
                break
        if self._context is not None:
            self._context.remember_condition(memo_key, result)
        else:
            self._memo[memo_key] = result
        return result


class PerPairEvaluator(SimilarityEvaluator):
    """Scores one (tree, relation) pair at a time, as before plans and
    name rows: every pair re-derives the root similarity (direct,
    aliases, damped neighbours) and each attribute's name similarity,
    and checks each raw condition through :class:`PerPairChecker`."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.checker = PerPairChecker(self.database, self.config, self.context)

    def _root(self, name, relation):
        direct = self.sim(name, relation.name)
        for alias in self.context.relation_aliases(relation.key):
            direct = max(direct, self.sim(name, alias))
        damped = max(
            (
                self.config.kref * self.sim(name, neighbor.name)
                for neighbor in self.context.neighbors(relation.key)
            ),
            default=0.0,
        )
        return max(direct, damped)

    def _tree_similarity(self, tree, relation, fingerprint=None):
        config = self.config
        if tree.known_name is not None:
            score = max(self._root(tree.known_name, relation), config.kdef)
        else:
            score = config.kdef
            for attribute_tree in tree.attribute_trees:
                if attribute_tree.known_name is not None:
                    score = max(
                        score, self._root(attribute_tree.known_name, relation)
                    )
        primary_key = {c.lower() for c in relation.primary_key}
        attribute_map = {}
        for attribute_tree in tree.attribute_trees:
            name = attribute_tree.known_name
            best, best_name = 0.0, None
            for attribute in relation.attributes:
                if name is not None:
                    raw = self.sim(name, attribute.name)
                    for alias in self.context.attribute_aliases(
                        relation.key, attribute.key
                    ):
                        raw = max(raw, self.sim(name, alias))
                    alpha = config.attr_smooth
                    pair = (raw + alpha) / (1.0 + alpha)
                else:
                    pair = config.kdef
                if attribute.name.lower() in primary_key:
                    pair *= config.pk_bonus
                conditions = attribute_tree.conditions
                if conditions:
                    satisfied = 0
                    for condition in conditions:
                        status = self.checker.check(
                            condition, relation, attribute
                        )
                        if status == "satisfied":
                            satisfied += 1
                        elif status == "incompatible":
                            pair *= config.k_incompat
                    beta = config.cond_smooth
                    pair *= (satisfied + beta) / (len(conditions) + beta)
                if pair > best:
                    best, best_name = pair, attribute.name
            score *= best
            if best_name is not None:
                attribute_map[attribute_tree.key] = best_name
        return score, attribute_map

    def _sampled_columns(self, fingerprint, tree, relation):
        predicates = [
            c.predicate for a in tree.attribute_trees for c in a.conditions
        ]
        return frozenset(
            a.key
            for a in relation.attributes
            if any(_compatible(p, a.data_type) for p in predicates)
        )


@pytest.fixture(params=["memory", "sqlite"])
def typed_backend(request):
    """A backend over :func:`make_typed_database`, plus an inserter."""
    db = make_typed_database()
    if request.param == "memory":
        yield MemoryBackend(db), db.insert
        return
    connection = export_to_sqlite(db, ":memory:")
    backend = SqliteBackend(connection)

    def insert(relation, row):
        marks = ", ".join("?" for _ in row)
        connection.execute(f"INSERT INTO {relation} VALUES ({marks})", row)
        connection.commit()

    yield backend, insert
    backend.close()
    connection.close()


class TestScoringPlan:
    def test_corpus_compatibility_matches_compatible(self):
        seen = set()
        for condition in CORPUS:
            plan = plan_condition(condition)
            for data_type in DataType:
                compatible = _compatible(condition.predicate, data_type)
                assert (data_type in plan.types) == compatible
                seen.add((data_type, compatible))
        # the corpus settles every column type both ways
        assert seen == {(t, c) for t in DataType for c in (True, False)}

    def test_plan_key_is_the_interned_rendered_probe(self):
        for condition in CORPUS:
            plan = plan_condition(condition)
            assert plan.probe == _probe_predicate(condition)
            assert plan.key == render(plan.probe)
            assert plan.key is sys.intern(render(plan.probe))

    def test_statuses_and_memo_match_per_pair(self, typed_backend):
        backend, _ = typed_backend
        config = TranslatorConfig()
        planned = ConditionChecker(backend, config)
        per_pair = PerPairChecker(backend, config)
        statuses = set()
        for tree in plan_trees():
            for attribute_tree in tree.attribute_trees:
                for condition in attribute_tree.conditions:
                    plan = plan_condition(condition)
                    for relation in backend.catalog:
                        for attribute in relation.attributes:
                            status = planned.check(plan, relation, attribute)
                            assert status == planned.status(
                                condition, relation, attribute
                            )
                            assert status == per_pair.check(
                                condition, relation, attribute
                            )
                            statuses.add(status)
        assert statuses == {"satisfied", "unsatisfied", "incompatible"}
        assert planned._memo == per_pair._memo

    def test_context_scoring_matches_per_pair(self, typed_backend):
        backend, insert = typed_backend
        config = TranslatorConfig()
        planned_context = TranslationContext(backend, config)
        per_pair_context = TranslationContext(backend, config)
        planned = SimilarityEvaluator(backend, config, planned_context)
        per_pair = PerPairEvaluator(backend, config, per_pair_context)
        trees = plan_trees()
        # cold, warm, then warm again after a write revalidates the memos
        for step in range(3):
            if step == 2:
                insert("item", [4, "alpha-2", 1.5, True, "2022-02-02"])
            for context, evaluator in (
                (planned_context, planned),
                (per_pair_context, per_pair),
            ):
                context.ensure_current()
                evaluator.begin_query()
            for tree in trees:
                fingerprint = tree_fingerprint(tree)
                for relation in planned_context.relations:
                    assert planned.memoized_tree_similarity(
                        tree, fingerprint, relation
                    ) == per_pair.memoized_tree_similarity(
                        tree, fingerprint, relation
                    )
                    assert planned._sampled_columns(
                        fingerprint, tree, relation
                    ) == per_pair._sampled_columns(fingerprint, tree, relation)
            assert (
                planned_context.stats.as_dict()
                == per_pair_context.stats.as_dict()
            )
            assert planned_context._conditions == per_pair_context._conditions
            assert planned_context._tree_sims == per_pair_context._tree_sims
        stats = planned_context.stats.as_dict()
        assert stats["condition_hits"] and stats["condition_misses"]
        assert stats["tree_sim_hits"] and stats["tree_sim_misses"]

    def test_plans_live_for_one_query(self, typed_backend):
        backend, _ = typed_backend
        config = TranslatorConfig()
        evaluator = SimilarityEvaluator(
            backend, config, TranslationContext(backend, config)
        )
        tree = plan_trees()[-1]
        relation = next(iter(backend.catalog))
        evaluator.begin_query()
        evaluator.tree_similarity(tree, relation)
        plan = evaluator._plans[tree_fingerprint(tree)]
        assert plan.conditions[tree.attribute_trees[0].key] == tuple(
            plan_condition(c) for c in CORPUS
        )
        evaluator.begin_query()
        assert not evaluator._plans


#: named and unnamed roots, named and placeholder attributes, and names
#: that only an alias below matches
NAME_ROW_QUERIES = [
    "SELECT person?.name? WHERE movie?.title? = 'Titanic'",
    "SELECT title? WHERE name? = 'Tom Hanks'",
    "SELECT person?.? WHERE person?.? = 'male'",
    "SELECT ?x.name? WHERE ?x.? = 1997",
    "SELECT ?.? WHERE ?.? = 'Titanic'",
    "SELECT film?.heading? WHERE studio?.label? = 'Paramount'",
]

#: (relation, attribute or None, alias) construction-time aliases
NAME_ROW_ALIASES = [
    ("Movie", None, "film"),
    ("Movie", "title", "heading"),
    ("Company", None, "studio"),
    ("Company", "name", "label"),
]


def name_row_trees():
    return [t for sql in NAME_ROW_QUERIES for t in trees_for(sql)]


def assert_scores_match_fresh(database, evaluator, aliases=()):
    """Every tree against every relation, scored through the name rows
    (bypassing the tree-sim memo), equals the per-pair reference on a
    fresh context with the same aliases."""
    fresh = TranslationContext(database, evaluator.config, aliases=aliases)
    reference = PerPairEvaluator(database, evaluator.config, fresh)
    for tree in name_row_trees():
        for relation in evaluator.context.relations:
            assert evaluator._tree_similarity(
                tree, relation
            ) == reference._tree_similarity(tree, relation), (
                str(tree),
                relation.key,
            )


class TestNameRows:
    def make(self, database, aliases=()):
        context = TranslationContext(database, aliases=aliases)
        return context, SimilarityEvaluator(database, context.config, context)

    def test_rows_match_per_pair_reference(self, fig1_db):
        context, evaluator = self.make(fig1_db)
        assert_scores_match_fresh(fig1_db, evaluator)
        # placeholders share one attribute row; unnamed roots read the
        # root rows of their attribute names
        assert ("attribute", None) in context._name_rows
        assert ("root", "title") in context._name_rows
        # a second pass reads the stored rows and still agrees
        evaluator.begin_query()
        assert_scores_match_fresh(fig1_db, evaluator)

    def test_aliased_rows_match_per_pair_reference(self, fig1_db):
        context, evaluator = self.make(fig1_db, NAME_ROW_ALIASES)
        assert_scores_match_fresh(fig1_db, evaluator, NAME_ROW_ALIASES)
        evaluator.begin_query()
        assert_scores_match_fresh(fig1_db, evaluator, NAME_ROW_ALIASES)
        # the aliases moved scores: an alias-free context differs
        plain = TranslationContext(fig1_db)
        film = trees_for("SELECT film?.heading?")[0]
        movie = fig1_db.catalog.relation("Movie")
        assert evaluator._tree_similarity(film, movie) != (
            SimilarityEvaluator(fig1_db, plain.config, plain)._tree_similarity(
                film, movie
            )
        )

    def test_cap_evicts_oldest(self, fig1_db, monkeypatch):
        import repro.core.context as context_module

        monkeypatch.setattr(context_module, "NAME_ROW_CAP", 2)
        context, evaluator = self.make(fig1_db)
        stored = []
        remember = context.remember_name_row

        def recording(key, row):
            stored.append(key)
            remember(key, row)

        context.remember_name_row = recording
        for _ in range(2):
            evaluator.begin_query()
            assert_scores_match_fresh(fig1_db, evaluator)
            assert len(context._name_rows) <= 2
        assert len(set(stored)) > 2
        # FIFO: what is left is the last two stored
        assert list(context._name_rows) == stored[-2:]
