"""Shared helpers for core-layer tests."""

from repro.core import TranslatorConfig, View, ViewGraph, ViewJoin
from repro.core.mapper import RelationTreeMapper
from repro.core.relation_tree import build_relation_trees
from repro.core.similarity import SimilarityEvaluator
from repro.core.triples import extract
from repro.core.view_graph import ExtendedViewGraph
from repro.sqlkit import parse

PAPER_QUERY = (
    "SELECT count(actor?.name?) WHERE actor?.gender? = 'male' "
    "and director_name? = 'James Cameron' "
    "and produce_company? = '20th Century Fox' "
    "and year? > 1995 and year? < 2005"
)

#: Figure 5's view: Person-Actor-Movie-Director-Person
FIG5_VIEW = View(
    name="fig5",
    relations=("Person", "Actor", "Movie", "Director", "Person"),
    joins=(
        ViewJoin(0, "person_id", 1, "person_id"),
        ViewJoin(1, "movie_id", 2, "movie_id"),
        ViewJoin(2, "movie_id", 3, "movie_id"),
        ViewJoin(3, "person_id", 4, "person_id"),
    ),
    source="log",
)


def make_xgraph(db, sql=PAPER_QUERY, views=(), config=None):
    config = config or TranslatorConfig()
    trees = build_relation_trees(extract(parse(sql)))
    evaluator = SimilarityEvaluator(db, config)
    mapper = RelationTreeMapper(db, config, evaluator)
    mappings = mapper.map_trees(trees)
    graph = ViewGraph(db.catalog, views)
    return (
        ExtendedViewGraph(graph, trees, mappings, evaluator, config),
        trees,
        mappings,
    )


#: the budgets of the pinned ladder sweep (tests/data/ladder_sweep.json)
LADDER_SWEEP_BUDGETS = (
    ("max_expansions", 2),
    ("max_expansions", 5),
    ("max_candidates", 5),
    ("max_candidates", 50),
)


def ladder_sweep() -> dict:
    """Each courses48 query's budgeted top-1, cold, under every budget of
    :data:`LADDER_SWEEP_BUDGETS`: ``{qid: {"field=cap": {"rung": ...,
    "correct": ...}}}``.  ``correct`` is result equivalence with the gold
    query; a typed failure records its class name as the rung."""
    from repro import Budget, ReproError, SchemaFreeTranslator
    from repro.datasets import make_course_database
    from repro.experiments.common import gold_rows, rows_match
    from repro.workloads import COURSE_QUERIES

    database = make_course_database()
    sweep: dict = {}
    for query in COURSE_QUERIES:
        gold = gold_rows(database, query)
        ordered = "ORDER BY" in query.gold_sql.upper()
        row = sweep[query.qid] = {}
        for field, cap in LADDER_SWEEP_BUDGETS:
            translator = SchemaFreeTranslator(database)
            try:
                best = translator.translate_best(
                    query.sf_sql, budget=Budget(**{field: cap})
                )
            except ReproError as exc:
                row[f"{field}={cap}"] = {
                    "rung": type(exc).__name__, "correct": False
                }
                continue
            row[f"{field}={cap}"] = {
                "rung": best.rung,
                "correct": rows_match(database, best, gold, ordered),
            }
    return sweep
