"""Tests for the resilience layer: cooperative budgets, the degradation
ladder, deterministic fault injection, and the unified ``ReproError``
taxonomy with structured diagnostics."""

import io
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Budget,
    BudgetExceeded,
    Catalog,
    Database,
    DataType,
    Diagnostic,
    EngineError,
    ReproError,
    SchemaFreeTranslator,
    SqlSyntaxError,
    TranslationError,
    TranslatorConfig,
)
from repro.cli import (
    EXIT_ENGINE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_SYNTAX,
    EXIT_TRANSLATION,
    Shell,
    exit_code_for,
    main,
)
import repro
from repro.core import LADDER, NoJoinNetworkError
from repro.core.resilience import FULL_TIME_FRACTION, weaker_rung
from repro.testing import FaultInjector, InjectedFault
from repro.testing.faults import STAGES

from tests.helpers import LADDER_SWEEP_BUDGETS, PAPER_QUERY, ladder_sweep


class FakeClock:
    """A manually advanced monotonic clock for deterministic deadlines."""

    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_islands_db() -> Database:
    """Two relations with no foreign-key path between them: no join
    network, not even greedy's, connects a query over both."""
    catalog = Catalog("islands")
    catalog.create_relation(
        "alpha",
        [("alpha_id", DataType.INTEGER), ("alpha_name", DataType.TEXT)],
        primary_key=["alpha_id"],
    )
    catalog.create_relation(
        "beta",
        [("beta_id", DataType.INTEGER), ("beta_name", DataType.TEXT)],
        primary_key=["beta_id"],
    )
    db = Database(catalog)
    db.insert("alpha", [1, "a1"])
    db.insert("alpha", [2, "a2"])
    db.insert("beta", [1, "b1"])
    return db


def make_dense_db(n: int = 12) -> Database:
    """A dense schema: ``n`` relations in a cycle, each with foreign keys
    to the next three — the join search has many legal networks."""
    catalog = Catalog("dense")
    for i in range(n):
        targets = [(i + 1) % n, (i + 2) % n, (i + 3) % n]
        catalog.create_relation(
            f"node{i}",
            [(f"node{i}_id", DataType.INTEGER), (f"tag{i}", DataType.TEXT)]
            + [(f"ref{j}", DataType.INTEGER) for j in targets],
            primary_key=[f"node{i}_id"],
        )
    for i in range(n):
        for j in ((i + 1) % n, (i + 2) % n, (i + 3) % n):
            catalog.add_foreign_key(f"node{i}", f"ref{j}", f"node{j}", f"node{j}_id")
    db = Database(catalog)
    for row in range(2):
        for i in range(n):
            db.insert(f"node{i}", [row, f"t{i}_{row}", None, None, None])
    return db


# ======================================================================
# Budget
# ======================================================================
class TestBudget:
    def test_unlimited_never_raises(self):
        budget = Budget.unlimited()
        budget.check("network")
        budget.charge_candidates(10_000)
        budget.charge_expansions(10_000)
        assert not budget.is_exhausted
        assert budget.remaining_time() is None

    def test_deadline_with_injected_clock(self):
        clock = FakeClock()
        budget = Budget(deadline=5.0, clock=clock)
        budget.check("network")
        assert budget.remaining_time() == pytest.approx(5.0)
        clock.advance(6.0)
        assert budget.time_exceeded()
        with pytest.raises(BudgetExceeded) as exc_info:
            budget.check("network")
        assert "deadline" in str(exc_info.value)
        assert exc_info.value.diagnostic.stage == "network"

    def test_exhaustion_is_sticky(self):
        clock = FakeClock()
        budget = Budget(deadline=1.0, clock=clock)
        clock.advance(2.0)
        with pytest.raises(BudgetExceeded):
            budget.check("map")
        assert budget.is_exhausted
        # even if time were rewound, a spent budget stays spent
        clock.advance(-2.0)
        with pytest.raises(BudgetExceeded):
            budget.check("compose")

    def test_candidate_cap(self):
        budget = Budget(max_candidates=3)
        budget.charge_candidates(3)
        with pytest.raises(BudgetExceeded) as exc_info:
            budget.charge_candidates(1)
        diagnostic = exc_info.value.diagnostic
        assert diagnostic.stage == "map"
        assert diagnostic.candidates == 4
        assert diagnostic.detail["max_candidates"] == 3

    def test_expansion_cap(self):
        budget = Budget(max_expansions=2)
        budget.charge_expansions(2)
        with pytest.raises(BudgetExceeded) as exc_info:
            budget.charge_expansions(1)
        assert exc_info.value.diagnostic.stage == "network"
        assert "expansion budget exhausted" in str(exc_info.value)

    def test_budget_exceeded_is_a_repro_error(self):
        assert issubclass(BudgetExceeded, ReproError)

    def test_slice_scales_time_and_keeps_caps(self):
        clock = FakeClock()
        parent = Budget(
            deadline=10.0, max_candidates=100, max_expansions=40, clock=clock
        )
        clock.advance(2.0)  # 8s remain
        child = parent.slice(0.5)
        assert child.deadline == pytest.approx(4.0)
        assert child.max_candidates == 100
        assert child.max_expansions == 40
        assert child.clock is clock
        # the child's counters are fresh, not inherited
        assert child.candidates == 0

    def test_slice_counters_never_scale_to_zero(self):
        # a slice takes a share of the time, never of the caps
        parent = Budget(max_expansions=1)
        assert parent.slice(FULL_TIME_FRACTION).max_expansions == 1
        assert parent.slice().deadline is None

    def test_snapshot_shape(self):
        budget = Budget(deadline=3.0, max_candidates=7)
        budget.charge_candidates(2)
        snap = budget.snapshot()
        assert snap["candidates"] == 2
        assert snap["max_candidates"] == 7
        assert snap["deadline"] == 3.0


class TickingClock:
    """A clock that moves *step* seconds on every read, so a deadline
    check per charged unit shows in both the raise point and the read
    count."""

    def __init__(self, step: float) -> None:
        self.now = 100.0
        self.step = step
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        self.now += self.step
        return self.now


BUDGET_FAMILIES = st.fixed_dictionaries(
    {
        "deadline": st.one_of(st.none(), st.floats(0.5, 40.0)),
        "step": st.sampled_from([0.0, 0.25, 1.0]),
        "max_candidates": st.one_of(st.none(), st.integers(0, 40)),
        "slices": st.lists(
            st.sampled_from([1.0, FULL_TIME_FRACTION, 0.6]), max_size=2
        ),
        "before": st.integers(0, 12),
        "exhausted": st.booleans(),
        "n": st.integers(0, 60),
    }
)


class TestChargeCandidatesProperty:
    """``charge_candidates(n)`` is exactly n one-candidate charges: the
    counters of the budget and of every ancestor slice, the raise point,
    the exception and its :class:`Diagnostic`, and the clock reads."""

    @staticmethod
    def charge(family: dict, bulk: bool):
        clock = TickingClock(family["step"])
        chain = [
            Budget(
                deadline=family["deadline"],
                max_candidates=family["max_candidates"],
                clock=clock,
            )
        ]
        for time_fraction in family["slices"]:
            chain.append(chain[-1].slice(time_fraction))
        leaf = chain[-1]
        for _ in range(family["before"]):  # the same history on both sides
            try:
                leaf.charge_candidates(1)
            except BudgetExceeded:
                break
        if family["exhausted"] and not leaf.is_exhausted:
            with pytest.raises(BudgetExceeded):
                leaf.exhaust("network", "injected budget exhaustion")
        raised = None
        try:
            if bulk:
                leaf.charge_candidates(family["n"], stage="map")
            else:
                for _ in range(family["n"]):
                    leaf.charge_candidates(1, stage="map")
        except BudgetExceeded as exc:
            raised = (str(exc), exc.diagnostic)
        return (
            raised,
            [(b.candidates, b.exhausted_reason) for b in chain],
            clock.reads,
        )

    @settings(max_examples=300, deadline=None)
    @given(family=BUDGET_FAMILIES)
    def test_bulk_charge_equals_unit_charges(self, family):
        assert self.charge(family, bulk=True) == self.charge(
            family, bulk=False
        )

    def test_counting_stops_at_the_first_unit_over_the_cap(self):
        parent = Budget(max_candidates=5)
        child = parent.slice()  # cap 5
        child.charge_candidates(3)
        with pytest.raises(BudgetExceeded) as exc_info:
            child.charge_candidates(53)
        assert child.candidates == 6
        assert parent.candidates == 6
        assert exc_info.value.diagnostic.candidates == 6


# ======================================================================
# budget exhaustion through the pipeline (degrade=False -> typed errors)
# ======================================================================
class TestBudgetExhaustionPaths:
    def test_expansion_budget_raises_typed_error(self, fig1_translator):
        with pytest.raises(BudgetExceeded) as exc_info:
            fig1_translator.translate(
                PAPER_QUERY, budget=Budget(max_expansions=1), degrade=False
            )
        assert exc_info.value.diagnostic is not None
        assert exc_info.value.diagnostic.stage == "network"

    def test_deadline_raises_typed_error(self, fig1_translator):
        clock = FakeClock()
        budget = Budget(deadline=1.0, clock=clock)
        clock.advance(5.0)
        with pytest.raises(BudgetExceeded):
            fig1_translator.translate(PAPER_QUERY, budget=budget, degrade=False)

    @staticmethod
    def pinned_translator(db) -> SchemaFreeTranslator:
        """A translator whose backend advises starting at ``greedy``."""
        from repro.backends import MemoryBackend, ResilientBackend

        backend = ResilientBackend(MemoryBackend(db))
        backend.health.stats_degraded = True
        assert backend.start_advice[0] == "greedy"
        return SchemaFreeTranslator(backend)

    def test_pinned_ladder_runs_no_search_without_degrade(self, fig1_db):
        # the full search is skipped, so a budget that would stop it
        # raises nothing with degrade off: greedy charges no expansions
        translator = self.pinned_translator(fig1_db)
        best = translator.translate_best(
            "SELECT title? WHERE director?.name = 'James Cameron'",
            budget=Budget(max_expansions=2),
            degrade=False,
        )
        assert best.rung == "greedy"
        assert translator.last_translation_stats.expansions == 0
        assert translator.last_degradation[-1].startswith("greedy single")

    def test_pinned_ladder_raises_no_network_without_degrade(self):
        translator = self.pinned_translator(make_islands_db())
        with pytest.raises(NoJoinNetworkError) as exc_info:
            translator.translate_best(
                "SELECT alpha_name?, beta_name?", degrade=False
            )
        assert exc_info.value.diagnostic.stage == "network"
        assert exc_info.value.diagnostic.degradation[-2:] == (
            "ladder pinned at 'greedy': skipping full",
            "greedy join path could not connect all trees",
        )

    def test_pinned_ladder_refuses_a_spent_deadline(self, fig1_db):
        # no full search ran, so the refusal is the budget's own error
        translator = self.pinned_translator(fig1_db)
        clock = FakeClock()
        budget = Budget(deadline=1.0, clock=clock)
        clock.advance(5.0)
        with pytest.raises(BudgetExceeded) as exc_info:
            translator.translate_best("SELECT title?", budget=budget)
        assert exc_info.value.diagnostic.stage == "network"
        assert exc_info.value.diagnostic.degradation[-2:] == (
            "ladder pinned at 'greedy': skipping full",
            "greedy join path skipped: deadline passed",
        )

    def test_degradation_defaults_on_when_budgeted(self, fig1_translator, fig1_db):
        # same starved budget, but degrade is left to default: the ladder
        # kicks in instead of the error surfacing
        translations = fig1_translator.translate(
            PAPER_QUERY, budget=Budget(max_expansions=1)
        )
        assert translations
        assert translations[0].is_degraded
        assert fig1_db.execute(translations[0].query) is not None


# ======================================================================
# the degradation ladder
# ======================================================================
class TestDegradationLadder:
    def test_ladder_rungs(self):
        assert LADDER == ("full", "greedy")
        assert 0.0 < FULL_TIME_FRACTION < 1.0

    def test_weaker_rung(self):
        assert weaker_rung("full", "greedy") == "greedy"
        assert weaker_rung("greedy", "full") == "greedy"
        assert weaker_rung("greedy", "greedy") == "greedy"
        assert weaker_rung(None, "greedy") == "greedy"
        assert weaker_rung("full", None) == "full"

    def test_rung_order_is_compared_only_in_resilience(self):
        package = Path(repro.__file__).parent
        users = sorted(
            path.relative_to(package).as_posix()
            for path in package.rglob("*.py")
            if "LADDER.index" in path.read_text(encoding="utf-8")
        )
        assert users == ["core/resilience.py"]

    def test_full_rung_with_generous_budget(self, fig1_translator, fig1_db):
        budget = Budget(deadline=60.0, max_candidates=100_000, max_expansions=100_000)
        best = fig1_translator.translate_best(PAPER_QUERY, budget=budget)
        assert not best.is_degraded
        assert best.degradation == ()
        assert best.diagnostic is None
        assert fig1_db.execute(best.query).scalar() == 1

    def test_greedy_rescues_an_exhausted_full_search(self, fig1_db):
        # exhaust only the full rung's slice: the injected fault fires at
        # the network-stage entry, which the translator visits once
        injector = FaultInjector()
        injector.inject_budget_exhaustion("network")
        translator = SchemaFreeTranslator(fig1_db, faults=injector)
        best = translator.translate_best(PAPER_QUERY, budget=Budget(deadline=60.0))
        assert "rung: greedy" in best.diagnostic.message
        assert best.degradation[0].startswith("full search abandoned")
        assert best.degradation[1].startswith("greedy single join path")
        # the greedy path still finds the paper's correct answer
        assert fig1_db.execute(best.query).scalar() == 1

    def test_greedy_rung(self, fig1_translator, fig1_db):
        best = fig1_translator.translate_best(
            PAPER_QUERY, budget=Budget(max_expansions=2)
        )
        assert "rung: greedy" in best.diagnostic.message
        assert any("greedy single join path" in s for s in best.degradation)
        # the greedy path is a legal join network: it executes and still
        # reaches the right answer on the running example
        assert fig1_db.execute(best.query).scalar() == 1

    def test_deadline_spent_before_greedy_is_refused(self, fig1_db):
        # a delay fault burns the whole deadline during the full rung;
        # greedy is then skipped and the full rung's own error surfaces,
        # listing the steps taken
        injector = FaultInjector()
        injector.inject_delay("network", 30.0)
        translator = SchemaFreeTranslator(fig1_db, faults=injector)
        with pytest.raises(BudgetExceeded) as exc_info:
            translator.translate_best(
                PAPER_QUERY, budget=Budget(deadline=1.0, clock=injector.clock)
            )
        diagnostic = exc_info.value.diagnostic
        assert "deadline" in diagnostic.message
        assert len(diagnostic.degradation) == 2
        assert diagnostic.degradation[0].startswith("full search abandoned")
        assert diagnostic.degradation[1] == (
            "greedy join path skipped: deadline passed"
        )
        assert translator.last_diagnostic is diagnostic

    def test_disconnected_schema_is_refused_with_degrade(self):
        translator = SchemaFreeTranslator(make_islands_db())
        with pytest.raises(NoJoinNetworkError) as exc_info:
            translator.translate_best(
                "SELECT alpha_name?, beta_name?", degrade=True
            )
        assert "(rt1, rt2)" in str(exc_info.value)
        diagnostic = exc_info.value.diagnostic
        assert diagnostic.stage == "network"
        assert diagnostic.token == "rt1, rt2"
        assert len(diagnostic.degradation) == 2
        assert diagnostic.degradation[0].startswith("full search failed")
        assert diagnostic.degradation[1].startswith(
            "greedy join path could not connect"
        )

    def test_disconnected_schema_without_degradation_raises(self):
        translator = SchemaFreeTranslator(make_islands_db())
        with pytest.raises(NoJoinNetworkError) as exc_info:
            translator.translate_best("SELECT alpha_name?, beta_name?")
        assert exc_info.value.diagnostic.stage == "network"
        # the error names the trees it could not connect
        assert "rt1" in str(exc_info.value)

    def test_budgeted_courses48_answers_match_the_pinned_sweep(self):
        # every courses48 query under four counter budgets, cold: the rung
        # and the gold verdict of each top-1 are pinned (~3 s)
        pinned = json.loads(
            (Path(__file__).parent / "data" / "ladder_sweep.json").read_text()
        )
        assert pinned["budgets"] == [
            f"{field}={cap}" for field, cap in LADDER_SWEEP_BUDGETS
        ]
        assert ladder_sweep() == pinned["sweep"]

    def test_degradation_steps_exposed_on_translator(self, fig1_translator):
        fig1_translator.translate_best(PAPER_QUERY, budget=Budget(max_expansions=1))
        assert fig1_translator.last_degradation
        assert fig1_translator.last_diagnostic is None  # success: no error

    def test_diagnostic_mirrors_degradation(self, fig1_translator):
        best = fig1_translator.translate_best(
            PAPER_QUERY, budget=Budget(max_expansions=1)
        )
        assert best.diagnostic.degradation == best.degradation


# ======================================================================
# fault injection
# ======================================================================
class TestFaultInjection:
    @pytest.mark.parametrize("stage", STAGES)
    def test_error_fault_in_every_stage_is_typed(self, fig1_db, stage):
        injector = FaultInjector()
        injector.inject_error(stage)
        translator = SchemaFreeTranslator(fig1_db, faults=injector)
        with pytest.raises(ReproError) as exc_info:
            translator.translate(PAPER_QUERY)
        assert isinstance(exc_info.value, InjectedFault)
        assert exc_info.value.diagnostic.stage == stage
        assert injector.log == [(stage, "error")]

    def test_foreign_exception_is_wrapped_as_translation_error(self, fig1_db):
        injector = FaultInjector()
        injector.inject_error("map", ValueError("boom"))
        translator = SchemaFreeTranslator(fig1_db, faults=injector)
        with pytest.raises(TranslationError) as exc_info:
            translator.translate(PAPER_QUERY)
        assert "boom" in str(exc_info.value)
        assert isinstance(exc_info.value.__cause__, ValueError)

    def test_budget_fault_without_budget_raises(self, fig1_db):
        injector = FaultInjector()
        injector.inject_budget_exhaustion("compose")
        translator = SchemaFreeTranslator(fig1_db, faults=injector)
        with pytest.raises(BudgetExceeded):
            translator.translate(PAPER_QUERY)

    def test_delay_fault_is_virtual(self, fig1_db):
        # a 1000-second delay fault must not actually sleep
        injector = FaultInjector()
        injector.inject_delay("parse", 1000.0)
        budget = Budget(deadline=1.0, clock=injector.clock)
        translator = SchemaFreeTranslator(fig1_db, faults=injector)
        import time

        start = time.monotonic()
        with pytest.raises(BudgetExceeded) as exc_info:
            translator.translate_best(PAPER_QUERY, budget=budget)
        assert time.monotonic() - start < 30.0
        # the deadline was spent before the full search, so greedy had
        # no time either: a typed refusal listing both steps
        assert exc_info.value.diagnostic.degradation == (
            f"full search abandoned: {exc_info.value}",
            "greedy join path skipped: deadline passed",
        )

    def test_trigger_counts_stage_visits(self, fig1_translator, fig1_db):
        injector = FaultInjector()
        injector.inject_error("parse", trigger=2)
        translator = SchemaFreeTranslator(fig1_db, faults=injector)
        translator.translate_best("SELECT 1 + 1")  # visit 1: no fire
        with pytest.raises(InjectedFault):
            translator.translate_best("SELECT 1 + 1")  # visit 2: fires
        assert injector.visits["parse"] == 2

    def test_one_shot_fault_fires_once(self, fig1_db):
        injector = FaultInjector()
        injector.inject_error("parse")
        translator = SchemaFreeTranslator(fig1_db, faults=injector)
        with pytest.raises(InjectedFault):
            translator.translate_best("SELECT 1 + 1")
        # not repeated: the next translation goes through
        assert translator.translate_best("SELECT 1 + 1").sql

    def test_repeating_fault_keeps_firing(self, fig1_db):
        injector = FaultInjector()
        injector.inject_error("parse", repeat=True)
        translator = SchemaFreeTranslator(fig1_db, faults=injector)
        for _ in range(3):
            with pytest.raises(InjectedFault):
                translator.translate_best("SELECT 1 + 1")

    def test_reset_clears_everything(self, fig1_db):
        injector = FaultInjector()
        injector.inject_error("parse", repeat=True)
        injector.advance(50.0)
        translator = SchemaFreeTranslator(fig1_db, faults=injector)
        with pytest.raises(InjectedFault):
            translator.translate_best("SELECT 1 + 1")
        injector.reset()
        assert injector.log == []
        assert injector.visits == {}
        assert translator.translate_best("SELECT 1 + 1").sql

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector().inject_error("optimize")


# ======================================================================
# the error taxonomy
# ======================================================================
class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(SqlSyntaxError, ReproError)
        assert issubclass(SqlSyntaxError, SyntaxError)  # backward compatible
        assert issubclass(TranslationError, ReproError)
        assert issubclass(TranslationError, RuntimeError)
        assert issubclass(NoJoinNetworkError, TranslationError)
        assert issubclass(EngineError, ReproError)
        assert issubclass(EngineError, RuntimeError)
        assert issubclass(BudgetExceeded, ReproError)
        assert issubclass(InjectedFault, ReproError)

    def test_syntax_error_carries_parse_diagnostic(self, fig1_translator):
        with pytest.raises(SqlSyntaxError) as exc_info:
            fig1_translator.translate("SELECT name? WHERE ((")
        diagnostic = exc_info.value.diagnostic
        assert diagnostic is not None
        assert diagnostic.stage == "parse"
        assert diagnostic.input_span is not None

    def test_unmappable_tree_names_token_and_stage(self, fig1_db):
        translator = SchemaFreeTranslator(fig1_db, TranslatorConfig(kdef=0.0))
        with pytest.raises(TranslationError) as exc_info:
            translator.translate_best("SELECT zzzqqqxxx?.wwwvvv?")
        diagnostic = exc_info.value.diagnostic
        assert diagnostic.stage == "map"
        assert diagnostic.token  # the offending relation tree is named
        assert diagnostic.candidates == len(fig1_db.catalog)

    def test_describe_renders_diagnostic(self, fig1_db):
        translator = SchemaFreeTranslator(fig1_db, TranslatorConfig(kdef=0.0))
        with pytest.raises(TranslationError) as exc_info:
            translator.translate_best("SELECT zzzqqqxxx?.wwwvvv?")
        described = exc_info.value.describe()
        assert "stage" in described and "map" in described

    def test_diagnostic_round_trips_to_dict(self):
        diagnostic = Diagnostic(
            stage="network",
            message="ran dry",
            token="rt1",
            candidates=3,
            degradation=("full search abandoned",),
        )
        data = diagnostic.to_dict()
        assert data["stage"] == "network"
        assert data["degradation"] == ["full search abandoned"]
        assert "ran dry" in diagnostic.render()

    def test_translator_records_last_diagnostic_on_failure(self, fig1_db):
        translator = SchemaFreeTranslator(fig1_db, TranslatorConfig(kdef=0.0))
        with pytest.raises(TranslationError):
            translator.translate_best("SELECT zzzqqqxxx?.wwwvvv?")
        assert translator.last_diagnostic is not None
        assert translator.last_diagnostic.stage == "map"


# ======================================================================
# fuzz: nothing escapes the ReproError hierarchy
# ======================================================================
GARBAGE = [
    "",
    "   ",
    "?",
    "???",
    "SELECT",
    "SELECT FROM",
    "SELECT * FROM",
    "SELECT * FROM WHERE",
    "SELECT )",
    "((((",
    "'unterminated",
    '"also unterminated',
    "SELECT a? WHERE",
    "UNION UNION",
    "SELECT 1 UNION",
    "WHERE x = 1",
    "SELECT x? FROM , ,",
    "SELECT ?.? WHERE ?.? = ?.?",
    ".explain",
    "SELECT \x00\x01",
    "SELECT name? WHERE name? = ",
    "GROUP BY HAVING",
    "SELECT (SELECT (SELECT",
    "-- just a comment",
]


class TestFuzzTaxonomyIsClosed:
    @pytest.mark.parametrize("text", GARBAGE)
    def test_curated_garbage(self, fig1_translator, text):
        try:
            fig1_translator.translate(text)
        except ReproError:
            pass  # the only acceptable failure mode

    def test_random_garbage(self, fig1_translator):
        rng = random.Random(20140622)
        alphabet = "SELECTFROMWHERE?.,*()'\"= abcxyz0123\n\t;%-"
        for _ in range(150):
            text = "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(1, 40))
            )
            try:
                fig1_translator.translate(text)
            except ReproError:
                pass

    def test_random_garbage_under_budget(self, fig1_translator):
        rng = random.Random(7)
        alphabet = "SELECT name? WHERE =ab'x "
        for _ in range(40):
            text = "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(1, 30))
            )
            try:
                fig1_translator.translate(
                    text, budget=Budget(deadline=5.0, max_expansions=50)
                )
            except ReproError:
                pass


# ======================================================================
# the acceptance scenario: pathological query, tiny budget
# ======================================================================
class TestPathologicalQuery:
    def test_dense_schema_blank_from_tiny_budget(self):
        db = make_dense_db()
        translator = SchemaFreeTranslator(db)
        budget = Budget(deadline=2.0, max_candidates=40, max_expansions=25)
        best = translator.translate_best(
            "SELECT tag0?, tag5? WHERE tag9? = 't9_0'", budget=budget
        )
        # completed within its deadline by degrading...
        assert not budget.time_exceeded()
        # ...returns a non-empty translation...
        assert best.sql
        assert "tag0" in best.sql and "tag5" in best.sql
        # ...and the diagnostic lists the degradation steps taken
        assert best.is_degraded
        assert best.diagnostic is not None
        assert best.diagnostic.degradation == best.degradation
        assert len(best.degradation) >= 2
        rung = best.diagnostic.message.split("rung: ")[1].rstrip(")")
        assert rung in LADDER and rung != "full"
        # the degraded result still executes
        db.execute(best.query)


# ======================================================================
# CLI: exit codes and REPL survival
# ======================================================================
class TestExitCodes:
    def test_mapping(self):
        assert exit_code_for(None) == EXIT_OK
        assert exit_code_for(SqlSyntaxError("bad", "q", 0)) == EXIT_SYNTAX
        assert exit_code_for(TranslationError("no")) == EXIT_TRANSLATION
        assert exit_code_for(BudgetExceeded("slow")) == EXIT_TRANSLATION
        assert exit_code_for(EngineError("disk")) == EXIT_ENGINE
        assert exit_code_for(ValueError("bug")) == EXIT_INTERNAL

    def test_one_shot_ok(self, capsys):
        assert main(["--dataset", "movies", "--execute", "SELECT 1 + 1"]) == EXIT_OK
        assert "2" in capsys.readouterr().out

    def test_one_shot_syntax_error(self, capsys):
        rc = main(["--dataset", "movies", "--execute", "SELECT name? WHERE (("])
        assert rc == EXIT_SYNTAX
        assert "error" in capsys.readouterr().out


class TestShellResilience:
    def test_translation_error_reported_with_diagnostic(self, fig1_db):
        shell = Shell(fig1_db)
        shell.translator = SchemaFreeTranslator(fig1_db, TranslatorConfig(kdef=0.0))
        out = io.StringIO()
        alive = shell.run_command("SELECT zzzqqqxxx?.wwwvvv?", out=out)
        assert alive is True
        assert "error:" in out.getvalue()
        assert "  | " in out.getvalue()  # diagnostic lines rendered
        assert exit_code_for(shell.last_error) == EXIT_TRANSLATION

    @pytest.mark.parametrize("stage", STAGES)
    def test_shell_survives_injected_stage_failures(self, fig1_db, stage):
        injector = FaultInjector()
        injector.inject_error(stage)
        shell = Shell(fig1_db)
        shell.translator = SchemaFreeTranslator(fig1_db, faults=injector)
        out = io.StringIO()
        alive = shell.run_command(PAPER_QUERY, out=out)
        assert alive is True
        assert "error:" in out.getvalue()
        assert isinstance(shell.last_error, ReproError)
        assert exit_code_for(shell.last_error) == EXIT_TRANSLATION
        # the shell is still usable afterwards
        out = io.StringIO()
        assert shell.run_command("SELECT 1 + 1", out=out) is True
        assert shell.last_error is None

    def test_shell_survives_translator_bug(self, fig1_db, monkeypatch):
        shell = Shell(fig1_db)

        def explode(*args, **kwargs):
            raise RuntimeError("translator bug")

        monkeypatch.setattr(shell.translator, "translate", explode)
        out = io.StringIO()
        alive = shell.run_command("SELECT name?", out=out)
        assert alive is True
        assert "internal error in translation" in out.getvalue()
        assert "keeps running" in out.getvalue()
        assert exit_code_for(shell.last_error) == EXIT_INTERNAL

    def test_shell_survives_engine_bug(self, fig1_db, monkeypatch):
        shell = Shell(fig1_db)

        def explode(query):
            raise ZeroDivisionError("engine bug")

        monkeypatch.setattr(shell.database, "execute", explode)
        out = io.StringIO()
        alive = shell.run_command("SELECT 1 + 1", out=out)
        assert alive is True
        assert "internal error in execution" in out.getvalue()
        assert exit_code_for(shell.last_error) == EXIT_INTERNAL

    def test_shell_reports_engine_error(self, fig1_db, monkeypatch):
        shell = Shell(fig1_db)

        def refuse(query):
            raise EngineError("disk on fire")

        monkeypatch.setattr(shell.database, "execute", refuse)
        out = io.StringIO()
        alive = shell.run_command("SELECT 1 + 1", out=out)
        assert alive is True
        assert "execution error: disk on fire" in out.getvalue()
        assert exit_code_for(shell.last_error) == EXIT_ENGINE

    def test_why_survives_injected_fault(self, fig1_db):
        injector = FaultInjector()
        injector.inject_error("network")
        shell = Shell(fig1_db)
        shell.translator = SchemaFreeTranslator(fig1_db, faults=injector)
        out = io.StringIO()
        alive = shell.run_command(f".why {PAPER_QUERY}", out=out)
        assert alive is True
        assert "error:" in out.getvalue()

    def test_degraded_translation_is_tagged(self, fig1_db, monkeypatch):
        shell = Shell(fig1_db)
        degraded = shell.translator.translate(
            PAPER_QUERY, budget=Budget(max_expansions=1)
        )
        monkeypatch.setattr(
            shell.translator, "translate", lambda *a, **k: degraded
        )
        out = io.StringIO()
        shell.run_command(f".explain {PAPER_QUERY}", out=out)
        assert "[degraded:" in out.getvalue()
