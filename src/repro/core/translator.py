"""End-to-end Schema-free SQL translation (the paper's Figure 3 pipeline).

``SchemaFreeTranslator`` wires the four architecture modules together:

* Schema-free SQL Parser  — ``repro.sqlkit`` + ``repro.core.triples``
* Relation Tree Mapper    — ``repro.core.mapper`` (+ similarity)
* Network Builder         — ``repro.core.view_graph`` + ``repro.core.mtjn``
* Standard SQL Composer   — ``repro.core.composer``

Nested queries are processed one block at a time, outermost first, so
correlated references resolve against already-translated outer bindings
(paper §2.2.5).  ``translate`` returns the top-k full-SQL interpretations
best-first; ``execute`` evaluates the best one on the database.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from ..engine import Result
from ..errors import Diagnostic, ReproError
from ..obs import NULL_TRACER
from ..sqlkit import ast, parse, render
from .composer import (
    ComposedQuery,
    Composer,
    NoJoinNetworkError,
    TranslationError,
)
from .config import DEFAULT_CONFIG, TranslatorConfig
from .context import TranslationContext, TranslationStats
from .join_network import JoinNetwork
from .mapper import RelationTreeMapper, TreeMappings
from .mtjn import GenerationStats, MTJNGenerator, network_signature
from .query_log import QueryLog, views_from_sql
from .relation_tree import RelationTree, TreeKey, build_relation_trees
from .rescache import fingerprint_parsed, memoized_fingerprint
from .resilience import FULL_TIME_FRACTION, Budget, BudgetExceeded, weaker_rung
from .similarity import SimilarityEvaluator
from .triples import ExtractionResult, JoinFragment, extract
from .view_graph import ExtendedViewGraph, View, ViewGraph, ViewJoin, XNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backends.base import Backend


@dataclass
class Translation:
    """One full-SQL interpretation of a schema-free query.

    ``degradation`` lists the ladder rungs taken to produce this result
    (empty for a full-strength translation); ``diagnostic`` carries the
    structured record of what was skipped, when anything was.
    """

    query: ast.Node  # Select or SetOp, fully exact
    weight: float
    network: Optional[JoinNetwork] = None
    degradation: tuple[str, ...] = ()
    diagnostic: Optional[Diagnostic] = None
    #: per-stage wall time and search counters for the translate() call
    #: that produced this interpretation (shared by its siblings)
    stats: Optional[TranslationStats] = None
    #: the degradation-ladder rung that produced this interpretation
    #: (one of resilience.LADDER; for set operations, the weaker of the
    #: two operands' rungs)
    rung: str = "full"
    #: True when this interpretation was served from the context's
    #: translation result cache instead of running the pipeline
    cached: bool = False
    #: ``render(query)``, when already known: a result-cache entry keeps
    #: the text it was stored with, so a hit renders nothing.  ``sql``
    #: returns it as it is; give a changed ``query`` a changed text too
    rendered: Optional[str] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @property
    def is_degraded(self) -> bool:
        return bool(self.degradation)

    @property
    def sql(self) -> str:
        if self.rendered is not None:
            return self.rendered
        return render(self.query)


class _Timed:
    """Adds the wall time of its ``with`` block to one stage of *stats*
    (nothing without stats).  A class, not a generator context manager:
    a read enters about ten of these and :class:`_StageGuard`."""

    __slots__ = ("stats", "stage", "started")

    def __init__(self, stats: Optional[TranslationStats], stage: str) -> None:
        self.stats = stats
        self.stage = stage

    def __enter__(self) -> None:
        if self.stats is not None:
            self.started = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        if self.stats is not None:
            self.stats.add_stage(self.stage, time.perf_counter() - self.started)


class _StageGuard:
    """Re-raises a non-:class:`ReproError` exception from its ``with``
    block as a :class:`TranslationError` naming the stage, so a
    misbehaving stage (or an injected fault) never leaks a foreign
    exception to callers."""

    __slots__ = ("stage",)

    def __init__(self, stage: str) -> None:
        self.stage = stage

    def __enter__(self) -> None:
        pass

    def __exit__(self, exc_type, exc, traceback) -> None:
        if (
            exc_type is None
            or isinstance(exc, ReproError)
            or not issubclass(exc_type, Exception)
        ):
            return
        stage = self.stage
        raise TranslationError(
            f"stage {stage!r} failed unexpectedly: "
            f"{exc_type.__name__}: {exc}",
            diagnostic=Diagnostic(
                stage=stage, message=f"{exc_type.__name__}: {exc}"
            ),
        ) from exc


class SchemaFreeTranslator:
    """Translates Schema-free SQL into full SQL over one database."""

    def __init__(
        self,
        database: "Backend",
        config: TranslatorConfig = DEFAULT_CONFIG,
        views: Iterable[View] = (),
        faults=None,  # Optional[repro.testing.faults.FaultInjector]
        context: Optional[TranslationContext] = None,
        tracer=None,  # Optional[repro.obs.Tracer]
    ) -> None:
        self.database = database
        self.config = config
        if context is None:
            context = TranslationContext(database, config)
        elif context.database is not database:
            raise ValueError(
                "TranslationContext was built for a different database"
            )
        elif context.config != config:
            raise ValueError(
                "TranslationContext was built for a different TranslatorConfig"
            )
        self.context = context
        self._static_views: list[View] = list(views)
        self.view_graph = ViewGraph(database.catalog, self._static_views)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.similarity = SimilarityEvaluator(database, config, context)
        self.mapper = RelationTreeMapper(
            database, config, self.similarity, tracer=self.tracer
        )
        self.composer = Composer(database.catalog)
        self.query_log = QueryLog(database.catalog)
        self.faults = faults
        self.last_stats: Optional[GenerationStats] = None
        self.last_degradation: list[str] = []
        self.last_diagnostic: Optional[Diagnostic] = None
        #: the current translation's start rung, and why the backend
        #: demoted it there (both set once per translate() call)
        self._start_rung = "full"
        self._backend_note: Optional[str] = None
        self.last_translation_stats: Optional[TranslationStats] = None
        self._active_stats: Optional[TranslationStats] = None

    # ------------------------------------------------------------------
    # resilience plumbing
    # ------------------------------------------------------------------
    def _fire(self, stage: str, budget: Optional[Budget] = None) -> None:
        if self.faults is not None:
            self.faults.fire(stage, budget)

    def _timed(self, stage: str) -> _Timed:
        """Accumulate wall-clock time into the active TranslationStats."""
        return _Timed(self._active_stats, stage)

    # ------------------------------------------------------------------
    # view management
    # ------------------------------------------------------------------
    def add_view(self, view: View) -> View:
        self._static_views.append(view)
        return self.view_graph.add_view(view)

    def record_query_log(self, sql: Union[str, ast.Node]) -> list[View]:
        """Mine a logged full-SQL query into views on the view graph.

        Repeated patterns are not duplicated: their frequency (and hence
        their view strength) increases instead.
        """
        views = self.query_log.record(sql)
        # rebuild: static views plus the log's deduplicated, re-weighted set
        rebuilt = ViewGraph(self.database.catalog, self._static_views)
        for view in self.query_log.views:
            rebuilt.add_view(view)
        self.view_graph = rebuilt
        return views

    # ------------------------------------------------------------------
    # translation
    # ------------------------------------------------------------------
    def _fold_backend_advice(self) -> None:
        """Start the ladder where the backend advises.

        A :class:`~repro.backends.ResilientBackend` exposes
        ``start_advice``: ``("greedy", reason)`` while a tripped breaker,
        lost statistics or a partial catalog call for skipping the full
        search.  Plain backends
        expose nothing.  The reason becomes a degradation step on every
        translated block.
        """
        advice = getattr(self.database, "start_advice", None)
        self._start_rung, reason = advice or ("full", None)
        self._backend_note = None if reason is None else (
            f"backend degraded ({reason}): start rung demoted to "
            f"{self._start_rung!r}"
        )

    def _parse(
        self, query: Union[str, ast.Node], meter: Optional[Budget]
    ) -> ast.Node:
        """*query* parsed, when it is still text."""
        if not isinstance(query, str):
            return query
        self._fire("parse", meter)
        with _StageGuard("parse"), self._timed("parse"), \
                self.tracer.span("parse"):
            return parse(query)

    # ------------------------------------------------------------------
    # translation result cache (policy in docs/CACHING.md)
    # ------------------------------------------------------------------
    def _result_cache_key(
        self,
        query: Union[str, ast.Node],
        fingerprint: Optional[str],
        raw_text: Optional[str],
        k: int,
    ) -> Optional[tuple]:
        """The full consistency-contract key for this call, or None when
        the call is not cacheable.  *query* may still be unparsed text
        when its canonical *fingerprint* is already known.

        Not cacheable: the cache is disabled, a fault injector is
        attached (injected faults must keep firing on every call), or
        the backend advised a start rung below ``full`` (it asked for a
        *cheap* translation; serving the cached full-strength one would
        hide that advice).
        """
        if (
            self.config.result_cache_size <= 0
            or self.faults is not None
            or self._start_rung != "full"
        ):
            return None
        with _StageGuard("cache"), self._timed("cache"):
            if fingerprint is None:
                fingerprint = fingerprint_parsed(query, raw_text)
            view_parts = tuple(
                (view.name, view.signature, view.source, view.strength)
                for view in self.view_graph.views
            )
            return self.context.result_cache_key((fingerprint, k, view_parts))

    def _result_cache_lookup(
        self, key: Optional[tuple], stats: TranslationStats, root
    ) -> Optional[list[Translation]]:
        """The cached translations for *key* (fresh objects carrying this
        call's *stats*), or None on a miss or without a key."""
        if key is None:
            return None
        with self._timed("cache"), \
                self.tracer.span("cache.lookup") as span:
            payload = self.context.cached_result(key)
            if span.enabled:
                span.set(
                    hit=payload is not None,
                    entries=self.context.result_cache_entries(),
                )
        if payload is None:
            return None
        translations = [
            Translation(
                query=q,
                weight=weight,
                network=network,
                rung=rung,
                stats=stats,
                cached=True,
                rendered=text,
            )
            for q, text, weight, network, rung in payload
        ]
        if root.enabled:
            root.set(
                cached=True,
                rung=translations[0].rung,
                results=len(translations),
                weight=round(translations[0].weight, 6),
            )
        return translations

    def _result_cache_store(
        self, key: tuple, translations: list[Translation]
    ) -> None:
        """Admission control: only complete, full-strength results enter.

        A degraded or diagnostic-carrying translation is the
        budget/fault machinery talking — caching it would replay one
        call's bad luck at full strength forever.  Payloads are
        immutable tuples, never the Translation objects themselves
        (``translate`` reassigns ``.stats`` per call).  Each carries its
        rendered SQL, which sizes the entry and is every hit's ``.sql``;
        the stored translations keep it too.
        """
        if not translations or self.last_degradation:
            return
        for translation in translations:
            if (
                translation.rung != "full"
                or translation.degradation
                or translation.diagnostic is not None
            ):
                return
        with self._timed("cache"):
            for translation in translations:
                translation.rendered = render(translation.query)
            payload = tuple(
                (t.query, t.rendered, t.weight, t.network, t.rung)
                for t in translations
            )
            cost = sum(len(t.rendered) for t in translations)
            self.context.remember_result(key, payload, cost)

    def translate(
        self,
        query: Union[str, ast.Node],
        top_k: Optional[int] = None,
        budget: Optional[Budget] = None,
        degrade: Optional[bool] = None,
    ) -> list[Translation]:
        """Translate to full SQL; returns the top-k interpretations.

        With a :class:`Budget` the hot loops of every stage check it
        cooperatively; when it runs out and ``degrade`` is enabled
        (the default whenever a budget is given) the translator falls
        back from the full top-k search to one greedy join path, recording
        each step in the returned translations' ``degradation`` /
        ``diagnostic`` fields.  When greedy cannot run (the deadline has
        passed) or cannot connect every tree, the call raises instead —
        :class:`BudgetExceeded` or :class:`NoJoinNetworkError`, whose
        diagnostic lists the steps taken.  Every failure raises a
        :class:`~repro.errors.ReproError`.

        Translation starts at the full top-k search unless the backend
        advises ``greedy`` (a tripped
        :class:`~repro.backends.ResilientBackend` breaker, lost
        statistics, a partial catalog): its ``start_advice`` is read
        here, once per call.

        Every call is instrumented: the returned translations carry a
        shared :class:`TranslationStats` (per-stage wall time, candidate
        and expansion counters, memo effectiveness), also available as
        ``last_translation_stats`` — including after a failure.
        """
        self._fold_backend_advice()
        if degrade is None:
            degrade = budget is not None
        self.context.ensure_current()
        # one memo-accounting window per query: ladder re-mapping and
        # repeated sub-query trees must not double-count cache lookups
        self.similarity.begin_query()
        stats = TranslationStats()
        meter = budget
        if meter is None and self.faults is None:
            # an unlimited metering budget: it never raises, but its
            # counters record the mapping/search work for the stats.
            # Left off under fault injection, where an injected "budget"
            # fault must keep ignoring budget-less translations.
            meter = Budget.unlimited()
        base = (
            (meter.candidates, meter.expansions) if meter is not None else (0, 0)
        )
        memo_base = self.context.stats.as_dict()
        previous_stats = self._active_stats
        self._active_stats = stats
        started = time.perf_counter()
        self.last_degradation = []
        self.last_diagnostic = None
        root = self.tracer.span("translate")
        if root.enabled:
            text = query if isinstance(query, str) else render(query)
            root.set(
                query=str(text)[:200],
                database=self.database.catalog.name,
                top_k=top_k or self.config.top_k,
                start_rung=self._start_rung,
            )
        with root:
            try:
                raw_text = query if isinstance(query, str) else None
                k = top_k or self.config.top_k
                # a text seen before has a memoized fingerprint, so its
                # cache lookup needs no parse: a hit never parses
                fingerprint = (
                    None if raw_text is None else memoized_fingerprint(raw_text)
                )
                if fingerprint is None:
                    query = self._parse(query, meter)
                cache_key = self._result_cache_key(
                    query, fingerprint, raw_text, k
                )
                hit = self._result_cache_lookup(cache_key, stats, root)
                if hit is not None:
                    return hit
                query = self._parse(query, meter)
                translations = self._translate_query(
                    query, {}, k, meter, degrade
                )
                for translation in translations:
                    translation.stats = stats
                # a backend that turned unwell during this call ran it on
                # failing statistics: admit nothing it produced
                if (
                    cache_key is not None
                    and getattr(self.database, "start_advice", None) is None
                ):
                    self._result_cache_store(cache_key, translations)
                if root.enabled and translations:
                    root.set(
                        rung=translations[0].rung,
                        results=len(translations),
                        weight=round(translations[0].weight, 6),
                    )
                return translations
            except ReproError as exc:
                if exc.diagnostic is None:
                    exc.diagnostic = Diagnostic(
                        stage="translate", message=str(exc)
                    )
                if self.last_degradation and not exc.diagnostic.degradation:
                    exc.diagnostic.degradation = tuple(self.last_degradation)
                self.last_diagnostic = exc.diagnostic
                raise
            except Exception as exc:  # re-raises as a typed ReproError
                diagnostic = Diagnostic(
                    stage="translate",
                    message=f"unexpected {type(exc).__name__}: {exc}",
                    degradation=tuple(self.last_degradation),
                )
                self.last_diagnostic = diagnostic
                raise TranslationError(
                    f"internal translation failure: "
                    f"{type(exc).__name__}: {exc}",
                    diagnostic=diagnostic,
                ) from exc
            finally:
                stats.total_seconds = time.perf_counter() - started
                if meter is not None:
                    stats.candidates = meter.candidates - base[0]
                    stats.expansions = meter.expansions - base[1]
                memo_now = self.context.stats.as_dict()
                stats.memo = {
                    key: memo_now[key] - memo_base.get(key, 0)
                    for key in memo_now
                }
                self.last_translation_stats = stats
                self._active_stats = previous_stats
                if root.enabled:
                    root.set(
                        candidates_charged=stats.candidates,
                        expansions_charged=stats.expansions,
                        degraded=bool(self.last_degradation),
                        memo_hits=stats.memo.get("tree_sim_hits", 0),
                        memo_misses=stats.memo.get("tree_sim_misses", 0),
                    )

    def translate_many(
        self,
        queries: Sequence[Union[str, ast.Node]],
        top_k: Optional[int] = None,
        budget: Optional[Budget] = None,
        degrade: Optional[bool] = None,
    ) -> list[list[Translation]]:
        """Translate a whole workload over one shared context and budget.

        Returns one top-k translation list per query, in order; each
        result is exactly what :meth:`translate` returns for that query
        (the shared context memoizes, it never changes outcomes).  A
        single :class:`Budget` covers the *entire* batch: its deadline
        and counters span all queries, so with ``degrade`` enabled (the
        default when a budget is given) later queries degrade rather
        than fail once the budget runs dry.  Errors propagate — wrap
        individual calls when partial batch results are wanted.
        """
        results = []
        batch = TranslationStats(queries=0, total_seconds=0.0)
        for query in queries:
            results.append(
                self.translate(
                    query, top_k=top_k, budget=budget, degrade=degrade
                )
            )
            if self.last_translation_stats is not None:
                batch.merge(self.last_translation_stats)
        self.last_translation_stats = batch
        return results

    def translate_best(
        self,
        query: Union[str, ast.Node],
        budget: Optional[Budget] = None,
        degrade: Optional[bool] = None,
    ) -> Translation:
        translations = self.translate(
            query, top_k=1, budget=budget, degrade=degrade
        )
        if not translations:
            text = query if isinstance(query, str) else render(query)
            raise TranslationError(
                f"no translation found for {text!r}: "
                "the pipeline produced no interpretation",
                diagnostic=Diagnostic(
                    stage="translate",
                    message="empty interpretation list",
                    token=str(text)[:80],
                ),
            )
        return translations[0]

    def execute(
        self, query: Union[str, ast.Node], budget: Optional[Budget] = None
    ) -> Result:
        """Translate the best interpretation and evaluate it."""
        return self.database.execute(
            self.translate_best(query, budget=budget).query
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _translate_query(
        self,
        query: ast.Node,
        outer_bindings: dict[str, str],
        k: int,
        budget: Optional[Budget] = None,
        degrade: bool = False,
    ) -> list[Translation]:
        if isinstance(query, ast.SetOp):
            left = self._translate_query(
                query.left, outer_bindings, 1, budget, degrade
            )
            right = self._translate_query(
                query.right, outer_bindings, 1, budget, degrade
            )
            if not left or not right:
                side = "left" if not left else "right"
                raise TranslationError(
                    f"could not translate the {side} operand of "
                    f"{query.op.upper()}",
                    diagnostic=Diagnostic(
                        stage="translate",
                        message=f"{side} set-operation operand untranslatable",
                        token=query.op,
                    ),
                )
            combined = ast.SetOp(
                query.op, left[0].query, right[0].query, all=query.all
            )
            degradation = left[0].degradation + right[0].degradation
            rung = weaker_rung(left[0].rung, right[0].rung)
            return [
                Translation(
                    combined,
                    left[0].weight * right[0].weight,
                    degradation=degradation,
                    rung=rung,
                )
            ]
        if not isinstance(query, ast.Select):
            raise TranslationError(
                f"not a query: {type(query).__name__}",
                diagnostic=Diagnostic(
                    stage="parse",
                    message="top-level node is not SELECT or a set operation",
                    token=type(query).__name__,
                ),
            )
        return self._translate_block(query, outer_bindings, k, budget, degrade)

    def _translate_block(
        self,
        select: ast.Select,
        outer_bindings: dict[str, str],
        k: int,
        budget: Optional[Budget] = None,
        degrade: bool = False,
    ) -> list[Translation]:
        with _StageGuard("parse"), self._timed("parse"), \
                self.tracer.span("extract") as extract_span:
            extraction = extract(select)
            all_trees = build_relation_trees(extraction)
            if extract_span.enabled:
                extract_span.set(
                    trees=len(all_trees),
                    labels=", ".join(tree.label for tree in all_trees),
                )
        trees = all_trees
        if outer_bindings:
            trees = [
                tree
                for tree in all_trees
                if not self._is_outer_tree(tree, extraction, outer_bindings)
            ]
        if not trees and all_trees:
            # every tree matches an enclosing binding: a block must query
            # *something*, so resolve them locally instead (e.g. the inner
            # block of ``... = (SELECT max(movie?.gross?))`` scans movies)
            trees = all_trees
            outer_bindings = {}
        if not trees:
            # constant block: nothing to map, but outer references and
            # nested sub-queries still need resolving
            rewritten = self._rewrite_outer_only(select, outer_bindings)
            if extraction.has_subqueries:
                rewritten = self._translate_subqueries(
                    rewritten, outer_bindings, k, budget, degrade
                )
            return [Translation(rewritten, 1.0)]

        steps: list[str] = []
        gen_stats = GenerationStats()
        try:
            mappings, xgraph, networks, rung = self._generate_networks(
                trees, extraction, k, budget, degrade, steps, gen_stats
            )
        finally:
            # a refusal's diagnostic lists the steps taken, too
            self.last_degradation.extend(steps)
        if self._active_stats is not None:
            for key, value in gen_stats.as_dict().items():
                self._active_stats.generator[key] = (
                    self._active_stats.generator.get(key, 0) + value
                )
        diagnostic = (
            Diagnostic(
                stage="translate",
                message=f"degraded translation (rung: {rung})",
                degradation=tuple(steps),
            )
            if steps
            else None
        )
        self._fire("compose", budget)
        translations: list[Translation] = []
        with _StageGuard("compose"), \
                self.tracer.span("compose") as compose_span:
            weights = [
                network.best_weight(xgraph.view_instances)
                for network in networks
            ]
            with self._timed("compose"):
                composed = self.composer.compose(
                    select,
                    trees,
                    mappings,
                    networks,
                    extraction.from_bindings,
                    outer_bindings,
                    weights=weights,
                )
            for result in composed:
                final = result.select
                if extraction.has_subqueries:
                    inner_context = dict(outer_bindings)
                    inner_context.update(result.bindings)
                    final = self._translate_subqueries(
                        final, inner_context, 1, budget, degrade
                    )
                translations.append(
                    Translation(
                        final,
                        result.weight,
                        result.network,
                        degradation=tuple(steps),
                        diagnostic=diagnostic,
                        rung=rung,
                    )
                )
            if compose_span.enabled:
                compose_span.set(
                    rung=rung,
                    networks=len(networks),
                    results=len(translations),
                )
        translations.sort(key=lambda t: -t.weight)
        return translations

    # ------------------------------------------------------------------
    # the degradation ladder (tentpole of the resilience layer)
    # ------------------------------------------------------------------
    def _generate_networks(
        self,
        trees: list[RelationTree],
        extraction: ExtractionResult,
        k: int,
        budget: Optional[Budget],
        degrade: bool,
        steps: list[str],
        gen_stats: Optional[GenerationStats] = None,
    ) -> tuple[dict[TreeKey, TreeMappings], ExtendedViewGraph, list[JoinNetwork], str]:
        """Produce join networks: the full top-k search, then one greedy
        join path, then a typed refusal.

        The full search gets :data:`FULL_TIME_FRACTION` of the time left.
        When it runs out of budget or finds no network and ``degrade`` is
        on, the greedy rung splices each tree's best mapping into one join
        path.  Each abandoned rung appends one step to ``steps``.  When
        the deadline leaves greedy no time the full search's
        :class:`BudgetExceeded` is raised, and when greedy cannot connect
        every tree a :class:`NoJoinNetworkError` naming the trees: there
        is no guessed answer.  Mapping failures (a tree matching nothing)
        are fatal on both rungs.

        A backend that advises ``greedy`` skips the full search; the skip
        is recorded as a degradation step so callers can see the
        translation was pinned.
        """
        mappings: Optional[dict[TreeKey, TreeMappings]] = None
        failure: Optional[ReproError] = None
        pinned = self._start_rung == "greedy"
        if pinned:
            if self._backend_note is not None:
                steps.append(self._backend_note)
            steps.append("ladder pinned at 'greedy': skipping full")
        self._fire("map", budget)

        # ---- rung 1: the full top-k MTJN search ---------------------
        if not pinned:
            with self.tracer.span("rung:full") as rung_span:
                try:
                    full_budget = None if budget is None else budget.slice(
                        FULL_TIME_FRACTION
                    )
                    with _StageGuard("map"), self._timed("map"):
                        mappings = self.mapper.map_trees(trees, full_budget)
                    self._check_mappings(trees, mappings)
                    self._fire("network", full_budget)
                    with _StageGuard("network"), self._timed("network"), \
                            self.tracer.span("network") as net_span:
                        views = self.view_graph.views + self._fragment_views(
                            extraction.fragments, trees, mappings, extraction
                        )
                        xgraph, networks, search_stats = self._search_networks(
                            trees, mappings, views, k,
                            full_budget, gen_stats, net_span,
                        )
                    if not networks:
                        raise self._no_network(
                            trees,
                            "search exhausted without a total join network",
                            sum(len(tm.candidates) for tm in mappings.values()),
                            {"expanded": search_stats.expanded},
                        )
                    if rung_span.enabled:
                        rung_span.set(outcome="ok", networks=len(networks))
                    return mappings, xgraph, networks, "full"
                except BudgetExceeded as exc:
                    if not degrade:
                        raise
                    if rung_span.enabled:
                        rung_span.set(outcome="budget-exhausted")
                    steps.append(f"full search abandoned: {exc}")
                    failure = exc
                except NoJoinNetworkError as exc:
                    if not degrade:
                        raise
                    if rung_span.enabled:
                        rung_span.set(outcome="no-network")
                    steps.append(f"full search failed: {exc}")
                    failure = exc

        # ---- rung 2: one greedy join path, or refuse ----------------
        if budget is not None and budget.time_exceeded():
            steps.append("greedy join path skipped: deadline passed")
            if failure is None:
                budget.check("network")  # pinned: no search failed yet
            raise failure
        if mappings is None:
            # the full search was pinned away or interrupted mid-mapping:
            # map now, unbudgeted (polynomial, unlike the network search)
            with _StageGuard("map"), self._timed("map"):
                mappings = self.mapper.map_trees(trees)
            self._check_mappings(trees, mappings)
        singles = self._truncate_mappings(mappings, 1)
        with _StageGuard("network"), self._timed("network"):
            with self.tracer.span("network") as net_span:
                xgraph = ExtendedViewGraph(
                    ViewGraph(self.database.catalog),
                    trees,
                    singles,
                    self.similarity,
                    self.config,
                    context=self.context,
                )
                if net_span.enabled:
                    net_span.set(**xgraph.summary())
            with self.tracer.span("rung:greedy") as rung_span:
                network = self._greedy_network(
                    xgraph, [tree.key for tree in trees]
                )
                if rung_span.enabled:
                    if network is None:
                        rung_span.set(outcome="disconnected")
                    else:
                        rung_span.set(outcome="ok", networks=1)
        if network is None:
            steps.append("greedy join path could not connect all trees")
            raise self._no_network(
                trees, "greedy join path could not connect all trees",
                len(trees),
            )
        steps.append("greedy single join path (best mapping per tree)")
        return singles, xgraph, [network], "greedy"

    @staticmethod
    def _no_network(
        trees: list[RelationTree],
        message: str,
        candidates: int,
        detail: Optional[dict] = None,
    ) -> NoJoinNetworkError:
        labels = ", ".join(tree.label for tree in trees)
        return NoJoinNetworkError(
            f"no join network connects all relation trees ({labels})",
            diagnostic=Diagnostic(
                stage="network",
                message=message,
                token=labels,
                candidates=candidates,
                detail=detail or {},
            ),
        )

    def _search_networks(
        self,
        trees: list[RelationTree],
        mappings: dict[TreeKey, TreeMappings],
        views: Sequence[View],
        k: int,
        rung_budget: Optional[Budget],
        gen_stats: Optional[GenerationStats],
        net_span,
    ) -> tuple[ExtendedViewGraph, list[JoinNetwork], GenerationStats]:
        """The full rung's MTJN search, memoized on the shared context.

        The (extended graph, networks) pair is a pure function of the
        terminal-relation signature — tree shapes, name evidence, ordered
        mapping candidates, views, k, expansion cap — so repeat
        signatures skip both graph construction and the top-k search.
        Only *completed* searches are remembered: a search abandoned by
        BudgetExceeded raises through before the store, so a degraded
        result can never be replayed to a caller with budget to spare.
        """
        config = self.config
        signature = network_signature(trees, mappings, views, k, config)
        cached = self.context.cached_networks(signature)
        if cached is not None:
            xgraph, networks = cached
            stats = gen_stats if gen_stats is not None else GenerationStats()
            stats.memo_hits += 1
            self.last_stats = stats
            if net_span.enabled:
                net_span.set(memo_hit=1, **xgraph.summary())
            return xgraph, list(networks), stats
        xgraph = ExtendedViewGraph(
            ViewGraph(self.database.catalog, views),
            trees,
            mappings,
            self.similarity,
            config,
            budget=rung_budget,
            context=self.context,
        )
        if net_span.enabled:
            net_span.set(**xgraph.summary())
        generator = MTJNGenerator(
            xgraph,
            config,
            budget=rung_budget,
            stats=gen_stats,
            tracer=self.tracer,
        )
        networks = generator.generate(k)
        self.last_stats = generator.stats
        # the graph is query-independent state from here on: shed the
        # spent rung budget before sharing it through the context memo
        xgraph.budget = None
        self.context.remember_networks(signature, (xgraph, tuple(networks)))
        return xgraph, networks, generator.stats

    def _check_mappings(
        self, trees: list[RelationTree], mappings: dict[TreeKey, TreeMappings]
    ) -> None:
        for tree in trees:
            if not mappings[tree.key].candidates:
                raise TranslationError(
                    f"relation tree {tree.label} ({tree}) matches no "
                    "relation in the database",
                    diagnostic=Diagnostic(
                        stage="map",
                        message="no relation exceeds the similarity threshold",
                        token=tree.label,
                        candidates=len(self.database.catalog),
                    ),
                )

    @staticmethod
    def _truncate_mappings(
        mappings: dict[TreeKey, TreeMappings], limit: int
    ) -> dict[TreeKey, TreeMappings]:
        return {
            key: TreeMappings(tm.tree, tm.candidates[:limit])
            for key, tm in mappings.items()
        }

    def _greedy_network(
        self, xgraph: ExtendedViewGraph, required: list[TreeKey]
    ) -> Optional[JoinNetwork]:
        """One join network, greedily: start at the first tree's best
        node and repeatedly splice in the strongest path to each still-
        uncovered tree.  No backtracking, no top-k — a single pass whose
        cost is one strongest-path computation per candidate node."""
        roots = xgraph.nodes_for_tree(required[0])
        if not roots:
            return None
        network = JoinNetwork.single(roots[0])
        for key in required[1:]:
            if key in network.tree_keys:
                continue
            network = self._splice_tree(xgraph, network, key)
            if network is None:
                return None  # tree unreachable: refuse
        return network if network.is_total(required) else None

    def _splice_tree(
        self,
        xgraph: ExtendedViewGraph,
        network: JoinNetwork,
        key: TreeKey,
    ) -> Optional[JoinNetwork]:
        """Splice the strongest *legal* path from one of *key*'s mapped
        nodes into the network, then grow the network along it."""
        best_weight = 0.0
        best_path: Optional[tuple[int, list]] = None
        for candidate in xgraph.nodes_for_tree(key):
            found = self._best_legal_path(xgraph, candidate, network)
            if found is not None and found[0] > best_weight:
                best_weight, best_path = found[0], (found[1], found[2])
        if best_path is None:
            return None
        member_id, edges = best_path
        current = network
        attach = current.nodes[member_id]
        for edge in edges:
            expanded = current.expand_edge(edge, attach, legality=False)
            if expanded is None:
                return None  # residual conflict (e.g. duplicate tree key)
            current = expanded
            attach = edge.other(attach)
        return current

    @staticmethod
    def _best_legal_path(
        xgraph: ExtendedViewGraph,
        source: XNode,
        network: JoinNetwork,
    ):
        """Strongest path from *source* to any network member that is
        legal to splice: Dijkstra over (node, incoming-FK) states so the
        same occurrence's foreign key is never reused for two targets
        (Definition 2), and no edge conflicts with the network's own FK
        usage.  Returns ``(weight, member_id, edges)`` with the edges
        ordered from the member outward, or None when unreachable."""
        counter = itertools.count()
        start = (source.node_id, None)
        best: dict[tuple, float] = {start: 1.0}
        parents: dict[tuple, tuple] = {}
        heap = [(-1.0, next(counter), source, None)]
        best_member: Optional[tuple] = None
        best_member_weight = 0.0
        while heap:
            negative, _, node, incoming = heapq.heappop(heap)
            weight = -negative
            state = (node.node_id, incoming)
            if weight < best.get(state, 0.0):
                continue
            if node.node_id in network.nodes:
                if weight > best_member_weight:
                    best_member_weight = weight
                    best_member = state
                continue  # members are attach points, not way-stations
            for edge in xgraph.incident_edges(node):
                fk_key = JoinNetwork._fk_key(edge)
                if fk_key == incoming:
                    continue  # would reuse this occurrence's FK instance
                if fk_key in network.fk_used:
                    continue
                neighbor = edge.other(node)
                next_state = (neighbor.node_id, fk_key)
                candidate = weight * edge.weight
                if candidate > best.get(next_state, 0.0):
                    best[next_state] = candidate
                    parents[next_state] = (state, edge)
                    heapq.heappush(
                        heap, (-candidate, next(counter), neighbor, fk_key)
                    )
        if best_member is None:
            return None
        edges = []
        state = best_member
        while state in parents:
            state, edge = parents[state]
            edges.append(edge)
        return best_member_weight, best_member[0], edges

    def _is_outer_tree(
        self,
        tree: RelationTree,
        extraction: ExtractionResult,
        outer_bindings: dict[str, str],
    ) -> bool:
        """A tree whose occurrences are correlated references into an
        enclosing (already-translated) block is not mapped here."""
        kind, text = tree.key
        return (
            kind == "name"
            and text in outer_bindings
            and text not in extraction.from_bindings
        )

    def _rewrite_outer_only(
        self, select: ast.Select, outer_bindings: dict[str, str]
    ) -> ast.Select:
        """Resolve correlated references in a block with no local trees."""
        if not outer_bindings:
            return select

        def rewrite(node: ast.ColumnRef) -> Optional[ast.Node]:
            if (
                node.relation is not None
                and node.relation.is_known
                and node.relation.text.lower() in outer_bindings
            ):
                return self.composer._rewrite_outer_ref(node, outer_bindings)
            return None

        return ast.transform(
            select, rewrite, within_block=True, only=ast.ColumnRef
        )

    def _translate_subqueries(
        self,
        select: ast.Select,
        context: dict[str, str],
        k: int,
        budget: Optional[Budget] = None,
        degrade: bool = False,
    ) -> ast.Select:
        """Replace each first-level sub-query with its best translation."""

        def rewrite(node: ast.Node) -> Optional[ast.Node]:
            translated = self._translate_query(
                node.query, context, 1, budget, degrade
            )
            if not translated:
                raise TranslationError(
                    f"could not translate sub-query {render(node.query)!r}",
                    diagnostic=Diagnostic(
                        stage="translate",
                        message="nested sub-query untranslatable",
                        token=render(node.query)[:80],
                    ),
                )
            return dataclasses.replace(node, query=translated[0].query)

        return ast.transform(
            select, rewrite, within_block=True, only=ast.SUBQUERY_NODES
        )

    def _fragment_views(
        self,
        fragments: list[JoinFragment],
        trees: list[RelationTree],
        mappings: dict,
        extraction: ExtractionResult,
    ) -> list[View]:
        """Turn user-specified join-path fragments into views (§5.1).

        Each connected set of fragments becomes one view over the best
        mapped relations of the trees it touches; join attributes are the
        mapper's argmax attribute names.
        """
        if not fragments:
            return []
        from .relation_tree import attribute_key, relation_key

        tree_by_key = {tree.key: tree for tree in trees}
        resolved: list[tuple] = []
        for fragment in fragments:
            endpoints = []
            for column in (fragment.left, fragment.right):
                key = relation_key(
                    column.relation, column.attribute, extraction.from_bindings
                )
                tree = tree_by_key.get(key)
                if tree is None or not mappings[key].candidates:
                    endpoints = []
                    break
                mapping = mappings[key].best
                attr_name = mapping.attribute_map.get(
                    attribute_key(column.attribute)
                )
                if attr_name is None:
                    endpoints = []
                    break
                endpoints.append((key, mapping.relation.name, attr_name))
            if len(endpoints) == 2 and endpoints[0][0] != endpoints[1][0]:
                resolved.append(tuple(endpoints))
        if not resolved:
            return []
        # group fragments into connected components over tree keys
        keys = sorted({e[0] for pair in resolved for e in pair})
        parent = {key: key for key in keys}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (left, right) in resolved:
            a, b = find(left[0]), find(right[0])
            if a != b:
                parent[a] = b
        components: dict = {}
        for key in keys:
            components.setdefault(find(key), []).append(key)
        views = []
        counter = itertools.count(1)
        for members in components.values():
            member_set = set(members)
            local = {key: i for i, key in enumerate(members)}
            joins = []
            seen_pairs = set()
            for (left, right) in resolved:
                if left[0] in member_set and right[0] in member_set:
                    pair = frozenset((left[0], right[0]))
                    if pair in seen_pairs:
                        continue
                    seen_pairs.add(pair)
                    joins.append(
                        ViewJoin(local[left[0]], left[2], local[right[0]], right[2])
                    )
            if len(joins) != len(members) - 1:
                continue  # cyclic or redundant fragments: skip (views are trees)
            relations = tuple(
                mappings[key].best.relation.name for key in members
            )
            views.append(
                View(
                    name=f"user#{next(counter)}",
                    relations=relations,
                    joins=tuple(joins),
                    source="user",
                    # "views transformed from partial join path specified
                    # by the user should have very high weight" (§5.2)
                    strength=2.0,
                )
            )
        return views
