"""Relation Tree Mapper: mapping sets via the relative threshold σ.

Definition 1 of the paper: the mapping set of a relation tree rt is

    MAP(rt) = { Ri | Sim(rt, Ri) > σ * max_j Sim(rt, Rj) }.

The relative threshold keeps exactly one relation in play when the user
named it well, and several plausible candidates when the guess was poor —
the paper's stated design intent.

MAP(rt) depends only on the per-relation scores, σ and ``max_mappings``,
so with a shared :class:`~repro.core.context.TranslationContext` the
finished set is memoized per tree fingerprint (docs/CACHING.md §3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..catalog import Relation
from ..obs import NULL_TRACER
from .config import DEFAULT_CONFIG, TranslatorConfig
from .relation_tree import AttrKey, RelationTree, TreeKey, tree_fingerprint
from .resilience import Budget, BudgetExceeded
from .similarity import SimilarityEvaluator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..backends.base import Backend
    from .context import TranslationContext


@dataclass
class RelationMapping:
    """One candidate relation for a relation tree."""

    relation: Relation
    similarity: float
    #: attribute tree key -> argmax attribute name in ``relation`` (§4.3)
    attribute_map: dict[AttrKey, str] = field(default_factory=dict)


@dataclass
class TreeMappings:
    """All candidates of one relation tree, best first."""

    tree: RelationTree
    candidates: list[RelationMapping] = field(default_factory=list)

    @property
    def best(self) -> Optional[RelationMapping]:
        return self.candidates[0] if self.candidates else None

    def candidate_for(self, relation_name: str) -> Optional[RelationMapping]:
        lowered = relation_name.lower()
        for candidate in self.candidates:
            if candidate.relation.key == lowered:
                return candidate
        return None

    def __iter__(self):
        return iter(self.candidates)


class RelationTreeMapper:
    """Maps relation trees to database relations by similarity."""

    def __init__(
        self,
        database: "Backend",
        config: TranslatorConfig = DEFAULT_CONFIG,
        evaluator: Optional[SimilarityEvaluator] = None,
        context: Optional["TranslationContext"] = None,
        tracer=None,  # Optional[repro.obs.Tracer]
    ) -> None:
        self.database = database
        self.config = config
        if evaluator is None:
            evaluator = SimilarityEvaluator(database, config, context)
        elif context is None:
            context = evaluator.context
        self.evaluator = evaluator
        self.context = context
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def _scoring_order(self, tree: RelationTree):
        """Candidates best-affinity-first (budget-friendly), or catalog
        order without a context.  Never affects the mapping set: scored
        candidates are re-sorted by similarity below."""
        if self.context is not None:
            return self.context.scoring_order(tree)
        return self.database.catalog

    def map_tree(
        self, tree: RelationTree, budget: Optional[Budget] = None
    ) -> TreeMappings:
        """MAP(rt) of one tree (Definition 1).

        With a context the finished set is memoized per tree fingerprint:
        a hit is one context lookup, charged and counted as the
        per-relation loop would be.  A miss whose every per-relation
        score is memoized and current (after an artifact attach, or a
        set whose store a concurrent drop refused) is charged the same
        way and assembled from those scores, which is all the loop would
        do with them; any other miss runs the loop.
        """
        with self.tracer.span("map.tree") as span:
            if self.context is None:
                return self._replay(tree, self._score_all(tree, budget), span)
            fingerprint = tree_fingerprint(tree)
            entry, scores, epoch = self.context.cached_mappings(fingerprint)
            if entry is not None:
                self._charge_hit(fingerprint, budget)
                return self._replay(tree, entry, span)
            if scores is None:
                entry = self._score_all(tree, budget, fingerprint)
            else:
                self._charge_hit(fingerprint, budget)
                entry = self._entry(
                    len(scores),
                    [
                        (relation, cached[0], cached[1])
                        for relation, cached in zip(
                            self.context.relations, scores
                        )
                        if cached[0] > 0.0
                    ],
                )
            self.context.remember_mappings(fingerprint, entry, epoch)
            return self._replay(tree, entry, span)

    def _charge_hit(self, fingerprint, budget: Optional[Budget]) -> None:
        """Charge and count a memo hit as the per-relation loop would:
        one candidate per relation, each charge before its probe."""
        relations = len(self.context.relations)
        if budget is None:
            self.evaluator.count_mapping_hit(fingerprint, relations)
            return
        before = budget.candidates
        try:
            budget.charge_candidates(relations, stage="map")
        except BudgetExceeded:
            # the unit that raised was charged but never probed
            self.evaluator.count_mapping_hit(
                fingerprint, budget.candidates - before - 1
            )
            raise
        self.evaluator.count_mapping_hit(fingerprint, relations)

    def _score_all(
        self, tree: RelationTree, budget: Optional[Budget], fingerprint=None
    ) -> tuple:
        """Score *tree* against every relation, one probe each (through
        the context's tree-sim memo when *fingerprint* is given)."""
        probed = 0
        scored: list[tuple[Relation, float, object]] = []
        for relation in self._scoring_order(tree):
            if budget is not None:
                # every relation scored against the tree is one candidate
                budget.charge_candidates(1, stage="map")
            probed += 1
            if fingerprint is None:
                similarity, pairs = self.evaluator.tree_similarity(
                    tree, relation
                )
            else:
                similarity, pairs = self.evaluator.memoized_tree_similarity(
                    tree, fingerprint, relation
                )
            if similarity > 0.0:
                scored.append((relation, similarity, pairs))
        return self._entry(probed, scored)

    def _entry(self, probed: int, scored: list) -> tuple:
        """The memo entry of a scored tree: ``(probed, σ threshold, top
        (relation, σ) pairs, attribute pairs of the kept candidates)``.

        *scored* holds ``(relation, σ, attribute pairs)`` for every
        relation with a positive score; the kept candidates lead ``top``,
        which holds the best ``max(8, kept)`` for the ``map.tree`` span.
        """
        if not scored:
            return (probed, 0.0, (), ())
        scored.sort(key=lambda m: (-m[1], m[0].key))
        best = scored[0][1]
        threshold = self.config.sigma * best
        # Definition 1 uses a strict inequality, which with sigma = 1.0
        # (or exact score ties at the top) would drop co-maximal
        # candidates: nothing is strictly greater than sigma * max when
        # it *is* the max.  Candidates tied with the maximum always
        # belong to MAP(rt).  Scores are sorted, so the kept lead.
        kept = [
            pairs
            for _, similarity, pairs in scored
            if similarity > threshold or similarity == best
        ][: self.config.max_mappings]
        top = tuple(
            (relation, similarity)
            for relation, similarity, _ in scored[: max(8, len(kept))]
        )
        return (probed, threshold, top, tuple(kept))

    def _replay(self, tree: RelationTree, entry: tuple, span) -> TreeMappings:
        """The :class:`TreeMappings` (and ``map.tree`` span) of an entry."""
        probed, threshold, top, kept = entry
        mappings = TreeMappings(
            tree,
            [
                RelationMapping(relation, similarity, dict(pairs))
                for (relation, similarity), pairs in zip(top, kept)
            ],
        )
        if span.enabled:
            if not top:
                span.set(tree=tree.label, scored=probed, kept=0)
                return mappings
            span.set(
                tree=tree.label,
                evidence=str(tree),
                scored=probed,
                kept=len(kept),
                sigma_threshold=round(threshold, 6),
                candidates=[
                    {
                        "relation": relation.name,
                        "sigma": similarity,
                        "kept": index < len(kept),
                    }
                    for index, (relation, similarity) in enumerate(top)
                ],
            )
        return mappings

    def map_trees(
        self, trees: list[RelationTree], budget: Optional[Budget] = None
    ) -> dict[TreeKey, TreeMappings]:
        with self.tracer.span("map") as span:
            memo_base = (
                self.context.stats.as_dict()
                if span.enabled and self.context is not None
                else None
            )
            result = {tree.key: self.map_tree(tree, budget) for tree in trees}
            if span.enabled:
                span.set(trees=len(trees))
                if memo_base is not None:
                    now = self.context.stats.as_dict()
                    span.set(
                        memo_hits=now["tree_sim_hits"]
                        - memo_base["tree_sim_hits"],
                        memo_misses=now["tree_sim_misses"]
                        - memo_base["tree_sim_misses"],
                    )
            return result
