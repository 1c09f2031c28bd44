"""Similarity evaluation between relation trees and relations (paper §4).

The framework follows the paper exactly:

* string similarity ``Sim(a, b)`` is the Jaccard coefficient between the
  q-gram sets of the two names;
* damped similarity ``Sim'(a, b) = kref * Sim(a, b)`` is used when the
  match is indirect (against a neighbouring relation's name);
* root-level similarity (§4.2) takes the best of the direct match and the
  damped neighbour matches, falling back to attribute names with default
  ``kdef`` when the tree's root is unspecified;
* attribute-level similarity (§4.3) multiplies the attribute-name
  similarity by ``(m + 1) / (n + 1)``, where n counts the attribute
  tree's value conditions and m counts those satisfied by at least one
  tuple of the candidate column;
* whole-tree similarity (§4.1) is the product of the root similarity and
  all attribute similarities.
"""

from __future__ import annotations

import datetime
import sys
from functools import lru_cache
from typing import TYPE_CHECKING, Any, NamedTuple, Optional, Sequence

from ..catalog import Attribute, DataType, Relation
from ..engine import ExecutionError, NameResolutionError
from ..engine.evaluator import Evaluator, Scope
from ..sqlkit import ast, render
from .config import DEFAULT_CONFIG, TranslatorConfig
from .relation_tree import AttributeTree, RelationTree, tree_fingerprint
from .triples import Condition

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..backends.base import Backend
    from .context import TranslationContext

# ---------------------------------------------------------------------------
# string similarity
# ---------------------------------------------------------------------------


@lru_cache(maxsize=65536)
def qgrams(text: str, q: int) -> frozenset[str]:
    """Padded q-gram set of a lower-cased identifier."""
    text = text.lower()
    if not text:
        return frozenset()
    padded = "#" * (q - 1) + text + "#" * (q - 1)
    return frozenset(padded[i : i + q] for i in range(len(padded) - q + 1))


@lru_cache(maxsize=65536)
def _qgram_jaccard(a: str, b: str, q: int) -> float:
    grams_a, grams_b = qgrams(a, q), qgrams(b, q)
    union = len(grams_a | grams_b)
    if union == 0:
        return 0.0
    return len(grams_a & grams_b) / union


def string_similarity(
    a: str, b: str, q: int = 3, token_damp: float = 0.85
) -> float:
    """Identifier similarity: q-gram Jaccard, token-aware.

    The paper recommends the Jaccard coefficient between q-gram sets
    (§4.2) and frames the concrete similarity as a pluggable choice.  Raw
    q-grams underrate compound schema names (``produce_company`` shares
    almost no 3-grams with ``company``), so we additionally compare the
    best pair of underscore-separated tokens, damped by ``token_damp`` so
    a whole-name match still wins.

    The similarity is symmetric and case-insensitive, so the arguments
    are canonicalised (lower-cased and ordered) before the cache lookup:
    ``sim(a, b)`` and ``sim(b, a)`` share one cache slot.
    """
    a, b = a.lower(), b.lower()
    if a > b:
        a, b = b, a
    return _string_similarity(a, b, q, token_damp)


@lru_cache(maxsize=65536)
def _string_similarity(a: str, b: str, q: int, token_damp: float) -> float:
    if not a or not b:
        return 0.0
    if a == b:
        return 1.0
    full = _word_similarity(a, b, q)
    tokens_a = [t for t in a.split("_") if t]
    tokens_b = [t for t in b.split("_") if t]
    best_token = 0.0
    if len(tokens_a) > 1 or len(tokens_b) > 1:
        best_token = max(
            (
                _word_similarity(ta, tb, q)
                for ta in tokens_a
                for tb in tokens_b
            ),
            default=0.0,
        )
    return max(full, token_damp * best_token)


def _singular(word: str) -> str:
    """Cheap plural stripping: ``movies`` -> ``movie``, ``classes`` ->
    ``class``; leaves short words and non-plurals alone."""
    if word.endswith("ies") and len(word) > 4:
        return word[:-3] + "y"
    if word.endswith("es") and len(word) > 4 and word[-3] in "sxz":
        return word[:-2]
    if word.endswith("s") and not word.endswith("ss") and len(word) > 3:
        return word[:-1]
    return word


@lru_cache(maxsize=65536)
def _word_similarity(a: str, b: str, q: int) -> float:
    """q-gram Jaccard, plural-insensitive (``actors`` matches ``actor``)."""
    sa, sb = _singular(a), _singular(b)
    if sa == sb:
        return 1.0
    return _qgram_jaccard(sa, sb, q)


def clear_string_caches() -> None:
    """Drop every module-level string-similarity cache.

    The caches are process-global, so a benchmark comparing a cold
    translator against a warm one must clear them to simulate a fresh
    process; nothing in the translation pipeline itself needs this.
    """
    qgrams.cache_clear()
    _qgram_jaccard.cache_clear()
    _word_similarity.cache_clear()
    _string_similarity.cache_clear()


def stride_sample(values: Sequence[Any], limit: int) -> list[Any]:
    """Deterministic whole-sequence sample of at most ``limit`` values.

    Every value is kept when the sequence fits the limit; otherwise the
    sample takes values at a fixed stride across the whole sequence, so
    evidence is drawn evenly from the entire column rather than only its
    first rows (a condition satisfied only by late-inserted tuples must
    not be misclassified as unsatisfied).
    """
    n = len(values)
    if limit <= 0 or n <= limit:
        return list(values)
    step = n / limit
    return [values[min(n - 1, int(i * step))] for i in range(limit)]


# ---------------------------------------------------------------------------
# condition satisfaction (the (m+1)/(n+1) factor of §4.3)
# ---------------------------------------------------------------------------

_PROBE_BINDING = "__probe__"
_PROBE_COLUMN = "__value__"
_PROBE_REF = ast.ColumnRef(
    ast.exact(_PROBE_COLUMN), ast.exact(_PROBE_BINDING)
)


class ConditionChecker:
    """Checks whether value conditions are satisfied by database columns.

    Column contents are sampled (``config.condition_sample``, a
    deterministic stride across the column's distinct values) and probe
    predicates are evaluated with the subject column bound to each sample
    value; the first satisfying value short-circuits.

    With a :class:`~repro.core.context.TranslationContext` the samples
    and the status memo live on the context, shared across every checker
    built for the same database and invalidated when the data changes.
    """

    def __init__(
        self,
        database: "Backend",
        config: TranslatorConfig,
        context: Optional["TranslationContext"] = None,
    ) -> None:
        self._database = database
        self._config = config
        self._context = context
        self._evaluator = Evaluator()
        self._samples: dict[tuple[str, str], list[Any]] = {}
        self._memo: dict[tuple[str, str, str], str] = {}

    def _sample(self, relation: str, attribute: str) -> list[Any]:
        if self._context is not None:
            return self._context.column_sample(relation, attribute)
        key = (relation.lower(), attribute.lower())
        if key not in self._samples:
            values = self._database.column_values(relation, attribute)
            distinct = list(dict.fromkeys(v for v in values if v is not None))
            self._samples[key] = stride_sample(
                distinct, self._config.condition_sample
            )
        return self._samples[key]

    def status(
        self, condition: Condition, relation: Relation, attribute: Attribute
    ) -> str:
        """Classify a condition against a column.

        Returns ``"satisfied"`` when some tuple of ``relation.attribute``
        satisfies the condition, ``"incompatible"`` when the condition's
        constants can *never* be satisfied by the column's type, and
        ``"unsatisfied"`` otherwise.
        """
        return self.check(plan_condition(condition), relation, attribute)

    def check(
        self, plan: ConditionPlan, relation: Relation, attribute: Attribute
    ) -> str:
        """:meth:`status` of the condition *plan* was made from."""
        if attribute.data_type not in plan.types:
            # settled by the type alone: cheaper than the memo lookup,
            # and it keeps the memo to statuses that read the column's
            # sample
            return "incompatible"
        memo_key = (plan.key, relation.key, attribute.key)
        if self._context is not None:
            cached = self._context.condition_status(memo_key)
        else:
            cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        result = "unsatisfied"
        probe, is_true = plan.probe, self._evaluator.is_true
        row: dict[str, Any] = {}
        scope = Scope({_PROBE_BINDING: row})
        for value in self._sample(relation.name, attribute.name):
            row[_PROBE_COLUMN] = value
            try:
                if is_true(probe, scope):
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

    def satisfied(
        self, condition: Condition, relation: Relation, attribute: Attribute
    ) -> bool:
        """True when some tuple of the column satisfies the condition."""
        return self.status(condition, relation, attribute) == "satisfied"


class ConditionPlan(NamedTuple):
    """What checking one condition needs that no column changes."""

    #: the column types it is :func:`_compatible` with, in declaration
    #: order: a tuple, whose ``in`` compares members by identity first,
    #: where a set would hash each through ``Enum.__hash__``
    types: tuple
    #: the predicate with its subject replaced by the probe reference
    probe: ast.Node
    #: the rendered probe, interned: the condition memo's probe key (a
    #: workload renders a few hundred distinct probes, but the memo
    #: retains one key per (probe, column))
    key: str


def plan_condition(condition: Condition) -> ConditionPlan:
    """The :class:`ConditionPlan` of *condition*."""
    predicate = condition.predicate
    probe = _probe_predicate(condition)
    return ConditionPlan(
        tuple(t for t in DataType if _compatible(predicate, t)),
        probe,
        sys.intern(render(probe)),
    )


class TreePlan(NamedTuple):
    """The :class:`ConditionPlan` of each condition of a tree, plus its
    name rows."""

    #: attribute tree key -> plans of its conditions, in order
    conditions: dict
    #: the column types some condition is compatible with (the columns
    #: whose samples scoring the tree reads), a tuple as in
    #: :class:`ConditionPlan`
    types: tuple
    #: the tree's :class:`TreeRows` (None without a context, or until
    #: the tree is first scored)
    rows: Optional["TreeRows"] = None


class TreeRows(NamedTuple):
    """What a tree scores against each relation before any condition is
    read, in the context's relation order, read off its names' rows."""

    #: root similarity against each relation (§4.2)
    root: tuple
    #: per attribute tree, in order: per relation, the name factor of
    #: each attribute (§4.3)
    attributes: tuple


def _literal_family(value: Any) -> Optional[str]:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "text"
    return None


#: column type -> the literal family its values belong to (else text)
_COLUMN_FAMILY = {
    DataType.INTEGER: "number",
    DataType.FLOAT: "number",
    DataType.BOOLEAN: "bool",
    DataType.DATE: "date",
}


def _compatible(predicate: ast.Node, data_type: DataType) -> bool:
    """Whether the predicate's constants could ever be satisfied by a
    column of *data_type* (a text constant never equals an integer)."""
    column = _COLUMN_FAMILY.get(data_type, "text")
    if isinstance(predicate, ast.IsNull):
        return True
    if isinstance(predicate, ast.Like):
        return column in ("text", "date")
    for node in predicate.walk():
        if not isinstance(node, ast.Literal) or node.value is None:
            continue
        family = _literal_family(node.value)
        if family is None:
            continue
        if family == column:
            continue
        if column == "date" and family == "text":
            try:
                datetime.date.fromisoformat(node.value)
                continue
            except ValueError:
                return False
        return False
    return True


def _probe_predicate(condition: Condition) -> ast.Node:
    """The condition's predicate with its subject column replaced by the
    canonical probe reference."""
    subject = condition.column

    def substitute(node: ast.Node) -> Optional[ast.Node]:
        if node == subject:
            return _PROBE_REF
        return None

    return ast.transform(condition.predicate, substitute, only=ast.ColumnRef)


# ---------------------------------------------------------------------------
# similarity evaluator (§4.1 - §4.3)
# ---------------------------------------------------------------------------


class SimilarityEvaluator:
    """Computes Sim(rt, R) and records the per-attribute argmax mapping.

    With a :class:`~repro.core.context.TranslationContext` the evaluator
    shares the context's precomputed neighbor lists and column samples,
    and memoizes whole-tree similarities across queries keyed by the
    tree's canonical fingerprint (two structurally identical relation
    trees score identically against every relation).
    """

    def __init__(
        self,
        database: "Backend",
        config: TranslatorConfig = DEFAULT_CONFIG,
        context: Optional["TranslationContext"] = None,
    ) -> None:
        if context is not None:
            if context.database is not database:
                raise ValueError(
                    "TranslationContext was built for a different database"
                )
            if context.config != config:
                raise ValueError(
                    "TranslationContext was built for a different "
                    "TranslatorConfig"
                )
        self.database = database
        self.config = config
        self.context = context
        self.checker = ConditionChecker(database, config, context)
        self._neighbors: dict[str, list[Relation]] = {}
        #: fingerprint -> keys of the relations probed against it since
        #: :meth:`begin_query` — the dedup behind single-counted memo
        #: statistics.  A fingerprint only mapping-memo hits touched keeps
        #: a count instead: the first that many of the context's
        #: ``relation_keys``.
        self._probed: dict = {}
        #: fingerprint -> :class:`TreePlan`, per query
        self._plans: dict = {}

    def begin_query(self) -> None:
        """Start a new per-query lookup-accounting window.

        The translator calls this at the top of every ``translate()``;
        an evaluator used standalone (without a translator) simply keeps
        one window, which still guarantees each pair is counted at most
        once.
        """
        self._probed.clear()
        self._plans.clear()

    # -- string helpers --------------------------------------------------
    def sim(self, a: str, b: str) -> float:
        return string_similarity(
            a, b, self.config.qgram, self.config.token_damp
        )

    def sim_damped(self, a: str, b: str) -> float:
        """Sim'(a, b) = kref * Sim(a, b)."""
        return self.config.kref * self.sim(a, b)

    def _neighbors_of(self, relation: Relation) -> Sequence[Relation]:
        if self.context is not None:
            return self.context.neighbors(relation.key)
        cached = self._neighbors.get(relation.key)
        if cached is None:
            cached = self.database.catalog.neighbors(relation.name)
            self._neighbors[relation.key] = cached
        return cached

    # -- root level (§4.2) -------------------------------------------------
    def root_similarity(self, tree: RelationTree, relation: Relation) -> float:
        name = tree.known_name
        if name is not None:
            # floor at kdef: a guessed name with no lexical overlap (a
            # synonym like ``film`` for ``movie``) degrades to the
            # unspecified-root case instead of zeroing the product
            return max(self._root_for_name(name, relation), self.config.kdef)
        # unspecified root: start at kdef, then try each attribute name in
        # place of the relation name and keep the best (§4.2, last para.)
        best = self.config.kdef
        for attribute_tree in tree.attribute_trees:
            attr_name = attribute_tree.known_name
            if attr_name is None:
                continue
            best = max(best, self._root_for_name(attr_name, relation))
        return best

    def _root_for_name(self, name: str, relation: Relation) -> float:
        direct = self.sim(name, relation.name)
        # vocabulary aliases (schema evolution): the best of the real name
        # and any alias counts as the relation's name
        if self.context is not None:
            for alias in self.context.relation_aliases(relation.key):
                direct = max(direct, self.sim(name, alias))
        damped = max(
            (
                self.sim_damped(name, neighbor.name)
                for neighbor in self._neighbors_of(relation)
            ),
            default=0.0,
        )
        return max(direct, damped)

    # -- attribute level (§4.3) ---------------------------------------------
    def attribute_similarity(
        self,
        attribute_tree: AttributeTree,
        relation: Relation,
        conditions: Optional[tuple[ConditionPlan, ...]] = None,
        factors: Optional[tuple[float, ...]] = None,
    ) -> tuple[float, Optional[str]]:
        """Best Sim(at, A) over the relation's attributes, plus the argmax
        attribute name (used by the composer to instantiate names).
        *conditions* are the plans of the attribute tree's conditions,
        and *factors* the :meth:`_name_factors` of its name against the
        relation (each made here when not given)."""
        if conditions is None:
            conditions = tuple(
                plan_condition(c) for c in attribute_tree.conditions
            )
        if factors is None:
            factors = self._name_factors(attribute_tree.known_name, relation)
        best_score = 0.0
        best_attribute: Optional[str] = None
        total = len(conditions)
        for attribute, score in zip(relation.attributes, factors):
            if total:
                satisfied = 0
                for plan in conditions:
                    if attribute.data_type not in plan.types:
                        # settled by the type alone, as check() would
                        status = "incompatible"
                    else:
                        status = self.checker.check(plan, relation, attribute)
                    if status == "satisfied":
                        satisfied += 1
                    elif status == "incompatible":
                        # type-impossible conditions are stronger negative
                        # evidence than merely unsatisfied ones
                        score *= self.config.k_incompat
                beta = self.config.cond_smooth
                score *= (satisfied + beta) / (total + beta)
            if score > best_score:
                best_score = score
                best_attribute = attribute.name
        return best_score, best_attribute

    def _name_factors(
        self, name: Optional[str], relation: Relation
    ) -> tuple[float, ...]:
        """The part of Sim(at, A) that reads names only, against each
        attribute of *relation* in order: the smoothed similarity of
        *name* (``kdef`` for a placeholder, *name* None), times the
        primary-key bonus."""
        primary_key = {c.lower() for c in relation.primary_key}
        alpha = self.config.attr_smooth
        factors = []
        for attribute in relation.attributes:
            if name is not None:
                raw = self.sim(name, attribute.name)
                if self.context is not None:
                    for alias in self.context.attribute_aliases(
                        relation.key, attribute.key
                    ):
                        raw = max(raw, self.sim(name, alias))
                # additive smoothing: a zero q-gram overlap must not wipe
                # out condition evidence (mirrors the paper's +1 smoothing)
                factor = (raw + alpha) / (1.0 + alpha)
            else:
                # placeholder attribute: no name evidence; neutral default
                # so the (m+1)/(n+1) condition factor decides (paper leaves
                # this case open; kdef keeps placeholder trees comparable)
                factor = self.config.kdef
            if attribute.name.lower() in primary_key:
                # matching the relation's key is evidence the user means
                # this relation itself, not a bridge that references it
                factor *= self.config.pk_bonus
            factors.append(factor)
        return tuple(factors)

    # -- whole tree (§4.1) ------------------------------------------------------
    def tree_similarity(
        self, tree: RelationTree, relation: Relation
    ) -> tuple[float, dict]:
        """Sim(rt, R) plus the attribute-tree -> attribute-name mapping.

        Memoized across queries on the shared context (when one is
        attached), keyed by the tree's canonical fingerprint: trees from
        different queries with the same root name, attribute names and
        condition predicates share one computation.

        Memo statistics are counted *here*, once per unique pair per
        query: replays within one translation (the degradation ladder
        re-mapping after an abandoned rung, repeated sub-query trees)
        still read the memo but are not recounted, so hit/miss totals
        measure genuine cross-query cache effectiveness.
        """
        if self.context is None:
            return self._tree_similarity(tree, relation)
        score, pairs = self.memoized_tree_similarity(
            tree, tree_fingerprint(tree), relation
        )
        return score, dict(pairs)

    def memoized_tree_similarity(
        self, tree: RelationTree, fingerprint, relation: Relation
    ) -> tuple[float, tuple]:
        """:meth:`tree_similarity` through the context's memo, with the
        mapping as the memo's shared tuple of ``(attribute tree key,
        attribute name)`` pairs (context required)."""
        key = (fingerprint, relation.key)
        seen = self._probed.get(fingerprint)
        if seen is None:
            seen = self._probed[fingerprint] = set()
        elif type(seen) is int:
            seen = self._probed[fingerprint] = set(
                self.context.relation_keys[:seen]
            )
        first_probe = relation.key not in seen
        if first_probe:
            seen.add(relation.key)
        cached = self.context.cached_tree_similarity(key, count=first_probe)
        if cached is not None:
            return cached[0], cached[1]
        score, attribute_map = self._tree_similarity(
            tree, relation, fingerprint
        )
        pairs = tuple(attribute_map.items())
        self.context.remember_tree_similarity(
            key,
            (
                score,
                pairs,
                self._sampled_columns(fingerprint, tree, relation),
            ),
        )
        return score, pairs

    def count_mapping_hit(self, fingerprint, probes: int) -> None:
        """Count a mapping-memo hit as the tree-sim hits of the first
        *probes* relations it stands for, each once per query as
        :meth:`tree_similarity` would (context required).  Which
        relations those are cannot change a total: a probe cut short by
        the budget is finished, unbudgeted, by the next rung."""
        relation_keys = self.context.relation_keys
        probes = min(probes, len(relation_keys))
        seen = self._probed.get(fingerprint)
        if seen is None:
            # the tree's first hit in the query: relation keys are unique
            self._probed[fingerprint] = hits = probes
        elif type(seen) is int:
            hits = max(0, probes - seen)
            if hits:
                self._probed[fingerprint] = probes
        else:
            before = len(seen)
            seen.update(relation_keys[:probes])
            hits = len(seen) - before
        if hits:
            self.context.count_tree_sim_hits(hits)

    def _plan(self, tree: RelationTree, fingerprint=None) -> TreePlan:
        """*tree*'s :class:`TreePlan`, made on its first cold score in
        the query and shared by every tree with its fingerprint (which
        captures every rendered condition, so their plans are equal)."""
        if fingerprint is None:
            fingerprint = tree_fingerprint(tree)
        plan = self._plans.get(fingerprint)
        if plan is None:
            conditions = {
                attribute_tree.key: tuple(
                    plan_condition(c) for c in attribute_tree.conditions
                )
                for attribute_tree in tree.attribute_trees
            }
            types = tuple(
                t
                for t in DataType
                if any(
                    t in c.types for plans in conditions.values() for c in plans
                )
            )
            plan = self._plans[fingerprint] = TreePlan(conditions, types)
        return plan

    def _sampled_columns(
        self, fingerprint, tree: RelationTree, relation: Relation
    ) -> frozenset:
        """Keys of *relation*'s columns whose samples scoring *tree*
        against it reads: the checker samples a column for a condition
        exactly when the column's type is compatible with it.  A memo
        hit after a ``data_version`` bump re-verifies only these."""
        types = self._plan(tree, fingerprint).types
        return frozenset(
            a.key for a in relation.attributes if a.data_type in types
        )

    def _tree_similarity(
        self, tree: RelationTree, relation: Relation, fingerprint=None
    ) -> tuple[float, dict]:
        if fingerprint is None:
            fingerprint = tree_fingerprint(tree)
        plan = self._plan(tree, fingerprint)
        attribute_trees = tree.attribute_trees
        if self.context is None:
            score = self.root_similarity(tree, relation)
            factors = [None] * len(attribute_trees)
        else:
            rows = plan.rows
            if rows is None:
                rows = self._tree_rows(tree)
                self._plans[fingerprint] = plan._replace(rows=rows)
            index = self.context.relation_index[relation.key]
            score = rows.root[index]
            factors = [row[index] for row in rows.attributes]
        attribute_map: dict = {}
        for attribute_tree, attribute_factors in zip(attribute_trees, factors):
            attr_score, attr_name = self.attribute_similarity(
                attribute_tree,
                relation,
                plan.conditions[attribute_tree.key],
                attribute_factors,
            )
            score *= attr_score
            if attr_name is not None:
                attribute_map[attribute_tree.key] = attr_name
        return score, attribute_map

    def _tree_rows(self, tree: RelationTree) -> TreeRows:
        """*tree*'s :class:`TreeRows`: :meth:`root_similarity` and the
        :meth:`_name_factors` of each attribute tree against every
        relation, read off the context's per-name rows (context
        required)."""
        kdef = self.config.kdef
        if tree.known_name is not None:
            row = self._name_row("root", tree.known_name)
            root = tuple(max(value, kdef) for value in row)
        else:
            root = (kdef,) * len(self.context.relations)
            for attribute_tree in tree.attribute_trees:
                name = attribute_tree.known_name
                if name is not None:
                    row = self._name_row("root", name)
                    root = tuple(map(max, root, row))
        attributes = tuple(
            self._name_row("attribute", attribute_tree.known_name)
            for attribute_tree in tree.attribute_trees
        )
        return TreeRows(root, attributes)

    def _name_row(self, kind: str, name: Optional[str]) -> tuple:
        """The context's ``(kind, name)`` row, computed and offered to it
        on a miss (see :meth:`TranslationContext.cached_name_row`)."""
        context = self.context
        row = context.cached_name_row((kind, name))
        if row is None:
            if kind == "root":
                row = tuple(
                    self._root_for_name(name, relation)
                    for relation in context.relations
                )
            else:
                row = tuple(
                    self._name_factors(name, relation)
                    for relation in context.relations
                )
            context.remember_name_row((kind, name), row)
        return row

