"""Top-k MTJN generation — Algorithms 1, 2 and 3 of the paper (§6.1).

Algorithm 1 (InitMTJNGen) ranks the nodes mapped by the first relation
tree by potential and expands each as a root, removing the root from the
graph afterwards to avoid regenerating isomorphic networks from a
different starting point.

Algorithm 2 (KMTJNUpdate) best-first expands partial join networks from a
priority queue ordered by *potential*, pushing only expansions that pass
the legality test and whose potential still beats the current k-th MTJN.

Algorithm 3 (PotentialEstimate) upper-bounds the weight of any MTJN
reachable from a partial network: for every uncovered relation tree it
adds the strongest path from one of the tree's mapped nodes, with view
edges optimistically reweighted to their square roots.

Three performance layers sit on top of the paper's algorithms (DESIGN.md
§14):

* per-tree *reach arrays* — the strongest-path maps of all of a tree's
  candidate nodes folded into one ``node id -> weight`` array per path
  epoch, so Algorithm 3 scores a partial network with one dict probe per
  member instead of a candidates × members double loop;
* *dominance pruning* — ``construction_weight`` already upper-bounds the
  potential (every path factor is ≤ 1), so a partial network whose
  construction weight cannot beat the current k-th MTJN is rejected
  before the potential is even computed;
* a *schema-skeleton reachability oracle* — the context's precomputed
  FK-component table proves trees unreachable without running a single
  extended-graph Dijkstra, valid whenever the graph contains no
  synthesised (non-FK) view edge.

Generated networks are memoized on the shared TranslationContext keyed
by :func:`network_signature`; the generator itself stays memo-free so
each rung's search remains independently testable.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..obs import NULL_TRACER
from .config import DEFAULT_CONFIG, TranslatorConfig
from .join_network import JoinNetwork
from .mapper import TreeMappings
from .relation_tree import RelationTree, TreeKey
from .resilience import Budget
from .view_graph import ExtendedViewGraph, View, ViewInstance, XNode


@dataclass
class GenerationStats:
    """Counters exposed for the efficiency experiment (Figure 17) and the
    ``--stats`` / ``repro_mtjn_search_total`` observability surface.

    The frontier accounting is conservation-exact: every network pushed
    onto a root's priority queue is later popped-and-expanded
    (``expanded``), popped-and-discarded because the k-th weight rose
    while it waited (``pruned``), or still enqueued when the root's
    search ends (``leftover``) — so ``pushed == expanded + pruned +
    leftover`` always holds.  ``dominated`` counts candidates rejected at
    admission (construction-weight dominance or potential bound) that
    therefore never entered the frontier; ``memo_hits`` counts whole
    generations answered from the context's network memo.
    """

    #: frontier entries popped and expanded
    expanded: int = 0
    #: networks admitted to a frontier
    pushed: int = 0
    #: frontier entries discarded stale at pop time
    pruned: int = 0
    #: candidates rejected at admission by the dominance/potential bound
    dominated: int = 0
    #: frontier entries abandoned when a root's search ended
    leftover: int = 0
    #: total minimal join networks emitted into the top-k
    emitted: int = 0
    #: generations answered from the context network memo (set by the
    #: translator — a memo hit never constructs a generator)
    memo_hits: int = 0

    def as_dict(self) -> dict[str, int]:
        # flat ints only, as ContextStats.as_dict: the translator calls
        # this once per translated block
        return dict(self.__dict__)


@dataclass(order=True)
class _QueueEntry:
    negative_potential: float
    sequence: int
    network: JoinNetwork = field(compare=False)


def network_signature(
    trees: Sequence[RelationTree],
    mappings: dict[TreeKey, TreeMappings],
    views: Sequence[View],
    k: int,
    config: TranslatorConfig,
) -> tuple:
    """Memo key capturing everything MTJN generation reads.

    The extended view graph is a pure function of the tree shapes and
    name evidence, the *ordered* candidate relations of every mapping,
    the view set, and the similarity constants — node ids are assigned
    deterministically from exactly these inputs — and the search result
    is additionally a function of ``k`` and the expansion cap.  Two
    queries that differ only in conditions or selected attributes
    therefore share one signature, which is what makes the context-level
    network memo correct (see TranslationContext.cached_networks).
    """
    tree_parts = []
    for tree in trees:
        mapping = mappings.get(tree.key)
        candidates = (
            tuple(candidate.relation.key for candidate in mapping.candidates)
            if mapping is not None
            else ()
        )
        names = tuple(
            attribute.known_name
            for attribute in tree.attribute_trees
            if attribute.known_name
        )
        tree_parts.append((tree.key, tree.known_name, names, candidates))
    view_parts = tuple(
        (view.name, view.signature, view.source, view.strength)
        for view in views
    )
    return (
        tuple(tree_parts),
        view_parts,
        k,
        config.max_expansions,
        (config.c, config.kref, config.qgram),
    )


class MTJNGenerator:
    """Generates the top-k minimal total join networks for a query."""

    def __init__(
        self,
        graph: ExtendedViewGraph,
        config: TranslatorConfig = DEFAULT_CONFIG,
        budget: Optional[Budget] = None,
        stats: Optional[GenerationStats] = None,
        tracer=None,  # Optional[repro.obs.Tracer]
    ) -> None:
        self.graph = graph
        self.config = config
        self.budget = budget
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # an injected accumulator lets the translator total the search
        # counters across degradation rungs (each rung is one generator)
        self.stats = stats if stats is not None else GenerationStats()
        #: expansion products generated by *this* generator — the
        #: ``max_expansions`` cap must be per-search, not per-accumulator,
        #: or a degraded rung inherits the exhausted counter of the rung
        #: it is rescuing and gives up immediately
        self._generated = 0
        self._required: list[TreeKey] = [tree.key for tree in graph.trees]
        self._path_cache: dict[int, dict[int, float]] = {}
        self._reach_cache: dict[TreeKey, tuple[dict, dict]] = {}
        self._path_version = 0
        self._instances_by_node: dict[int, list[ViewInstance]] = {}
        for instance in graph.view_instances:
            for node in instance.nodes:
                self._instances_by_node.setdefault(node.node_id, []).append(
                    instance
                )
        # schema-skeleton reachability oracle: node id -> FK-component id,
        # sound as a *negative* oracle only while every extended edge
        # lifts a real FK skeleton edge
        self._component_of: Optional[list[int]] = None
        context = graph.context
        if (
            context is not None
            and not graph.has_synthetic_edges
            and context.database.catalog is graph.catalog
        ):
            components = getattr(context, "schema_components", None)
            if components is not None:
                self._component_of = [
                    components.get(node.relation, -1) for node in graph.nodes
                ]

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def generate(self, k: Optional[int] = None) -> list[JoinNetwork]:
        k = k or self.config.top_k
        with self.tracer.span("mtjn") as span:
            base = self.stats.as_dict() if span.enabled else None
            try:
                networks = self._generate(k)
            finally:
                if span.enabled:
                    now = self.stats.as_dict()
                    span.set(
                        k=k,
                        **{key: now[key] - base[key] for key in now},
                    )
            if span.enabled:
                span.set(networks=len(networks))
            return networks

    def _generate(self, k: int) -> list[JoinNetwork]:
        if not self._required:
            return []
        first_key = self._required[0]
        roots = list(self.graph.nodes_for_tree(first_key))
        if not roots:
            return []
        top: list[tuple[float, JoinNetwork]] = []
        seen: set[frozenset] = set()
        roots.sort(
            key=lambda node: -self._potential(JoinNetwork.single(node), top, k)
        )
        removed: list[XNode] = []
        try:
            for root in roots:
                if self.budget is not None:
                    self.budget.check("network")
                self._expand_root(root, k, top, seen)
                self.graph.remove_node(root)
                removed.append(root)
                self._invalidate_paths()
        finally:
            for node in removed:
                self.graph.restore_node(node)
            self._invalidate_paths()
        top.sort(key=lambda pair: (-pair[0], pair[1].sort_key))
        return [network for _, network in top[:k]]

    # ------------------------------------------------------------------
    # Algorithm 2
    # ------------------------------------------------------------------
    def _expand_root(
        self,
        root: XNode,
        k: int,
        top: list[tuple[float, JoinNetwork]],
        seen: set[frozenset],
    ) -> None:
        counter = itertools.count()
        start = JoinNetwork.single(root)
        queue: list[_QueueEntry] = []
        self._consider(start, k, top, seen, queue, counter)
        try:
            while queue:
                if self._generated >= self.config.max_expansions:
                    break
                if self.budget is not None:
                    self.budget.check("network")
                entry = heapq.heappop(queue)
                network = entry.network
                # re-check: the k-th weight may have risen since the push;
                # ties survive (strict <) so equal-weight networks reach
                # the deterministic sort-key comparison in _consider
                if -entry.negative_potential < self._kth_weight(top, k):
                    self.stats.pruned += 1
                    continue
                self.stats.expanded += 1
                for expanded in self._expansions(network):
                    self._generated += 1
                    if self.budget is not None:
                        self.budget.charge_expansions(1, stage="network")
                    self._consider(expanded, k, top, seen, queue, counter)
        finally:
            self.stats.leftover += len(queue)

    def _expansions(self, network: JoinNetwork) -> Iterable[JoinNetwork]:
        max_label = network.max_view_label
        for node_id in network.rightmost:
            node = network.nodes[node_id]
            if self.graph.is_removed(node):
                continue
            for edge in self.graph.incident_edges(node):
                expanded = network.expand_edge(edge, node)
                if expanded is not None:
                    yield expanded
            for instance in self._instances_by_node.get(node_id, ()):
                if instance.label <= max_label:
                    continue  # expand_view would reject: labels must grow
                if any(self.graph.is_removed(n) for n in instance.nodes):
                    continue
                expanded = network.expand_view(instance, node)
                if expanded is not None:
                    yield expanded

    def _consider(
        self,
        network: JoinNetwork,
        k: int,
        top: list[tuple[float, JoinNetwork]],
        seen: set[frozenset],
        queue: list[_QueueEntry],
        counter,
    ) -> None:
        canonical = network.canonical
        if canonical in seen:
            return
        if network.is_total(self._required):
            if network.is_minimal():
                seen.add(canonical)
                weight = network.best_weight(self.graph.view_instances)
                top.append((weight, network))
                # equal weights order on the canonical signature, so the
                # surviving k are independent of emission order
                top.sort(key=lambda pair: (-pair[0], pair[1].sort_key))
                del top[max(k, 1) :]
                self.stats.emitted += 1
            return
        kth = self._kth_weight(top, k)
        # dominance pre-filter: every Algorithm 3 path factor is <= 1, so
        # the construction weight already upper-bounds the potential — a
        # partial network it cannot rescue never pays for the estimate
        if network.construction_weight < kth:
            self.stats.dominated += 1
            return
        potential = self._potential(network, top, k)
        if potential <= 0.0 or potential < kth:
            self.stats.dominated += 1
            return
        seen.add(canonical)
        heapq.heappush(
            queue, _QueueEntry(-potential, next(counter), network)
        )
        self.stats.pushed += 1

    @staticmethod
    def _kth_weight(top: list[tuple[float, JoinNetwork]], k: int) -> float:
        if len(top) < k:
            return 0.0
        return top[k - 1][0]

    # ------------------------------------------------------------------
    # Algorithm 3
    # ------------------------------------------------------------------
    def _potential(
        self,
        network: JoinNetwork,
        top: list[tuple[float, JoinNetwork]],
        k: int,
    ) -> float:
        """Algorithm 3: add, per uncovered relation tree, the strongest
        path from one of its mapped nodes — and add the *whole* path to
        the growing member set (``jn'.add(p)``), so that path segments
        shared between trees are charged only once and the estimate stays
        an upper bound."""
        weight = network.construction_weight
        member_ids = set(network.nodes)
        component_of = self._component_of
        for key in self._required:
            if key in network.tree_keys:
                continue
            if component_of is not None and not self._components_touch(
                key, member_ids
            ):
                return 0.0  # unreachable already at the FK-skeleton level
            reach, sources = self._tree_reach(key)
            best_path = 0.0
            best_member = -1
            for node_id in member_ids:
                path_weight = reach.get(node_id, 0.0)
                if path_weight > best_path:
                    best_path = path_weight
                    best_member = node_id
            if best_path <= 0.0:
                return 0.0  # this tree is unreachable from the network
            weight *= best_path
            member_ids.update(
                self._path_nodes(sources[best_member], best_member)
            )
        return weight

    def _components_touch(self, key: TreeKey, member_ids: set[int]) -> bool:
        """Negative oracle: can any candidate node of *key* possibly reach
        any current member, judged on precomputed FK-skeleton components?"""
        component_of = self._component_of
        tree_components = {
            component_of[node.node_id]
            for node in self.graph.nodes_for_tree(key)
        }
        return any(
            component_of[member] in tree_components for member in member_ids
        )

    def _tree_reach(self, key: TreeKey) -> tuple[dict[int, float], dict[int, int]]:
        """Batch-scored reach arrays for one tree: ``reach[node]`` is the
        strongest path weight from any of the tree's candidate nodes to
        *node* and ``sources[node]`` the candidate attaining it (first
        candidate wins ties, matching Algorithm 3's scan order).  Folding
        the per-candidate Dijkstra maps once per path epoch turns the
        potential estimate's candidates × members double loop into a
        single dict probe per member."""
        cached = self._reach_cache.get(key)
        if cached is None:
            reach: dict[int, float] = {}
            sources: dict[int, int] = {}
            for candidate in self.graph.nodes_for_tree(key):
                paths, _parents = self._paths_from(candidate)
                candidate_id = candidate.node_id
                for node_id, path_weight in paths.items():
                    if path_weight > reach.get(node_id, 0.0):
                        reach[node_id] = path_weight
                        sources[node_id] = candidate_id
            cached = (reach, sources)
            self._reach_cache[key] = cached
        return cached

    def _path_nodes(self, source_id: int, target_id: int) -> list[int]:
        """Node ids on the strongest path from *source* to *target*."""
        _paths, parents = self._path_cache[source_id]
        nodes = [target_id]
        current = target_id
        while current != source_id:
            current = parents.get(current)
            if current is None:
                break
            nodes.append(current)
        return nodes

    def _paths_from(self, node: XNode):
        cached = self._path_cache.get(node.node_id)
        if cached is None:
            cached = self.graph.strongest_paths_from(node, with_parents=True)
            self._path_cache[node.node_id] = cached
        return cached

    def _invalidate_paths(self) -> None:
        self._path_cache.clear()
        self._reach_cache.clear()
        self._path_version += 1
