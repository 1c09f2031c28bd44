"""Standard SQL Composer (paper Section 6.2).

Given one MTJN, translation of a Schema-free SQL block is a three-step
rewrite:

1. every uncertain relation / attribute name is replaced by the exact
   name of the corresponding relation (per the MTJN's node-per-tree
   assignment) and attribute (per the mapper's argmax record, §4.3);
2. all relations of the MTJN are placed in the FROM clause, with ``AS``
   aliases whenever a relation occurs more than once;
3. every edge of the MTJN contributes an FK-PK join condition, ANDed
   into the WHERE clause.

Only the current block is rewritten; nested sub-queries are handled by
the translator one block at a time (§2.2.5), so the rewrite never
descends through sub-query boundaries.

One :meth:`Composer.compose` call composes a block under each of its
top-k MTJNs.  The networks usually agree on every tree's relation and
binding, so step 1 runs once per distinct assignment, and step 3 compares
conditions by their names instead of by their rendered text.  Everything
else — bindings, FROM items, edge conditions — depends only on the
network and the block's tree shape (each tree's key, alias and label),
so it is built once per network and shape and kept on the network: a
block a memoized network serves again pays only for step 1 and for
merging its own conjuncts with the edge conditions.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple, Optional, Sequence

from ..catalog import Catalog
from ..errors import Diagnostic, ReproError
from ..sqlkit import ast, render
from .join_network import JoinNetwork
from .mapper import RelationMapping, TreeMappings
from .relation_tree import RelationTree, TreeKey, attribute_key, relation_key
from .view_graph import XNode


class TranslationError(ReproError, RuntimeError):
    """Raised when a Schema-free SQL query cannot be translated."""


class NoJoinNetworkError(TranslationError):
    """No join network connects all relation trees of a block.

    Kept distinct from the base error because the degradation ladder can
    recover from it (greedy path / partial composition) while mapping and
    composition failures are terminal."""


@dataclasses.dataclass
class ComposedQuery:
    """One full-SQL interpretation of a schema-free block."""

    select: ast.Select
    network: JoinNetwork
    weight: float
    #: binding name (lower) -> relation key, for correlated inner blocks
    bindings: dict[str, str]

    @property
    def sql(self) -> str:
        return render(self.select)


#: A join condition's identity: its two sides' (binding, attribute)
#: pairs, lower-cased.  Equal keys render equal under case folding.
JoinKey = frozenset[tuple[str, str]]

_EXACT = ast.Certainty.EXACT


class _Rewrite(NamedTuple):
    """One name rewrite of a block's clauses, shared by every network of
    the call that assigns its trees the same (relation, binding) pairs.
    The FROM clause is the network's own (step 2)."""

    items: tuple[ast.SelectItem, ...]
    #: the rewritten WHERE's conjuncts, ANDed left-deep
    where: Optional[ast.Node]
    group_by: tuple[ast.Node, ...]
    having: Optional[ast.Node]
    order_by: tuple[ast.OrderItem, ...]
    #: keys of those conjuncts that an edge condition could repeat
    keys: frozenset[JoinKey]


class Composer:
    """Translates one block under each of its MTJNs into full SQL."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    def compose(
        self,
        select: ast.Select,
        trees: list[RelationTree],
        mappings: dict[TreeKey, TreeMappings],
        networks: Sequence[JoinNetwork],
        from_bindings: dict[str, ast.TableRef],
        outer_bindings: Optional[dict[str, str]] = None,
        weights: Optional[Sequence[float]] = None,
    ) -> list[ComposedQuery]:
        """One :class:`ComposedQuery` per network, in order.

        The networks share what does not depend on them: the name rewrite
        runs once per distinct tree -> (relation, binding) assignment.
        Each network's bindings, FROM items and edge conditions are built
        once per block shape and kept on the network.  The first network
        that cannot be composed raises.
        Without *weights*, each result carries its network's own weight.
        """
        block = _Block(
            self, select, trees, mappings, from_bindings, outer_bindings or {}
        )
        return [
            block.compose(
                network,
                network.best_weight(()) if weights is None else weights[index],
            )
            for index, network in enumerate(networks)
        ]

    def _rewrite_outer_ref(
        self, node: ast.ColumnRef, outer_bindings: dict[str, str]
    ) -> ast.ColumnRef:
        assert node.relation is not None
        relation = self.catalog.relation(outer_bindings[node.relation.text.lower()])
        attr_term = node.attribute
        if attr_term.is_known and relation.has_attribute(attr_term.text):
            attr_name = relation.attribute(attr_term.text).name
        elif attr_term.is_known:
            # fuzzy attribute against a fixed outer relation: best q-gram match
            from .similarity import string_similarity

            attr_name = max(
                relation.attribute_names,
                key=lambda a: string_similarity(attr_term.text, a),
            )
        else:
            raise TranslationError(
                f"cannot resolve outer reference {node.render()!r}",
                diagnostic=Diagnostic(
                    stage="compose",
                    message="correlated reference has no resolvable attribute",
                    token=node.render(),
                ),
            )
        return ast.ColumnRef(
            attribute=ast.exact(attr_name),
            relation=ast.exact(node.relation.text),
        )


#: a block's tree shape: each tree's ``(key, alias, label)``, in order —
#: everything about the block that a network's parts read
Shape = tuple[tuple[TreeKey, Optional[str], str], ...]


class _NetworkParts(NamedTuple):
    """What composing a block under one network takes from the network
    alone: a pure function of the (immutable) network, the catalog and
    the block's :data:`Shape`.  Kept on the network (see
    :func:`_network_parts`), so every block of that shape shares them;
    AST nodes are frozen, so they may sit in many results."""

    #: each tree's (relation key, binding), in tree order
    assignment: tuple[tuple[str, str], ...]
    #: binding (lower) -> relation key, for correlated inner blocks
    exposed: dict[str, str]
    #: step 2: one TableRef per node, in node-id order
    from_items: tuple[ast.Node, ...]
    #: step 3: each distinct edge condition with its key, in edge order
    edges: tuple[tuple[JoinKey, ast.Node], ...]


#: the attribute a network keeps its parts in, as ``(catalog, shape,
#: parts)``; ``repro.artifacts`` strips it
COMPOSE_PARTS = "_compose_parts"


def _network_parts(
    network: JoinNetwork,
    catalog: Catalog,
    trees: list[RelationTree],
    shape: Shape,
) -> _NetworkParts:
    """*network*'s parts for blocks of *shape*, built on the first call
    with that shape and catalog and kept on the network beside its
    ``_best_weight`` cache.  The memoized networks live in the network
    memo, so their parts live as long as its entry; the artifact format
    never persists them.  A network that does not cover every tree
    raises each time and keeps nothing."""
    cached = network.__dict__.get(COMPOSE_PARTS)
    if cached is not None and cached[0] is catalog and cached[1] == shape:
        return cached[2]
    node_by_tree = {
        node.tree_key: node
        for node in network.nodes.values()
        if node.tree_key is not None
    }
    for tree in trees:
        if tree.key not in node_by_tree:
            raise TranslationError(
                f"join network does not cover relation tree {tree.label}",
                diagnostic=Diagnostic(
                    stage="compose",
                    message="join network misses a relation tree",
                    token=tree.label,
                    candidates=len(network.nodes),
                ),
            )
    declared = {
        relation: catalog.relation(relation).name
        for relation in {node.relation for node in network.nodes.values()}
    }
    bindings, exposed = _assign_bindings(network, trees, declared)
    assignment = tuple(
        (node.relation, bindings[node.node_id])
        for node in (node_by_tree[tree.key] for tree in trees)
    )
    from_items = []
    for node_id in sorted(network.nodes):
        name = declared[network.nodes[node_id].relation]
        binding = bindings[node_id]
        alias = None if binding.lower() == name.lower() else binding
        from_items.append(ast.TableRef(ast.exact(name), alias))
    # an edge whose key an earlier edge has is skipped whatever the
    # block's conjuncts are, so only the first of equal keys is kept
    edges: dict[JoinKey, ast.Node] = {}
    for edge in network.all_edges:
        left = bindings[edge.left.node_id]
        right = bindings[edge.right.node_id]
        key = frozenset((
            (left.lower(), edge.left_attribute.lower()),
            (right.lower(), edge.right_attribute.lower()),
        ))
        if key not in edges:
            edges[key] = ast.BinaryOp(
                "=",
                ast.ColumnRef(ast.exact(edge.left_attribute), ast.exact(left)),
                ast.ColumnRef(
                    ast.exact(edge.right_attribute), ast.exact(right)
                ),
            )
    parts = _NetworkParts(
        assignment, exposed, tuple(from_items), tuple(edges.items())
    )
    object.__setattr__(network, COMPOSE_PARTS, (catalog, shape, parts))
    return parts


def _assign_bindings(
    network: JoinNetwork,
    trees: list[RelationTree],
    declared: dict[str, str],
) -> tuple[dict[int, str], dict[str, str]]:
    """Choose a FROM-clause binding name for every MTJN node.

    User-supplied aliases are kept; relations occurring once keep
    their plain name; repeated relations get ``Name_rtK`` aliases in
    the paper's style.  Returns node id -> binding, and binding
    (lower) -> relation key for correlated inner blocks.
    """
    tree_by_key = {tree.key: tree for tree in trees}
    occurrences: dict[str, list[XNode]] = {}
    for node in network.nodes.values():
        occurrences.setdefault(node.relation, []).append(node)
    bindings: dict[int, str] = {}
    exposed: dict[str, str] = {}
    for relation_name, nodes in occurrences.items():
        name = declared[relation_name]
        if len(nodes) > 1:
            nodes.sort(key=lambda n: n.node_id)
        for node in nodes:
            tree = tree_by_key.get(node.tree_key)
            if tree is not None and tree.alias:
                candidate = tree.alias
            elif len(nodes) == 1:
                candidate = name
            elif tree is not None:
                candidate = f"{name}_{tree.label}"
            else:
                candidate = f"{name}_{node.node_id}"
            base = candidate
            suffix = 2
            lowered = candidate.lower()
            while lowered in exposed:
                candidate = f"{base}_{suffix}"
                lowered = candidate.lower()
                suffix += 1
            exposed[lowered] = relation_name
            bindings[node.node_id] = candidate
    return bindings, exposed


class _Block:
    """The state of one :meth:`Composer.compose` call: the block, its
    shape, and the name rewrites its networks share.  Nothing here
    outlives the call."""

    def __init__(
        self,
        composer: Composer,
        select: ast.Select,
        trees: list[RelationTree],
        mappings: dict[TreeKey, TreeMappings],
        from_bindings: dict[str, ast.TableRef],
        outer_bindings: dict[str, str],
    ) -> None:
        self.composer = composer
        self.select = select
        self.trees = trees
        self.shape: Shape = tuple(
            (tree.key, tree.alias, tree.label) for tree in trees
        )
        self.mappings = mappings
        self.from_bindings = from_bindings
        self.outer_bindings = outer_bindings
        #: tree assignment -> its rewrite
        self.rewrites: dict[tuple[tuple[str, str], ...], _Rewrite] = {}
        #: (attribute, binding) -> exact column
        self.columns: dict[tuple[str, str], ast.ColumnRef] = {}

    def compose(self, network: JoinNetwork, weight: float) -> ComposedQuery:
        parts = _network_parts(
            network, self.composer.catalog, self.trees, self.shape
        )
        rewrite = self.rewrites.get(parts.assignment)
        if rewrite is None:
            rewrite = self._rewrite_names(parts.assignment)
            self.rewrites[parts.assignment] = rewrite
        # step 3: AND each edge condition onto the rewritten WHERE,
        # skipping any whose key a user conjunct has
        where = rewrite.where
        user_keys = rewrite.keys
        for key, condition in parts.edges:
            if key not in user_keys:
                where = condition if where is None else ast.BinaryOp(
                    "and", where, condition
                )
        select = self.select
        return ComposedQuery(
            select=ast.Select(
                rewrite.items,
                parts.from_items,
                where,
                rewrite.group_by,
                rewrite.having,
                rewrite.order_by,
                select.limit,
                select.offset,
                select.distinct,
            ),
            network=network,
            weight=weight,
            bindings=dict(parts.exposed),
        )

    def _column(self, attribute: str, binding: str) -> ast.ColumnRef:
        column = self.columns.get((attribute, binding))
        if column is None:
            column = ast.ColumnRef(ast.NameTerm(attribute), ast.NameTerm(binding))
            self.columns[(attribute, binding)] = column
        return column

    # ------------------------------------------------------------------
    # step 1: exact-name instantiation
    # ------------------------------------------------------------------
    def _rewrite_names(
        self, assignment: tuple[tuple[str, str], ...]
    ) -> _Rewrite:
        """Rewrite the block's names under *assignment*, each tree's
        (relation, binding) in tree order, and split its WHERE."""
        assigned = {
            tree.key: (tree, relation, binding)
            for tree, (relation, binding) in zip(self.trees, assignment)
        }
        resolved: dict[TreeKey, RelationMapping] = {}
        from_bindings = self.from_bindings
        outer_bindings = self.outer_bindings

        def rewrite(node: ast.ColumnRef) -> Optional[ast.Node]:
            qualifier = node.relation
            key = relation_key(qualifier, node.attribute, from_bindings)
            entry = assigned.get(key)
            if entry is None:
                if (
                    qualifier is not None
                    and qualifier.is_known
                    and qualifier.text.lower() in outer_bindings
                    and qualifier.text.lower() not in from_bindings
                ):
                    # correlated reference into an enclosing, already-
                    # translated block: resolve only the attribute,
                    # against the outer binding's relation
                    return self.composer._rewrite_outer_ref(
                        node, outer_bindings
                    )
                return None
            tree, relation_name, binding = entry
            mapping = resolved.get(key)
            if mapping is None:
                mapping = self.mappings[key].candidate_for(relation_name)
                if mapping is None:
                    raise TranslationError(
                        f"no mapping of {tree.label} onto {relation_name!r}",
                        diagnostic=Diagnostic(
                            stage="compose",
                            message="mapped relation lost its candidate entry",
                            token=tree.label,
                        ),
                    )
                resolved[key] = mapping
            relation = mapping.relation
            attr_term = node.attribute
            attr_name = mapping.attribute_map.get(attribute_key(attr_term))
            if attr_name is None and attr_term.is_known:
                if relation.has_attribute(attr_term.text):
                    attr_name = relation.attribute(attr_term.text).name
            if attr_name is None:
                raise TranslationError(
                    f"cannot resolve attribute {attr_term.render()!r} "
                    f"in relation {relation.name!r}",
                    diagnostic=Diagnostic(
                        stage="compose",
                        message="no attribute of the mapped relation matches",
                        token=attr_term.render(),
                        candidates=len(relation.attribute_names),
                    ),
                )
            return self._column(attr_name, binding)

        def renamed(node: ast.Node) -> ast.Node:
            return ast.transform(
                node, rewrite, within_block=True, only=ast.ColumnRef
            )

        # clause by clause, in field order, so the first name that
        # cannot be resolved is the one reported
        select = self.select
        items = tuple(map(renamed, select.items))
        for item in select.from_items:
            if type(item) is ast.Join:
                # the network supplies the FROM clause, but the names in
                # an ON condition must resolve like every other's
                renamed(item)
        where = None if select.where is None else renamed(select.where)
        group_by = tuple(map(renamed, select.group_by))
        having = None if select.having is None else renamed(select.having)
        order_by = tuple(map(renamed, select.order_by))
        keys: frozenset[JoinKey] = frozenset()
        if where is not None:
            conjuncts = _conjuncts(where)
            if not _left_deep(where):
                where = conjuncts[0]
                for conjunct in conjuncts[1:]:
                    where = ast.BinaryOp("and", where, conjunct)
            found = {_conjunct_key(conjunct) for conjunct in conjuncts}
            found.discard(None)
            keys = frozenset(found)
        return _Rewrite(items, where, group_by, having, order_by, keys)


def _conjuncts(expr: ast.Node) -> list[ast.Node]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _left_deep(expr: ast.Node) -> bool:
    """Whether *expr*'s AND chain is left-deep: no AND operand of an
    AND stands on its right."""
    while type(expr) is ast.BinaryOp and expr.op == "and":
        right = expr.right
        if type(right) is ast.BinaryOp and right.op == "and":
            return False
        expr = expr.left
    return True


def _conjunct_key(conjunct: ast.Node) -> Optional[JoinKey]:
    """The :data:`JoinKey` of a ``column = column`` conjunct whose four
    names are exact, else None.

    Only such a conjunct renders like an edge condition: an edge's sides
    are qualified columns of exact names, and ``render_identifier``
    quotes a name by its lower-cased form alone, so two of them render
    equal after ``lower()`` exactly when their lower-cased names match.
    """
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None
    sides = []
    for side in (conjunct.left, conjunct.right):
        if not isinstance(side, ast.ColumnRef):
            return None
        relation, attribute = side.relation, side.attribute
        if (
            relation is None
            or relation.certainty is not _EXACT
            or attribute.certainty is not _EXACT
        ):
            return None
        sides.append((relation.text.lower(), attribute.text.lower()))
    return frozenset(sides)
