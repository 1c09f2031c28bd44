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
conditions by their names instead of by their rendered text.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

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


@dataclasses.dataclass(frozen=True)
class _Rewrite:
    """One name rewrite of a block, shared by every network of the call
    that assigns its trees the same (relation, binding) pairs."""

    select: ast.Select
    #: the rewritten WHERE's conjuncts, ANDed left-deep
    where: Optional[ast.Node]
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
        runs once per distinct tree -> (relation, binding) assignment,
        and catalog names, FROM items and edge conditions are built once
        per call.  The first network that cannot be composed raises.
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


class _Block:
    """The state of one :meth:`Composer.compose` call: the block, and the
    parts its networks share.  Nothing here outlives the call; AST nodes
    are frozen, so one part may sit in several results."""

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
        self.tree_by_key = {tree.key: tree for tree in trees}
        self.mappings = mappings
        self.from_bindings = from_bindings
        self.outer_bindings = outer_bindings
        #: relation key -> catalog name
        self.declared: dict[str, str] = {}
        #: tree assignment -> its rewrite
        self.rewrites: dict[tuple[tuple[str, str], ...], _Rewrite] = {}
        self.names: dict[str, ast.NameTerm] = {}
        #: (attribute, binding) -> exact column
        self.columns: dict[tuple[str, str], ast.ColumnRef] = {}
        #: (relation key, binding) -> FROM item
        self.table_refs: dict[tuple[str, str], ast.TableRef] = {}
        #: edge signature (binding, attribute, binding, attribute) -> key
        self.edge_keys: dict[tuple[str, str, str, str], JoinKey] = {}
        #: edge signature -> condition, built the first time its key is new
        self.edge_conditions: dict[tuple[str, str, str, str], ast.Node] = {}

    def compose(self, network: JoinNetwork, weight: float) -> ComposedQuery:
        node_by_tree = {
            node.tree_key: node
            for node in network.nodes.values()
            if node.tree_key is not None
        }
        for tree in self.trees:
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
        bindings, exposed = self._assign_bindings(network)
        assignment = tuple(
            (node.relation, bindings[node.node_id])
            for node in (node_by_tree[tree.key] for tree in self.trees)
        )
        rewrite = self.rewrites.get(assignment)
        if rewrite is None:
            rewrite = self._rewrite_names(assignment)
            self.rewrites[assignment] = rewrite
        final = dataclasses.replace(
            rewrite.select,
            from_items=self._build_from(network, bindings),
            where=self._add_join_conditions(rewrite, network, bindings),
        )
        return ComposedQuery(
            select=final, network=network, weight=weight, bindings=exposed
        )

    def _name(self, text: str) -> ast.NameTerm:
        term = self.names.get(text)
        if term is None:
            term = self.names[text] = ast.exact(text)
        return term

    def _column(self, attribute: str, binding: str) -> ast.ColumnRef:
        column = self.columns.get((attribute, binding))
        if column is None:
            column = ast.ColumnRef(self._name(attribute), self._name(binding))
            self.columns[(attribute, binding)] = column
        return column

    # ------------------------------------------------------------------
    # step 2 support: binding assignment
    # ------------------------------------------------------------------
    def _assign_bindings(
        self, network: JoinNetwork
    ) -> tuple[dict[int, str], dict[str, str]]:
        """Choose a FROM-clause binding name for every MTJN node.

        User-supplied aliases are kept; relations occurring once keep
        their plain name; repeated relations get ``Name_rtK`` aliases in
        the paper's style.  Returns node id -> binding, and binding
        (lower) -> relation key for correlated inner blocks.
        """
        occurrences: dict[str, list[XNode]] = {}
        for node in network.nodes.values():
            occurrences.setdefault(node.relation, []).append(node)
        bindings: dict[int, str] = {}
        exposed: dict[str, str] = {}
        for relation_name, nodes in occurrences.items():
            name = self.declared.get(relation_name)
            if name is None:
                name = self.composer.catalog.relation(relation_name).name
                self.declared[relation_name] = name
            if len(nodes) > 1:
                nodes.sort(key=lambda n: n.node_id)
            for node in nodes:
                tree = self.tree_by_key.get(node.tree_key)
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

        def rewrite(node: ast.Node) -> Optional[ast.Node]:
            if not isinstance(node, ast.ColumnRef):
                return None
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

        rewritten = ast.transform(self.select, rewrite, within_block=True)
        if rewritten.where is None:
            return _Rewrite(rewritten, None, frozenset())
        conjuncts = _conjuncts(rewritten.where)
        where = conjuncts[0]
        for conjunct in conjuncts[1:]:
            where = ast.BinaryOp("and", where, conjunct)
        keys = {_conjunct_key(conjunct) for conjunct in conjuncts}
        keys.discard(None)
        return _Rewrite(rewritten, where, frozenset(keys))

    # ------------------------------------------------------------------
    # step 2: FROM clause
    # ------------------------------------------------------------------
    def _build_from(
        self, network: JoinNetwork, bindings: dict[int, str]
    ) -> tuple[ast.Node, ...]:
        nodes = network.nodes
        items = []
        for node_id in sorted(nodes):
            relation_name = nodes[node_id].relation
            binding = bindings[node_id]
            item = self.table_refs.get((relation_name, binding))
            if item is None:
                name = self.declared[relation_name]
                alias = None if binding.lower() == name.lower() else binding
                item = ast.TableRef(self._name(name), alias)
                self.table_refs[(relation_name, binding)] = item
            items.append(item)
        return tuple(items)

    # ------------------------------------------------------------------
    # step 3: join conditions
    # ------------------------------------------------------------------
    def _add_join_conditions(
        self,
        rewrite: _Rewrite,
        network: JoinNetwork,
        bindings: dict[int, str],
    ) -> Optional[ast.Node]:
        """AND one FK-PK condition per edge onto the rewritten WHERE,
        skipping any whose key a user conjunct or an earlier edge has."""
        where = rewrite.where
        seen = set(rewrite.keys)
        for edge in network.all_edges:
            left = bindings[edge.left.node_id]
            right = bindings[edge.right.node_id]
            signature = (left, edge.left_attribute, right, edge.right_attribute)
            key = self.edge_keys.get(signature)
            if key is None:
                key = self.edge_keys[signature] = frozenset((
                    (left.lower(), edge.left_attribute.lower()),
                    (right.lower(), edge.right_attribute.lower()),
                ))
            if key in seen:
                continue
            seen.add(key)
            condition = self.edge_conditions.get(signature)
            if condition is None:
                condition = self.edge_conditions[signature] = ast.BinaryOp(
                    "=",
                    self._column(edge.left_attribute, left),
                    self._column(edge.right_attribute, right),
                )
            where = condition if where is None else ast.BinaryOp(
                "and", where, condition
            )
        return where


def _conjuncts(expr: ast.Node) -> list[ast.Node]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


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
            or relation.certainty is not ast.Certainty.EXACT
            or attribute.certainty is not ast.Certainty.EXACT
        ):
            return None
        sides.append((relation.text.lower(), attribute.text.lower()))
    return frozenset(sides)
