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
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..catalog import Catalog
from ..errors import Diagnostic, ReproError
from ..sqlkit import ast, render
from .join_network import JoinNetwork
from .mapper import TreeMappings
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


class Composer:
    """Translates one block + one MTJN into full SQL."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    def compose(
        self,
        select: ast.Select,
        trees: list[RelationTree],
        mappings: dict[TreeKey, TreeMappings],
        network: JoinNetwork,
        from_bindings: dict[str, ast.TableRef],
        outer_bindings: Optional[dict[str, str]] = None,
        weight: Optional[float] = None,
    ) -> ComposedQuery:
        outer_bindings = outer_bindings or {}
        node_by_tree: dict[TreeKey, XNode] = {}
        for node in network.nodes.values():
            if node.tree_key is not None:
                node_by_tree[node.tree_key] = node
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
        bindings = self._assign_bindings(network, trees, node_by_tree)
        rewritten = self._rewrite_names(
            select,
            trees,
            mappings,
            node_by_tree,
            bindings,
            from_bindings,
            outer_bindings,
        )
        from_items = self._build_from(network, bindings)
        where = self._add_join_conditions(rewritten.where, network, bindings)
        final = dataclasses.replace(
            rewritten, from_items=from_items, where=where
        )
        if weight is None:
            weight = network.best_weight(())
        return ComposedQuery(
            select=final,
            network=network,
            weight=weight,
            bindings={
                binding.lower(): node.relation
                for node, binding in bindings.items()
            },
        )

    # ------------------------------------------------------------------
    # step 2 support: binding assignment
    # ------------------------------------------------------------------
    def _assign_bindings(
        self,
        network: JoinNetwork,
        trees: list[RelationTree],
        node_by_tree: dict[TreeKey, XNode],
    ) -> dict[XNode, str]:
        """Choose a FROM-clause binding name for every MTJN node.

        User-supplied aliases are kept; relations occurring once keep
        their plain name; repeated relations get ``Name_rtK`` aliases in
        the paper's style.
        """
        occurrences: dict[str, list[XNode]] = {}
        for node in network.nodes.values():
            occurrences.setdefault(node.relation, []).append(node)
        tree_by_key = {tree.key: tree for tree in trees}
        bindings: dict[XNode, str] = {}
        used: set[str] = set()
        for relation_name, nodes in occurrences.items():
            declared = self.catalog.relation(relation_name).name
            for node in sorted(nodes, key=lambda n: n.node_id):
                tree = (
                    tree_by_key.get(node.tree_key)
                    if node.tree_key is not None
                    else None
                )
                if tree is not None and tree.alias:
                    candidate = tree.alias
                elif len(nodes) == 1:
                    candidate = declared
                elif tree is not None:
                    candidate = f"{declared}_{tree.label}"
                else:
                    candidate = f"{declared}_{node.node_id}"
                base = candidate
                suffix = 2
                while candidate.lower() in used:
                    candidate = f"{base}_{suffix}"
                    suffix += 1
                used.add(candidate.lower())
                bindings[node] = candidate
        return bindings

    # ------------------------------------------------------------------
    # step 1: exact-name instantiation
    # ------------------------------------------------------------------
    def _rewrite_names(
        self,
        select: ast.Select,
        trees: list[RelationTree],
        mappings: dict[TreeKey, TreeMappings],
        node_by_tree: dict[TreeKey, XNode],
        bindings: dict[XNode, str],
        from_bindings: dict[str, ast.TableRef],
        outer_bindings: dict[str, str],
    ) -> ast.Select:
        tree_by_key = {tree.key: tree for tree in trees}

        def rewrite(node: ast.Node) -> Optional[ast.Node]:
            if not isinstance(node, ast.ColumnRef):
                return None
            qualifier = node.relation
            key = relation_key(qualifier, node.attribute, from_bindings)
            tree = tree_by_key.get(key)
            if tree is None:
                if (
                    qualifier is not None
                    and qualifier.is_known
                    and qualifier.text.lower() in outer_bindings
                    and qualifier.text.lower() not in from_bindings
                ):
                    # correlated reference into an enclosing, already-
                    # translated block: resolve only the attribute,
                    # against the outer binding's relation
                    return self._rewrite_outer_ref(node, outer_bindings)
                return None
            xnode = node_by_tree[tree.key]
            mapping = mappings[tree.key].candidate_for(xnode.relation)
            if mapping is None:
                raise TranslationError(
                    f"no mapping of {tree.label} onto {xnode.relation!r}",
                    diagnostic=Diagnostic(
                        stage="compose",
                        message="mapped relation lost its candidate entry",
                        token=tree.label,
                    ),
                )
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
            return ast.ColumnRef(
                attribute=ast.exact(attr_name),
                relation=ast.exact(bindings[xnode]),
            )

        return ast.transform(select, rewrite, within_block=True)

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

    # ------------------------------------------------------------------
    # step 2: FROM clause
    # ------------------------------------------------------------------
    def _build_from(
        self, network: JoinNetwork, bindings: dict[XNode, str]
    ) -> tuple[ast.Node, ...]:
        items = []
        for node in sorted(network.nodes.values(), key=lambda n: n.node_id):
            declared = self.catalog.relation(node.relation).name
            binding = bindings[node]
            alias = None if binding.lower() == declared.lower() else binding
            items.append(ast.TableRef(ast.exact(declared), alias))
        return tuple(items)

    # ------------------------------------------------------------------
    # step 3: join conditions
    # ------------------------------------------------------------------
    def _add_join_conditions(
        self,
        where: Optional[ast.Node],
        network: JoinNetwork,
        bindings: dict[XNode, str],
    ) -> Optional[ast.Node]:
        conditions: list[ast.Node] = []
        seen: set[frozenset[str]] = set()
        if where is not None:
            for conjunct in _conjuncts(where):
                conditions.append(conjunct)
                seen.add(_condition_key(conjunct))
        for edge in network.all_edges:
            condition = ast.BinaryOp(
                "=",
                ast.ColumnRef(
                    ast.exact(edge.left_attribute),
                    ast.exact(bindings[edge.left]),
                ),
                ast.ColumnRef(
                    ast.exact(edge.right_attribute),
                    ast.exact(bindings[edge.right]),
                ),
            )
            key = _condition_key(condition)
            if key in seen:
                continue
            seen.add(key)
            conditions.append(condition)
        if not conditions:
            return None
        combined = conditions[0]
        for condition in conditions[1:]:
            combined = ast.BinaryOp("and", combined, condition)
        return combined


def _conjuncts(expr: ast.Node) -> list[ast.Node]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _condition_key(expr: ast.Node) -> frozenset[str]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "=":
        return frozenset(
            (render(expr.left).lower(), render(expr.right).lower())
        )
    return frozenset((render(expr).lower(),))
