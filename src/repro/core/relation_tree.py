"""Relation trees: merging expression triples (paper Section 3.2).

Expression triples are merged into *relation trees* by the paper's three
rules:

1. triples with identical relation name (and identical alias, when one is
   specified) merge at the relation level;
2. triples with identical relation name *and* identical attribute name
   merge at the attribute level;
3. triples with identical attribute name but no relation name merge at
   the attribute level (forming a tree whose root is ``*``).

Placeholders follow their binding semantics: ``?x`` occurrences with the
same variable name denote the same element and merge; each anonymous
``?`` is a fresh element and never merges (§2.1).

The merge key of a column reference is a pure function of its name terms
plus the block's FROM bindings, so the Standard SQL Composer can later
re-derive which tree (and attribute tree) any occurrence belongs to
without tracking node identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sqlkit import ast, render
from ..sqlkit.render import render_column, render_literal
from .triples import Condition, ExpressionTriple, ExtractionResult

#: Merge keys are small tagged tuples; the tag keeps the namespaces of
#: FROM bindings, guessed names, variables and anonymous elements apart.
TreeKey = tuple[str, str]
AttrKey = tuple[str, str]


@dataclass
class AttributeTree:
    """One attribute-level subtree: a name plus accumulated conditions."""

    key: AttrKey
    name: ast.NameTerm
    conditions: list[Condition] = field(default_factory=list)

    @property
    def known_name(self) -> Optional[str]:
        """The attribute name, when the user supplied one (exact or guess)."""
        return self.name.text if self.name.is_known else None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name.render()}[{len(self.conditions)} cond]"


@dataclass
class RelationTree:
    """One relation-level tree: root name (or ``*``) plus attribute trees."""

    key: TreeKey
    index: int
    name: Optional[ast.NameTerm] = None
    alias: Optional[str] = None
    attributes: dict[AttrKey, AttributeTree] = field(default_factory=dict)

    @property
    def known_name(self) -> Optional[str]:
        """The root relation name, when the user supplied one."""
        if self.name is not None and self.name.is_known:
            return self.name.text
        return None

    @property
    def attribute_trees(self) -> list[AttributeTree]:
        return list(self.attributes.values())

    @property
    def label(self) -> str:
        """Short display / alias label, e.g. ``rt1``."""
        return f"rt{self.index + 1}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        root = self.name.render() if self.name else "*"
        attrs = ", ".join(str(a) for a in self.attributes.values())
        return f"{self.label}:{root}({attrs})"


#: Canonical tree identity for cross-query memoization; see
#: :func:`tree_fingerprint`.
TreeFingerprint = tuple


def tree_fingerprint(tree: RelationTree) -> TreeFingerprint:
    """Canonical, query-independent identity of a relation tree.

    Two trees with equal fingerprints score identically against every
    relation: the fingerprint captures exactly what the similarity layer
    reads — the rendered root name term, and per attribute tree its merge
    key, rendered name term, and the rendered condition predicates
    (order-insensitive; the (m+1)/(n+1) factor is a count).  Everything
    else about a tree (index, alias, originating query) is irrelevant to
    ``Sim(rt, R)``, so results keyed by fingerprint may be shared across
    queries.  The fingerprint is cached on the tree after the first call
    (trees are immutable once :func:`build_relation_trees` returns).
    """
    cached = getattr(tree, "_fingerprint", None)
    if cached is not None:
        return cached
    attrs = []
    for attribute_tree in tree.attributes.values():
        conditions = attribute_tree.conditions
        if len(conditions) == 1:
            texts: tuple = (_condition_texts(conditions[0]),)
        else:
            texts = tuple(sorted(map(_condition_texts, conditions)))
        attrs.append(
            (attribute_tree.key, attribute_tree.name.render().lower(), texts)
        )
    if len(attrs) > 1:
        attrs.sort()
    fingerprint = (
        # name matching is case-insensitive, so case variants share a slot
        # (condition predicates are NOT lowered: literals are case-exact)
        tree.name.render().lower() if tree.name is not None else None,
        tuple(attrs),
    )
    tree._fingerprint = fingerprint
    return fingerprint


def _condition_texts(condition: Condition) -> tuple[str, str]:
    """``(render(predicate), render(column))`` of a value condition.

    The common ``column op literal`` shape is spelled out here, as
    :func:`render` spells a comparison: both operands bind tighter than
    the operator, so neither is parenthesized."""
    column = render_column(condition.column)
    predicate = condition.predicate
    if (
        type(predicate) is ast.BinaryOp
        and predicate.left is condition.column
        and type(predicate.right) is ast.Literal
        and predicate.op in _COMPARISONS
    ):
        literal = render_literal(predicate.right.value)
        return f"{column} {predicate.op} {literal}", column
    return render(predicate), column


_COMPARISONS = frozenset({"=", "<>", "<", "<=", ">", ">="})

#: placeholder certainties, bound once: reading a member off an enum
#: class costs a descriptor call on every access
_VAR, _ANON = ast.Certainty.VAR, ast.Certainty.ANON


def relation_key(
    qualifier: Optional[ast.NameTerm],
    attribute: Optional[ast.NameTerm],
    from_bindings: dict[str, ast.TableRef],
) -> TreeKey:
    """Merge key of the relation tree an occurrence belongs to.

    Pure function of the occurrence's name terms and the FROM bindings —
    both the merger and the composer call this, guaranteeing agreement.
    """
    if qualifier is not None:
        lowered = qualifier.text.lower()
        if qualifier.is_known and lowered in from_bindings:
            return ("from", lowered)
        if qualifier.certainty is _VAR:
            return ("var", qualifier.text)
        if qualifier.certainty is _ANON:
            return ("anon", qualifier.text)
        return ("name", lowered)
    # Unqualified with exactly one FROM relation: standard SQL scoping says
    # the column belongs to that relation, so the occurrence joins its tree.
    assert attribute is not None
    if len(from_bindings) == 1:
        return ("from", next(iter(from_bindings)))
    # Unqualified otherwise: rule 3 groups by attribute name; placeholders
    # are their own namespace so ``?x = 5`` twice merges while two bare
    # ``?`` do not.
    if attribute.certainty is _VAR:
        return ("attrvar", attribute.text)
    if attribute.certainty is _ANON:
        return ("attranon", attribute.text)
    return ("attr", attribute.text.lower())


def attribute_key(attribute: ast.NameTerm) -> AttrKey:
    if attribute.certainty is _VAR:
        return ("var", attribute.text)
    if attribute.certainty is _ANON:
        return ("anon", attribute.text)
    return ("name", attribute.text.lower())


def build_relation_trees(extraction: ExtractionResult) -> list[RelationTree]:
    """Merge the block's expression triples into an l-relation-tree query."""
    trees: dict[TreeKey, RelationTree] = {}
    from_bindings = extraction.from_bindings
    for triple in extraction.triples:
        key = _triple_key(triple, from_bindings)
        name, alias = _root_name(triple, from_bindings)
        tree = trees.get(key)
        if tree is None:
            tree = RelationTree(key=key, index=len(trees), name=name, alias=alias)
            trees[key] = tree
        else:
            if tree.name is None and name is not None:
                tree.name = name
            if tree.alias is None and alias is not None:
                tree.alias = alias
        attribute = triple.attribute
        if attribute is None:
            continue
        attr_key = attribute_key(attribute)
        attr_tree = tree.attributes.get(attr_key)
        if attr_tree is None:
            attr_tree = AttributeTree(key=attr_key, name=attribute)
            tree.attributes[attr_key] = attr_tree
        if triple.condition is not None:
            attr_tree.conditions.append(triple.condition)
    return list(trees.values())


def _triple_key(
    triple: ExpressionTriple, from_bindings: dict[str, ast.TableRef]
) -> TreeKey:
    if triple.attribute is None:
        # a FROM-clause relation triple: keyed by its binding name
        assert triple.relation is not None
        binding = (triple.alias or triple.relation.text).lower()
        return ("from", binding)
    return relation_key(triple.relation, triple.attribute, from_bindings)


def _root_name(
    triple: ExpressionTriple, from_bindings: dict[str, ast.TableRef]
) -> tuple[Optional[ast.NameTerm], Optional[str]]:
    """The root NameTerm and alias a triple contributes to its tree."""
    if triple.attribute is None:
        return triple.relation, triple.alias
    if triple.relation is None:
        return None, None
    lowered = triple.relation.text.lower()
    if triple.relation.is_known and lowered in from_bindings:
        table = from_bindings[lowered]
        return table.name, table.alias
    if triple.relation.certainty in (_VAR, _ANON):
        return None, None  # placeholder roots carry no name information
    return triple.relation, None
