"""Theorem 6.11(2): without DTDs, ``SAT(X(↓,↑,[],=))`` is in PTIME.

The paper translates the query into a conjunctive query over the tree
signature ``doc`` (label predicates, ``Root``, ``Rchild``, attribute
comparisons) and decides satisfiability by the *canonical database*
technique:

1. compute the equivalence relation ``E`` on variables forced by tree-ness
   (equivalent children have equivalent parents; all roots coincide);
2. compute ``E2`` on (variable, attribute) pairs and constants forced by
   the ``=`` conjuncts;
3. check *cogency*: no ``≠`` conjunct inside an ``E2`` class, no two labels
   on one ``E``-class, no parent above a root, no two distinct constants
   identified;
4. build the canonical model ``CM(Q)`` and check the child relation is
   acyclic (a forest), attaching orphan components below the root
   component.

``Q`` is satisfiable iff it is cogent and ``CM(Q)`` is acyclic; the
canonical model itself is the witness, built as a tree on the result's
first ``.witness`` read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial

from repro.errors import FragmentError
from repro.sat.registry import DeciderSpec, register_decider
from repro.sat.result import SatResult
from repro.xmltree.model import Node, XMLTree
from repro.xpath import ast
from repro.xpath.ast import Path, Qualifier
from repro.xpath.fragments import Feature, features_of

METHOD = "thm6.11-conjunctive"


@dataclass
class _CQ:
    """The conjunctive query over the tree signature."""

    n_vars: int = 0
    root_vars: list[int] = field(default_factory=list)
    child_edges: list[tuple[int, int]] = field(default_factory=list)  # (parent, child)
    labels: dict[int, set[str]] = field(default_factory=dict)
    eq_attr: list[tuple[int, str, int, str]] = field(default_factory=list)
    neq_attr: list[tuple[int, str, int, str]] = field(default_factory=list)
    eq_const: list[tuple[int, str, str]] = field(default_factory=list)
    neq_const: list[tuple[int, str, str]] = field(default_factory=list)

    def fresh(self) -> int:
        self.n_vars += 1
        return self.n_vars - 1

    def add_label(self, var: int, label: str) -> None:
        self.labels.setdefault(var, set()).add(label)


def translate(query: Path) -> _CQ:
    """Lemma 6.12: linear-time translation of an ``X(↓,↑,[],=)`` query into
    a conjunctive query (raises :class:`FragmentError` outside it)."""
    used = features_of(query)
    if not used <= SPEC.allowed:
        raise FragmentError(
            f"sat_conjunctive_no_dtd requires X(child,parent,qual,data); query uses "
            f"{sorted(str(f) for f in used - SPEC.allowed)} extra"
        )
    cq = _CQ()
    root = cq.fresh()
    cq.root_vars.append(root)
    _walk_path(cq, query, root)
    return cq


def _walk_path(cq: _CQ, path: Path, var: int) -> int:
    """Add conjuncts for ``path`` starting at ``var``; returns the end
    variable."""
    if isinstance(path, ast.Empty):
        return var
    if isinstance(path, ast.Label):
        child = cq.fresh()
        cq.child_edges.append((var, child))
        cq.add_label(child, path.name)
        return child
    if isinstance(path, ast.Wildcard):
        child = cq.fresh()
        cq.child_edges.append((var, child))
        return child
    if isinstance(path, ast.Parent):
        parent = cq.fresh()
        cq.child_edges.append((parent, var))
        return parent
    if isinstance(path, ast.Seq):
        middle = _walk_path(cq, path.left, var)
        return _walk_path(cq, path.right, middle)
    if isinstance(path, ast.Filter):
        end = _walk_path(cq, path.path, var)
        _walk_qualifier(cq, path.qualifier, end)
        return end
    raise FragmentError(f"node {path!r} outside X(child,parent,qual,data)")


def _walk_qualifier(cq: _CQ, qualifier: Qualifier, var: int) -> None:
    if isinstance(qualifier, ast.PathExists):
        _walk_path(cq, qualifier.path, var)
        return
    if isinstance(qualifier, ast.LabelTest):
        cq.add_label(var, qualifier.name)
        return
    if isinstance(qualifier, ast.And):
        _walk_qualifier(cq, qualifier.left, var)
        _walk_qualifier(cq, qualifier.right, var)
        return
    if isinstance(qualifier, ast.AttrConstCmp):
        end = _walk_path(cq, qualifier.path, var)
        if qualifier.op == "=":
            cq.eq_const.append((end, qualifier.attr, qualifier.value))
        else:
            cq.neq_const.append((end, qualifier.attr, qualifier.value))
        return
    if isinstance(qualifier, ast.AttrAttrCmp):
        left_end = _walk_path(cq, qualifier.left_path, var)
        right_end = _walk_path(cq, qualifier.right_path, var)
        if qualifier.op == "=":
            cq.eq_attr.append((left_end, qualifier.left_attr, right_end, qualifier.right_attr))
        else:
            cq.neq_attr.append((left_end, qualifier.left_attr, right_end, qualifier.right_attr))
        return
    raise FragmentError(f"qualifier {qualifier!r} outside X(child,parent,qual,data)")


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, item):
        root = item
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(item, item) != item:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, left, right) -> bool:
        left_root, right_root = self.find(left), self.find(right)
        if left_root == right_root:
            return False
        self.parent[left_root] = right_root
        return True


def sat_conjunctive_no_dtd(query: Path) -> SatResult:
    """Decide DTD-less satisfiability of ``query ∈ X(↓,↑,[],=)`` via
    cogency + canonical model."""
    cq = translate(query)

    # -- E: variable equivalence forced by tree-ness -------------------------
    variables = _UnionFind()
    for first, second in itertools.pairwise(cq.root_vars):
        variables.union(first, second)
    changed = True
    while changed:
        changed = False
        for (p1, c1), (p2, c2) in itertools.combinations(cq.child_edges, 2):
            if variables.find(c1) == variables.find(c2):
                if variables.union(p1, p2):
                    changed = True

    # -- cogency: labels, root-above ----------------------------------------
    labels_of_class: dict[int, set[str]] = {}
    for var, labels in cq.labels.items():
        labels_of_class.setdefault(variables.find(var), set()).update(labels)
    for cls, labels in labels_of_class.items():
        if len(labels) > 1:
            return SatResult(
                False, METHOD, reason=f"conflicting label tests {sorted(labels)}"
            )
    root_classes = {variables.find(var) for var in cq.root_vars}
    for parent, child in cq.child_edges:
        if variables.find(child) in root_classes:
            return SatResult(False, METHOD, reason="the root cannot have a parent")

    # -- E2: attribute-value equivalence --------------------------------------
    values = _UnionFind()
    for v1, a1, v2, a2 in cq.eq_attr:
        values.union(("slot", variables.find(v1), a1), ("slot", variables.find(v2), a2))
    for var, attr, const in cq.eq_const:
        values.union(("slot", variables.find(var), attr), ("const", const))
    # E-equal variables share attribute slots by construction of the key.

    for v1, a1, v2, a2 in cq.neq_attr:
        if values.find(("slot", variables.find(v1), a1)) == values.find(
            ("slot", variables.find(v2), a2)
        ):
            return SatResult(False, METHOD, reason=f"@{a1} != @{a2} forced equal")
    for var, attr, const in cq.neq_const:
        if values.find(("slot", variables.find(var), attr)) == values.find(
            ("const", const)
        ):
            return SatResult(
                False, METHOD, reason=f"@{attr} != '{const}' forced equal"
            )
    # distinct constants must not be identified
    const_class: dict = {}
    seen_consts = {c for (_v, _a, c) in cq.eq_const}
    for const in seen_consts:
        cls = values.find(("const", const))
        if cls in const_class and const_class[cls] != const:
            return SatResult(
                False, METHOD,
                reason=f"constants {const_class[cls]!r} and {const!r} forced equal",
            )
        const_class[cls] = const

    # -- canonical model: forest + acyclicity ---------------------------------
    classes = {variables.find(var) for var in range(cq.n_vars)}
    parent_of: dict[int, int] = {}
    for parent, child in cq.child_edges:
        parent_cls, child_cls = variables.find(parent), variables.find(child)
        existing = parent_of.get(child_cls)
        if existing is not None and existing != parent_cls:
            # E should have merged them; defensive check
            return SatResult(False, METHOD, reason="node with two parents")
        parent_of[child_cls] = parent_cls
    # acyclicity
    for cls in classes:
        steps = 0
        current = cls
        while current in parent_of:
            current = parent_of[current]
            steps += 1
            if steps > len(classes):
                return SatResult(False, METHOD, reason="cyclic child relation")

    witness = partial(
        _canonical_model, cq, variables, values, parent_of, classes, const_class
    )
    return SatResult(
        True, METHOD, witness=witness,
        stats={"variables": cq.n_vars, "classes": len(classes)},
    )


def _canonical_model(cq, variables, values, parent_of, classes, const_class) -> XMLTree:
    """Build ``CM'(Q)``: one node per class, labels from label conjuncts
    (default ``X``), attributes from ``E2`` classes, orphan components
    attached under the root component's root."""
    labels_of_class: dict[int, str] = {}
    for var, labels in cq.labels.items():
        labels_of_class[variables.find(var)] = sorted(labels)[0]

    nodes: dict[int, Node] = {
        cls: Node(labels_of_class.get(cls, "X")) for cls in classes
    }
    # attributes: every slot mentioned anywhere gets a value by E2 class
    fresh_values: dict = {}

    def value_for(cls: int, attr: str) -> str:
        value_class = values.find(("slot", cls, attr))
        if value_class in const_class:
            return const_class[value_class]
        if value_class not in fresh_values:
            fresh_values[value_class] = f"#v{len(fresh_values) + 1}"
        return fresh_values[value_class]

    for v1, a1, v2, a2 in cq.eq_attr + cq.neq_attr:
        for var, attr in ((v1, a1), (v2, a2)):
            cls = variables.find(var)
            nodes[cls].attrs[attr] = value_for(cls, attr)
    for var, attr, _const in cq.eq_const + cq.neq_const:
        cls = variables.find(var)
        nodes[cls].attrs[attr] = value_for(cls, attr)

    for child_cls, parent_cls in parent_of.items():
        nodes[parent_cls].append(nodes[child_cls])

    root_cls = variables.find(cq.root_vars[0])
    root = nodes[root_cls]
    # attach remaining components (no Root conjunct) below the root
    attached = set()

    def component_root(cls: int) -> int:
        current = cls
        while current in parent_of:
            current = parent_of[current]
        return current

    for cls in sorted(classes):
        top = component_root(cls)
        if top != root_cls and top not in attached:
            attached.add(top)
            root.append(nodes[top])
    return XMLTree(root)


SPEC = register_decider(DeciderSpec(
    name="conjunctive",
    method=METHOD,
    fn=sat_conjunctive_no_dtd,
    allowed=frozenset({
        Feature.WILDCARD,
        Feature.PARENT,
        Feature.QUALIFIER,
        Feature.DATA,
        Feature.LABEL_TEST,
    }),
    shape="X(↓,↑,[],=)",
    theorem="Thm 6.11(2)",
    complexity="PTIME",
    cost_rank=20,
    needs_dtd=False,
))
