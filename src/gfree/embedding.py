"""Induced-subgraph testing through labeled tree embeddings, cotree vertex
deletion, and the cycle-family antichain constructions.

The tree route: a cograph G is an induced subgraph of a cograph H exactly
when the decomposition tree of G maps into the decomposition tree of H by
an injective, order-preserving, label-preserving map under which the label
of the meet of any two leaves is preserved.

The tree functions import the cotree layer when they run, so the
cycle-antichain half (which the gadget layer uses) loads only `graphs`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import TYPE_CHECKING

from .errors import (
    BadSizeError,
    EmptyIndexSetError,
    ForbiddenInsideP4Error,
    LastLeafError,
    UnknownVertexError,
    record,
)
from .graphs import (
    Graph,
    complement,
    cycle_graph,
    find_induced_embedding,
    labeled_chain_sum,
    path_graph,
)

if TYPE_CHECKING:
    from .cotree import CotreeNode

__all__ = [
    "TreeEmbedding",
    "label_meet_embed",
    "cograph_induced_via_trees",
    "delete_vertex_cotree",
    "max_induced_cycle",
    "antichain_params",
    "antichain_graph",
    "cycle_formula_holds",
]


@record
class TreeEmbedding:
    """Injective node map between two cotrees, as (source path, target path)
    pairs sorted by source path."""

    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def as_dict(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        return dict(self.pairs)


def _is_ancestor(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    return len(p) <= len(q) and q[: len(p)] == p


def _subtree_counts(t: CotreeNode) -> dict[tuple[int, ...], Counter]:
    """Per node: how many leaves, 0-nodes, and 1-nodes its subtree holds."""
    from .cotree import Inner, iter_nodes

    counts: dict[tuple[int, ...], Counter] = {}
    for path, node in sorted(iter_nodes(t), key=lambda pn: -len(pn[0])):
        c = Counter({node.label: 1})
        if isinstance(node, Inner):
            for i in range(len(node.children)):
                c.update(counts[path + (i,)])
        counts[path] = c
    return counts


def label_meet_embed(source: CotreeNode, target: CotreeNode) -> TreeEmbedding | None:
    """First embedding of source into target, or None.

    Nodes are assigned in source preorder, candidates tried in target
    preorder; pruning by per-label subtree counts.  Leaf pairs must keep
    their meet label.  The search backtracks with an explicit stack, so
    its depth is not bounded by the interpreter's recursion limit.
    """
    from .cotree import ensure_valid, iter_nodes, meet_path

    ensure_valid(source)
    ensure_valid(target)
    s_nodes = list(iter_nodes(source))
    t_nodes = list(iter_nodes(target))
    s_counts = _subtree_counts(source)
    t_counts = _subtree_counts(target)
    s_label = {p: n.label for p, n in s_nodes}
    t_label = {p: n.label for p, n in t_nodes}

    assigned: dict[tuple[int, ...], tuple[int, ...]] = {}
    used: set[tuple[int, ...]] = set()

    def fits(sp: tuple[int, ...], tp: tuple[int, ...]) -> bool:
        if t_label[tp] != s_label[sp]:
            return False
        sc, tc = s_counts[sp], t_counts[tp]
        if any(tc[lab] < sc[lab] for lab in (0, 1, 2)):
            return False
        for qp, qt in assigned.items():
            if _is_ancestor(qp, sp) != _is_ancestor(qt, tp):
                return False
            if _is_ancestor(sp, qp) != _is_ancestor(tp, qt):
                return False
            if s_label[sp] == 2 and s_label[qp] == 2:
                sm = s_label[meet_path(sp, qp)]
                tm = t_label[meet_path(tp, qt)]
                if sm != tm:
                    return False
        return True

    # Depth-first over source nodes with an explicit stack: tried[i] is the
    # target index that source node i took, and a backtrack resumes there.
    tried: list[int] = []
    start = 0
    while len(tried) < len(s_nodes):
        sp = s_nodes[len(tried)][0]
        for k in range(start, len(t_nodes)):
            tp = t_nodes[k][0]
            if tp not in used and fits(sp, tp):
                assigned[sp] = tp
                used.add(tp)
                tried.append(k)
                start = 0
                break
        else:
            if not tried:
                return None
            start = tried.pop() + 1
            used.remove(assigned.pop(s_nodes[len(tried)][0]))
    return TreeEmbedding(tuple(sorted(assigned.items())))


def cograph_induced_via_trees(g: Graph, h: Graph) -> bool:
    """True iff g embeds induced in h, decided on decomposition trees only."""
    from .cotree import decompose

    return label_meet_embed(decompose(g), decompose(h)) is not None


def delete_vertex_cotree(t: CotreeNode, v: str) -> CotreeNode:
    """Decomposition tree of the realized graph minus one vertex.

    Surgery cases: a parent with three or more children just drops the
    leaf; a two-child parent disappears and its remaining child either
    becomes the root, is reparented (leaf), or has its children spliced
    into the grandparent (internal; labels agree by alternation).
    """
    from .cotree import Inner, Leaf, ensure_valid, leaf_paths, normalize

    ensure_valid(t)
    paths = leaf_paths(t)
    if v not in paths:
        raise UnknownVertexError(f"unknown leaf: {v!r}")
    if isinstance(t, Leaf):
        raise LastLeafError("cannot delete the only leaf")

    path = paths[v]
    spine = [t]  # the nodes above the leaf, root first
    for i in path[:-1]:
        spine.append(spine[-1].children[i])
    new: CotreeNode | None = None  # the rebuilt child; None for the deleted leaf
    for node, i in zip(reversed(spine), reversed(path)):
        kids = list(node.children)
        if new is None:
            del kids[i]
        elif isinstance(new, Inner) and new.label == node.label:
            kids[i : i + 1] = list(new.children)
        else:
            kids[i] = new
        new = kids[0] if len(kids) == 1 else Inner(node.label, tuple(kids))
    return normalize(new)


def max_induced_cycle(g: Graph) -> int | None:
    """Largest k with an induced k-cycle in g, or None."""
    for k in range(g.n, 2, -1):
        if find_induced_embedding(cycle_graph(k), g) is not None:
            return k
    return None


def antichain_params(forbidden: Graph) -> tuple[bool, int]:
    """(complemented, m): which side carries the cycles and the largest
    induced cycle length m there.  The plain side wins when both have one."""
    if find_induced_embedding(forbidden, path_graph(4)) is not None:
        raise ForbiddenInsideP4Error(
            "forbidden graph embeds in P4; the cycle constructions need a cycle"
        )
    m = max_induced_cycle(forbidden)
    if m is not None:
        return False, m
    m = max_induced_cycle(complement(forbidden))
    if m is None:  # pragma: no cover - impossible once the P4 check passed
        raise RuntimeError("neither the graph nor its complement has a cycle")
    return True, m


def antichain_graph(forbidden: Graph, indices) -> Graph:
    """Pairwise non-embeddable forbidden-free family member for an index set.

    Plain side: disjoint union of the cycles C_{m+1+i}.  Complement side:
    join of the cycle complements.
    """
    idx = sorted(set(indices))
    if not idx:
        raise EmptyIndexSetError("index set must be nonempty")
    for i in idx:
        if i < 0:
            raise BadSizeError(f"indices must be nonnegative, got {i}")
    complemented, m = antichain_params(forbidden)
    if complemented:
        parts = [complement(cycle_graph(m + 1 + i)) for i in idx]
        return labeled_chain_sum(parts, [1] * len(parts))
    parts = [cycle_graph(m + 1 + i) for i in idx]
    return labeled_chain_sum(parts, [0] * len(parts))


def cycle_formula_holds(g: Graph, i: int, m: int, complemented: bool = False) -> bool:
    """Does g contain C_{m+1+i} (or its complement) as an induced subgraph?"""
    if m < 3:
        raise BadSizeError(f"cycle formulas need m >= 3, got {m}")
    if i < 0:
        raise BadSizeError(f"index must be nonnegative, got {i}")
    pattern = cycle_graph(m + 1 + i)
    if complemented:
        pattern = complement(pattern)
    return find_induced_embedding(pattern, g) is not None
