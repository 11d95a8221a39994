"""Induced-subgraph testing through labeled tree embeddings, cotree vertex
deletion, and the cycle-family antichain constructions.

The tree route: a cograph G is an induced subgraph of a cograph H exactly
when the decomposition tree of G maps into the decomposition tree of H by
an injective, order-preserving, label-preserving map under which the label
of the meet of any two leaves is preserved.

label_meet_embed finds that map with search._placements, the one search,
on the tree nodes in preorder.  A node's relation row holds its ancestors
and descendants and, for a leaf, the leaves whose meet with it is labelled
1 (its adjacency in the realized graph).  Labels are kept, so for two
leaves the row is the meet-label constraint; for other pairs it keeps
comparability but not its direction.  A complete map keeps the direction
anyway: if q is above p, q has a second child and so a leaf m outside p's
subtree, whose image lies below q's image and is unrelated to p's image,
so p's image cannot lie above q's.  The complete maps are thus the
order-preserving ones, and the witness is the first in target preorder.

The tree functions import the cotree layer when they run, and
label_meet_embed also imports the search engine, so importing this module
(the gadget layer uses its cycle-antichain half) loads only `graphs`, and
leaf deletion never loads `search`.
"""

from __future__ import annotations

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
    from .trees import CotreeNode

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


def _tree_rows(t: CotreeNode) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[int]]:
    """t's nodes in preorder: their paths, their keys (label, then the
    subtree's numbers of leaves, 0-nodes and 1-nodes) and their relation
    rows.  A subtree is the interval of positions from its root to its end."""
    from .trees import iter_nodes

    nodes = list(iter_nodes(t))
    n = len(nodes)
    labels = [node.label for _, node in nodes]
    up: list[int] = []  # each node's parent, -1 for the root
    end = [n] * n
    spine: list[int] = []  # the nodes whose subtree is still open, root first
    for i, (path, _) in enumerate(nodes):
        for k in spine[len(path) :]:
            end[k] = i
        del spine[len(path) :]
        up.append(spine[-1] if spine else -1)
        spine.append(i)
    leaves = sum(1 << i for i, label in enumerate(labels) if label == 2)
    zeros = sum(1 << i for i, label in enumerate(labels) if label == 0)
    subs = [(1 << e) - (1 << i) for i, e in enumerate(end)]
    keys = []
    for i, sub in enumerate(subs):
        nl, n0 = (sub & leaves).bit_count(), (sub & zeros).bit_count()
        keys.append((labels[i], nl, n0, end[i] - i - nl - n0))
    # Top down, each node's ancestors, and the leaves met at a 1-node above
    # it: that node's leaves outside the child the path goes through.
    above, joined, rows = [0] * n, [0] * n, []
    for i, p in enumerate(up):
        if p >= 0:
            above[i] = above[p] | 1 << p
            joined[i] = joined[p] | (subs[p] ^ subs[i]) & leaves if labels[p] == 1 else joined[p]
        rows.append(above[i] | (joined[i] if labels[i] == 2 else subs[i] ^ 1 << i))
    return [path for path, _ in nodes], keys, rows


def label_meet_embed(source: CotreeNode, target: CotreeNode) -> TreeEmbedding | None:
    """First embedding of source into target in target preorder, or None.

    A node's candidates are cut down to the target nodes with its label and
    at least its subtree's counts, computed once per distinct key.
    """
    from .cotree import ensure_valid
    from .search import _fits, _placements

    ensure_valid(source)
    ensure_valid(target)
    s_paths, s_keys, s_rows = _tree_rows(source)
    t_paths, t_keys, t_rows = _tree_rows(target)
    by_key: dict[tuple[int, ...], int] = {}
    for j, key in enumerate(t_keys):
        by_key[key] = by_key.get(key, 0) | 1 << j
    room = {  # the masks of distinct keys are disjoint, so their sum is their union
        (label, nl, n0, n1): sum(
            m
            for (tl, tnl, tn0, tn1), m in by_key.items()
            if tl == label and tnl >= nl and tn0 >= n0 and tn1 >= n1
        )
        for label, nl, n0, n1 in set(s_keys)
    }
    fits = [f & room[key] for f, key in zip(_fits(s_rows, t_rows), s_keys)]
    pairs = next(_placements(s_rows, t_rows, fits, range(len(s_rows))), None)
    if pairs is None:
        return None
    return TreeEmbedding(tuple((s_paths[p], t_paths[h]) for p, h in pairs))


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
    from .cotree import ensure_valid, normalize
    from .trees import Inner, Leaf, leaf_paths

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
