"""Exhaustive enumeration of small unlabeled graphs, cotrees, and rooted trees.

One representative per isomorphism class, in a deterministic order.  These
enumerations back the brute-force cross-checks; sizes stay small, so simple
orbit marking and multiset recursion are fast enough.  Each function states
its bound and raises TooLargeError past it, before enumerating anything:
graphs up to 7 vertices, cotrees and rooted trees up to 12 leaves or nodes.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Sequence, TypeVar

from .cotree import CotreeNode, Inner, Leaf, PlainTree, _canon_leaf, _canonical, realize
from .errors import TooLargeError
from .graphs import Graph, make_graph

__all__ = [
    "graph_classes",
    "cotree_shapes",
    "cograph_classes",
    "rooted_trees",
]

T = TypeVar("T")

# The tree enumerations stop at 12, the no-Z3 sweep's target size, which
# covers check_no_z3's current cap of 9.
_MAX_TREE_SIZE = 12


def graph_classes(n: int) -> list[Graph]:
    """All unlabeled graphs on n vertices, one representative each.

    Orbit marking over edge-set bitmasks; cost grows with (number of
    classes) * n!, so n is bounded by 7 (TooLargeError past it).
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n > 7:
        raise TooLargeError(f"graph classes are enumerated up to 7 vertices, got {n}")
    names = [f"g{i}" for i in range(n)]
    if n == 0:
        return [make_graph([], [])]
    pairs = list(itertools.combinations(range(n), 2))
    pidx = {p: i for i, p in enumerate(pairs)}
    # pair-index images under every vertex permutation
    perm_maps: list[list[int]] = []
    for perm in itertools.permutations(range(n)):
        perm_maps.append(
            [pidx[tuple(sorted((perm[i], perm[j])))] for i, j in pairs]
        )
    seen = bytearray(1 << len(pairs))
    reps: list[Graph] = []
    for mask in range(1 << len(pairs)):
        if seen[mask]:
            continue
        for pm in perm_maps:
            image = 0
            rest = mask
            while rest:
                low = rest & -rest
                image |= 1 << pm[low.bit_length() - 1]
                rest ^= low
            seen[image] = 1
        edges = [
            (names[i], names[j]) for k, (i, j) in enumerate(pairs) if mask >> k & 1
        ]
        reps.append(make_graph(names, edges))
    return reps


def _multisets(
    items: Sequence[tuple[T, int]], total: int, min_count: int
) -> Iterator[tuple[T, ...]]:
    """Multisets over weighted items with the given total weight."""

    def rec(start: int, remaining: int, chosen: list[T]) -> Iterator[tuple[T, ...]]:
        if remaining == 0:
            if len(chosen) >= min_count:
                yield tuple(chosen)
            return
        for i in range(start, len(items)):
            item, weight = items[i]
            if weight <= remaining:
                chosen.append(item)
                yield from rec(i, remaining - weight, chosen)
                chosen.pop()

    yield from rec(0, total, [])


@lru_cache(maxsize=None)
def _shapes(leaves: int, label: int) -> tuple[CotreeNode, ...]:
    """Valid cotrees with the given leaf count and internal root label.

    Leaves carry the placeholder name ""; callers rename before use.
    """
    if leaves < 2:
        return ()
    candidates: list[tuple[CotreeNode, int]] = [(Leaf(""), 1)]
    for m in range(2, leaves):
        candidates.extend((s, m) for s in _shapes(m, 1 - label))
    return tuple(
        Inner(label, kids) for kids in _multisets(candidates, leaves, 2)
    )


def cotree_shapes(leaves: int) -> list[CotreeNode]:
    """All valid cotrees with exactly that many leaves, up to label-preserving
    isomorphism, with default leaf names g0, g1, ... and canonical child order.

    Limited to 12 leaves: TooLargeError past it, before any enumeration.
    """
    if leaves < 1:
        raise ValueError(f"need leaves >= 1, got {leaves}")
    if leaves > _MAX_TREE_SIZE:
        raise TooLargeError(
            f"cotree shapes are enumerated up to {_MAX_TREE_SIZE} leaves, got {leaves}"
        )
    if leaves == 1:
        return [Leaf("g0")]
    named = [_canon_leaf(Leaf(f"g{i}")) for i in range(leaves)]
    out: list[CotreeNode] = []
    for label in (0, 1):
        for shape in _shapes(leaves, label):
            names = iter(named)  # the leaves in preorder
            out.append(_canonical(shape, lambda _: next(names))[0])
    return out


def cograph_classes(n: int) -> list[Graph]:
    """All unlabeled cographs on n vertices, one representative each,
    realized from the cotree enumeration."""
    return [realize(t) for t in cotree_shapes(n)]


@lru_cache(maxsize=None)
def _rtrees(nodes: int) -> tuple[PlainTree, ...]:
    if nodes < 1:
        return ()
    if nodes == 1:
        return (PlainTree(),)
    candidates: list[tuple[PlainTree, int]] = []
    for m in range(1, nodes):
        candidates.extend((t, m) for t in _rtrees(m))
    return tuple(
        PlainTree(kids) for kids in _multisets(candidates, nodes - 1, 1)
    )


def rooted_trees(nodes: int) -> list[PlainTree]:
    """All rooted trees with exactly that many nodes, up to isomorphism.

    Limited to 12 nodes: TooLargeError past it, before any enumeration.
    """
    if nodes < 1:
        raise ValueError(f"need nodes >= 1, got {nodes}")
    if nodes > _MAX_TREE_SIZE:
        raise TooLargeError(
            f"rooted trees are enumerated up to {_MAX_TREE_SIZE} nodes, got {nodes}"
        )
    return list(_rtrees(nodes))
