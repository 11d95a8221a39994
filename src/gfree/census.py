"""Exhaustive enumeration of small cotrees and cographs.

One representative per isomorphism class, in a deterministic order, built
by multiset recursion over cotree shapes; the no-Z3 sweep runs over these.
cotree_shapes states its bound and raises TooLargeError past it, before
enumerating anything: cotrees up to 12 leaves.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence, TypeVar

from .cotree import CotreeNode, Inner, Leaf, _canon_leaf, _canonical, realize
from .errors import TooLargeError
from .graphs import Graph

__all__ = ["cotree_shapes", "cograph_classes"]

T = TypeVar("T")

# The cotree enumeration stops at 12 leaves, the no-Z3 sweep's target size,
# which covers check_no_z3's current cap of 9.
_MAX_TREE_SIZE = 12


def _multisets(items: Sequence[tuple[T, int]], total: int) -> Iterator[tuple[T, ...]]:
    """Multisets of at least two weighted items with the given total weight."""

    def rec(start: int, remaining: int, chosen: list[T]) -> Iterator[tuple[T, ...]]:
        if remaining == 0:
            if len(chosen) >= 2:
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
    return tuple(Inner(label, kids) for kids in _multisets(candidates, leaves))


def _cotrees(leaves: int, realized: bool = False) -> Iterator[CotreeNode | Graph]:
    """The cotrees of cotree_shapes(leaves) one at a time, in its order, or
    with realized set the graph each realizes.  The bound is checked on the
    call, before any enumeration."""
    if leaves < 1:
        raise ValueError(f"need leaves >= 1, got {leaves}")
    if leaves > _MAX_TREE_SIZE:
        raise TooLargeError(
            f"cotree shapes are enumerated up to {_MAX_TREE_SIZE} leaves, got {leaves}"
        )
    if leaves == 1:
        trees: Iterator[CotreeNode] = iter([Leaf("g0")])
    else:
        named = [_canon_leaf(Leaf(f"g{i}")) for i in range(leaves)]

        def name(shape: CotreeNode) -> CotreeNode:
            names = iter(named)  # the leaves in preorder
            return _canonical(shape, lambda _: next(names))[0]

        trees = (name(shape) for label in (0, 1) for shape in _shapes(leaves, label))
    return map(realize, trees) if realized else trees


def cotree_shapes(leaves: int) -> list[CotreeNode]:
    """All valid cotrees with exactly that many leaves, up to label-preserving
    isomorphism, with default leaf names g0, g1, ... and canonical child order.

    Limited to 12 leaves: TooLargeError past it, before any enumeration.
    """
    return list(_cotrees(leaves))


def cograph_classes(n: int) -> list[Graph]:
    """All unlabeled cographs on n vertices, one representative each,
    realized from the cotree enumeration."""
    return list(_cotrees(n, realized=True))
