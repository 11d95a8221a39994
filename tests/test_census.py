from __future__ import annotations

from itertools import combinations, count

import pytest
from brute_force import graph_classes, rooted_tree_classes

from gfree import (
    Inner,
    Leaf,
    TooLargeError,
    canonical_code,
    cograph_classes,
    cotree_shapes,
    decompose,
    ensure_valid,
    is_free,
    is_isomorphic,
    leaf_names,
    make_graph,
    normalize,
    path_graph,
    realize,
)

GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
COGRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 10, 5: 24, 6: 66, 7: 180}
ROOTED_TREE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 20, 7: 48}


def _all_labeled_graphs(n: int):
    names = [f"v{i}" for i in range(n)]
    pairs = list(combinations(names, 2))
    for mask in range(1 << len(pairs)):
        yield make_graph(names, [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_graph_class_counts() -> None:
    for n, want in GRAPH_COUNTS.items():
        assert len(graph_classes(n)) == want
    assert [g.n for g in graph_classes(0)] == [0]
    with pytest.raises(ValueError, match="need n >= 0"):
        graph_classes(-1)


def test_graph_classes_rejects_more_than_7_vertices(monkeypatch) -> None:
    # n = 8 would mark 2^28 edge sets under 8! permutations; the bound must
    # be checked before any of that starts, so it may not touch itertools.
    monkeypatch.setattr("brute_force.itertools", None)
    with pytest.raises(TooLargeError):
        graph_classes(8)


def test_graph_classes_are_pairwise_non_isomorphic() -> None:
    for n in range(1, 5):
        classes = graph_classes(n)
        for g, h in combinations(classes, 2):
            assert is_isomorphic(g, h) is None


def test_graph_classes_cover_all_labeled_graphs() -> None:
    for n in range(1, 5):
        classes = graph_classes(n)
        for g in _all_labeled_graphs(n):
            assert sum(1 for h in classes if is_isomorphic(g, h) is not None) == 1


def test_cograph_class_counts() -> None:
    for n, want in COGRAPH_COUNTS.items():
        assert len(cograph_classes(n)) == want


def test_cograph_classes_agree_with_p4_filter() -> None:
    p4 = path_graph(4)
    for n in range(1, 7):
        free = [g for g in graph_classes(n) if is_free(g, p4)]
        ours = cograph_classes(n)
        assert len(free) == len(ours)
        codes = {canonical_code(decompose(g)) for g in free}
        assert codes == {canonical_code(decompose(g)) for g in ours}


def test_cotree_shapes_are_valid_and_distinct() -> None:
    for leaves in range(1, 7):
        shapes = cotree_shapes(leaves)
        codes = set()
        for t in shapes:
            ensure_valid(t)
            assert len(leaf_names(t)) == leaves
            codes.add(canonical_code(t))
        assert len(codes) == len(shapes)
    with pytest.raises(ValueError, match="need leaves >= 1"):
        cotree_shapes(0)


# The two-pass path cotree_shapes used to take: name the leaves of each
# enumerated shape g0, g1, ... in preorder, then normalize the tree.
def _renamed_then_normalized(leaves: int) -> list:
    from gfree.census import _shapes

    if leaves == 1:
        return [Leaf("g0")]

    def rename(node, counter):
        if isinstance(node, Leaf):
            return Leaf(f"g{next(counter)}")
        return Inner(node.label, tuple(rename(c, counter) for c in node.children))

    return [
        normalize(rename(shape, count()))
        for label in (0, 1)
        for shape in _shapes(leaves, label)
    ]


def test_cotree_shapes_equal_the_two_pass_path() -> None:
    for leaves in range(1, 9):
        assert cotree_shapes(leaves) == _renamed_then_normalized(leaves)


def test_cotree_shapes_realize_each_cograph_once() -> None:
    for n in range(1, 7):
        realized = {canonical_code(decompose(realize(t))) for t in cotree_shapes(n)}
        assert len(realized) == len(cotree_shapes(n))
        assert realized == {canonical_code(decompose(g)) for g in cograph_classes(n)}


def test_rooted_tree_counts() -> None:
    for n, want in ROOTED_TREE_COUNTS.items():
        assert len(rooted_tree_classes(n)) == want


def test_tree_enumerations_state_their_bound(monkeypatch) -> None:
    from gfree import census

    def enumerates(*args):
        raise AssertionError("enumerated past the bound")

    monkeypatch.setattr(census, "_shapes", enumerates)
    with pytest.raises(TooLargeError, match="up to 12"):
        cotree_shapes(13)
    # The bound is 12 itself: that call reaches the enumeration.
    with pytest.raises(AssertionError):
        cotree_shapes(12)
