"""Decomposition trees and plain rooted trees as values, with their traversals.

A decomposition tree is a rooted tree whose leaves carry vertex names
(label 2) and whose internal nodes are labeled 0 or 1, have at least two
children, and alternate labels along every root-to-leaf path.  The tree
realizes a graph: two vertices are adjacent iff their meet (deepest common
ancestor) is labeled 1.

Children are kept in a canonical order everywhere: sorted by canonical code
descending, ties broken by smallest leaf name.  Leaf codes sort after
internal codes, so leaves come first, alphabetically; equal internal
subtrees keep a deterministic order.  Trees are built in canonical order;
only surgery (deleting a leaf) re-normalizes.  So printed trees are
reproducible.

This module needs no graph: reading, printing and lifting trees load it
alone, and the algorithms between trees and graphs (decompose, realize,
validation, module queries) live in `cotree`.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence, TypeVar, Union

from .errors import BadSizeError, record

__all__ = [
    "Leaf",
    "Inner",
    "CotreeNode",
    "PlainTree",
    "Violation",
    "ValidationReport",
    "ModuleSet",
    "iter_nodes",
    "node_at",
    "leaf_names",
    "leaf_paths",
    "meet_path",
    "tree_lift",
    "plain_tree_code",
]


@record
class Leaf:
    name: str

    @property
    def label(self) -> int:
        return 2


@record
class Inner:
    label: int
    children: tuple["CotreeNode", ...]


CotreeNode = Union[Leaf, Inner]


@record
class PlainTree:
    """Unlabeled rooted tree, used as input to tree_lift."""

    children: tuple["PlainTree", ...] = ()


@record
class Violation:
    path: tuple[int, ...]
    message: str


@record
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@record
class ModuleSet:
    """A least module or least strong module generated by a vertex pair."""

    members: frozenset[str]
    kind: str  # "least-module" | "least-strong-module"


def iter_nodes(t: CotreeNode) -> Iterator[tuple[tuple[int, ...], CotreeNode]]:
    """Preorder traversal yielding (path, node); root path = ()."""
    stack: list[tuple[tuple[int, ...], CotreeNode]] = [((), t)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if isinstance(node, Inner):
            for i in range(len(node.children) - 1, -1, -1):
                stack.append((path + (i,), node.children[i]))


def node_at(t: CotreeNode, path: tuple[int, ...]) -> CotreeNode:
    node = t
    for i in path:
        node = node.children[i]
    return node


def leaf_names(t: CotreeNode) -> tuple[str, ...]:
    return tuple(node.name for _, node in iter_nodes(t) if isinstance(node, Leaf))


def leaf_paths(t: CotreeNode) -> dict[str, tuple[int, ...]]:
    return {node.name: path for path, node in iter_nodes(t) if isinstance(node, Leaf)}


def meet_path(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Path of the deepest common ancestor of two node paths."""
    i = 0
    while i < len(p) and i < len(q) and p[i] == q[i]:
        i += 1
    return p[:i]


def _path_str(path: tuple[int, ...]) -> str:
    return "/" + "/".join(map(str, path)) if path else "/"


_T = TypeVar("_T")
_Node = Union[CotreeNode, PlainTree]


def _fold(
    t: _Node, leaf: Callable[[Leaf], _T] | None, inner: Callable[[_Node, list[_T]], _T]
) -> _T:
    """Postorder fold without recursion: leaf(node) at each leaf, and
    inner(node, results of its children in order) at each other node,
    which for a plain tree is every node."""
    done: list[_T] = []
    stack: list[tuple[_Node, bool]] = [(t, False)]
    while stack:
        node, ready = stack.pop()
        if isinstance(node, Leaf):
            done.append(leaf(node))
        elif not ready:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(node.children))
        else:
            first = len(done) - len(node.children)
            results = done[first:]
            del done[first:]
            done.append(inner(node, results))
    return done[0]


_Canon = tuple[CotreeNode, bytes, str]  # node, canonical code, least leaf name


def _canon_leaf(leaf: Leaf) -> _Canon:
    return leaf, b"2", leaf.name


def _canon_inner(label: int, kids: list[_Canon]) -> _Canon:
    """Inner node with its children in canonical order, from the children's
    codes and least leaves, so no subtree is walked again."""
    kids.sort(key=lambda k: k[2])
    kids.sort(key=lambda k: k[1], reverse=True)
    code = str(label).encode("ascii") + b"(" + b"".join(k[1] for k in kids) + b")"
    return Inner(label, tuple(k[0] for k in kids)), code, min(k[2] for k in kids)


def _canonical(t: CotreeNode, leaf: Callable[[Leaf], _Canon] = _canon_leaf) -> _Canon:
    return _fold(t, leaf, lambda node, kids: _canon_inner(node.label, kids))


def _assemble(preorder: Sequence[str | tuple[int, int]]) -> CotreeNode:
    """The canonical tree whose nodes, in preorder, are the given entries:
    a leaf name, or the (label, child count) of an internal node."""
    built: list[_Canon] = []  # finished subtrees, the next sibling on top
    for entry in reversed(preorder):
        if isinstance(entry, str):
            built.append(_canon_leaf(Leaf(entry)))
        else:
            label, count = entry
            kids = built[-count:]
            del built[-count:]
            built.append(_canon_inner(label, kids))
    return built[0][0]


def tree_lift(t: PlainTree, k: int = 2) -> CotreeNode:
    """Turn a plain rooted tree into a cotree by adding k fresh leaves per node.

    Original nodes become internal nodes labeled by depth parity (root 0);
    node i in preorder gains the k leaf children g<k*i> .. g<k*i+k-1>.  With
    k >= 2 the lift is injective on tree isomorphism classes.
    """
    if k < 2:
        raise BadSizeError(f"tree lift needs k >= 2, got {k}")
    preorder: list[str | tuple[int, int]] = []  # each node's new leaves before its children
    stack = [(t, 0)]  # (node, depth)
    i = 0
    while stack:
        node, depth = stack.pop()
        preorder.append((depth % 2, k + len(node.children)))
        preorder.extend(f"g{j}" for j in range(k * i, k * i + k))
        i += 1
        stack.extend((c, depth + 1) for c in reversed(node.children))
    return _assemble(preorder)


def plain_tree_code(t: PlainTree) -> bytes:
    """Code equal for two plain trees iff they are isomorphic as rooted trees."""
    return _fold(t, None, lambda node, kids: b"(" + b"".join(sorted(kids, reverse=True)) + b")")
