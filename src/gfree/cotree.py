"""Decomposition trees for complement-reducible graphs.

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
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator, TypeVar, Union

from .errors import (
    BadSizeError,
    EmptyGraphError,
    InvalidCotreeError,
    NotCographError,
    SameVertexError,
    UnknownVertexError,
    record,
)
from .graphs import (
    Graph,
    _bits,
    _components,
    complement,
    find_induced_embedding,
    induced_subgraph,
    path_graph,
)

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
    "normalize",
    "validate_cotree",
    "ensure_valid",
    "canonical_code",
    "decompose",
    "realize",
    "cograph_iso",
    "least_module",
    "least_strong_module",
    "interpret_tree_from_graph",
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


def validate_cotree(t: CotreeNode) -> ValidationReport:
    """Check every structural invariant; report all violations with paths."""
    violations: list[Violation] = []
    seen_names: set[str] = set()
    for path, node in iter_nodes(t):
        if isinstance(node, Leaf):
            if node.name in seen_names:
                violations.append(
                    Violation(path, f"duplicate leaf name {node.name!r}")
                )
            seen_names.add(node.name)
            continue
        if node.label not in (0, 1):
            violations.append(
                Violation(path, f"internal label must be 0 or 1, got {node.label!r}")
            )
        if len(node.children) < 2:
            violations.append(
                Violation(
                    path,
                    f"internal node has {len(node.children)} child(ren), needs >= 2",
                )
            )
        for i, child in enumerate(node.children):
            if isinstance(child, Inner) and child.label == node.label:
                violations.append(
                    Violation(
                        path + (i,),
                        f"child label {child.label} equals parent label",
                    )
                )
    return ValidationReport(tuple(violations))


def ensure_valid(t: CotreeNode) -> None:
    report = validate_cotree(t)
    if not report.ok:
        first = report.violations[0]
        raise InvalidCotreeError(
            f"invalid cotree: {first.message} at {_path_str(first.path)}"
            + (f" (+{len(report.violations) - 1} more)" if len(report.violations) > 1 else ""),
            report=report,
        )


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


def canonical_code(t: CotreeNode) -> bytes:
    """Code equal for two trees iff they are label-preserving isomorphic.

    Leaf names are ignored: leaf code is "2"; an internal code is its label
    followed by the parenthesized child codes in sorted order.
    """
    ensure_valid(t)
    return _canonical(t)[1]


def normalize(t: CotreeNode) -> CotreeNode:
    """Re-sort all children into the canonical order."""
    return _canonical(t)[0]


# No CLI request decomposes one graph twice, but module queries over many
# vertex pairs of one graph do, so the last few trees are cached.  Without
# the cache, criterion 3 of the acceptance suite (every pair of every
# cograph up to 8 vertices) took 5.1 s instead of 1.2 s (2 vCPUs, Python 3.11).
@lru_cache(maxsize=8)
def decompose(g: Graph) -> CotreeNode:
    """Decomposition tree of g, or NotCograph with an induced-P4 witness.

    Split: single vertex -> leaf; disconnected -> 0-node over components;
    complement disconnected -> 1-node over co-components.  A graph on >= 2
    vertices that is both connected and co-connected contains an induced
    P4, which is returned as the witness.  The split runs on the adjacency
    rows of g, depth first with an explicit stack, and builds a subgraph
    only at such a prime part, to search it for the P4; parts are visited
    in the order of their first declared vertex, so the witness is the
    first P4 of the first prime part.
    """
    if g.n == 0:
        raise EmptyGraphError("cannot decompose the empty graph")
    names = g.vertices
    rows = g.rows
    full = (1 << g.n) - 1
    co_rows = complement(g).rows
    preorder: list[tuple[int, int, int]] = []  # (mask, label or 2, child count)
    stack = [full]
    while stack:
        mask = stack.pop()
        if not mask & (mask - 1):
            preorder.append((mask, 2, 0))
            continue
        label, parts = 0, _components(rows, mask)
        if len(parts) == 1:
            label, parts = 1, _components(co_rows, mask)
        if len(parts) == 1:
            sub = induced_subgraph(g, [names[i] for i in _bits(mask)])
            p4 = path_graph(4)
            emb = find_induced_embedding(p4, sub)
            if emb is None:  # pragma: no cover - impossible for connected co-connected graphs
                raise NotCographError("not a cograph; no P4 witness found", ())
            raise NotCographError("not a cograph", tuple(emb[v] for v in p4.vertices))
        preorder.append((mask, label, len(parts)))
        stack.extend(reversed(parts))
    built: list[_Canon] = []  # finished subtrees, the next sibling on top
    for mask, label, count in reversed(preorder):
        if label == 2:
            built.append(_canon_leaf(Leaf(names[mask.bit_length() - 1])))
        else:
            kids = built[-count:]
            del built[-count:]
            built.append(_canon_inner(label, kids[::-1]))
    return built[0][0]


def realize(t: CotreeNode) -> Graph:
    """Graph on the leaf names, in preorder; edge iff the leaves' meet is
    labeled 1.  Every subtree holds consecutive positions, so a 1-node joins
    each child's span to the rest of its own."""
    ensure_valid(t)
    names: list[str] = []
    rows: list[int] = []

    def leaf(node: Leaf) -> tuple[int, int]:
        names.append(node.name)
        rows.append(0)
        return len(names) - 1, len(names)

    def join(node: Inner, spans: list[tuple[int, int]]) -> tuple[int, int]:
        lo, hi = spans[0][0], spans[-1][1]
        if node.label == 1:
            for a, b in spans:
                others = (1 << hi) - (1 << lo) ^ (1 << b) - (1 << a)
                for p in range(a, b):
                    rows[p] |= others
        return lo, hi

    _fold(t, leaf, join)
    return Graph(tuple(names), tuple(rows))


def cograph_iso(g: Graph, h: Graph) -> bool:
    """Isomorphism test through canonical codes; inputs must be cographs."""
    return canonical_code(decompose(g)) == canonical_code(decompose(h))


def _pair_guard(g: Graph, u: str, v: str) -> None:
    for x in (u, v):
        if x not in g.index:
            raise UnknownVertexError(f"unknown vertex: {x!r}")
    if u == v:
        raise SameVertexError(f"need two distinct vertices, got {u!r} twice")


def _module_mask(rows: tuple[int, ...], i: int, j: int) -> int:
    """Mask of the least module of positions i and j in a cograph: the pair,
    every w that splits it, and every w that splits i or j from such a w."""
    pair = 1 << i | 1 << j
    step1 = (rows[i] ^ rows[j]) & ~pair
    members = pair | step1
    for w in _bits(step1):
        members |= (rows[i] ^ rows[w]) | (rows[j] ^ rows[w])
    return members


def _strong_mask(mods: list[int], j: int) -> int:
    """Least strong module of positions i and j in a cograph, from mods[w],
    the least module of i and w: mods[j] and every w whose mods[w] lacks j."""
    members = mods[j]
    for w, mod in enumerate(mods):
        if not mod >> j & 1:
            members |= 1 << w
    return members


def _members(g: Graph, mask: int) -> frozenset[str]:
    return frozenset(g.vertices[i] for i in _bits(mask))


def least_module(g: Graph, u: str, v: str) -> ModuleSet:
    """Least module containing u and v, via the two-step witness closure.

    Members: u and v themselves; every w distinguishing u from v; and every
    w distinguishing u or v from some first-step witness.  For cographs the
    closure stabilizes after these two steps.  Each step is a union of
    symmetric differences of adjacency masks, with w distinguishing a from
    b exactly when w is in adj(a) xor adj(b).
    """
    _pair_guard(g, u, v)
    decompose(g)  # raises NotCograph on a P4
    return ModuleSet(_members(g, _module_mask(g.rows, g.index[u], g.index[v])), "least-module")


def least_strong_module(g: Graph, u: str, v: str) -> ModuleSet:
    """Least strong module containing u and v.

    w belongs iff w is in the least module of {u,v}, or v falls outside the
    least module of {u,w}.
    """
    _pair_guard(g, u, v)
    decompose(g)  # raises NotCograph on a P4
    i, j = g.index[u], g.index[v]
    base = _module_mask(g.rows, i, j)
    # a w inside the least module of {u,v} belongs whatever its own entry
    mods = [base if base >> w & 1 else _module_mask(g.rows, i, w) for w in range(g.n)]
    return ModuleSet(_members(g, _strong_mask(mods, j)), "least-strong-module")


def interpret_tree_from_graph(g: Graph) -> CotreeNode:
    """Rebuild the decomposition tree from pair modules alone.

    Internal nodes are the least strong modules of vertex pairs, as masks,
    labeled by the adjacency of their first pair; the least modules of i
    with every position serve all pairs (i, j).  Strong modules are laminar,
    so in ascending size a mask's children are the largest nodes built so
    far over its positions.  Output is canonical, equal to decompose's.
    """
    if g.n == 0:
        raise EmptyGraphError("cannot interpret the empty graph")
    decompose(g)  # raises NotCograph on a P4
    n, rows = g.n, g.rows
    labels: dict[int, int] = {}  # strong module mask -> label
    for i in range(n):
        mods = [_module_mask(rows, i, w) for w in range(n)]
        for j in range(i + 1, n):
            labels.setdefault(_strong_mask(mods, j), rows[i] >> j & 1)
    if n > 1 and (1 << n) - 1 not in labels:  # pragma: no cover - the root is always generated
        raise NotCographError("pair modules do not cover the vertex set", ())
    top = [_canon_leaf(Leaf(name)) for name in g.vertices]  # largest node over each position
    for mask in sorted(labels, key=int.bit_count):
        # children are disjoint, so their least leaves tell them apart
        kids = {top[p][2]: top[p] for p in _bits(mask)}
        node = _canon_inner(labels[mask], list(kids.values()))
        for p in _bits(mask):
            top[p] = node
    return top[0][0]


def tree_lift(t: PlainTree, k: int = 2) -> CotreeNode:
    """Turn a plain rooted tree into a cotree by adding k fresh leaves per node.

    Original nodes become internal nodes labeled by depth parity (root 0);
    node i in preorder gains the k leaf children g<k*i> .. g<k*i+k-1>.  With
    k >= 2 the lift is injective on tree isomorphism classes.
    """
    if k < 2:
        raise BadSizeError(f"tree lift needs k >= 2, got {k}")
    preorder: list[tuple[PlainTree, int]] = []  # (node, depth)
    stack = [(t, 0)]
    while stack:
        node, depth = stack.pop()
        preorder.append((node, depth))
        stack.extend((c, depth + 1) for c in reversed(node.children))
    built: list[_Canon] = []  # finished subtrees; _canon_inner orders siblings
    for i in range(len(preorder) - 1, -1, -1):
        node, depth = preorder[i]
        first = len(built) - len(node.children)
        kids = [_canon_leaf(Leaf(f"g{k * i + j}")) for j in range(k)] + built[first:]
        del built[first:]
        built.append(_canon_inner(depth % 2, kids))
    return built[0][0]


def plain_tree_code(t: PlainTree) -> bytes:
    """Code equal for two plain trees iff they are isomorphic as rooted trees."""
    return _fold(t, None, lambda node, kids: b"(" + b"".join(sorted(kids, reverse=True)) + b")")
