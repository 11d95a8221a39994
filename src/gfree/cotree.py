"""Decomposition trees for complement-reducible graphs.

A decomposition tree is a rooted tree whose leaves carry vertex names
(label 2) and whose internal nodes are labeled 0 or 1, have at least two
children, and alternate labels along every root-to-leaf path.  The tree
realizes a graph: two vertices are adjacent iff their meet (deepest common
ancestor) is labeled 1.

Children are kept in a canonical order everywhere: sorted by canonical code
descending, ties broken by smallest leaf name.  Leaf codes sort after
internal codes, so leaves come first, alphabetically; equal internal
subtrees keep a deterministic order.  decompose, surgery, and lifting all
re-normalize to this order, so printed trees are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, TypeVar, Union

from .errors import (
    BadSizeError,
    EmptyGraphError,
    InvalidCotreeError,
    NotCographError,
    SameVertexError,
    TooLargeError,
    UnknownVertexError,
)
from .graphs import (
    Graph,
    _bits,
    _components,
    find_induced_embedding,
    induced_subgraph,
    make_graph,
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
    "module_closure_oracle",
    "module_from_meets",
    "interpret_tree_from_graph",
    "tree_lift",
    "plain_tree_code",
]


@dataclass(frozen=True)
class Leaf:
    name: str

    @property
    def label(self) -> int:
        return 2


@dataclass(frozen=True)
class Inner:
    label: int
    children: tuple["CotreeNode", ...]


CotreeNode = Union[Leaf, Inner]


@dataclass(frozen=True)
class PlainTree:
    """Unlabeled rooted tree, used as input to tree_lift."""

    children: tuple["PlainTree", ...] = ()


@dataclass(frozen=True)
class Violation:
    path: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
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
    seen_names: dict[str, tuple[int, ...]] = {}
    for path, node in iter_nodes(t):
        if isinstance(node, Leaf):
            if node.name in seen_names:
                violations.append(
                    Violation(path, f"duplicate leaf name {node.name!r}")
                )
            else:
                seen_names[node.name] = path
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
    return "/" + "/".join(str(i) for i in path) if path else "/"


_T = TypeVar("_T")


def _fold(t: CotreeNode, leaf: Callable[[Leaf], _T], inner: Callable[[Inner, list[_T]], _T]) -> _T:
    """Postorder fold without recursion: leaf(node) at each leaf, and
    inner(node, results of its children in order) at each internal node."""
    done: list[_T] = []
    stack: list[tuple[CotreeNode, bool]] = [(t, False)]
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


def _canonical(t: CotreeNode) -> _Canon:
    return _fold(t, _canon_leaf, lambda node, kids: _canon_inner(node.label, kids))


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


@lru_cache(maxsize=None)
def decompose(g: Graph) -> CotreeNode:
    """Decomposition tree of g, or NotCograph with an induced-P4 witness.

    Split: single vertex -> leaf; disconnected -> 0-node over components;
    complement disconnected -> 1-node over co-components.  A graph on >= 2
    vertices that is both connected and co-connected contains an induced
    P4, which is returned as the witness.  The split runs on the adjacency
    masks of g, depth first with an explicit stack, and builds a subgraph
    only at such a prime part, to search it for the P4; parts are visited
    in the order of their first declared vertex, so the witness is the
    first P4 of the first prime part.
    """
    if g.n == 0:
        raise EmptyGraphError("cannot decompose the empty graph")
    names = g.vertices
    rows = g._masks[1]
    full = (1 << g.n) - 1
    co_rows = [full & ~row & ~(1 << i) for i, row in enumerate(rows)]
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
    """Graph on the leaf names; edge iff the leaves' meet is labeled 1."""
    ensure_valid(t)
    edges: list[tuple[str, str]] = []

    def join(node: Inner, groups: list[list[str]]) -> list[str]:
        if node.label == 1:
            for gi, gj in itertools.combinations(groups, 2):
                edges.extend((u, v) for u in gi for v in gj)
        return [v for grp in groups for v in grp]

    names = _fold(t, lambda leaf: [leaf.name], join)
    return make_graph(names, edges)


def cograph_iso(g: Graph, h: Graph) -> bool:
    """Isomorphism test through canonical codes; inputs must be cographs."""
    return canonical_code(decompose(g)) == canonical_code(decompose(h))


def _pair_guard(g: Graph, u: str, v: str) -> None:
    for x in (u, v):
        if not g.has_vertex(x):
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
    index, rows = g._masks
    return ModuleSet(_members(g, _module_mask(rows, index[u], index[v])), "least-module")


def least_strong_module(g: Graph, u: str, v: str) -> ModuleSet:
    """Least strong module containing u and v.

    w belongs iff w is in the least module of {u,v}, or v falls outside the
    least module of {u,w}.
    """
    _pair_guard(g, u, v)
    decompose(g)  # raises NotCograph on a P4
    index, rows = g._masks
    i, j = index[u], index[v]
    members = _module_mask(rows, i, j)
    for w in range(g.n):
        if not members >> w & 1 and not _module_mask(rows, i, w) >> j & 1:
            members |= 1 << w
    return ModuleSet(_members(g, members), "least-strong-module")


@lru_cache(maxsize=None)
def _module_masks(g: Graph) -> tuple[int, ...]:
    """Bitmasks of all nonempty modules, ascending."""
    n = g.n
    nbr = g._masks[1]
    out = []
    for mask in range(1, 1 << n):
        for w in range(n):
            if mask >> w & 1:
                continue
            inter = nbr[w] & mask
            if inter != 0 and inter != mask:
                break
        else:
            out.append(mask)
    return tuple(out)


@lru_cache(maxsize=None)
def _strong_module_masks(g: Graph) -> tuple[int, ...]:
    """Modules comparable to or disjoint from every module."""
    mods = _module_masks(g)
    return tuple(
        m
        for m in mods
        if all(m & o == 0 or m | o == m or m | o == o for o in mods)
    )


def module_closure_oracle(g: Graph, u: str, v: str, strong: bool) -> ModuleSet:
    """Independent module oracle.

    strong=False: grow {u,v} to a fixed point under "some outside vertex
    sees part of the set".  strong=True: enumerate all subsets, keep the
    modules, keep the strong ones, return the smallest containing u and v
    (limited to 12 vertices).
    """
    _pair_guard(g, u, v)
    if not strong:
        members = {u, v}
        changed = True
        while changed:
            changed = False
            for w in g.vertices:
                if w in members:
                    continue
                nbrs = g.neighbors(w)
                hits = sum(1 for a in members if a in nbrs)
                if 0 < hits < len(members):
                    members.add(w)
                    changed = True
        return ModuleSet(frozenset(members), "least-module")
    if g.n > 12:
        raise TooLargeError(f"strong-module oracle limited to 12 vertices, got {g.n}")
    idx = {x: i for i, x in enumerate(g.vertices)}
    want = (1 << idx[u]) | (1 << idx[v])
    best = None
    for mask in _strong_module_masks(g):
        if mask & want == want and (best is None or mask.bit_count() < best.bit_count()):
            best = mask
    assert best is not None  # the full vertex set is always a strong module
    members = frozenset(x for x in g.vertices if best >> idx[x] & 1)
    return ModuleSet(members, "least-strong-module")


def module_from_meets(g: Graph, u: str, v: str) -> frozenset[str]:
    """Least module of {u,v} read off the decomposition tree.

    Members are the vertices whose meet with u or with v lies strictly
    below the meet of u and v.
    """
    _pair_guard(g, u, v)
    paths = leaf_paths(decompose(g))
    d = len(meet_path(paths[u], paths[v]))
    return frozenset(
        w
        for w in g.vertices
        if len(meet_path(paths[w], paths[u])) > d
        or len(meet_path(paths[w], paths[v])) > d
    )


def interpret_tree_from_graph(g: Graph) -> CotreeNode:
    """Rebuild the decomposition tree from pair modules alone.

    Nodes are the distinct least strong modules of vertex pairs plus the
    singletons; ordering is reverse containment; an internal node takes
    label 1 or 0 from the adjacency of any generating pair.  Output is
    canonically ordered, so codes match decompose exactly.
    """
    if g.n == 0:
        raise EmptyGraphError("cannot interpret the empty graph")
    decompose(g)  # raises NotCograph on a P4
    if g.n == 1:
        return Leaf(g.vertices[0])
    gen_pair: dict[frozenset[str], tuple[str, str]] = {}
    for u, v in itertools.combinations(g.vertices, 2):
        s = least_strong_module(g, u, v).members
        gen_pair.setdefault(s, (u, v))
    nodes: list[frozenset[str]] = [frozenset([x]) for x in g.vertices]
    nodes.extend(gen_pair)
    root = frozenset(g.vertices)
    if root not in gen_pair:  # pragma: no cover - the root is always generated
        raise NotCographError("pair modules do not cover the vertex set", ())
    children: dict[frozenset[str], list[frozenset[str]]] = {s: [] for s in nodes}
    for s in nodes:
        if s == root:
            continue
        above = [t for t in nodes if s < t]
        parent = min(above, key=len)
        children[parent].append(s)

    def build(s: frozenset[str]) -> CotreeNode:
        if len(s) == 1:
            return Leaf(next(iter(s)))
        u, v = gen_pair[s]
        label = 1 if g.has_edge(u, v) else 0
        return Inner(label, tuple(build(c) for c in children[s]))

    return normalize(build(root))


def tree_lift(t: PlainTree, k: int = 2) -> CotreeNode:
    """Turn a plain rooted tree into a cotree by adding k fresh leaves per node.

    Original nodes become internal nodes labeled by depth parity (root 0);
    each gains k leaf children named g0, g1, ... in preorder.  With k >= 2
    the lift is injective on tree isomorphism classes.
    """
    if k < 2:
        raise BadSizeError(f"tree lift needs k >= 2, got {k}")
    counter = itertools.count()

    def build(node: PlainTree, depth: int) -> CotreeNode:
        kids: list[CotreeNode] = [Leaf(f"g{next(counter)}") for _ in range(k)]
        kids.extend(build(c, depth + 1) for c in node.children)
        return Inner(depth % 2, tuple(kids))

    return normalize(build(t, 0))


def plain_tree_code(t: PlainTree) -> bytes:
    """Code equal for two plain trees iff they are isomorphic as rooted trees."""
    kids = sorted((plain_tree_code(c) for c in t.children), reverse=True)
    return b"(" + b"".join(kids) + b")"
