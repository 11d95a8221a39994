"""Brute-force enumerations and module oracles for the tests.

Independent of the code they check: graph_classes marks edge-set orbits
(up to 7 vertices), rooted_tree_classes scans parent arrays, and the module
oracles grow a closure, enumerate every vertex subset (up to 12 vertices)
or read meets off the decomposition tree.  least_module and
least_strong_module must agree with the oracles, census.cograph_classes
with the P4-free graph classes.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from gfree import Graph, ModuleSet, PlainTree, TooLargeError, make_graph, plain_tree_code
from gfree.cotree import _pair_guard, decompose, leaf_paths, meet_path


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


def rooted_tree_classes(n: int) -> list[PlainTree]:
    """All rooted trees with n >= 1 nodes, one per isomorphism class: the
    first in a scan of every parent array with parent(i) < i, which covers
    every class, since each rooted tree has such a labeling.  The scan has
    (n-1)! arrays, so keep n to 7 or so."""
    trees: dict[bytes, PlainTree] = {}
    for parents in itertools.product(*(range(i) for i in range(1, n))):
        kids: list[list[int]] = [[] for _ in range(n)]
        for child, parent in enumerate(parents, start=1):
            kids[parent].append(child)

        def build(i: int) -> PlainTree:
            return PlainTree(tuple(build(c) for c in kids[i]))

        tree = build(0)
        trees.setdefault(plain_tree_code(tree), tree)
    return list(trees.values())


# The module oracle enumerates all 2^n vertex subsets, so it stops at 12
# vertices and caches only the last few graphs it saw.
@lru_cache(maxsize=8)
def _module_masks(g: Graph) -> tuple[int, ...]:
    """Bitmasks of all nonempty modules, ascending (limited to 12 vertices)."""
    n = g.n
    if n > 12:
        raise TooLargeError(f"module enumeration limited to 12 vertices, got {n}")
    nbr = g.rows
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


@lru_cache(maxsize=8)
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
                hits = sum(1 for a in members if g.has_edge(w, a))
                if 0 < hits < len(members):
                    members.add(w)
                    changed = True
        return ModuleSet(frozenset(members), "least-module")
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
