"""Brute-force module oracles, kept as independent checks of cotree.py.

No command loads this module: the tests compare least_module and
least_strong_module against these, so the CLI never compiles them.
"""

from __future__ import annotations

from functools import lru_cache

from .cotree import ModuleSet, _pair_guard, decompose, leaf_paths, meet_path
from .errors import TooLargeError
from .graphs import Graph

__all__ = ["module_closure_oracle", "module_from_meets"]


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
