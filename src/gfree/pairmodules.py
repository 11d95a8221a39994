"""Least modules of vertex pairs in a cograph, as masks over positions.

cotree.least_module, cotree.least_strong_module and
cotree.interpret_tree_from_graph import these when they run, so a request
that asks for no module never loads them.
"""

from __future__ import annotations

from .errors import SameVertexError, UnknownVertexError
from .graphs import Graph, _bits


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
