"""Sums of graphs: disjoint unions, joins and labeled chain sums, and the
renaming that keeps their parts' vertex names apart.

Like every graph operation, each returns a new graph built from the rows
of its parts.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import LengthMismatchError
from .graphs import Graph, _positions

__all__ = ["relabel", "combine", "labeled_chain_sum"]


def relabel(g: Graph, mapping: Mapping[str, str]) -> Graph:
    """Rename vertices through an injective total mapping."""
    return Graph(tuple(_positions(mapping[v] for v in g.vertices)), g.rows)


def _disjointify(parts: Sequence[Graph], prefixes: Sequence[str]) -> list[Graph]:
    """Prefix vertex names only when some name occurs in two parts."""
    total = sum(p.n for p in parts)
    distinct = len({v for p in parts for v in p.vertices})
    if distinct == total:
        return list(parts)
    return [
        relabel(p, {v: f"{pre}{v}" for v in p.vertices})
        for p, pre in zip(parts, prefixes)
    ]


def combine(g: Graph, h: Graph, mode: str) -> Graph:
    """Disjoint union (mode "disjoint") or join (mode "join") of two graphs.

    Name collisions are resolved deterministically by prefixing "a." / "b.".
    """
    if mode not in ("disjoint", "join"):
        raise ValueError(f"combine mode must be 'disjoint' or 'join', got {mode!r}")
    parts = _disjointify([g, h], ["a.", "b."])
    return labeled_chain_sum(parts, [1 if mode == "join" else 0, 0])


def labeled_chain_sum(parts: Sequence[Graph], labels: Sequence[int]) -> Graph:
    """Union of parts; all cross edges part_i x part_j (i < j) iff labels[i] = 1.

    Name collisions across parts are resolved by prefixing "p<i>."
    """
    if len(parts) != len(labels):
        raise LengthMismatchError(
            f"{len(parts)} parts but {len(labels)} labels"
        )
    for lab in labels:
        if lab not in (0, 1):
            raise ValueError(f"labels must be 0 or 1, got {lab!r}")
    disjoint = _disjointify(parts, [f"p{i}." for i in range(len(parts))])
    names = tuple(v for p in disjoint for v in p.vertices)
    total = (1 << len(names)) - 1
    rows: list[int] = []
    joined = 0  # the earlier parts whose label joins them to every later part
    for p, lab in zip(disjoint, labels):
        start, end = len(rows), len(rows) + p.n
        later = total >> end << end if lab else 0
        rows.extend(row << start | joined | later for row in p.rows)
        if lab:
            joined |= (1 << end) - (1 << start)
    return Graph(names, tuple(rows))
