"""Automorphism enumeration and the order-3-to-order-2 construction.

No cograph has a cyclic automorphism group of order 3: from any order-3
automorphism one can always manufacture an involution, by swapping two of
the three sibling subtrees the 3-cycle spans in the decomposition tree.
check_no_z3 confirms the exclusion exhaustively on small cographs.

Enumeration needs only `graphs`: check_no_z3 imports the census and
order3_to_order2 the cotree layer when they run.
"""

from __future__ import annotations

from itertools import islice

from .errors import BadSizeError, NotIsomorphismError, NotOrderThreeError, TooLargeError, record
from .graphs import Graph
from .search import VertexMap, _embeddings, _is_isomorphism

__all__ = [
    "Permutation",
    "automorphisms",
    "order3_to_order2",
    "NoZ3Report",
    "check_no_z3",
]


class Permutation(VertexMap):
    """Bijection on a fixed vertex set, stored as sorted (source, image) pairs."""

    def __post_init__(self):
        srcs = {p[0] for p in self.pairs}
        dsts = {p[1] for p in self.pairs}
        if len(srcs) != len(self.pairs) or srcs != dsts:
            raise NotIsomorphismError("not a bijection on its own domain")

    @property
    def is_identity(self) -> bool:
        return all(v == w for v, w in self.pairs)

    def order(self) -> int:
        n = 1
        p = self
        while not p.is_identity:
            p = p.after(self)
            n += 1
        return n

    def cycles(self) -> tuple[tuple[str, ...], ...]:
        """Nontrivial cycles, each starting at its smallest element."""
        seen: set[str] = set()
        out: list[tuple[str, ...]] = []
        for v, _ in self.pairs:
            if v in seen or self[v] == v:
                continue
            cyc = [v]
            w = self[v]
            while w != v:
                cyc.append(w)
                w = self[w]
            seen.update(cyc)
            pivot = cyc.index(min(cyc))
            out.append(tuple(cyc[pivot:] + cyc[:pivot]))
        out.sort(key=lambda c: c[0])
        return tuple(out)


def automorphisms(g: Graph) -> list[Permutation]:
    """All edge-preserving bijections, in lexicographic image order.

    These are the induced embeddings of g into itself, enumerated by the
    graph search engine.
    """
    if g.n > 10:
        raise TooLargeError(f"automorphism enumeration limited to 10 vertices, got {g.n}")
    return [Permutation.from_dict(f) for f in _embeddings(g, g, {})]


def order3_to_order2(g: Graph, f: Permutation) -> Permutation:
    """Build an involution from an order-3 automorphism of a cograph.

    Take the first 3-cycle (a, b, c) of f in vertex order.  Their pairwise
    meets in the decomposition tree coincide at one node; the leaves split
    into the three sibling subtrees A, B, C holding a, b, c and the rest D.
    The involution applies f on A, its inverse on B, and fixes C and D.
    """
    from .cotree import decompose
    from .trees import leaf_paths, meet_path

    if not _is_isomorphism(g, g, f.as_dict()):
        raise NotIsomorphismError("the given map is not an automorphism")
    if f.is_identity or not f.after(f).after(f).is_identity:
        raise NotOrderThreeError("the given automorphism does not have order 3")
    tree = decompose(g)
    paths = leaf_paths(tree)
    a = next(v for v in g.vertices if f[v] != v)
    b, c = f[a], f[f[a]]
    m = meet_path(paths[a], paths[b])
    if not (m == meet_path(paths[b], paths[c]) == meet_path(paths[c], paths[a])):
        raise RuntimeError("pairwise meets of a 3-cycle differ in a cotree")
    d = len(m)

    def side(anchor: str) -> set[str]:
        head = paths[anchor][: d + 1]
        return {u for u in g.vertices if paths[u][: d + 1] == head}

    part_a, part_b = side(a), side(b)
    if {f[u] for u in part_a} != part_b:
        raise RuntimeError("the order-3 map does not swap the sibling subtrees")
    finv = f.inverse()
    mapping = {}
    for u in g.vertices:
        if u in part_a:
            mapping[u] = f[u]
        elif u in part_b:
            mapping[u] = finv[u]
        else:
            mapping[u] = u
    out = Permutation.from_dict(mapping)
    if not _is_isomorphism(g, g, mapping) or out.is_identity or not out.after(out).is_identity:
        raise RuntimeError("constructed map is not an involutive automorphism")
    return out


@record
class NoZ3Report:
    max_n: int
    examined: tuple[tuple[int, int], ...]  # (vertex count, cographs examined)
    offenders: tuple[Graph, ...]  # cographs whose automorphism group has order 3

    @property
    def ok(self) -> bool:
        return not self.offenders

    @property
    def total(self) -> int:
        return sum(count for _, count in self.examined)


def check_no_z3(max_n: int) -> NoZ3Report:
    """Search all cographs up to max_n vertices for an automorphism group
    of order 3 (any such group is cyclic); none should exist.

    Each cograph's automorphisms are counted on the enumeration that
    `automorphisms` runs, stopping at the fourth and building no
    Permutation: a group has order 3 iff that count is exactly 3.  The
    cographs of each size are realized one at a time from the census's
    cotree stream and counted as they pass.  The sweep stays bounded at 9
    vertices.
    """
    if max_n < 0:
        raise BadSizeError(f"max_n must be nonnegative, got {max_n}")
    if max_n > 9:
        raise TooLargeError(f"exhaustive search limited to 9 vertices, got {max_n}")
    from .census import _cotrees

    examined: list[tuple[int, int]] = []
    offenders: list[Graph] = []
    for n in range(1, max_n + 1):
        count = 0
        for g in _cotrees(n, realized=True):  # one cograph alive at a time
            count += 1
            if sum(1 for _ in islice(_embeddings(g, g, {}), 4)) == 3:
                offenders.append(g)
        examined.append((n, count))
    return NoZ3Report(max_n, tuple(examined), tuple(offenders))
