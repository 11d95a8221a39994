"""Finite simple graphs with named vertices, and induced-subgraph search.

Graphs are immutable values: every operation returns a new graph.  Vertex
identity is an opaque string; operations that mint vertices use the
deterministic scheme "g0", "g1", ... so outputs are reproducible byte for
byte.

A graph is its vertex tuple and its adjacency rows: rows[i] is an int whose
bit j is set when vertices[i] and vertices[j] are adjacent.  Two graphs are
equal when both agree.  make_graph validates names and edges given from
outside; textio.parse_graph ORs the edges of a well-formed file into rows
itself and calls make_graph only to raise on a faulty one; every other
operation builds rows from rows.  The edge set (pairs of names) is derived
from the rows on demand, and each graph caches one vertex -> position dict.
Connected components and the complement are read off the same rows;
disjoint unions, joins, chain sums and renaming are in `sums`.
Degrees come from int.bit_count, which needs Python 3.10 or newer.

find_induced_embedding, is_free and is_isomorphic run the search engine of
search.py, which they import when they run: a request that never searches
does not load it.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .errors import (
    BadSizeError,
    DuplicateVertexError,
    EmptyGraphError,
    SelfLoopError,
    UnknownEndpointError,
    record,
)

if TYPE_CHECKING:
    from .search import VertexMap

__all__ = [
    "Graph",
    "make_graph",
    "complement",
    "path_graph",
    "cycle_graph",
    "induced_subgraph",
    "connected_components",
    "find_induced_embedding",
    "is_free",
    "is_isomorphic",
]


@record
class Graph:
    """Finite simple undirected graph.

    vertices: declared order matters for search determinism.
    rows: rows[i] is the neighbour mask of vertices[i], bit j standing for
    vertices[j]; rows are symmetric and loop-free.
    """

    vertices: tuple[str, ...]
    rows: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.rows) >> 1

    @cached_property
    def index(self) -> dict[str, int]:
        """Vertex -> declared position."""
        return {v: i for i, v in enumerate(self.vertices)}

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        """Every edge once, as a pair of names in sorted order."""
        names = self.vertices
        return frozenset(
            (names[i], names[j]) if names[i] <= names[j] else (names[j], names[i])
            for i, j in _edge_positions(self.rows)
        )

    def has_vertex(self, v: str) -> bool:
        return v in self.index

    def has_edge(self, u: str, v: str) -> bool:
        index = self.index
        return u in index and v in index and bool(self.rows[index[u]] >> index[v] & 1)

    def neighbors(self, v: str) -> tuple[str, ...]:
        return tuple(self.vertices[j] for j in _bits(self.rows[self.index[v]]))

    def degree(self, v: str) -> int:
        return self.rows[self.index[v]].bit_count()


def _positions(names: Iterable[str]) -> dict[str, int]:
    """Name -> position, rejecting a repeated name."""
    index: dict[str, int] = {}
    for name in names:
        if name in index:
            raise DuplicateVertexError(f"duplicate vertex name: {name!r}")
        index[name] = len(index)
    return index


def make_graph(names: Sequence[str], edge_pairs: Iterable[tuple[str, str]]) -> Graph:
    """Build a Graph from names and edges, validating both: a repeated name
    raises first, then the first edge that is a self-loop or has an
    unknown endpoint."""
    index = _positions(names)
    rows = [0] * len(index)
    for u, v in edge_pairs:
        if u == v:
            raise SelfLoopError(f"self-loop at {u!r}")
        try:
            i, j = index[u], index[v]
        except KeyError as missing:
            raise UnknownEndpointError(f"unknown endpoint: {missing.args[0]!r}") from None
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(tuple(index), tuple(rows))


def complement(g: Graph) -> Graph:
    """Same vertices; edge iff non-edge in g."""
    full = (1 << g.n) - 1
    return Graph(g.vertices, tuple(full ^ row ^ 1 << i for i, row in enumerate(g.rows)))


def induced_subgraph(g: Graph, keep: Iterable[str]) -> Graph:
    """Induced subgraph on the given vertices, in declared order."""
    index = g.index
    mask = 0
    for v in keep:
        if v not in index:
            raise UnknownEndpointError(f"unknown vertex: {v!r}")
        mask |= 1 << index[v]
    if mask == (1 << g.n) - 1:
        return g
    kept = list(_bits(mask))
    new = {i: 1 << k for k, i in enumerate(kept)}
    rows = tuple(sum(new[j] for j in _bits(g.rows[i] & mask)) for i in kept)
    return Graph(tuple(g.vertices[i] for i in kept), rows)


def path_graph(n: int) -> Graph:
    """Path on n >= 1 fresh vertices g0-g1-...-g<n-1>."""
    if n < 1:
        raise BadSizeError(f"path needs n >= 1, got {n}")
    names = [f"g{i}" for i in range(n)]
    return make_graph(names, [(names[i], names[i + 1]) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 fresh vertices."""
    if n < 3:
        raise BadSizeError(f"cycle needs n >= 3, got {n}")
    names = [f"g{i}" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    return make_graph(names, edges)


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _edge_positions(rows: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Every edge as positions (i, j), i < j, ordered by i and then by j."""
    for i, row in enumerate(rows):
        above = bin(row >> i)[:1:-1]  # above[k] is bit i + k
        yield from ((i, i + k) for k, c in enumerate(above) if c == "1")


def _components(rows: Sequence[int], mask: int) -> list[int]:
    """Connected components of the positions in mask, where rows[i] is the
    neighbour mask of position i, ordered by their lowest position."""
    out = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            reach = 0
            for i in _bits(frontier):
                reach |= rows[i]
            frontier = reach & mask & ~comp
            comp |= frontier
        out.append(comp)
        mask &= ~comp
    return out


def connected_components(g: Graph) -> list[tuple[str, ...]]:
    """Components as vertex tuples, each in declared order, ordered by first vertex."""
    names = g.vertices
    return [
        tuple(names[i] for i in _bits(comp))
        for comp in _components(g.rows, (1 << g.n) - 1)
    ]


def find_induced_embedding(
    pattern: Graph,
    host: Graph,
    partial: Mapping[str, str] | VertexMap | None = None,
) -> VertexMap | None:
    """First injective map pattern -> host preserving edges and non-edges.

    Extends the given partial map.  Pattern vertices are assigned in declared
    order and candidates tried in the host's declared order, so the witness
    is deterministic.  Returns None when no embedding exists.
    """
    from .search import VertexMap, _check_partial, _embeddings

    if isinstance(partial, VertexMap):
        partial = partial.as_dict()
    partial = dict(partial or {})
    _check_partial(pattern, host, partial)
    if pattern.n > host.n:
        return None
    found = next(_embeddings(pattern, host, partial), None)
    return None if found is None else VertexMap.from_dict(found)


def is_free(g: Graph, forbidden: Graph) -> bool:
    """True iff g has no induced copy of the (nonempty) forbidden graph."""
    if forbidden.n == 0:
        raise EmptyGraphError("freeness needs a nonempty forbidden graph")
    return find_induced_embedding(forbidden, g) is None


def is_isomorphic(g: Graph, h: Graph) -> VertexMap | None:
    """Witness isomorphism or None; degree-sequence pruning, result exact."""
    if g.n != h.n or g.m != h.m:
        return None
    if sorted(row.bit_count() for row in g.rows) != sorted(row.bit_count() for row in h.rows):
        return None
    # A total induced embedding between equal-sized graphs is an isomorphism.
    return find_induced_embedding(g, h)
