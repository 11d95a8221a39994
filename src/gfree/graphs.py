"""Finite simple graphs with named vertices, and induced-subgraph search.

Graphs are immutable values: every operation returns a new graph.  Vertex
identity is an opaque string; operations that mint vertices use the
deterministic scheme "g0", "g1", ... so outputs are reproducible byte for
byte.

One search engine serves induced embeddings, freeness, isomorphism and (in
automorphism.py) automorphism enumeration.  It works on positional
bitmasks: each graph lazily caches its vertex positions and one adjacency
int per vertex, and a pattern vertex's candidates are an intersection of
host masks.  The search is iterative, so its depth is not bounded by the
interpreter's recursion limit.  Pattern vertices are assigned in declared
order and candidates tried in the host's declared order, so the witness is
the first one in declared order, which makes every search deterministic.
Connected components and the complement are read off the same masks.
Degrees come from int.bit_count, which needs Python 3.10 or newer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    BadPartialError,
    BadSizeError,
    DuplicateVertexError,
    EmptyGraphError,
    LengthMismatchError,
    SelfLoopError,
    UnknownEndpointError,
)

__all__ = [
    "Graph",
    "VertexMap",
    "make_graph",
    "complement",
    "combine",
    "labeled_chain_sum",
    "path_graph",
    "cycle_graph",
    "induced_subgraph",
    "relabel",
    "connected_components",
    "find_induced_embedding",
    "is_free",
    "is_isomorphic",
]


def _norm_edge(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph.

    vertices: declared order matters for search determinism.
    edges: canonical set of pairs, each stored once with endpoints sorted.
    """

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _adj(self) -> dict[str, frozenset[str]]:
        nbrs: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return {v: frozenset(s) for v, s in nbrs.items()}

    @cached_property
    def _masks(self) -> tuple[dict[str, int], tuple[int, ...]]:
        """Vertex -> declared position, and per position its neighbours as
        an int whose bit i stands for vertices[i]."""
        index = {v: i for i, v in enumerate(self.vertices)}
        adj = [0] * len(index)
        for u, v in self.edges:
            i, j = index[u], index[v]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return index, tuple(adj)

    def has_vertex(self, v: str) -> bool:
        return v in self._adj

    def has_edge(self, u: str, v: str) -> bool:
        return _norm_edge(u, v) in self.edges

    def neighbors(self, v: str) -> frozenset[str]:
        return self._adj[v]

    def degree(self, v: str) -> int:
        return len(self._adj[v])

    def edge_list(self) -> list[tuple[str, str]]:
        """Edges ordered by vertex position, endpoints in declared order."""
        pos = {v: i for i, v in enumerate(self.vertices)}
        out = [(u, v) if pos[u] < pos[v] else (v, u) for u, v in self.edges]
        out.sort(key=lambda e: (pos[e[0]], pos[e[1]]))
        return out


@dataclass(frozen=True)
class VertexMap:
    """Injective partial map between vertex sets, stored as sorted pairs."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        srcs = [p[0] for p in self.pairs]
        dsts = [p[1] for p in self.pairs]
        if len(set(srcs)) != len(srcs) or len(set(dsts)) != len(dsts):
            raise BadPartialError(f"vertex map is not injective: {self.pairs}")

    @classmethod
    def from_dict(cls, mapping: Mapping[str, str]) -> "VertexMap":
        return cls(tuple(sorted(mapping.items())))

    @classmethod
    def identity(cls, vertices: Iterable[str]) -> "VertexMap":
        return cls(tuple(sorted((v, v) for v in vertices)))

    @cached_property
    def _dict(self) -> dict[str, str]:
        return dict(self.pairs)

    def __getitem__(self, v: str) -> str:
        return self._dict[v]

    def __contains__(self, v: str) -> bool:
        return v in self._dict

    def as_dict(self) -> dict[str, str]:
        return dict(self._dict)

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(p[0] for p in self.pairs)

    @property
    def codomain(self) -> frozenset[str]:
        return frozenset(p[1] for p in self.pairs)

    def inverse(self) -> "VertexMap":
        return type(self)(tuple(sorted((b, a) for a, b in self.pairs)))

    def after(self, other: "VertexMap") -> "VertexMap":
        """Composite self∘other: apply other first, then self, as a map of
        self's class."""
        return type(self)(tuple(sorted((a, self._dict[b]) for a, b in other.pairs)))

    def restrict(self, keep: Iterable[str]) -> "VertexMap":
        keepset = set(keep)
        return VertexMap(tuple(p for p in self.pairs if p[0] in keepset))


def make_graph(names: Sequence[str], edge_pairs: Iterable[tuple[str, str]]) -> Graph:
    """Build a canonical Graph, validating names and edges."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise DuplicateVertexError(f"duplicate vertex name: {name!r}")
        seen.add(name)
    edges: set[tuple[str, str]] = set()
    for u, v in edge_pairs:
        if u == v:
            raise SelfLoopError(f"self-loop at {u!r}")
        if u not in seen:
            raise UnknownEndpointError(f"unknown endpoint: {u!r}")
        if v not in seen:
            raise UnknownEndpointError(f"unknown endpoint: {v!r}")
        edges.add(_norm_edge(u, v))
    return Graph(tuple(names), frozenset(edges))


def complement(g: Graph) -> Graph:
    """Same vertices; edge iff non-edge in g."""
    names = g.vertices
    rows = g._masks[1]
    full = (1 << g.n) - 1
    edges = set()
    for i, u in enumerate(names):
        later = full & ~rows[i] & ~((2 << i) - 1)  # non-neighbours declared after u
        edges.update(_norm_edge(u, names[j]) for j in _bits(later))
    return Graph(names, frozenset(edges))


def relabel(g: Graph, mapping: Mapping[str, str]) -> Graph:
    """Rename vertices through an injective total mapping."""
    names = [mapping[v] for v in g.vertices]
    edges = [(mapping[u], mapping[v]) for u, v in g.edges]
    return make_graph(names, edges)


def induced_subgraph(g: Graph, keep: Iterable[str]) -> Graph:
    """Induced subgraph on the given vertices, in declared order."""
    keepset = set(keep)
    for v in keepset:
        if not g.has_vertex(v):
            raise UnknownEndpointError(f"unknown vertex: {v!r}")
    names = tuple(v for v in g.vertices if v in keepset)
    edges = frozenset(e for e in g.edges if e[0] in keepset and e[1] in keepset)
    return Graph(names, edges)


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
    names = [v for p in disjoint for v in p.vertices]
    edges: list[tuple[str, str]] = [e for p in disjoint for e in p.edges]
    for i, j in itertools.combinations(range(len(disjoint)), 2):
        if labels[i] == 1:
            edges.extend(
                (u, v)
                for u in disjoint[i].vertices
                for v in disjoint[j].vertices
            )
    return make_graph(names, edges)


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
        for comp in _components(g._masks[1], (1 << g.n) - 1)
    ]


def _check_partial(pattern: Graph, host: Graph, partial: Mapping[str, str]) -> None:
    dsts = list(partial.values())
    if len(set(dsts)) != len(dsts):
        raise BadPartialError("partial map is not injective")
    for u, v in partial.items():
        if u not in pattern._masks[0]:
            raise BadPartialError(f"partial maps unknown pattern vertex {u!r}")
        if v not in host._masks[0]:
            raise BadPartialError(f"partial maps to unknown host vertex {v!r}")


def _embeddings(
    pattern: Graph, host: Graph, partial: Mapping[str, str]
) -> Iterator[dict[str, str]]:
    """Every induced embedding of pattern into host extending partial.

    Free pattern vertices are assigned in declared order.  Each one's
    candidates are the host positions whose degree and co-degree leave room
    for it, minus the used ones, intersected with the adjacency mask (or its
    complement) of every host vertex already assigned.  Candidates are taken
    lowest bit first, i.e. in the host's declared order, so embeddings come
    out in lexicographic order of their images.  The search keeps the
    untried candidates of every depth on an explicit stack.
    """
    pindex, padj = pattern._masks
    hindex, hadj = host._masks
    slack = host.n - pattern.n
    by_degree: dict[int, int] = {}
    for j, row in enumerate(hadj):
        d = row.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << j
    # fits[p]: host positions whose degree and co-degree leave room for p
    fits_of: dict[int, int] = {}
    fits = []
    for row in padj:
        d = row.bit_count()
        f = fits_of.get(d)
        if f is None:
            f = 0
            for e, m in by_degree.items():
                if d <= e <= d + slack:
                    f |= m
            fits_of[d] = f
        fits.append(f)

    pairs = [(pindex[u], hindex[v]) for u, v in partial.items()]
    used = 0
    # The fixed part must itself be consistent.
    for p, h in pairs:
        if not fits[p] >> h & 1:
            return
        for q, k in pairs:
            if q != p and (padj[p] >> q & 1) != (hadj[h] >> k & 1):
                return
        used |= 1 << h

    def candidates(p: int, used: int) -> int:
        cand = fits[p] & ~used
        row = padj[p]
        for q, h in pairs:
            if not cand:
                break
            cand &= hadj[h] if row >> q & 1 else ~hadj[h]
        return cand

    pnames, hnames = pattern.vertices, host.vertices
    order = [pindex[v] for v in pnames if v not in partial]
    if not order:
        yield {pnames[p]: hnames[h] for p, h in pairs}
        return
    last = len(order) - 1
    rest = [0] * len(order)  # untried candidates per depth
    depth = 0
    cand = candidates(order[0], used)
    while True:
        if cand:
            low = cand & -cand
            rest[depth] = cand ^ low
            pairs.append((order[depth], low.bit_length() - 1))
            used |= low
            if depth < last:
                depth += 1
                cand = candidates(order[depth], used)
                continue
            yield {pnames[p]: hnames[h] for p, h in pairs}
        elif depth:
            depth -= 1
        else:
            return
        used ^= 1 << pairs.pop()[1]
        cand = rest[depth]


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
    if sorted(g.degree(v) for v in g.vertices) != sorted(
        h.degree(v) for v in h.vertices
    ):
        return None
    # A total induced embedding between equal-sized graphs is an isomorphism.
    return find_induced_embedding(g, h)
