"""The induced-subgraph search engine and its result type.

One search engine, _placements, works on positions and serves induced
embeddings, freeness, isomorphism, automorphism enumeration and counting
(automorphism.py), the types layer's traces, deduplication and existential
evaluation (typeslogic.py) and the label/meet embedding of decomposition
trees (embedding.py).  A pattern vertex's candidates are an intersection of
host rows.  The search is iterative, so its depth is not bounded by the
interpreter's recursion limit.  Pattern vertices are assigned in declared
order and candidates tried in the host's declared order, so the witness is
the first one in declared order, which makes every search deterministic.

graphs.find_induced_embedding (and so is_free and is_isomorphic) imports
this module when it runs, so a request on a cograph never loads it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import BadPartialError, record
from .graphs import Graph, _bits

__all__ = ["VertexMap"]


@record
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


def _is_isomorphism(g: Graph, h: Graph, mapping: Mapping[str, str]) -> bool:
    """True iff mapping is a bijection from g's vertices onto h's under
    which every row of g becomes the row of its image."""
    if g.n != h.n or set(mapping) != set(g.vertices) or set(mapping.values()) != set(h.vertices):
        return False
    if tuple(map(mapping.__getitem__, g.vertices)) == h.vertices:
        return g.rows == h.rows  # every position kept
    image = [h.index[mapping[v]] for v in g.vertices]
    return all(
        sum(1 << image[j] for j in _bits(row)) == h.rows[image[i]]
        for i, row in enumerate(g.rows)
    )


def _check_partial(pattern: Graph, host: Graph, partial: Mapping[str, str]) -> None:
    dsts = list(partial.values())
    if len(set(dsts)) != len(dsts):
        raise BadPartialError("partial map is not injective")
    for u, v in partial.items():
        if u not in pattern.index:
            raise BadPartialError(f"partial maps unknown pattern vertex {u!r}")
        if v not in host.index:
            raise BadPartialError(f"partial maps to unknown host vertex {v!r}")


def _fits(prows: Sequence[int], hrows: Sequence[int]) -> list[int]:
    """fits[p]: the host positions whose degree and co-degree leave room for
    pattern position p, i.e. degree at least p's and at most p's plus the
    number of host positions the pattern leaves out."""
    slack = len(hrows) - len(prows)
    by_degree: dict[int, int] = {}
    for j, row in enumerate(hrows):
        d = row.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << j
    fits_of: dict[int, int] = {}
    fits = []
    for row in prows:
        d = row.bit_count()
        f = fits_of.get(d)
        if f is None:
            f = 0
            for e, m in by_degree.items():
                if d <= e <= d + slack:
                    f |= m
            fits_of[d] = f
        fits.append(f)
    return fits


def _placements(
    prows: Sequence[int],
    hrows: Sequence[int],
    fits: Sequence[int],
    order: Sequence[int],
) -> Iterator[list[tuple[int, int]]]:
    """Every injective placement of the pattern positions in order onto
    host positions, as (pattern, host) pairs, that keeps adjacency between
    the placed positions.

    Every induced-subgraph search of the package runs here, tree
    embeddings (whose rows relate tree nodes) included.  Position
    order[d]'s candidates are fits[order[d]] minus the host positions taken
    at earlier depths, intersected with the host row (or its complement) of
    every earlier placement.  Whatever else a caller needs, such as a
    position pinned to one image (its fits that single bit, placed first),
    it folds into fits and order.  Candidates are taken lowest bit first,
    so placements come out in lexicographic order of their host positions.
    The untried candidates of every depth sit on an explicit stack, so
    depth is not bounded by the recursion limit.  The yielded list is the
    search's own and changes as the search goes on: copy it to keep it.
    """
    if not order:
        yield []
        return
    pairs: list[tuple[int, int]] = []
    last = len(order) - 1
    rest = [0] * len(order)  # untried candidates per depth
    depth = 0
    used = 0
    cand = fits[order[0]]
    while True:
        if cand:
            low = cand & -cand
            rest[depth] = cand ^ low
            pairs.append((order[depth], low.bit_length() - 1))
            used |= low
            if depth < last:
                depth += 1
                p = order[depth]
                cand = fits[p] & ~used
                row = prows[p]
                for q, h in pairs:
                    if not cand:
                        break
                    cand &= hrows[h] if row >> q & 1 else ~hrows[h]
                continue
            yield pairs
        elif depth:
            depth -= 1
        else:
            return
        used ^= 1 << pairs.pop()[1]
        cand = rest[depth]


def _embeddings(
    pattern: Graph, host: Graph, partial: Mapping[str, str]
) -> Iterator[dict[str, str]]:
    """Every induced embedding of pattern into host extending partial, in
    lexicographic order of their images: _placements over the partial
    map's pattern vertices, each pinned to its image, then the free ones in
    declared order."""
    fits = _fits(pattern.rows, host.rows)
    pnames, hnames = pattern.vertices, host.vertices
    order = [pattern.index[u] for u in partial]
    for p, v in zip(order, partial.values()):
        fits[p] &= 1 << host.index[v]
    order += [p for p, v in enumerate(pnames) if v not in partial]
    for pairs in _placements(pattern.rows, host.rows, fits, order):
        yield {pnames[p]: hnames[h] for p, h in pairs}
