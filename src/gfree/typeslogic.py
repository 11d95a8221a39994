"""Bounded existential types over graphs with distinguished constants.

An extension of a constanted base graph adds fresh vertices named "0",
"1", ... (an initial segment of the naturals).  Each extension H gives an
existential formula: one bound variable per fresh vertex, literals spelling
out every edge and non-edge between fresh-constant and fresh-fresh pairs.
Evaluation uses standard semantics: bound variables range over all
vertices, equal values allowed, and a vertex is never adjacent to itself.
The k-bounded type fragment of a target collects the formulas of all
forbidden-free extensions that hold in it.

Deduplication and evaluation run on the graphs' adjacency rows
(Graph.rows): each candidate extension is its parent's rows plus one new
row, extensions are bucketed by a mask invariant before the
exact pairwise isomorphism check, and evaluation searches over int-mask
domains of target positions.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Union

from .errors import (
    BadSizeError,
    BaseNotFreeError,
    DuplicateVertexError,
    NotAnExtensionError,
    UnknownConstantError,
    UnknownVertexError,
    record,
)
from .graphs import (
    Graph,
    _bits,
    find_induced_embedding,
    induced_subgraph,
    is_free,
)

__all__ = [
    "Term",
    "ExistentialFormula",
    "ConstantedGraph",
    "enumerate_extensions",
    "phi_formula",
    "eval_existential",
    "type_fragment",
]

# a term is a bound-variable index or a constant (vertex name)
Term = Union[int, str]


@record
class ExistentialFormula:
    """Purely existential conjunction of edge/non-edge literals."""

    bound_count: int
    constants: tuple[str, ...]
    literals: tuple[tuple[Term, Term, bool], ...]

    def __post_init__(self):
        for a, b, _ in self.literals:
            for t in (a, b):
                if isinstance(t, int):
                    if not 0 <= t < self.bound_count:
                        raise ValueError(f"undeclared bound variable x{t}")
                elif t not in self.constants:
                    raise ValueError(f"undeclared constant {t!r}")
            if a == b:
                raise ValueError("literal relates a term to itself")

    def render(self) -> str:
        def term(t: Term) -> str:
            return f"x{t}" if isinstance(t, int) else t

        body = " & ".join(
            f"{term(a)}-{term(b)}" if pos else f"!({term(a)}-{term(b)})"
            for a, b, pos in self.literals
        )
        if not body:
            body = "true"
        if self.bound_count == 0:
            return body
        head = " ".join(f"x{i}" for i in range(self.bound_count))
        return f"E {head} . {body}"


@record
class ConstantedGraph:
    """Graph with an ordered tuple of distinguished vertices."""

    graph: Graph
    constants: tuple[str, ...] = ()

    def __post_init__(self):
        seen: set[str] = set()
        for c in self.constants:
            if c in seen:
                raise DuplicateVertexError(f"repeated constant {c!r}")
            seen.add(c)
            if not self.graph.has_vertex(c):
                raise UnknownVertexError(f"constant {c!r} is not a vertex")


def _iso_key(g: Graph, pinned: int) -> tuple:
    """Invariant of g under isomorphisms fixing its first `pinned` vertices:
    the edge count and, for each other vertex, the sorted pairs of its
    neighbours among the pinned ones (as a mask) and its degree."""
    low = (1 << pinned) - 1
    return g.m, tuple(sorted((row & low, row.bit_count()) for row in g.rows[pinned:]))


def _iso_fixing(g: Graph, h: Graph, pinned: tuple[str, ...]) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    partial = {p: p for p in pinned}
    return find_induced_embedding(g, h, partial) is not None


def enumerate_extensions(
    base: ConstantedGraph, forbidden: Graph, k: int
) -> list[ConstantedGraph]:
    """All forbidden-free extensions of base by at most k fresh vertices.

    Fresh vertices are named "0" .. str(k-1); level by level, every
    adjacency pattern to the previous graph is tried and duplicates are
    removed up to isomorphisms fixing the base pointwise: a candidate is
    checked only against the kept graphs with its _iso_key, and kept when
    none is isomorphic to it.  Order is deterministic: by level, then by
    discovery.
    """
    if k < 0:
        raise BadSizeError(f"need k >= 0, got {k}")
    if not is_free(base.graph, forbidden):
        raise BaseNotFreeError("base graph contains the forbidden graph")
    for i in range(k):
        if base.graph.has_vertex(str(i)):
            raise DuplicateVertexError(
                f"base vertex {str(i)!r} collides with the fresh-name scheme"
            )
    pinned = base.graph.vertices
    out = [base]
    current = [base.graph]
    for level in range(k):
        new_name = str(level)
        buckets: dict[tuple, list[Graph]] = {}
        kept: list[Graph] = []
        for g in current:
            names = g.vertices + (new_name,)
            bit = 1 << g.n
            for mask in range(bit):
                rows = [row | bit if mask >> i & 1 else row for i, row in enumerate(g.rows)]
                cand = Graph(names, (*rows, mask))
                if not is_free(cand, forbidden):
                    continue
                key = _iso_key(cand, base.graph.n)
                bucket = buckets.setdefault(key, [])
                if any(_iso_fixing(cand, rep, pinned) for rep in bucket):
                    continue
                bucket.append(cand)
                kept.append(cand)
        out.extend(ConstantedGraph(g, base.constants) for g in kept)
        current = kept
    return out


def phi_formula(ext: ConstantedGraph, base: ConstantedGraph) -> ExistentialFormula:
    """Transcribe an extension into its defining existential formula.

    Constants are the base vertices; one bound variable per fresh vertex;
    a literal for every fresh-constant pair (grouped by constant) and every
    fresh-fresh pair, positive exactly for edges.
    """
    base_verts = base.graph.vertices
    ext_g = ext.graph
    if ext.constants != base.constants or not set(base_verts) <= set(ext_g.vertices):
        raise NotAnExtensionError("extension does not contain the base")
    restricted = induced_subgraph(ext_g, base_verts)
    if restricted.edges != base.graph.edges:
        raise NotAnExtensionError("extension disagrees with the base on base edges")
    index, rows = ext_g.index, ext_g.rows
    fresh = [index[v] for v in ext_g.vertices if v not in set(base_verts)]
    literals: list[tuple[Term, Term, bool]] = []
    for v in base_verts:
        row = rows[index[v]]
        literals.extend((v, i, bool(row >> x & 1)) for i, x in enumerate(fresh))
    for (i, x), (j, y) in itertools.combinations(enumerate(fresh), 2):
        literals.append((i, j, bool(rows[x] >> y & 1)))
    return ExistentialFormula(len(fresh), tuple(base_verts), tuple(literals))


def eval_existential(phi: ExistentialFormula, target: ConstantedGraph) -> bool:
    """Standard-semantics truth of phi in the target.

    Bound variables range over all target vertices, repetitions allowed; a
    positive literal needs an edge, a negative one needs a non-edge (no
    vertex is adjacent to itself).  Each variable's domain is an int mask
    over the target's vertex positions: a literal against a constant or an
    assigned variable c ANDs in c's adjacency row, or its complement when
    negative.  The search assigns the variable with the fewest remaining
    candidates first, tries them in declared order, and narrows the other
    domains after each choice, which keeps refutations cheap.
    """
    have = set(target.constants)
    for c in phi.constants:
        if c not in have:
            raise UnknownConstantError(f"constant {c!r} missing from the target")
    index, rows = target.graph.index, target.graph.rows
    full = (1 << len(rows)) - 1

    def side(v: int, pos: bool) -> int:
        """Positions adjacent to v, or with pos False the rest (v included)."""
        return rows[v] if pos else full & ~rows[v]

    domains = [full] * phi.bound_count
    binary: list[list[tuple[int, bool]]] = [[] for _ in range(phi.bound_count)]
    for a, b, pos in phi.literals:
        if isinstance(a, int) and isinstance(b, int):
            binary[a].append((b, pos))
            binary[b].append((a, pos))
        elif isinstance(a, int):
            domains[a] &= side(index[b], pos)
        elif isinstance(b, int):
            domains[b] &= side(index[a], pos)
        elif not side(index[a], pos) >> index[b] & 1:
            return False

    unassigned = set(range(phi.bound_count))

    def search() -> bool:
        if not unassigned:
            return True
        i = min(unassigned, key=lambda j: (domains[j].bit_count(), j))
        unassigned.remove(i)
        for w in _bits(domains[i]):
            pruned: list[tuple[int, int]] = []
            ok = True
            for j, pos in binary[i]:
                if j not in unassigned:
                    continue
                keep = domains[j] & side(w, pos)
                if keep != domains[j]:
                    pruned.append((j, domains[j]))
                    domains[j] = keep
                if not keep:
                    ok = False
                    break
            if ok and search():
                return True
            for j, old in pruned:
                domains[j] = old
        unassigned.add(i)
        return False

    return search()


@lru_cache(maxsize=None)
def _cached_extensions(
    base: ConstantedGraph, forbidden: Graph, k: int
) -> tuple[ConstantedGraph, ...]:
    return tuple(enumerate_extensions(base, forbidden, k))


def type_fragment(
    target: ConstantedGraph, forbidden: Graph, k: int
) -> list[ExistentialFormula]:
    """Formulas of all forbidden-free extensions of the constants' induced
    subgraph by at most k fresh vertices that hold in the target."""
    base = ConstantedGraph(
        induced_subgraph(target.graph, target.constants), target.constants
    )
    out = []
    for ext in _cached_extensions(base, forbidden, k):
        phi = phi_formula(ext, base)
        if eval_existential(phi, target):
            out.append(phi)
    return out
