"""Bounded existential types over graphs with distinguished constants.

An extension of a constanted base graph adds fresh vertices named "0",
"1", ... (an initial segment of the naturals).  Each extension H gives an
existential formula: one bound variable per fresh vertex, literals spelling
out every edge and non-edge between fresh-constant and fresh-fresh pairs.
Evaluation uses standard semantics: bound variables range over all
vertices, equal values allowed, and a vertex is never adjacent to itself.
The k-bounded type fragment of a target collects the formulas of all
forbidden-free extensions that hold in it.

Enumeration, deduplication and evaluation run on the graphs' adjacency
rows (Graph.rows).  Each candidate extension is its parent's rows plus one
new row.  A parent is already forbidden-free, so the candidates' freeness
comes from one pass per parent: the traces that the embeddings of F minus
one vertex leave in it (_free_masks).  Candidates are bucketed by a mask
invariant before the exact isomorphism check fixing the base, which calls
the search engine directly.  Evaluation searches over int-mask domains of
target positions, and type_fragment skips every extension whose parent's
formula already failed, since the child's formula contains it.
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
    _embeddings,
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
    """True iff some isomorphism g -> h fixes every pinned vertex; the
    search runs on _embeddings directly, without the partial-map checks of
    find_induced_embedding."""
    if g.n != h.n or g.m != h.m:
        return False
    return next(_embeddings(g, h, {p: p for p in pinned}), None) is not None


def _pieces(forbidden: Graph) -> list[tuple[Graph, tuple[str, ...]]]:
    """For each vertex r of the forbidden graph F: F - r and r's neighbours."""
    names = forbidden.vertices
    return [
        (induced_subgraph(forbidden, names[:i] + names[i + 1:]), forbidden.neighbors(r))
        for i, r in enumerate(names)
    ]


def _free_masks(g: Graph, pieces: list[tuple[Graph, tuple[str, ...]]]) -> list[int]:
    """Neighbour masks M, ascending, for which g plus one new vertex adjacent
    to exactly M is free of F, given that g is F-free and pieces is
    _pieces(F).

    A copy of F in the candidate must use the new vertex, as some r.  So
    each induced embedding of F - r into g leaves a trace (S, T): S is its
    image and T the image of r's neighbours, and M is blocked iff some trace
    has M & S == T.
    """
    index = g.index
    traces: set[tuple[int, int]] = set()
    for piece, nbrs in pieces:
        for phi in _embeddings(piece, g, {}):
            image = 0
            for w in phi.values():
                image |= 1 << index[w]
            touched = 0
            for u in nbrs:
                touched |= 1 << index[phi[u]]
            traces.add((image, touched))
    return [m for m in range(1 << g.n) if not any(m & s == t for s, t in traces)]


def _extension_tree(
    base: ConstantedGraph, forbidden: Graph, k: int
) -> tuple[tuple[ConstantedGraph, ...], tuple[int, ...]]:
    """The extensions of enumerate_extensions, each with the position (in
    the same tuple) of the kept graph it was built from; -1 for the base."""
    if k < 0:
        raise BadSizeError(f"need k >= 0, got {k}")
    if not is_free(base.graph, forbidden):
        raise BaseNotFreeError("base graph contains the forbidden graph")
    for i in range(k):
        if base.graph.has_vertex(str(i)):
            raise DuplicateVertexError(
                f"base vertex {str(i)!r} collides with the fresh-name scheme"
            )
    pieces = _pieces(forbidden)
    pinned = base.graph.vertices
    graphs = [base.graph]
    parents = [-1]
    start = 0
    for level in range(k):
        new_name = str(level)
        buckets: dict[tuple, list[Graph]] = {}
        end = len(graphs)
        for parent in range(start, end):
            g = graphs[parent]
            names = g.vertices + (new_name,)
            bit = 1 << g.n
            for mask in _free_masks(g, pieces):
                rows = [row | bit if mask >> i & 1 else row for i, row in enumerate(g.rows)]
                cand = Graph(names, (*rows, mask))
                key = _iso_key(cand, base.graph.n)
                bucket = buckets.setdefault(key, [])
                if any(_iso_fixing(cand, rep, pinned) for rep in bucket):
                    continue
                bucket.append(cand)
                graphs.append(cand)
                parents.append(parent)
        start = end
    exts = (base, *(ConstantedGraph(g, base.constants) for g in graphs[1:]))
    return exts, tuple(parents)


def enumerate_extensions(
    base: ConstantedGraph, forbidden: Graph, k: int
) -> list[ConstantedGraph]:
    """All forbidden-free extensions of base by at most k fresh vertices.

    Fresh vertices are named "0" .. str(k-1); level by level, every
    adjacency pattern to each graph kept at the previous level is tried.
    Freeness comes from one pass per parent graph (_free_masks): the parent
    is F-free, so only copies of F through the new vertex are looked for,
    as traces of the embeddings of F minus one vertex.  Duplicates are
    removed up to isomorphisms fixing the base pointwise: a candidate is
    checked only against the kept graphs with its _iso_key, and kept when
    none is isomorphic to it.  Order is deterministic: by level, then by
    discovery.
    """
    return list(_extension_tree(base, forbidden, k)[0])


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


# type_fragment asks for one base per target, and a caller comparing
# several targets (criterion 7 of the acceptance suite) reuses one base.
@lru_cache(maxsize=8)
def _cached_extensions(
    base: ConstantedGraph, forbidden: Graph, k: int
) -> tuple[tuple[ConstantedGraph, ...], tuple[int, ...]]:
    return _extension_tree(base, forbidden, k)


def type_fragment(
    target: ConstantedGraph, forbidden: Graph, k: int
) -> list[ExistentialFormula]:
    """Formulas of all forbidden-free extensions of the constants' induced
    subgraph by at most k fresh vertices that hold in the target.

    An extension's formula holds every literal of the formula of the graph
    it was built from, under the same variable names, so an extension whose
    parent's formula fails in the target fails too and is not evaluated.
    """
    base = ConstantedGraph(
        induced_subgraph(target.graph, target.constants), target.constants
    )
    exts, parents = _cached_extensions(base, forbidden, k)
    holds: list[bool] = []
    out = []
    for ext, parent in zip(exts, parents):
        ok = parent < 0 or holds[parent]
        if ok:
            phi = phi_formula(ext, base)
            ok = eval_existential(phi, target)
            if ok:
                out.append(phi)
        holds.append(ok)
    return out
