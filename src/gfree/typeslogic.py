"""Bounded existential types over graphs with distinguished constants.

An extension of a constanted base graph adds fresh vertices named "0",
"1", ... (an initial segment of the naturals).  Each extension H gives an
existential formula: one bound variable per fresh vertex, literals spelling
out every edge and non-edge between fresh-constant and fresh-fresh pairs.
Evaluation uses standard semantics: bound variables range over all
vertices, equal values allowed, and a vertex is never adjacent to itself.
The k-bounded type fragment of a target collects the formulas of all
forbidden-free extensions that hold in it.

Enumeration and deduplication are one breadth-first pass over adjacency
rows, extensions._extension_tree, which expands only the kept graphs a
callback accepts; enumerate_extensions expands them all and wraps each
kept graph with the base's constants.  Evaluation runs the graph layer's
one search on a product host (eval_existential).
type_fragment evaluates each kept graph as the pass keeps it and expands
only those whose formula holds, since a child's formula contains its
parent's; so it never keeps the extensions of a failed formula.
"""

from __future__ import annotations

import itertools
from typing import Union

from .errors import (
    DuplicateVertexError,
    NotAnExtensionError,
    UnknownConstantError,
    UnknownVertexError,
    record,
)
from .extensions import _extension_tree
from .graphs import Graph, induced_subgraph
from .search import _is_isomorphism, _placements

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
        if self.bound_count < 0:
            raise ValueError(f"negative bound variable count {self.bound_count}")
        if len(set(self.constants)) < len(self.constants):
            raise ValueError(f"repeated constant in {self.constants}")
        for a, b, _ in self.literals:
            for t in (a, b):
                if type(t) is int:  # a bool is an undeclared constant
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


def enumerate_extensions(
    base: ConstantedGraph, forbidden: Graph, k: int
) -> list[ConstantedGraph]:
    """All forbidden-free extensions of base by at most k fresh vertices.

    Fresh vertices are named "0" .. str(k-1).  One breadth-first pass over
    the kept graphs tries every adjacency pattern of a new vertex to each
    one with fewer than k fresh vertices.  Freeness comes from one pass per
    parent graph (_free_masks): the parent is F-free, so only copies of F
    through the new vertex are looked for, as traces of the embeddings of F
    minus one vertex.  Duplicates are removed up to isomorphisms fixing the
    base pointwise: a candidate is checked only against the kept graphs with
    the same signatures (and refined key, once there are two), and kept when
    none is isomorphic to it.  Order: by fresh-vertex count, then discovery.

    Each parent's 2^n neighbour masks are listed, so with k > 0 the largest
    parent, of n + k - 1 vertices, may have at most 20, or TooLargeError is
    raised.  With k = 0 nothing is listed and any base is accepted.
    """
    graphs = _extension_tree(base, forbidden, k)
    return [base, *(ConstantedGraph(g, base.constants) for g in graphs[1:])]


def phi_formula(ext: ConstantedGraph, base: ConstantedGraph) -> ExistentialFormula:
    """Transcribe an extension into its defining existential formula.

    Constants are the base vertices; one bound variable per fresh vertex;
    a literal for every fresh-constant pair (grouped by constant) and every
    fresh-fresh pair, positive exactly for edges.
    """
    base_verts = base.graph.vertices
    ext_g = ext.graph
    base_set = set(base_verts)
    if ext.constants != base.constants or not base_set <= set(ext_g.vertices):
        raise NotAnExtensionError("extension does not contain the base")
    identity = {v: v for v in base_verts}
    if not _is_isomorphism(base.graph, induced_subgraph(ext_g, base_verts), identity):
        raise NotAnExtensionError("extension disagrees with the base on base edges")
    index = ext_g.index
    fresh = [index[v] for v in ext_g.vertices if v not in base_set]
    return _formula(ext_g.rows, base_verts, [index[v] for v in base_verts], fresh)


def _formula(
    rows: tuple[int, ...], base_verts: tuple[str, ...], pinned: list[int], fresh: list[int]
) -> ExistentialFormula:
    """phi_formula of an extension's rows, given the positions of the base
    vertices and of the fresh ones."""
    literals: list[tuple[Term, Term, bool]] = []
    for v, p in zip(base_verts, pinned):
        row = rows[p]
        literals.extend((v, i, bool(row >> x & 1)) for i, x in enumerate(fresh))
    for (i, x), (j, y) in itertools.combinations(enumerate(fresh), 2):
        literals.append((i, j, bool(rows[x] >> y & 1)))
    return ExistentialFormula(len(fresh), tuple(base_verts), tuple(literals))


def eval_existential(phi: ExistentialFormula, target: ConstantedGraph) -> bool:
    """Standard-semantics truth of phi in the target: bound variables range
    over all target vertices, repetitions allowed; a positive literal needs
    an edge, a negative one a non-edge (no vertex is adjacent to itself).

    A satisfying assignment is a placement (search._placements) of the
    complete graph on the variables into a product host, whose position
    i*n + u is target position u as a value of variable i.  (u, i) and
    (v, j) are adjacent when every literal on (i, j) holds for (u, v), so
    literals of both signs leave none.  Each variable has its own copy of
    the target, so variables may share a vertex.  Literals against a
    constant narrow the fits.  The order is static: most positive literals
    to the variables already ordered first, then fewest fits, then index.
    The host's rows take (m*n)^2 bits for m variables and n target vertices.
    """
    for c in phi.constants:
        if c not in target.constants:
            raise UnknownConstantError(f"constant {c!r} missing from the target")
    index, rows = target.graph.index, target.graph.rows
    n, m = len(rows), phi.bound_count
    full = (1 << n) - 1

    def side(v: int, pos: bool) -> int:
        """Positions adjacent to v, or with pos False the rest (v included)."""
        return rows[v] if pos else full & ~rows[v]

    fits = [full] * m
    plus, minus = [0] * m, [0] * m  # bit 0 of the copy of each +/- neighbour
    for a, b, pos in phi.literals:
        if isinstance(a, int) and isinstance(b, int):
            links = plus if pos else minus
            links[a] |= 1 << b * n
            links[b] |= 1 << a * n
        elif isinstance(a, int):
            fits[a] &= side(index[b], pos)
        elif isinstance(b, int):
            fits[b] &= side(index[a], pos)
        elif not side(index[a], pos) >> index[b] & 1:
            return False
    if not all(fits):  # a variable without values: skip building the host
        return False
    left = sorted(range(m), key=lambda j: fits[j].bit_count())  # ties by index
    order, done = [], 0  # done: bit 0 of the copy of each variable in order
    while left:
        links_in = [(plus[j] & done).bit_count() for j in left]
        i = left.pop(links_in.index(max(links_in)))
        order.append(i)
        done |= 1 << i * n
    rep = sum(1 << j * n for j in range(m))  # bit 0 of every copy
    whole, spread = full * rep, [row * rep for row in rows]  # each row in every copy
    hrows = []
    for i in range(m):
        # the copies a positive (negative) pair of values may reach from copy i
        on, off = whole ^ full * minus[i], whole ^ full * plus[i]
        hrows.extend(r & on | (whole ^ r) & off for r in spread)
    pattern = [(1 << m) - 1 ^ 1 << i for i in range(m)]
    fits = [f << i * n for i, f in enumerate(fits)]
    return next(_placements(pattern, hrows, fits, order), None) is not None


def type_fragment(
    target: ConstantedGraph, forbidden: Graph, k: int
) -> list[ExistentialFormula]:
    """Formulas of all forbidden-free extensions of the constants' induced
    subgraph by at most k fresh vertices that hold in the target, in the
    order of enumerate_extensions.

    An extension's formula holds every literal of the formula of the graph
    it was built from, under the same variable names, so only the
    extensions whose formula holds are expanded.  Holding is invariant
    under isomorphisms fixing the base, so each class that holds is still
    first found from a parent that holds, in the same relative order.
    """
    base = ConstantedGraph(
        induced_subgraph(target.graph, target.constants), target.constants
    )
    # every extension lists the base vertices first, then the fresh ones
    base_verts = base.graph.vertices
    pinned = list(range(len(base_verts)))
    out: list[ExistentialFormula] = []

    def holds(g: Graph) -> bool:
        phi = _formula(g.rows, base_verts, pinned, list(range(len(pinned), g.n)))
        ok = eval_existential(phi, target)
        if ok:
            out.append(phi)
        return ok

    _extension_tree(base, forbidden, k, holds)
    return out
