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
rows (Graph.rows).  Enumeration is one breadth-first pass, which
type_fragment caches (_extension_tree).  Each candidate extension is its
parent's rows plus one new row, and stays a rows tuple unless it is kept;
a kept one is a plain Graph, which only enumerate_extensions wraps with
the base's constants.  A parent is already forbidden-free, so the
candidates' freeness comes from one pass per parent: the traces that the
embeddings of F minus one vertex leave in it (_free_masks).  Deduplication
gives each fresh position a signature, its neighbours among the base and
its degree.  A candidate meets only the kept graphs with its multiset of
signatures, and once two of those exist, only those with its refined key
as well (_refined_key).  The exact check (_fixes_base) runs the graph
layer's one search on positions, placing each fresh position only where
the kept graph's signature table allows.
Evaluation runs the same search on a product host (eval_existential), and
type_fragment skips every extension whose parent's formula already failed,
since the child's formula contains it.
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
    TooLargeError,
    UnknownConstantError,
    UnknownVertexError,
    record,
)
from .graphs import Graph, _bits, induced_subgraph, is_free
from .search import _fits, _is_isomorphism, _placements

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


def _signatures(rows: tuple[int, ...], pinned: int) -> list[int]:
    """For each position from `pinned` on, its neighbours among the first
    `pinned` positions (a mask) and its degree, packed into one int."""
    low = (1 << pinned) - 1
    return [row & low | row.bit_count() << pinned for row in rows[pinned:]]


def _refined_key(rows: tuple[int, ...], pinned: int) -> tuple:
    """A finer invariant under isomorphisms fixing the first `pinned`
    positions: for each other position, its signature and the sorted
    degrees of its neighbours, as a sorted tuple."""
    degrees = [row.bit_count() for row in rows]
    return tuple(sorted(
        (sig, tuple(sorted(degrees[j] for j in _bits(row))))
        for sig, row in zip(_signatures(rows, pinned), rows[pinned:])
    ))


def _signature_table(sigs: list[int], pinned: int) -> dict[int, int]:
    """Signature -> mask of the positions (from `pinned` on) that have it."""
    table: dict[int, int] = {}
    for i, sig in enumerate(sigs, pinned):
        table[sig] = table.get(sig, 0) | 1 << i
    return table


def _fixes_base(
    rows: tuple[int, ...],
    sigs: list[int],
    host_rows: tuple[int, ...],
    host_table: dict[int, int],
    pinned: int,
) -> bool:
    """True iff some isomorphism from rows to host_rows fixes each of the
    first `pinned` positions, given that both have as many positions and
    agree on the rows among the first `pinned`.

    Each other position may go only to the host positions with its
    signature, read from the host's table, which also places it correctly
    against the fixed ones; _placements then checks adjacency among the
    rest.
    """
    fits = [0] * pinned + [host_table.get(sig, 0) for sig in sigs]
    placed = _placements(rows, host_rows, fits, range(pinned, len(rows)))
    return next(placed, None) is not None


def _pieces(forbidden: Graph) -> list[tuple[tuple[int, ...], int]]:
    """For each vertex r of the forbidden graph F: the rows of F - r, and
    r's neighbours as a mask over them; a piece equal to an earlier one is
    left out, since it leaves the same traces."""

    def without(row: int, r: int) -> int:
        return row & (1 << r) - 1 | row >> (r + 1) << r

    rows = forbidden.rows
    return list(dict.fromkeys(
        (tuple(without(row, r) for i, row in enumerate(rows) if i != r), without(rows[r], r))
        for r in range(len(rows))
    ))


def _free_masks(g: Graph, pieces: list[tuple[tuple[int, ...], int]]) -> list[int]:
    """Neighbour masks M, ascending, for which g plus one new vertex adjacent
    to exactly M is free of F, given that g is F-free and pieces is
    _pieces(F).

    A copy of F in the candidate must use the new vertex, as some r.  So
    each induced embedding of F - r into g leaves a trace (S, T): S is its
    image and T the image of r's neighbours, and M is blocked iff some trace
    has M & S == T.
    """
    rows = g.rows
    traces: dict[int, set[int]] = {}  # S -> every T of a trace (S, T)
    for piece, nbrs in pieces:
        for pairs in _placements(piece, rows, _fits(piece, rows), range(len(piece))):
            image = touched = 0
            for p, h in pairs:
                image |= 1 << h
                if nbrs >> p & 1:
                    touched |= 1 << h
            traces.setdefault(image, set()).add(touched)
    by_image = list(traces.items())
    return [m for m in range(1 << g.n) if not any(m & s in ts for s, ts in by_image)]


# type_fragment asks for one base per target, and a caller comparing
# several targets (criterion 7 of the acceptance suite) reuses one base.
@lru_cache(maxsize=8)
def _extension_tree(
    base: ConstantedGraph, forbidden: Graph, k: int
) -> tuple[tuple[Graph, ...], tuple[int, ...]]:
    """The graphs of enumerate_extensions, base first, each with the
    position (in the same tuple) of the kept graph it was built from; -1 for
    the base.  The base's vertices come first in every graph, in order."""
    if k < 0:
        raise BadSizeError(f"need k >= 0, got {k}")
    pinned = base.graph.n
    if k and pinned + k - 1 > 20:
        raise TooLargeError(
            "extension enumeration lists every neighbour mask of a parent, so it is"
            f" limited to parents of 20 vertices; the base of {pinned} vertices"
            f" with k = {k} gives {pinned + k - 1}"
        )
    if not is_free(base.graph, forbidden):
        raise BaseNotFreeError("base graph contains the forbidden graph")
    for name in map(str, range(k)):
        if base.graph.has_vertex(name):
            raise DuplicateVertexError(f"base vertex {name!r} collides with the fresh-name scheme")
    pieces = _pieces(forbidden)
    graphs, parents = [base.graph], [-1]
    for parent, g in enumerate(graphs):  # breadth first: graphs grows behind
        if g.n == pinned + k:
            break
        if parent == 0 or g.n > graphs[parent - 1].n:
            # Kept graphs one size up, by sorted signatures: a lone graph, or
            # once a second arrives, lists by refined key; entries (rows, table).
            # Both one-tier forms measured slower (2 vCPUs, Python 3.11): a
            # refined key for every candidate took the search deck's 76 types
            # requests 1.7x as long, and lists by signature alone took the
            # empty-base C3, k = 9 enumeration about 4x as long.
            lone: dict[tuple, tuple] = {}
            split: dict[tuple, dict[tuple, list[tuple]]] = {}
        names = g.vertices + (str(g.n - pinned),)
        bit = 1 << g.n
        for mask in _free_masks(g, pieces):
            rows = (*(row | bit if mask >> i & 1 else row for i, row in enumerate(g.rows)), mask)
            sigs = _signatures(rows, pinned)
            key = tuple(sorted(sigs))
            rep = lone.get(key)
            if rep is not None or key in split:
                if rep is not None:
                    if _fixes_base(rows, sigs, *rep, pinned):
                        continue
                    del lone[key]
                    split[key] = {_refined_key(rep[0], pinned): [rep]}
                bucket = split[key].setdefault(_refined_key(rows, pinned), [])
                if any(r is not rep and _fixes_base(rows, sigs, *r, pinned) for r in bucket):
                    continue
                bucket.append((rows, _signature_table(sigs, pinned)))
            else:
                lone[key] = (rows, _signature_table(sigs, pinned))
            graphs.append(Graph(names, rows))
            parents.append(parent)
    return tuple(graphs), tuple(parents)


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
    graphs = _extension_tree.__wrapped__(base, forbidden, k)[0]  # uncached: freed with the list
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
    subgraph by at most k fresh vertices that hold in the target.

    An extension's formula holds every literal of the formula of the graph
    it was built from, under the same variable names, so an extension whose
    parent's formula fails in the target fails too and is not evaluated.
    """
    base = ConstantedGraph(
        induced_subgraph(target.graph, target.constants), target.constants
    )
    graphs, parents = _extension_tree(base, forbidden, k)
    # every extension lists the base vertices first, then the fresh ones
    base_verts = base.graph.vertices
    pinned = list(range(len(base_verts)))
    holds: list[bool] = []
    out = []
    for g, parent in zip(graphs, parents):
        ok = parent < 0 or holds[parent]
        if ok:
            phi = _formula(g.rows, base_verts, pinned, list(range(len(pinned), g.n)))
            ok = eval_existential(phi, target)
            if ok:
                out.append(phi)
        holds.append(ok)
    return out
