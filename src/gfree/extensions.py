"""The breadth-first enumeration of extensions behind the types layer.

An extension of a constanted base graph adds fresh vertices named "0",
"1", ...; `typeslogic` turns the kept graphs into formulas and evaluates
them.  Enumeration and deduplication run on the graphs' adjacency rows
(Graph.rows).  Enumeration is one breadth-first pass (_extension_tree),
which expands only the kept graphs a callback accepts;
typeslogic.enumerate_extensions expands them all.  Each candidate extension
is its parent's rows plus one new row, and stays a rows tuple unless it is
kept; a kept one is a plain Graph.  A parent is already forbidden-free, so
the candidates' freeness comes from one pass per parent: the traces that
the embeddings of F minus one vertex leave in it (_free_masks).
Deduplication gives each fresh position a signature, its neighbours among
the base and its degree.  A candidate meets only the kept graphs with its
multiset of signatures, and once two of those exist, only those with its
refined key as well (_refined_key).  The exact check (_fixes_base) runs the
graph layer's one search on positions, placing each fresh position only
where the kept graph's signature table allows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .errors import BadSizeError, BaseNotFreeError, DuplicateVertexError, TooLargeError
from .graphs import Graph, _bits, is_free
from .search import _fits, _placements

if TYPE_CHECKING:
    from .typeslogic import ConstantedGraph


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
    rest, placing the positions with the fewest candidates first (placed in
    position order, the empty-base C3, k = 9 type fragments of acceptance
    criterion 7 spent about 3.5x as long here).
    """
    fits = [0] * pinned + [host_table.get(sig, 0) for sig in sigs]
    order = sorted(range(pinned, len(rows)), key=lambda p: fits[p].bit_count())
    placed = _placements(rows, host_rows, fits, order)
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


def _extension_tree(
    base: ConstantedGraph,
    forbidden: Graph,
    k: int,
    grow: Callable[[Graph], bool] | None = None,
) -> list[Graph]:
    """The base and every kept extension that grow accepted, in
    breadth-first order; the base's vertices come first in each, in order.

    grow(graph) is called once on each kept graph, the base first, right
    after deduplication, and only the graphs it returns true for are
    expanded.  Without grow every graph is expanded and returned: the
    graphs of enumerate_extensions.
    """
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
    grown = [base.graph] if grow is None or grow(base.graph) else []
    level = -1  # vertex count of the parents the dedup tables serve
    for g in grown:  # breadth first: grown grows behind
        if g.n == pinned + k:
            break
        if g.n > level:
            level = g.n
            # Kept graphs one size up, by sorted signatures: a lone graph, or
            # once a second arrives, lists by refined key; entries (rows, table).
            # Both one-tier forms measured slower (2 vCPUs, Python 3.11): a
            # refined key for every candidate took the search deck's 76 types
            # requests about 1.1x as long, and lists by signature alone took
            # the empty-base C3, k = 9 enumeration about 2x as long.
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
            ext = Graph(names, rows)
            if grow is None or grow(ext):
                grown.append(ext)
    return grown
