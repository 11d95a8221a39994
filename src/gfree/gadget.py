"""Encoding arbitrary finite graphs into forbidden-subgraph-free graphs.

Every vertex becomes a hub sitting on its own marker cycle; every vertex
pair (edge or not) is joined by a fresh path whose internal vertices each
sit on their own marker cycle.  Three distinct marker lengths (n+1 for
edges, n+2 for non-edges, n+3 for hubs, where n is the largest induced
cycle of the working forbidden graph) make decoding purely syntactic: find
the anchors of degree > 2, classify them by their cycle length, read the
edge relation off the path markers.  When only the complement of the
forbidden graph has a cycle, the deliverable is the complement of the
construction and decoding runs on the pre-complement form.  The
encoding's provenance (EncodedGraph) and the isomorphism transports are in
`transport`.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from .embedding import antichain_params
from .errors import MalformedEncodingError, TooLargeError, record
from .graphs import Graph, _bits, _components, make_graph

if TYPE_CHECKING:
    from .transport import EncodedGraph

__all__ = ["GadgetParams", "gadget_params", "encode_phi", "decode_psi"]

# The most vertices encode_phi builds.  A graph's rows take about V^2/16
# bytes whatever its edge count: `gfree encode` of a 74,049-vertex encoding
# peaked at 415 MB RSS and of a 101,439-vertex one at 757 MB (Python 3.11).
_MAX_ENCODED = 100_000


@record
class GadgetParams:
    complemented: bool
    n: int  # largest induced cycle length of the working forbidden graph
    path_len: int  # internal vertices per pair path = |forbidden|

    @property
    def edge_cycle(self) -> int:
        return self.n + 1

    @property
    def non_edge_cycle(self) -> int:
        return self.n + 2

    @property
    def hub_cycle(self) -> int:
        return self.n + 3


def gadget_params(forbidden: Graph) -> GadgetParams:
    """Cycle lengths and path length for a forbidden graph not inside P4."""
    complemented, n = antichain_params(forbidden)
    return GadgetParams(complemented, n, forbidden.n)


def encode_phi(h: Graph, params: GadgetParams) -> EncodedGraph:
    """Encode any finite graph; vertices are minted as g0, g1, ...

    An encoding of more than _MAX_ENCODED vertices raises TooLargeError
    before anything is built.
    """
    from .transport import EncodedGraph

    # a hub cycle per vertex; per pair, a path whose internal vertices each
    # sit on the marker cycle of an edge or a non-edge
    non_edges = h.n * (h.n - 1) // 2 - h.m
    markers = h.m * params.edge_cycle + non_edges * params.non_edge_cycle
    size = h.n * params.hub_cycle + params.path_len * markers
    if size > _MAX_ENCODED:
        raise TooLargeError(f"encodings are limited to {_MAX_ENCODED} vertices, got {size}")

    counter = itertools.count()

    def fresh() -> str:
        return f"g{next(counter)}"

    names: list[str] = []
    edges: list[tuple[str, str]] = []

    def attach_cycle(first: str, length: int) -> tuple[str, ...]:
        cyc = [first]
        for _ in range(length - 1):
            x = fresh()
            names.append(x)
            cyc.append(x)
        for a, b in zip(cyc, cyc[1:]):
            edges.append((a, b))
        edges.append((cyc[-1], cyc[0]))
        return tuple(cyc)

    hub_cycles: list[tuple[str, tuple[str, ...]]] = []
    for v in h.vertices:
        hub = fresh()
        names.append(hub)
        hub_cycles.append((v, attach_cycle(hub, params.hub_cycle)))
    hubs = {v: cyc[0] for v, cyc in hub_cycles}

    path_internals: list[tuple[str, str, tuple[str, ...]]] = []
    marker_cycles: list[tuple[str, tuple[str, ...]]] = []
    for (i, v), (j, w) in itertools.combinations(enumerate(h.vertices), 2):
        marker_len = params.edge_cycle if h.rows[i] >> j & 1 else params.non_edge_cycle
        internals: list[str] = []
        for _ in range(params.path_len):
            p = fresh()
            names.append(p)
            internals.append(p)
        chain = [hubs[v], *internals, hubs[w]]
        edges.extend(zip(chain, chain[1:]))
        for p in internals:
            marker_cycles.append((p, attach_cycle(p, marker_len)))
        path_internals.append((v, w, tuple(internals)))

    return EncodedGraph(
        graph=make_graph(names, edges),
        params=params,
        hub_cycles=tuple(hub_cycles),
        path_internals=tuple(path_internals),
        marker_cycles=tuple(marker_cycles),
    )


def decode_psi(e: Graph, params: GadgetParams) -> Graph:
    """Recover the original graph from a pre-complement encoding.

    Decoded vertices keep their hub names, in the encoding's declared order.
    The walks run on the rows, in declared order, so the first defect found
    in a malformed encoding does not depend on hashing.
    """
    from .transport import _marker_cycle_of

    if e.n == 0:
        return make_graph([], [])
    rows, names = e.rows, e.vertices
    degree = [row.bit_count() for row in rows]
    if min(degree) < 2:
        raise MalformedEncodingError("encodings have minimum degree 2")

    anchors = [i for i, d in enumerate(degree) if d > 2]
    if not anchors:
        # a single hub cycle encodes the one-vertex graph
        if e.n != params.hub_cycle:
            raise MalformedEncodingError(
                f"anchor-free encoding must be one {params.hub_cycle}-cycle, "
                f"got {e.n} vertices"
            )
        if len(_components(rows, (1 << e.n) - 1)) != 1:
            raise MalformedEncodingError("anchor-free encoding is not one cycle")
        return make_graph(names[:1], [])

    covered = 0
    kind: dict[int, int] = {}
    for a in anchors:
        cyc = _marker_cycle_of(e, degree, a)
        length = cyc.bit_count()
        if length == params.hub_cycle:
            kind[a] = 2
        elif length == params.edge_cycle:
            kind[a] = 1
        elif length == params.non_edge_cycle:
            kind[a] = 0
        else:
            raise MalformedEncodingError(
                f"marker cycle of length {length} at {names[a]!r} matches no parameter"
            )
        covered |= cyc
    hubs = [a for a in anchors if kind[a] == 2]
    if not hubs:
        raise MalformedEncodingError("no hub anchors found")
    hub_mask = sum(1 << a for a in hubs)
    internals = sum(1 << a for a in anchors if kind[a] != 2)

    pair_kind: dict[tuple[int, int], int] = {}
    pathed = walks = 0  # a path is walked once from each end
    for h1 in hubs:
        for x in _bits(rows[h1] & (hub_mask | internals)):  # the rest fill h1's cycle
            if hub_mask >> x & 1:
                raise MalformedEncodingError("two hubs are adjacent")
            inner = [x]
            prev, cur = h1, x
            while internals >> cur & 1:
                nxt = rows[cur] & ~(1 << prev) & (hub_mask | internals)
                if nxt.bit_count() != 1:
                    raise MalformedEncodingError(
                        f"path through {names[cur]!r} does not continue uniquely"
                    )
                prev, cur = cur, nxt.bit_length() - 1
                inner.append(cur)
            h2 = inner.pop()
            if h2 == h1:
                raise MalformedEncodingError("path returns to its own hub")
            lengths = {kind[p] for p in inner}
            if len(lengths) != 1:
                raise MalformedEncodingError("mixed marker lengths on one path")
            if len(inner) != params.path_len:
                raise MalformedEncodingError(
                    f"path carries {len(inner)} internal vertices, "
                    f"expected {params.path_len}"
                )
            key = (min(h1, h2), max(h1, h2))
            edge_flag = lengths.pop()
            if pair_kind.setdefault(key, edge_flag) != edge_flag:
                raise MalformedEncodingError("conflicting paths for one hub pair")
            pathed |= sum(1 << p for p in inner)
            walks += 1

    expected_pairs = len(hubs) * (len(hubs) - 1) // 2
    if len(pair_kind) != expected_pairs or walks != 2 * expected_pairs:
        raise MalformedEncodingError(
            f"found {walks // 2} hub-pair paths on {len(pair_kind)} pairs, expected {expected_pairs}"
        )
    if pathed != internals:
        raise MalformedEncodingError("internal anchors not all used by paths")
    if covered != (1 << e.n) - 1:  # every anchor lies on its marker cycle
        raise MalformedEncodingError("vertices outside every marker cycle and path")

    edges = [(names[a], names[b]) for (a, b), flag in pair_kind.items() if flag == 1]
    return make_graph([names[h] for h in hubs], edges)
