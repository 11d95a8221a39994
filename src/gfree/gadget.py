"""Encoding arbitrary finite graphs into forbidden-subgraph-free graphs.

Every vertex becomes a hub sitting on its own marker cycle; every vertex
pair (edge or not) is joined by a fresh path whose internal vertices each
sit on their own marker cycle.  Three distinct marker lengths (n+1 for
edges, n+2 for non-edges, n+3 for hubs, where n is the largest induced
cycle of the working forbidden graph) make decoding purely syntactic: find
the anchors of degree > 2, classify them by their cycle length, read the
edge relation off the path markers.  When only the complement of the
forbidden graph has a cycle, the deliverable is the complement of the
construction and decoding runs on the pre-complement form.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .embedding import antichain_params
from .errors import MalformedEncodingError, NotIsomorphismError, record
from .graphs import Graph, _bits, _components, complement, make_graph
from .search import VertexMap, _is_isomorphism

__all__ = [
    "GadgetParams",
    "EncodedGraph",
    "gadget_params",
    "encode_phi",
    "decode_psi",
    "transport_iso_phi",
    "transport_iso_psi",
    "natural_iso_lambda",
]


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


@record
class EncodedGraph:
    """Pre-complement encoding plus construction provenance.

    graph is always the uncomplemented construction; deliverable applies
    the final complement when the parameters call for one.  The provenance
    tuples record creation order so isomorphism transports can be built
    index-wise.
    """

    graph: Graph
    params: GadgetParams
    hub_cycles: tuple[tuple[str, tuple[str, ...]], ...]  # (original vertex, cycle from its hub)
    path_internals: tuple[tuple[str, str, tuple[str, ...]], ...]
    marker_cycles: tuple[tuple[str, tuple[str, ...]], ...]

    @property
    def hub_of(self) -> tuple[tuple[str, str], ...]:
        """(original vertex, hub) in input order."""
        return tuple([(v, cyc[0]) for v, cyc in self.hub_cycles])

    @cached_property
    def deliverable(self) -> Graph:
        return complement(self.graph) if self.params.complemented else self.graph


def gadget_params(forbidden: Graph) -> GadgetParams:
    """Cycle lengths and path length for a forbidden graph not inside P4."""
    complemented, n = antichain_params(forbidden)
    return GadgetParams(complemented, n, forbidden.n)


def encode_phi(h: Graph, params: GadgetParams) -> EncodedGraph:
    """Encode any finite graph; vertices are minted as g0, g1, ..."""
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


def _marker_cycle_of(e: Graph, degree: list[int], anchor: int) -> int:
    """Mask of the unique degree-2 cycle through an anchor position, or
    MalformedEncoding.  Neighbours are walked in declared order."""
    rows, names = e.rows, e.vertices
    cycles: set[int] = set()
    for x in _bits(rows[anchor]):
        if degree[x] != 2:
            continue
        prev, cur = anchor, x
        chain = 1 << anchor | 1 << x
        while degree[cur] == 2:
            prev, cur = cur, (rows[cur] ^ 1 << prev).bit_length() - 1
            chain |= 1 << cur
        if cur != anchor:
            raise MalformedEncodingError(
                f"degree-2 chain from {names[anchor]!r} ends at {names[cur]!r}, "
                "not a marker cycle"
            )
        cycles.add(chain)
    if len(cycles) != 1:
        raise MalformedEncodingError(
            f"anchor {names[anchor]!r} lies on {len(cycles)} marker cycles, needs exactly 1"
        )
    return cycles.pop()


def decode_psi(e: Graph, params: GadgetParams) -> Graph:
    """Recover the original graph from a pre-complement encoding.

    Decoded vertices keep their hub names, in the encoding's declared order.
    The walks run on the rows, in declared order, so the first defect found
    in a malformed encoding does not depend on hashing.
    """
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


def _ensure_iso(g: Graph, h: Graph, f: VertexMap, what: str) -> None:
    if not _is_isomorphism(g, h, f.as_dict()):
        raise NotIsomorphismError(f"{what} is not an isomorphism")


def transport_iso_phi(
    source: Graph, target: Graph, f: VertexMap, params: GadgetParams
) -> VertexMap:
    """Push an isomorphism source -> target through the encoding.

    Hubs follow f; cycles and paths are matched index-wise in construction
    order, reversing a path when f flips its endpoints' stored order.
    """
    _ensure_iso(source, target, f, "the given map")
    e1 = encode_phi(source, params)
    e2 = encode_phi(target, params)
    cyc2 = dict(e2.hub_cycles)
    paths2 = {frozenset((v, w)): (v, w, ints) for v, w, ints in e2.path_internals}
    markers1 = dict(e1.marker_cycles)
    markers2 = dict(e2.marker_cycles)

    mapping: dict[str, str] = {}
    for v, cyc in e1.hub_cycles:
        image = cyc2[f[v]]
        mapping.update(zip(cyc, image))
    for v, w, ints in e1.path_internals:
        v2, w2, ints2 = paths2[frozenset((f[v], f[w]))]
        if v2 != f[v]:
            ints2 = tuple(reversed(ints2))
        for p, q in zip(ints, ints2):
            mapping.update(zip(markers1[p], markers2[q]))

    out = VertexMap.from_dict(mapping)
    _ensure_iso(e1.graph, e2.graph, out, "the transported map")
    return out


def transport_iso_psi(
    e1: Graph, e2: Graph, f: VertexMap, params: GadgetParams
) -> VertexMap:
    """Restrict an isomorphism of encodings to the decoded graphs."""
    _ensure_iso(e1, e2, f, "the given map")
    d1 = decode_psi(e1, params)
    d2 = decode_psi(e2, params)
    mapping: dict[str, str] = {}
    for hub in d1.vertices:
        image = f[hub]
        if image not in d2.index:
            raise NotIsomorphismError(f"hub {hub!r} maps to non-hub {image!r}")
        mapping[hub] = image
    out = VertexMap.from_dict(mapping)
    _ensure_iso(d1, d2, out, "the restricted map")
    return out


def natural_iso_lambda(h: Graph, params: GadgetParams) -> VertexMap:
    """Canonical isomorphism from h onto decode_psi(encode_phi(h))."""
    enc = encode_phi(h, params)
    out = VertexMap.from_dict(dict(enc.hub_of))
    _ensure_iso(h, decode_psi(enc.graph, params), out, "the vertex-to-hub map")
    return out
