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
from .graphs import Graph, VertexMap, complement, make_graph

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
    forbidden: Graph
    complemented: bool
    n: int  # largest induced cycle length of the working forbidden graph
    path_len: int  # internal vertices per pair path = |forbidden|
    edge_cycle: int  # n + 1
    non_edge_cycle: int  # n + 2
    hub_cycle: int  # n + 3


@record
class EncodedGraph:
    """Pre-complement encoding plus construction provenance.

    graph is always the uncomplemented construction; deliverable applies
    the final complement when the parameters call for one.  The provenance
    tuples record creation order so isomorphism transports can be built
    index-wise.
    """

    graph: Graph
    hub_of: tuple[tuple[str, str], ...]  # (original vertex, hub) in input order
    params: GadgetParams
    hub_cycles: tuple[tuple[str, tuple[str, ...]], ...]
    path_internals: tuple[tuple[str, str, tuple[str, ...]], ...]
    marker_cycles: tuple[tuple[str, tuple[str, ...]], ...]

    @cached_property
    def deliverable(self) -> Graph:
        return complement(self.graph) if self.params.complemented else self.graph

    def hub_map(self) -> dict[str, str]:
        return dict(self.hub_of)


def gadget_params(forbidden: Graph) -> GadgetParams:
    """Cycle lengths and path length for a forbidden graph not inside P4."""
    complemented, n = antichain_params(forbidden)
    return GadgetParams(
        forbidden=forbidden,
        complemented=complemented,
        n=n,
        path_len=forbidden.n,
        edge_cycle=n + 1,
        non_edge_cycle=n + 2,
        hub_cycle=n + 3,
    )


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

    hub_of: list[tuple[str, str]] = []
    hub_cycles: list[tuple[str, tuple[str, ...]]] = []
    for v in h.vertices:
        hub = fresh()
        names.append(hub)
        hub_cycles.append((v, attach_cycle(hub, params.hub_cycle)))
        hub_of.append((v, hub))
    hubs = dict(hub_of)

    path_internals: list[tuple[str, str, tuple[str, ...]]] = []
    marker_cycles: list[tuple[str, tuple[str, ...]]] = []
    for v, w in itertools.combinations(h.vertices, 2):
        marker_len = params.edge_cycle if h.has_edge(v, w) else params.non_edge_cycle
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
        hub_of=tuple(hub_of),
        params=params,
        hub_cycles=tuple(hub_cycles),
        path_internals=tuple(path_internals),
        marker_cycles=tuple(marker_cycles),
    )


def _marker_cycle_of(e: Graph, anchor: str) -> frozenset[str]:
    """The unique degree-2 cycle through an anchor, or MalformedEncoding."""
    cycles: set[frozenset[str]] = set()
    for x in e.neighbors(anchor):
        if e.degree(x) != 2:
            continue
        prev, cur = anchor, x
        chain = {anchor, x}
        while e.degree(cur) == 2:
            nxt = [y for y in e.neighbors(cur) if y != prev]
            if len(nxt) != 1:  # pragma: no cover - impossible for degree 2
                raise MalformedEncodingError(f"broken chain at {cur!r}")
            prev, cur = cur, nxt[0]
            chain.add(cur)
        if cur != anchor:
            raise MalformedEncodingError(
                f"degree-2 chain from {anchor!r} ends at {cur!r}, not a marker cycle"
            )
        cycles.add(frozenset(chain))
    if len(cycles) != 1:
        raise MalformedEncodingError(
            f"anchor {anchor!r} lies on {len(cycles)} marker cycles, needs exactly 1"
        )
    return next(iter(cycles))


def _decode_with_hubs(e: Graph, params: GadgetParams) -> tuple[Graph, list[str]]:
    """Decode a pre-complement encoding; returns the graph and its hubs.

    Decoded vertices keep their hub names, in the encoding's declared order.
    """
    if e.n == 0:
        return make_graph([], []), []
    if any(e.degree(v) < 2 for v in e.vertices):
        raise MalformedEncodingError("encodings have minimum degree 2")

    anchors = [v for v in e.vertices if e.degree(v) > 2]
    if not anchors:
        # a single hub cycle encodes the one-vertex graph
        if e.n != params.hub_cycle:
            raise MalformedEncodingError(
                f"anchor-free encoding must be one {params.hub_cycle}-cycle, "
                f"got {e.n} vertices"
            )
        start = e.vertices[0]
        prev, cur = start, min(e.neighbors(start))
        seen = {start, cur}
        while cur != start:
            nxt = [y for y in e.neighbors(cur) if y != prev]
            if len(nxt) != 1:
                raise MalformedEncodingError("anchor-free encoding is not one cycle")
            prev, cur = cur, nxt[0]
            seen.add(cur)
        if len(seen) != e.n:
            raise MalformedEncodingError("anchor-free encoding is not one cycle")
        return make_graph([start], []), [start]

    covered: set[str] = set()
    kind: dict[str, int] = {}
    for a in anchors:
        cyc = _marker_cycle_of(e, a)
        length = len(cyc)
        if length == params.hub_cycle:
            kind[a] = 2
        elif length == params.edge_cycle:
            kind[a] = 1
        elif length == params.non_edge_cycle:
            kind[a] = 0
        else:
            raise MalformedEncodingError(
                f"marker cycle of length {length} at {a!r} matches no parameter"
            )
        covered.update(cyc)
    hubs = [a for a in anchors if kind[a] == 2]
    internals = {a for a in anchors if kind[a] != 2}
    if not hubs:
        raise MalformedEncodingError("no hub anchors found")

    hub_set = set(hubs)
    pair_kind: dict[frozenset[str], int] = {}
    pathed: set[str] = set()
    for h1 in hubs:
        for x in e.neighbors(h1):
            if x in hub_set:
                raise MalformedEncodingError("two hubs are adjacent")
            if x not in internals:
                continue  # hub marker cycle filler
            walk = [x]
            prev, cur = h1, x
            while cur in internals:
                nxt = [
                    y
                    for y in e.neighbors(cur)
                    if y != prev and (y in internals or y in hub_set)
                ]
                if len(nxt) != 1:
                    raise MalformedEncodingError(
                        f"path through {cur!r} does not continue uniquely"
                    )
                prev, cur = cur, nxt[0]
                walk.append(cur)
            h2 = cur
            inner = walk[:-1]
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
            key = frozenset((h1, h2))
            edge_flag = lengths.pop()
            if pair_kind.setdefault(key, edge_flag) != edge_flag:
                raise MalformedEncodingError("conflicting paths for one hub pair")
            pathed.update(inner)

    expected_pairs = len(hubs) * (len(hubs) - 1) // 2
    if len(pair_kind) != expected_pairs:
        raise MalformedEncodingError(
            f"found {len(pair_kind)} hub-pair paths, expected {expected_pairs}"
        )
    if pathed != internals:
        raise MalformedEncodingError("internal anchors not all used by paths")
    if covered | set(anchors) != set(e.vertices):
        raise MalformedEncodingError("vertices outside every marker cycle and path")

    edges = [tuple(sorted(key)) for key, flag in pair_kind.items() if flag == 1]
    return make_graph(hubs, edges), hubs


def decode_psi(e: Graph, params: GadgetParams) -> Graph:
    """Recover the original graph from a pre-complement encoding."""
    return _decode_with_hubs(e, params)[0]


def _check_iso(g: Graph, h: Graph, mapping: dict[str, str]) -> bool:
    if set(mapping) != set(g.vertices):
        return False
    if set(mapping.values()) != set(h.vertices):
        return False
    if g.m != h.m:
        return False
    return all(h.has_edge(mapping[u], mapping[v]) for u, v in g.edges)


def _ensure_iso(g: Graph, h: Graph, f: VertexMap, what: str) -> None:
    if not _check_iso(g, h, f.as_dict()):
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
    d1, hubs1 = _decode_with_hubs(e1, params)
    d2, hubs2 = _decode_with_hubs(e2, params)
    hub_set2 = set(hubs2)
    mapping: dict[str, str] = {}
    for hub in hubs1:
        image = f[hub]
        if image not in hub_set2:
            raise NotIsomorphismError(f"hub {hub!r} maps to non-hub {image!r}")
        mapping[hub] = image
    out = VertexMap.from_dict(mapping)
    _ensure_iso(d1, d2, out, "the restricted map")
    return out


def natural_iso_lambda(h: Graph, params: GadgetParams) -> VertexMap:
    """Canonical isomorphism from h onto decode_psi(encode_phi(h))."""
    enc = encode_phi(h, params)
    decoded, _ = _decode_with_hubs(enc.graph, params)
    out = VertexMap.from_dict(dict(enc.hub_of))
    _ensure_iso(h, decoded, out, "the vertex-to-hub map")
    return out
