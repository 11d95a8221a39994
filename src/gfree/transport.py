"""The gadget encoding's provenance and the isomorphism transports that read
it, and the walk around one marker cycle that gadget.decode_psi runs.

encode_phi returns an EncodedGraph, whose provenance tuples record the
construction order, so an isomorphism is pushed through the encoding index
by index (transport_iso_phi), restricted from encodings to the decoded
graphs (transport_iso_psi), or read off as the map from a graph to its
decoded encoding (natural_iso_lambda).  `gadget` imports this module when
encode_phi or decode_psi runs, which keeps its own compile small.
"""

from __future__ import annotations

from functools import cached_property

from .errors import MalformedEncodingError, NotIsomorphismError, record
from .gadget import GadgetParams, decode_psi, encode_phi
from .graphs import Graph, _bits, complement
from .search import VertexMap, _is_isomorphism

__all__ = ["EncodedGraph", "transport_iso_phi", "transport_iso_psi", "natural_iso_lambda"]


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
