from __future__ import annotations

from collections import deque
from itertools import combinations

import pytest
from brute_force import graph_classes

from gfree import (
    ForbiddenInsideP4Error,
    TooLargeError,
    GadgetParams,
    MalformedEncodingError,
    NotIsomorphismError,
    VertexMap,
    complement,
    cycle_graph,
    decode_psi,
    encode_phi,
    find_induced_embedding,
    gadget_params,
    induced_subgraph,
    is_free,
    is_isomorphic,
    make_graph,
    natural_iso_lambda,
    path_graph,
    relabel,
    transport_iso_phi,
    transport_iso_psi,
)

C3 = cycle_graph(3)
K2 = make_graph(["a", "b"], [("a", "b")])
TWO_K1 = make_graph(["a", "b"], [])
P3 = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
K3_PLUS_K1 = make_graph("abcd", [("a", "b"), ("b", "c"), ("a", "c")])


def _distance(g, s, t):
    seen = {s: 0}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        if u == t:
            return seen[u]
        for w in g.neighbors(u):
            if w not in seen:
                seen[w] = seen[u] + 1
                queue.append(w)
    return None


def test_gadget_params_c3() -> None:
    p = gadget_params(C3)
    assert not p.complemented
    assert p.n == 3
    assert (p.edge_cycle, p.non_edge_cycle, p.hub_cycle) == (4, 5, 6)
    assert p.path_len == 3


def test_gadget_params_p5() -> None:
    p = gadget_params(path_graph(5))
    assert p.complemented
    assert p.n == 4
    assert (p.edge_cycle, p.non_edge_cycle) == (5, 6)
    assert p.path_len == 5


def test_gadget_params_c4() -> None:
    p = gadget_params(cycle_graph(4))
    assert not p.complemented
    assert p.n == 4


def test_gadget_params_k3_plus_k1() -> None:
    p = gadget_params(K3_PLUS_K1)
    assert not p.complemented
    assert p.n == 3
    assert p.path_len == 4


def test_gadget_params_path_len_at_least_n() -> None:
    for forbidden in [C3, cycle_graph(4), cycle_graph(5), path_graph(5), K3_PLUS_K1]:
        p = gadget_params(forbidden)
        assert p.path_len >= p.n


def test_gadget_params_are_three_values() -> None:
    params = GadgetParams(False, 3, 3)
    assert params == gadget_params(C3)
    enc = encode_phi(P3, params)
    assert enc == encode_phi(P3, gadget_params(C3))
    assert is_isomorphic(decode_psi(enc.graph, params), P3) is not None
    # the forbidden graph itself is not kept: K3 + K1 and the paw share
    # (complemented, n, order), so they give equal params
    paw = make_graph("abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    assert gadget_params(K3_PLUS_K1) == gadget_params(paw) == GadgetParams(False, 3, 4)
    assert encode_phi(K2, params).hub_of == (("a", "g0"), ("b", "g6"))


def test_gadget_params_rejects_p4_subgraphs() -> None:
    with pytest.raises(ForbiddenInsideP4Error):
        gadget_params(path_graph(4))
    with pytest.raises(ForbiddenInsideP4Error):
        gadget_params(K2)


def test_encode_k2_vertex_count() -> None:
    enc = encode_phi(K2, gadget_params(C3))
    assert enc.graph.n == 24


@pytest.mark.parametrize("forbidden", [C3, cycle_graph(5), path_graph(5), K3_PLUS_K1])
def test_encode_checks_the_size_it_builds_against_its_limit(forbidden, monkeypatch) -> None:
    # encode_phi raises past _MAX_ENCODED from its closed form, so a limit
    # of exactly the built size passes and one vertex fewer raises.
    from gfree import gadget

    params = gadget_params(forbidden)
    built = [(h, encode_phi(h, params).graph.n) for n in range(1, 5) for h in graph_classes(n)]
    for h, size in built:
        monkeypatch.setattr(gadget, "_MAX_ENCODED", size)
        encode_phi(h, params)
        monkeypatch.setattr(gadget, "_MAX_ENCODED", size - 1)
        with pytest.raises(TooLargeError, match=f"limited to {size - 1} vertices, got {size}$"):
            encode_phi(h, params)


def test_encode_past_its_limit_raises_before_building(monkeypatch) -> None:
    def refuse(names, edges):
        raise AssertionError("make_graph ran")

    monkeypatch.setattr("gfree.gadget.make_graph", refuse)
    # 150 hub cycles of 8, and 150 * 149 / 2 = 11175 paths of 5 marker cycles of 7
    h = make_graph([f"v{i}" for i in range(150)], [])
    with pytest.raises(TooLargeError, match="limited to 100000 vertices, got 392325$"):
        encode_phi(h, gadget_params(cycle_graph(5)))


def test_encode_k1_is_single_hub_cycle() -> None:
    enc = encode_phi(make_graph(["a"], []), gadget_params(C3))
    assert (enc.graph.n, enc.graph.m) == (6, 6)
    assert is_isomorphic(enc.graph, cycle_graph(6)) is not None


def test_encode_non_edge_uses_longer_marker() -> None:
    enc = encode_phi(TWO_K1, gadget_params(C3))
    lengths = {len(cycle) for _, cycle in enc.marker_cycles}
    assert lengths == {5}
    edge_enc = encode_phi(K2, gadget_params(C3))
    assert {len(cycle) for _, cycle in edge_enc.marker_cycles} == {4}


def test_encode_hub_distance_is_path_len_plus_one() -> None:
    params = gadget_params(C3)
    enc = encode_phi(K2, params)
    hubs = [hub for _, hub in enc.hub_of]
    assert _distance(enc.graph, hubs[0], hubs[1]) == params.path_len + 1


def test_encode_covers_every_pair() -> None:
    params = gadget_params(C3)
    enc = encode_phi(P3, params)
    assert len(enc.path_internals) == 3
    assert all(len(internals) == params.path_len for _, _, internals in enc.path_internals)


def test_encode_complemented_deliverable() -> None:
    params = gadget_params(path_graph(5))
    enc = encode_phi(K2, params)
    assert enc.deliverable == complement(enc.graph)
    assert is_free(enc.deliverable, path_graph(5))


def test_encode_plain_deliverable_is_the_graph() -> None:
    enc = encode_phi(K2, gadget_params(C3))
    assert enc.deliverable == enc.graph


def test_roundtrip_small_graphs() -> None:
    params = gadget_params(C3)
    for n in range(1, 5):
        for h in graph_classes(n):
            decoded = decode_psi(encode_phi(h, params).graph, params)
            assert is_isomorphic(decoded, h) is not None


def test_roundtrip_decoded_names_are_hub_names() -> None:
    params = gadget_params(C3)
    enc = encode_phi(P3, params)
    decoded = decode_psi(enc.graph, params)
    assert set(decoded.vertices) == {hub for _, hub in enc.hub_of}
    lam = natural_iso_lambda(P3, params)
    img = lam.as_dict()
    for u, v in combinations(P3.vertices, 2):
        assert P3.has_edge(u, v) == decoded.has_edge(img[u], img[v])


def test_decode_single_hub_cycle_is_k1() -> None:
    params = gadget_params(C3)
    decoded = decode_psi(cycle_graph(params.hub_cycle), params)
    assert decoded.n == 1


def test_decode_rejects_wrong_lone_cycle_length() -> None:
    params = gadget_params(C3)
    with pytest.raises(MalformedEncodingError):
        decode_psi(cycle_graph(5), params)


def test_decode_rejects_tampered_marker_cycle() -> None:
    params = gadget_params(C3)
    enc = encode_phi(K2, params)
    victim = enc.marker_cycles[0][1][-1]
    rest = [v for v in enc.graph.vertices if v != victim]
    with pytest.raises(MalformedEncodingError):
        decode_psi(induced_subgraph(enc.graph, rest), params)


def test_decode_rejects_adjacent_hubs() -> None:
    params = gadget_params(C3)
    enc = encode_phi(TWO_K1, params)
    hubs = [hub for _, hub in enc.hub_of]
    tampered = make_graph(enc.graph.vertices, list(enc.graph.edges) + [tuple(hubs)])
    with pytest.raises(MalformedEncodingError):
        decode_psi(tampered, params)


def test_decode_rejects_low_degree_vertex() -> None:
    params = gadget_params(C3)
    enc = encode_phi(K2, params)
    extra = make_graph(
        list(enc.graph.vertices) + ["stray"],
        list(enc.graph.edges) + [(enc.graph.vertices[1], "stray")],
    )
    with pytest.raises(MalformedEncodingError):
        decode_psi(extra, params)


def test_min_induced_cycle_in_encoding() -> None:
    for forbidden in [C3, path_graph(5)]:
        params = gadget_params(forbidden)
        for h in [make_graph(["a"], []), K2, TWO_K1]:
            enc = encode_phi(h, params)
            for k in range(3, params.n + 1):
                assert is_free(enc.graph, cycle_graph(k))


def test_transport_phi_identity() -> None:
    params = gadget_params(C3)
    enc = encode_phi(K2, params)
    out = transport_iso_phi(K2, K2, VertexMap.identity(K2.vertices), params)
    assert out.as_dict() == {v: v for v in enc.graph.vertices}


def test_transport_phi_swap_moves_hub_gadgets() -> None:
    params = gadget_params(C3)
    enc = encode_phi(TWO_K1, params)
    swap = VertexMap.from_dict({"a": "b", "b": "a"})
    out = transport_iso_phi(TWO_K1, TWO_K1, swap, params)
    hub = dict(enc.hub_of)
    assert out.as_dict()[hub["a"]] == hub["b"]
    assert out.as_dict()[hub["b"]] == hub["a"]


def test_transport_phi_rejects_non_isomorphism() -> None:
    params = gadget_params(C3)
    bad = VertexMap.from_dict({"a": "a", "b": "b"})
    h2 = make_graph(["a", "b"], [])
    with pytest.raises(NotIsomorphismError):
        transport_iso_phi(K2, h2, bad, params)


def test_transport_phi_functorial() -> None:
    params = gadget_params(C3)
    h1 = P3
    f = VertexMap.from_dict({"a": "x", "b": "y", "c": "z"})
    h2 = relabel(h1, f)
    g = VertexMap.from_dict({"x": "p", "y": "q", "z": "r"})
    h3 = relabel(h2, g)
    lhs = transport_iso_phi(h1, h3, g.after(f), params)
    rhs = transport_iso_phi(h2, h3, g, params).after(transport_iso_phi(h1, h2, f, params))
    assert lhs == rhs
    ident = transport_iso_phi(h1, h1, VertexMap.identity(h1.vertices), params)
    assert all(u == v for u, v in ident.pairs)


def test_transport_psi_identity() -> None:
    params = gadget_params(C3)
    enc = encode_phi(P3, params)
    ident = VertexMap.identity(enc.graph.vertices)
    out = transport_iso_psi(enc.graph, enc.graph, ident, params)
    assert all(u == v for u, v in out.pairs)


def test_transport_psi_hub_cycle_reflection_is_identity() -> None:
    params = gadget_params(C3)
    enc = encode_phi(TWO_K1, params)
    cycle = dict(enc.hub_cycles)["a"]
    mapping = {v: v for v in enc.graph.vertices}
    for i in range(1, len(cycle)):
        mapping[cycle[i]] = cycle[len(cycle) - i]
    out = transport_iso_psi(enc.graph, enc.graph, VertexMap.from_dict(mapping), params)
    assert all(u == v for u, v in out.pairs)


def test_transport_psi_swap_decodes_to_vertex_swap() -> None:
    params = gadget_params(C3)
    enc = encode_phi(TWO_K1, params)
    swap = VertexMap.from_dict({"a": "b", "b": "a"})
    phi_star = transport_iso_phi(TWO_K1, TWO_K1, swap, params)
    out = transport_iso_psi(enc.graph, enc.graph, phi_star, params)
    hub = dict(enc.hub_of)
    assert out.as_dict() == {hub["a"]: hub["b"], hub["b"]: hub["a"]}


def test_natural_iso_lambda_examples() -> None:
    params = gadget_params(C3)
    k1 = make_graph(["a"], [])
    assert len(natural_iso_lambda(k1, params).pairs) == 1
    lam = natural_iso_lambda(K2, params)
    enc = encode_phi(K2, params)
    decoded = decode_psi(enc.graph, params)
    img = lam.as_dict()
    assert decoded.has_edge(img["a"], img["b"])


def test_naturality_square() -> None:
    params = gadget_params(C3)
    f = VertexMap.from_dict({"a": "x", "b": "y", "c": "z"})
    h2 = relabel(P3, f)
    phi_star = transport_iso_phi(P3, h2, f, params)
    psi_star = transport_iso_psi(
        encode_phi(P3, params).graph, encode_phi(h2, params).graph, phi_star, params
    )
    left = natural_iso_lambda(h2, params).after(f)
    right = psi_star.after(natural_iso_lambda(P3, params))
    assert left == right


def test_iso_reflection_small() -> None:
    params = gadget_params(C3)
    pool = [g for n in range(1, 4) for g in graph_classes(n)]
    encodings = [encode_phi(g, params).graph for g in pool]
    for i in range(len(pool)):
        for j in range(i, len(pool)):
            plain = is_isomorphic(pool[i], pool[j]) is not None
            encoded = is_isomorphic(encodings[i], encodings[j]) is not None
            assert plain == encoded


def test_encoding_freeness_small() -> None:
    for forbidden in [C3, cycle_graph(4), K3_PLUS_K1]:
        params = gadget_params(forbidden)
        for n in range(1, 4):
            for h in graph_classes(n):
                assert is_free(encode_phi(h, params).deliverable, forbidden)


# Malformed encodings, each made from an encode_phi output by editing edges.
# With C3's parameters a hub cycle has 6 vertices, an edge path's marker
# cycles 4 and a non-edge path's 5, and a path has 3 internal vertices.  The
# encoding of K2 is the hubs g0 (cycle g0..g5) and g6 (cycle g6..g11) and
# the path g0 g12 g13 g14 g6, each internal on its own 4-cycle.


def _edited(g, add=(), drop=()):
    """g without the edges in drop and with those in add; a name in add
    that g lacks becomes a new vertex."""
    gone = {frozenset(e) for e in drop}
    names = list(dict.fromkeys([*g.vertices, *(v for e in add for v in e)]))
    return make_graph(names, [e for e in g.edges if frozenset(e) not in gone] + list(add))


def _cycle(first, length, tag):
    """The edges of a new length-cycle through first; the others are named
    tag0, tag1, ..."""
    cyc = [first, *(f"{tag}{i}" for i in range(length - 1))]
    return list(zip(cyc, cyc[1:] + cyc[:1]))


def _second_path(enc, marker_len):
    """The edges of one more g0-g6 path of K2's encoding, whose internals
    sit on new marker cycles of marker_len."""
    internals = [f"x{i}" for i in range(enc.params.path_len)]
    chain = ["g0", *internals, "g6"]
    return list(zip(chain, chain[1:])) + [e for p in internals for e in _cycle(p, marker_len, p + "m")]


def test_decode_rejects_two_paths_for_one_hub_pair() -> None:
    params = gadget_params(C3)
    enc = encode_phi(K2, params)
    doubled = _edited(enc.graph, add=_second_path(enc, params.edge_cycle))
    assert (doubled.n, doubled.degree("g0"), doubled.degree("g6")) == (36, 4, 4)
    with pytest.raises(MalformedEncodingError, match="found 2 hub-pair paths on 1 pairs"):
        decode_psi(doubled, params)
    conflicting = _edited(enc.graph, add=_second_path(enc, params.non_edge_cycle))
    with pytest.raises(MalformedEncodingError, match="conflicting paths for one hub pair"):
        decode_psi(conflicting, params)


def test_decode_rejects_a_missing_path() -> None:
    params = gadget_params(C3)
    enc = encode_phi(P3, params)
    markers = dict(enc.marker_cycles)
    gone = {v for p in enc.path_internals[0][2] for v in markers[p]}
    two_paths = induced_subgraph(enc.graph, [v for v in enc.graph.vertices if v not in gone])
    with pytest.raises(MalformedEncodingError, match="found 2 hub-pair paths on 2 pairs"):
        decode_psi(two_paths, params)


def test_decode_rejects_malformed_marker_cycles() -> None:
    params = gadget_params(C3)
    enc = encode_phi(K2, params).graph
    cases = {
        "'g0' lies on 2 marker cycles": _edited(enc, add=_cycle("g0", 4, "x")),
        "chain from 'g0' ends at 'g6', not a marker cycle": _edited(enc, add=[("g0", "x"), ("x", "g6")]),
        "length 7 at 'g0' matches no parameter": _edited(
            enc, add=[("g1", "x"), ("x", "g2")], drop=[("g1", "g2")]
        ),
        "mixed marker lengths on one path": _edited(
            enc, add=[("g15", "x"), ("x", "g16")], drop=[("g15", "g16")]
        ),
    }
    for message, malformed in cases.items():
        with pytest.raises(MalformedEncodingError, match=message):
            decode_psi(malformed, params)


def test_decode_rejects_anchor_free_graph_of_two_cycles() -> None:
    params = gadget_params(C3)
    hexagon = encode_phi(make_graph(["a"], []), params).graph
    triangles = _edited(hexagon, add=[("g0", "g2"), ("g3", "g5")], drop=[("g2", "g3"), ("g5", "g0")])
    with pytest.raises(MalformedEncodingError, match="anchor-free encoding is not one cycle"):
        decode_psi(triangles, params)


def test_decode_rejects_an_encoding_under_other_parameters() -> None:
    # C4's parameters read C3's hub cycles (6) as non-edge markers and its
    # non-edge markers (5) as edge markers; K3 + K1 has C3's cycle lengths
    # but 4 internal vertices per path.
    with pytest.raises(MalformedEncodingError, match="no hub anchors found"):
        decode_psi(encode_phi(TWO_K1, gadget_params(C3)).graph, gadget_params(cycle_graph(4)))
    with pytest.raises(MalformedEncodingError, match="path carries 3 internal vertices, expected 4"):
        decode_psi(encode_phi(K2, gadget_params(C3)).graph, gadget_params(K3_PLUS_K1))


def test_decode_rejects_malformed_paths() -> None:
    params = gadget_params(C3)
    enc = encode_phi(K2, params).graph
    cases = {
        "path through 'g12' does not continue uniquely": _edited(enc, drop=[("g12", "g13")]),
        "path returns to its own hub": _edited(enc, add=[("g14", "g0")], drop=[("g14", "g6")]),
    }
    for message, malformed in cases.items():
        with pytest.raises(MalformedEncodingError, match=message):
            decode_psi(malformed, params)


def test_decode_rejects_vertices_off_the_paths() -> None:
    params = gadget_params(C3)
    enc = encode_phi(K2, params).graph
    # two marker cycles whose anchors are joined, on no hub path
    stray_anchors = _edited(enc, add=[*_cycle("x", 4, "x"), *_cycle("y", 4, "y"), ("x", "y")])
    with pytest.raises(MalformedEncodingError, match="internal anchors not all used by paths"):
        decode_psi(stray_anchors, params)
    triangle = _edited(enc, add=_cycle("t", 3, "t"))
    with pytest.raises(MalformedEncodingError, match="vertices outside every marker cycle and path"):
        decode_psi(triangle, params)


def test_transport_psi_rejects_a_map_moving_the_lone_hub() -> None:
    # the encoding of K1 is one hub cycle, decoded to its first vertex
    params = gadget_params(C3)
    hexagon = encode_phi(make_graph(["a"], []), params).graph
    names = hexagon.vertices
    turn = VertexMap.from_dict({v: names[(i + 1) % len(names)] for i, v in enumerate(names)})
    with pytest.raises(NotIsomorphismError, match="hub 'g0' maps to non-hub 'g1'"):
        transport_iso_psi(hexagon, hexagon, turn, params)
