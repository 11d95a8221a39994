from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest
from brute_force import graph_classes

from gfree import (
    BadPartialError,
    BadSizeError,
    ConstantedGraph,
    DuplicateVertexError,
    EmptyGraphError,
    Graph,
    SelfLoopError,
    UnknownEndpointError,
    VertexMap,
    combine,
    complement,
    connected_components,
    cycle_graph,
    decompose,
    enumerate_extensions,
    find_induced_embedding,
    induced_subgraph,
    is_free,
    is_isomorphic,
    labeled_chain_sum,
    leaf_paths,
    make_graph,
    meet_path,
    path_graph,
    realize,
    relabel,
)
from gfree.textio import format_graph
from gfree.trees import node_at


def _first_embedding_oracle(
    pattern: Graph, host: Graph, partial: dict[str, str]
) -> VertexMap | None:
    """First induced embedding extending partial, trying the images of the
    free pattern vertices (in declared order) as permutations of the free
    host vertices in declared order."""
    free = [v for v in pattern.vertices if v not in partial]
    targets = [v for v in host.vertices if v not in partial.values()]
    for image in permutations(targets, len(free)):
        assign = {**partial, **dict(zip(free, image))}
        if all(
            host.has_edge(assign[u], assign[v]) == pattern.has_edge(u, v)
            for u, v in combinations(pattern.vertices, 2)
        ):
            return VertexMap.from_dict(assign)
    return None


def _random_graph(rng: random.Random, n: int, prefix: str) -> Graph:
    names = [f"{prefix}{i}" for i in rng.sample(range(n), n)]
    density = rng.random()
    return make_graph(names, [e for e in combinations(names, 2) if rng.random() < density])


def _random_pairs(seed: int, count: int):
    rng = random.Random(seed)
    for i in range(count):
        pattern = _random_graph(rng, rng.randint(1, 5), "p")
        host = _random_graph(rng, rng.randint(1, 8), "h")
        partial = {}
        if i % 2:
            partial = {rng.choice(pattern.vertices): rng.choice(host.vertices)}
        yield pattern, host, partial


def test_find_induced_embedding_is_first_in_declared_order() -> None:
    rng = random.Random(20261020)
    for pattern, host, partial in _random_pairs(20261018, 400):
        # Partials of two and three pairs too: about half taken from the
        # first embedding, when there is one, so they extend; the rest
        # drawn at random.
        k = min(rng.choice((2, 3)), pattern.n, host.n)
        drawn = _first_embedding_oracle(pattern, host, {}) if rng.random() < 0.5 else None
        if drawn is None:
            pins = dict(zip(rng.sample(pattern.vertices, k), rng.sample(host.vertices, k)))
        else:
            pins = {v: drawn[v] for v in rng.sample(pattern.vertices, k)}
        for fixed in (partial, pins):
            want = _first_embedding_oracle(pattern, host, fixed)
            assert find_induced_embedding(pattern, host, fixed) == want


def test_find_induced_embedding_existence_matches_networkx() -> None:
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def to_nx(g: Graph):
        out = nx.Graph()
        out.add_nodes_from(g.vertices)
        out.add_edges_from(g.edges)
        return out

    for pattern, host, _ in _random_pairs(20261019, 300):
        expected = GraphMatcher(to_nx(host), to_nx(pattern)).subgraph_is_isomorphic()
        assert (find_induced_embedding(pattern, host) is not None) == expected


def test_make_graph_basic() -> None:
    g = make_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    assert g.n == 4
    assert g.m == 3
    assert g.has_edge("a", "b")
    assert g.has_edge("b", "a")
    assert not g.has_edge("a", "c")
    assert set(g.neighbors("b")) == {"a", "c"}
    assert g.degree("a") == 1
    assert g.has_vertex("d")
    assert not g.has_vertex("z")


def test_make_graph_k1_and_k2() -> None:
    assert make_graph(["a"], []).n == 1
    k2 = make_graph(["a", "b"], [("a", "b")])
    assert (k2.n, k2.m) == (2, 1)


def test_make_graph_rejects_duplicates() -> None:
    with pytest.raises(DuplicateVertexError):
        make_graph(["a", "a"], [])


def test_make_graph_rejects_unknown_endpoint() -> None:
    with pytest.raises(UnknownEndpointError):
        make_graph(["a", "b"], [("a", "z")])


def test_make_graph_rejects_self_loop() -> None:
    with pytest.raises(SelfLoopError):
        make_graph(["a", "b"], [("a", "a")])


def test_graph_is_hashable_value() -> None:
    g = make_graph(["a", "b"], [("a", "b")])
    h = make_graph(["a", "b"], [("b", "a")])
    assert g == h
    assert hash(g) == hash(h)
    assert g.rows == (2, 1) and g.index == {"a": 0, "b": 1}  # index cached on g alone
    assert g == h and hash(g) == hash(h)
    assert g != (g.vertices, g.rows)
    with pytest.raises(AttributeError):
        g.vertices = ("a",)
    assert repr(make_graph(["a"], [])) == "Graph(vertices=('a',), rows=(0,))"


def test_edge_list_deterministic() -> None:
    g = make_graph(["c", "a", "b"], [("b", "c"), ("a", "c")])
    assert format_graph(g) == "3 2\nc\na\nb\nc a\nc b\n"


def test_complement_examples() -> None:
    k3 = cycle_graph(3)
    assert complement(k3).m == 0
    p4 = path_graph(4)
    assert is_isomorphic(complement(p4), p4) is not None
    c5 = cycle_graph(5)
    assert is_isomorphic(complement(c5), c5) is not None


def test_complement_involution_exhaustive() -> None:
    for n in range(1, 6):
        for g in graph_classes(n):
            assert complement(complement(g)) == g


def test_complement_involution_randomized() -> None:
    rng = random.Random(20260825)
    names = [f"v{i}" for i in range(9)]
    for _ in range(25):
        edges = [p for p in combinations(names, 2) if rng.random() < 0.4]
        g = make_graph(names, edges)
        assert complement(complement(g)) == g
        assert complement(g) == make_graph(
            names, [p for p in combinations(names, 2) if not g.has_edge(*p)]
        )


def test_combine_examples() -> None:
    k1a = make_graph(["a"], [])
    k1b = make_graph(["b"], [])
    assert combine(k1a, k1b, "disjoint").m == 0
    assert combine(k1a, k1b, "join").m == 1
    two = make_graph(["x", "y"], [])
    c4 = combine(two, two, "join")
    assert is_isomorphic(c4, cycle_graph(4)) is not None


def test_combine_resolves_name_collisions() -> None:
    g = make_graph(["a", "b"], [("a", "b")])
    out = combine(g, g, "disjoint")
    assert out.n == 4
    assert out.m == 2


def test_combine_rejects_bad_mode() -> None:
    k1 = make_graph(["a"], [])
    with pytest.raises(ValueError):
        combine(k1, k1, "meld")


def test_complement_swaps_disjoint_and_join() -> None:
    g = path_graph(3)
    h = cycle_graph(4)
    left = complement(combine(g, h, "disjoint"))
    right = combine(complement(g), complement(h), "join")
    assert is_isomorphic(left, right) is not None


def test_labeled_chain_sum_examples() -> None:
    k1 = make_graph(["v"], [])
    k2 = make_graph(["a", "b"], [("a", "b")])
    assert labeled_chain_sum([k1, k1, k1], [0, 0, 0]).m == 0
    assert labeled_chain_sum([k1, k1, k1], [1, 1, 1]).m == 3
    out = labeled_chain_sum([k2, k1], [1, 0])
    assert out.m == 3
    assert is_isomorphic(out, cycle_graph(3)) is not None


def test_labeled_chain_sum_label_scopes_all_later_parts() -> None:
    k1 = make_graph(["v"], [])
    out = labeled_chain_sum([k1, k1, k1], [1, 0, 0])
    assert sorted(out.edges) == [("p0.v", "p1.v"), ("p0.v", "p2.v")]


def test_labeled_chain_sum_matches_iterated_combine() -> None:
    parts = [path_graph(2), path_graph(3), cycle_graph(3)]
    all_zero = labeled_chain_sum(parts, [0, 0, 0])
    folded = combine(combine(parts[0], parts[1], "disjoint"), parts[2], "disjoint")
    assert is_isomorphic(all_zero, folded) is not None
    all_one = labeled_chain_sum(parts, [1, 1, 1])
    joined = combine(combine(parts[0], parts[1], "join"), parts[2], "join")
    assert is_isomorphic(all_one, joined) is not None


def test_labeled_chain_sum_length_mismatch() -> None:
    from gfree import LengthMismatchError

    with pytest.raises(LengthMismatchError):
        labeled_chain_sum([path_graph(2)], [0, 1])


def test_labeled_chain_sum_rejects_bad_label() -> None:
    with pytest.raises(ValueError):
        labeled_chain_sum([path_graph(2)], [2])


def test_path_and_cycle_graphs() -> None:
    assert path_graph(1).n == 1
    p4 = path_graph(4)
    assert (p4.n, p4.m) == (4, 3)
    assert p4.vertices == ("g0", "g1", "g2", "g3")
    assert is_isomorphic(cycle_graph(3), make_graph("abc", [("a", "b"), ("b", "c"), ("a", "c")]))
    c4 = cycle_graph(4)
    assert (c4.n, c4.m) == (4, 4)
    assert all(c4.degree(v) == 2 for v in c4.vertices)


def test_path_and_cycle_size_bounds() -> None:
    with pytest.raises(BadSizeError):
        path_graph(0)
    with pytest.raises(BadSizeError):
        cycle_graph(2)


def test_relabel_and_induced_subgraph() -> None:
    p3 = path_graph(3)
    q = relabel(p3, VertexMap.from_dict({"g0": "x", "g1": "y", "g2": "z"}))
    assert q.vertices == ("x", "y", "z")
    assert q.has_edge("x", "y") and q.has_edge("y", "z") and not q.has_edge("x", "z")
    sub = induced_subgraph(cycle_graph(4), ["g0", "g1", "g2"])
    assert is_isomorphic(sub, p3) is not None
    c4 = cycle_graph(4)
    assert induced_subgraph(c4, ["g3", "g1", "g0", "g2", "g1"]) is c4
    with pytest.raises(UnknownEndpointError, match="unknown vertex: 'zz'"):
        induced_subgraph(c4, ["g0", "zz"])


def test_connected_components() -> None:
    g = make_graph(["a", "b", "c", "d", "e"], [("a", "b"), ("d", "e")])
    comps = connected_components(g)
    assert [sorted(c) for c in comps] == [["a", "b"], ["c"], ["d", "e"]]


def test_find_induced_embedding_examples() -> None:
    p4 = path_graph(4)
    assert find_induced_embedding(p4, cycle_graph(5), VertexMap(())) is not None
    assert find_induced_embedding(p4, cycle_graph(4), VertexMap(())) is None
    k1 = make_graph(["a"], [])
    assert find_induced_embedding(k1, p4, VertexMap(())) is not None


def test_find_induced_embedding_respects_partial() -> None:
    p3 = path_graph(3)
    c4 = cycle_graph(4)
    pinned = VertexMap.from_dict({"g1": "g0"})
    found = find_induced_embedding(p3, c4, pinned)
    assert found is not None
    assert found.as_dict()["g1"] == "g0"
    k2 = make_graph(["a", "b"], [("a", "b")])
    blocked = VertexMap.from_dict({"a": "g0", "b": "g2"})
    assert find_induced_embedding(k2, c4, blocked) is None
    # P3 sits in P4, but not with its middle vertex on an end of degree 1.
    assert find_induced_embedding(p3, path_graph(4)) is not None
    assert find_induced_embedding(p3, path_graph(4), {"g1": "g0"}) is None


def test_find_induced_embedding_rejects_bad_partial() -> None:
    p3 = path_graph(3)
    with pytest.raises(BadPartialError):
        find_induced_embedding(p3, cycle_graph(4), VertexMap.from_dict({"zz": "g0"}))
    with pytest.raises(BadPartialError):
        find_induced_embedding(p3, cycle_graph(4), VertexMap.from_dict({"g0": "zz"}))
    with pytest.raises(BadPartialError, match="not injective"):
        find_induced_embedding(p3, cycle_graph(4), {"a": "x", "b": "x"})


def test_find_induced_embedding_agrees_with_subset_oracle() -> None:
    patterns = [path_graph(2), path_graph(3), path_graph(4), cycle_graph(3), cycle_graph(4)]
    hosts = list(graph_classes(5)) + [cycle_graph(6), path_graph(7)]
    for pattern in patterns:
        for host in hosts:
            got = find_induced_embedding(pattern, host, VertexMap(()))
            assert got == _first_embedding_oracle(pattern, host, {})


def test_find_induced_embedding_preserves_non_edges() -> None:
    two = make_graph(["a", "b"], [])
    found = find_induced_embedding(two, cycle_graph(4), VertexMap(()))
    assert found is not None
    img = found.as_dict()
    assert not cycle_graph(4).has_edge(img["a"], img["b"])


def test_is_free_examples() -> None:
    p4 = path_graph(4)
    assert is_free(cycle_graph(4), p4)
    assert not is_free(cycle_graph(5), p4)
    assert not is_free(p4, make_graph(["a"], []))


def test_is_free_rejects_empty_pattern() -> None:
    with pytest.raises(EmptyGraphError):
        is_free(path_graph(2), make_graph([], []))


def test_is_isomorphic_examples() -> None:
    assert is_isomorphic(cycle_graph(3), cycle_graph(3)) is not None
    assert is_isomorphic(path_graph(4), cycle_graph(4)) is None
    c5 = cycle_graph(5)
    assert is_isomorphic(c5, complement(c5)) is not None


def test_is_isomorphic_same_degree_sequence_but_different() -> None:
    c4 = cycle_graph(4)
    two_k2 = make_graph("abcd", [("a", "b"), ("c", "d")])
    assert is_isomorphic(c4, two_k2) is None


def test_is_isomorphic_returns_valid_witness() -> None:
    g = cycle_graph(4)
    h = relabel(g, VertexMap.from_dict({"g0": "p", "g1": "q", "g2": "r", "g3": "s"}))
    f = is_isomorphic(g, h)
    assert f is not None
    m = f.as_dict()
    for u, v in combinations(g.vertices, 2):
        assert g.has_edge(u, v) == h.has_edge(m[u], m[v])


def test_vertex_map_operations() -> None:
    f = VertexMap.from_dict({"a": "x", "b": "y"})
    g = VertexMap.from_dict({"x": "1", "y": "2"})
    assert g.after(f).as_dict() == {"a": "1", "b": "2"}
    assert f.inverse().as_dict() == {"x": "a", "y": "b"}
    assert f.restrict(["a"]).as_dict() == {"a": "x"}
    assert VertexMap.identity(["u", "v"]).as_dict() == {"u": "u", "v": "v"}
    assert f.domain == frozenset({"a", "b"})
    assert f.codomain == frozenset({"x", "y"})
    assert "a" in f and "x" not in f


def test_vertex_map_rejects_non_injective() -> None:
    with pytest.raises(BadPartialError):
        VertexMap.from_dict({"a": "x", "b": "x"})


# Row invariants: every constructor builds symmetric, loop-free rows inside
# n bits, and its edges equal the edge set computed here on name pairs,
# without reading any rows.
def _assert_valid_rows(g: Graph, expected_edges: set[tuple[str, str]]) -> None:
    n = len(g.vertices)
    assert len(g.rows) == n
    for i, row in enumerate(g.rows):
        assert 0 <= row < 1 << n and not row >> i & 1
        assert all(row >> j & 1 == g.rows[j] >> i & 1 for j in range(n))
    assert g.edges == expected_edges and g.m == len(expected_edges)


def _pair(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


def _random_spec(rng: random.Random) -> tuple[list[str], set[tuple[str, str]]]:
    """Names in a shuffled declared order, n 0-14, density 0.1-0.9."""
    n = rng.randint(0, 14)
    names = [f"v{i}" for i in rng.sample(range(40), n)]
    density = rng.uniform(0.1, 0.9)
    return names, {_pair(u, v) for u, v in combinations(names, 2) if rng.random() < density}


def _specs(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        names, edges = _random_spec(rng)
        # each edge once, in either orientation, in a shuffled order
        given = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]
        rng.shuffle(given)
        yield rng, names, edges, make_graph(names, given)


def test_rows_of_make_graph_complement_induced_and_relabel() -> None:
    for rng, names, edges, g in _specs(20261020, 200):
        _assert_valid_rows(g, edges)
        assert g.vertices == tuple(names)
        every = {_pair(u, v) for u, v in combinations(names, 2)}
        _assert_valid_rows(complement(g), every - edges)
        keep = set(rng.sample(names, rng.randint(0, len(names))))
        sub = induced_subgraph(g, keep)
        assert sub.vertices == tuple(v for v in names if v in keep)
        _assert_valid_rows(sub, {e for e in edges if e[0] in keep and e[1] in keep})
        new = {v: f"w{i}" for i, v in enumerate(rng.sample(names, len(names)))}
        renamed = relabel(g, new)
        assert renamed.vertices == tuple(new[v] for v in names)
        _assert_valid_rows(renamed, {_pair(new[u], new[v]) for u, v in edges})


def test_rows_of_labeled_chain_sum() -> None:
    specs = list(_specs(20261021, 120))
    rng = random.Random(20261022)
    for _ in range(60):
        chosen = rng.sample(specs, rng.randint(1, 4))
        labels = [rng.randint(0, 1) for _ in chosen]
        every = [v for _, names, _, _ in chosen for v in names]
        pre = [f"p{i}." if len(set(every)) != len(every) else "" for i in range(len(chosen))]
        blocks = [[p + v for v in names] for p, (_, names, _, _) in zip(pre, chosen)]
        edges = {_pair(p + u, p + v) for p, (_, _, es, _) in zip(pre, chosen) for u, v in es}
        for i, j in combinations(range(len(chosen)), 2):
            if labels[i]:
                edges |= {_pair(u, v) for u in blocks[i] for v in blocks[j]}
        out = labeled_chain_sum([g for *_, g in chosen], labels)
        assert out.vertices == tuple(v for block in blocks for v in block)
        _assert_valid_rows(out, edges)


def test_rows_of_realize_path_and_cycle() -> None:
    rng = random.Random(20261023)
    for _ in range(100):
        parts = [make_graph([f"v{i}"], []) for i in range(rng.randint(1, 14))]
        while len(parts) > 1:
            a = parts.pop(rng.randrange(len(parts)))
            b = parts.pop(rng.randrange(len(parts)))
            parts.append(combine(a, b, rng.choice(["disjoint", "join"])))
        tree = decompose(parts[0])
        paths = leaf_paths(tree)
        edges = {
            _pair(u, v)
            for u, v in combinations(paths, 2)
            if node_at(tree, meet_path(paths[u], paths[v])).label == 1
        }
        _assert_valid_rows(realize(tree), edges)
    for n in range(1, 15):
        names = [f"g{i}" for i in range(n)]
        _assert_valid_rows(path_graph(n), {_pair(names[i], names[i + 1]) for i in range(n - 1)})
        if n >= 3:
            _assert_valid_rows(
                cycle_graph(n), {_pair(names[i], names[(i + 1) % n]) for i in range(n)}
            )


def test_rows_of_extension_candidates() -> None:
    """Each candidate as make_graph builds it from the parent's names and
    edges plus the new vertex joined to a subset of them: the trace verdict
    on every mask equals is_free on that graph, and every kept graph has
    exactly its rows: those of the kept graph it was built from, which
    drops its last row and bit, plus its last row as the mask."""
    from gfree.extensions import _extension_tree, _free_masks, _pieces

    rng = random.Random(20261024)
    blocked = 0
    for forbidden in (path_graph(4), cycle_graph(3), cycle_graph(4), path_graph(5)):
        pieces = _pieces(forbidden)
        for _ in range(6):
            n = rng.randint(0, 3)
            names = [f"b{i}" for i in rng.sample(range(n), n)]
            base_g = make_graph(names, [e for e in combinations(names, 2) if rng.random() < 0.5])
            if not is_free(base_g, forbidden):
                continue
            base = ConstantedGraph(base_g, tuple(names[:1]))
            k = rng.randint(1, 3)
            exts = _extension_tree(base, forbidden, k)
            wrapped = [ConstantedGraph(g, base.constants) for g in exts]
            assert wrapped == enumerate_extensions(base, forbidden, k)
            built: dict[int, list[Graph]] = {}
            for p, parent in enumerate(exts):
                if parent.n == base_g.n + k:
                    continue
                new = str(parent.n - base_g.n)
                built[p] = []
                for mask in range(1 << parent.n):
                    fresh = [(new, v) for i, v in enumerate(parent.vertices) if mask >> i & 1]
                    built[p].append(make_graph(parent.vertices + (new,), [*parent.edges, *fresh]))
                free = [mask for mask, cand in enumerate(built[p]) if is_free(cand, forbidden)]
                assert _free_masks(parent, pieces) == free
                blocked += len(built[p]) - len(free)
            position = {g.rows: p for p, g in enumerate(exts)}
            for ext in exts[1:]:
                bit = 1 << ext.n - 1
                want = built[position[tuple(row & ~bit for row in ext.rows[:-1])]][ext.rows[-1]]
                assert ext == want
                _assert_valid_rows(ext, set(want.edges))
    assert blocked > 1000
