from __future__ import annotations

from collections import Counter
from itertools import permutations

import pytest
from brute_force import graph_classes

from gfree import (
    BadSizeError,
    CotreeNode,
    Inner,
    Leaf,
    NotCographError,
    NotIsomorphismError,
    NotOrderThreeError,
    Permutation,
    TooLargeError,
    VertexMap,
    automorphisms,
    check_no_z3,
    cograph_classes,
    combine,
    cotree_shapes,
    cycle_graph,
    decompose,
    make_graph,
    normalize,
    path_graph,
    realize,
)

# A graph whose automorphism group has order 3 needs at least 9 vertices.
# This one has 15 edges: the triangles a_i b_i c_i, the triangle b_0 b_1
# b_2, and c_i joined to b_{i+1}, which rules out every reflection.
Z3_GRAPH = make_graph(
    [f"{x}{i}" for x in "abc" for i in range(3)],
    [e for i in range(3) for e in (
        (f"a{i}", f"b{i}"), (f"a{i}", f"c{i}"), (f"b{i}", f"c{i}"),
        (f"b{i}", f"b{(i + 1) % 3}"), (f"c{i}", f"b{(i + 1) % 3}"),
    )],
)


def _rename_leaves(t: CotreeNode, mapping: dict[str, str]) -> CotreeNode:
    if isinstance(t, Leaf):
        return Leaf(mapping[t.name])
    return Inner(t.label, tuple(_rename_leaves(c, mapping) for c in t.children))


def _is_automorphism(g, p: Permutation) -> bool:
    m = p.as_dict()
    return all(g.has_edge(m[u], m[v]) == g.has_edge(u, v) for u in g.vertices for v in g.vertices if u != v)


def test_permutation_validation() -> None:
    swap = Permutation.from_dict({"a": "b", "b": "a"})
    assert repr(swap) == "Permutation(pairs=(('a', 'b'), ('b', 'a')))"
    assert swap == Permutation(swap.pairs) and swap != VertexMap(swap.pairs)
    with pytest.raises(NotIsomorphismError):
        Permutation.from_dict({"a": "b", "b": "b"})
    with pytest.raises(NotIsomorphismError):
        Permutation.from_dict({"a": "z"})


def test_permutation_algebra() -> None:
    f = Permutation.from_dict({"a": "b", "b": "c", "c": "a"})
    assert f.order() == 3
    assert f.inverse().after(f).is_identity
    assert f.after(f).after(f).is_identity
    assert Permutation.identity(["x", "y"]).is_identity
    assert f.cycles() == (("a", "b", "c"),)
    g = Permutation.from_dict({"a": "a", "b": "c", "c": "b"})
    assert g.cycles() == (("b", "c"),)
    assert g.order() == 2


def test_automorphism_counts() -> None:
    assert len(automorphisms(cycle_graph(3))) == 6
    assert len(automorphisms(path_graph(3))) == 2
    assert len(automorphisms(path_graph(4))) == 2
    assert len(automorphisms(cycle_graph(4))) == 8
    assert len(automorphisms(cycle_graph(5))) == 10
    assert len(automorphisms(make_graph(["a"], []))) == 1
    assert len(automorphisms(make_graph(["a", "b", "c"], []))) == 6


def test_automorphisms_against_permutation_filter() -> None:
    for n in range(1, 7):
        for g in graph_classes(n):
            brute = []
            for image in permutations(g.vertices):
                p = Permutation.from_dict(dict(zip(g.vertices, image)))
                if _is_automorphism(g, p):
                    brute.append(p.pairs)
            assert [p.pairs for p in automorphisms(g)] == brute


def test_automorphisms_are_valid_and_distinct() -> None:
    g = cycle_graph(4)
    autos = automorphisms(g)
    assert len({a.pairs for a in autos}) == len(autos)
    for a in autos:
        assert _is_automorphism(g, a)
    closure = {a.pairs for a in autos}
    for a in autos:
        for b in autos:
            assert a.after(b).pairs in closure


def test_automorphisms_size_guard() -> None:
    big = make_graph([str(i) for i in range(11)], [])
    with pytest.raises(TooLargeError):
        automorphisms(big)


def test_graph_automorphisms_extend_to_tree_automorphisms() -> None:
    for leaves in range(2, 8):
        for t in cotree_shapes(leaves):
            g = realize(t)
            reference = normalize(t)
            for sigma in automorphisms(g):
                renamed = _rename_leaves(t, sigma.as_dict())
                assert normalize(renamed) == reference


def test_order3_on_triangle() -> None:
    from gfree import order3_to_order2

    rot = Permutation.from_dict({"g0": "g1", "g1": "g2", "g2": "g0"})
    g = order3_to_order2(cycle_graph(3), rot)
    assert g.order() == 2
    assert g.cycles() == (("g0", "g1"),)


def test_order3_on_two_triangles() -> None:
    from gfree import order3_to_order2

    graph = combine(cycle_graph(3), cycle_graph(3), "disjoint")
    va, vb = graph.vertices[:3], graph.vertices[3:]
    f = Permutation.from_dict(
        {va[i]: va[(i + 1) % 3] for i in range(3)}
        | {vb[i]: vb[(i + 1) % 3] for i in range(3)}
    )
    g = order3_to_order2(graph, f)
    assert not g.is_identity
    assert g.after(g).is_identity
    assert _is_automorphism(graph, g)
    moved = {v for v, w in g.pairs if v != w}
    assert moved == set(va[:2])


def test_order3_fixes_apex_of_joined_k1() -> None:
    from gfree import order3_to_order2

    graph = combine(cycle_graph(3), make_graph(["apex"], []), "join")
    tri = [v for v in graph.vertices if v != "apex"]
    f = Permutation.from_dict({tri[i]: tri[(i + 1) % 3] for i in range(3)} | {"apex": "apex"})
    g = order3_to_order2(graph, f)
    assert g.as_dict()["apex"] == "apex"
    assert g.order() == 2
    assert _is_automorphism(graph, g)


def test_order3_rejects_wrong_order() -> None:
    from gfree import order3_to_order2

    k3 = cycle_graph(3)
    ident = Permutation.identity(k3.vertices)
    with pytest.raises(NotOrderThreeError):
        order3_to_order2(k3, ident)
    swap = Permutation.from_dict({"g0": "g1", "g1": "g0", "g2": "g2"})
    with pytest.raises(NotOrderThreeError):
        order3_to_order2(k3, swap)


def test_order3_rejects_non_automorphism() -> None:
    from gfree import order3_to_order2

    p4 = path_graph(4)
    fake = Permutation.from_dict({"g0": "g1", "g1": "g2", "g2": "g0", "g3": "g3"})
    with pytest.raises(NotIsomorphismError):
        order3_to_order2(p4, fake)


def test_order3_rejects_non_cograph() -> None:
    from gfree import order3_to_order2

    c6 = cycle_graph(6)
    rot2 = Permutation.from_dict({f"g{i}": f"g{(i + 2) % 6}" for i in range(6)})
    with pytest.raises(NotCographError):
        order3_to_order2(c6, rot2)


def test_order3_valid_on_all_small_cographs() -> None:
    from gfree import order3_to_order2

    found = 0
    for n in range(1, 7):
        for graph in cograph_classes(n):
            for f in automorphisms(graph):
                if f.order() != 3:
                    continue
                found += 1
                g = order3_to_order2(graph, f)
                assert not g.is_identity
                assert g.after(g).is_identity
                assert _is_automorphism(graph, g)
    assert found > 0


def test_check_no_z3_small() -> None:
    report = check_no_z3(4)
    assert report.ok
    assert report.offenders == ()
    assert dict(report.examined)[4] == 10
    assert report.total == 17


def test_automorphism_group_orders_of_cographs_up_to_7() -> None:
    orders = Counter(len(automorphisms(g)) for n in range(1, 8) for g in cograph_classes(n))
    assert sorted(orders.items()) == [
        (1, 1), (2, 12), (4, 40), (6, 10), (8, 46), (12, 52), (16, 26), (24, 26),
        (36, 8), (48, 36), (72, 6), (120, 6), (144, 6), (240, 6), (720, 4), (5040, 2),
    ]


def _sweep_one(monkeypatch, g):
    """check_no_z3(9) over a census that holds only g."""
    monkeypatch.setattr("gfree.census.cograph_classes", lambda n: [g] if n == g.n else [])
    return check_no_z3(9)


def test_check_no_z3_counts_past_3(monkeypatch) -> None:
    # C4 has 8 automorphisms and P3 has 2: a count that stopped at 3, or a
    # test other than "exactly 3", would flag one of them.
    for g, order in ((cycle_graph(4), 8), (path_graph(3), 2)):
        assert len(automorphisms(g)) == order
        report = _sweep_one(monkeypatch, g)
        assert report.ok and report.total == 1


def test_check_no_z3_flags_an_order_3_group(monkeypatch) -> None:
    assert Z3_GRAPH.m == 15
    assert len(automorphisms(Z3_GRAPH)) == 3
    report = _sweep_one(monkeypatch, Z3_GRAPH)
    assert report.offenders == (Z3_GRAPH,)
    assert not report.ok


def test_check_no_z3_trivial() -> None:
    report = check_no_z3(1)
    assert report.ok
    assert report.total == 1


def test_check_no_z3_size_guard() -> None:
    with pytest.raises(TooLargeError):
        check_no_z3(10)
    with pytest.raises(BadSizeError):
        check_no_z3(-1)
    assert check_no_z3(0).total == 0
