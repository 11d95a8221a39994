from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest

from gfree import (
    BadSizeError,
    EmptyIndexSetError,
    ForbiddenInsideP4Error,
    LastLeafError,
    Leaf,
    UnknownVertexError,
    VertexMap,
    antichain_graph,
    antichain_params,
    canonical_code,
    cograph_classes,
    cograph_induced_via_trees,
    combine,
    cycle_formula_holds,
    cycle_graph,
    decompose,
    delete_vertex_cotree,
    find_induced_embedding,
    format_cotree,
    induced_subgraph,
    is_free,
    is_isomorphic,
    label_meet_embed,
    make_graph,
    max_induced_cycle,
    parse_cotree,
    path_graph,
    complement,
)
from gfree.embedding import TreeEmbedding
from gfree.trees import Inner, iter_nodes, meet_path

P3 = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
K3_PLUS_K1 = make_graph("abcd", [("a", "b"), ("b", "c"), ("a", "c")])


def test_label_meet_embed_examples() -> None:
    assert label_meet_embed(parse_cotree("(1 a b)"), parse_cotree("(1 x y z)")) is not None
    assert label_meet_embed(parse_cotree("(1 a b)"), parse_cotree("(0 x y)")) is None
    t = parse_cotree("(1 b (0 a c))")
    assert label_meet_embed(t, t) is not None


def test_label_meet_embed_witness_shape() -> None:
    emb = label_meet_embed(parse_cotree("(1 a b)"), parse_cotree("(1 x y z)"))
    assert emb is not None
    mapping = emb.as_dict()
    assert () in mapping
    assert len(mapping) == 3


def test_label_meet_embed_single_leaf() -> None:
    assert label_meet_embed(Leaf("a"), parse_cotree("(0 x y)")) is not None


def _is_ancestor(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    return len(p) <= len(q) and q[: len(p)] == p


def _subtree_counts(t) -> dict[tuple[int, ...], Counter]:
    """Per node path: how many leaves, 0-nodes and 1-nodes its subtree holds."""
    counts: dict[tuple[int, ...], Counter] = {}
    for path, node in sorted(iter_nodes(t), key=lambda pn: -len(pn[0])):
        c = Counter({node.label: 1})
        if isinstance(node, Inner):
            for i in range(len(node.children)):
                c.update(counts[path + (i,)])
        counts[path] = c
    return counts


def _recursive_label_meet_embed(source, target) -> TreeEmbedding | None:
    """The label/meet criterion searched directly on node paths: recursion
    over source nodes in preorder, target candidates in preorder, ancestry
    compared in both directions by path prefix and meet labels compared
    per leaf pair.  Apart from the traversal iter_nodes it shares no code
    with label_meet_embed, and it is the reference for its first witness."""
    s_nodes = list(iter_nodes(source))
    t_nodes = list(iter_nodes(target))
    s_counts = _subtree_counts(source)
    t_counts = _subtree_counts(target)
    s_label = {p: n.label for p, n in s_nodes}
    t_label = {p: n.label for p, n in t_nodes}
    assigned: dict = {}
    used: set = set()

    def fits(sp, tp) -> bool:
        if t_label[tp] != s_label[sp]:
            return False
        sc, tc = s_counts[sp], t_counts[tp]
        if any(tc[lab] < sc[lab] for lab in (0, 1, 2)):
            return False
        for qp, qt in assigned.items():
            if _is_ancestor(qp, sp) != _is_ancestor(qt, tp):
                return False
            if _is_ancestor(sp, qp) != _is_ancestor(tp, qt):
                return False
            if s_label[sp] == 2 and s_label[qp] == 2:
                if s_label[meet_path(sp, qp)] != t_label[meet_path(tp, qt)]:
                    return False
        return True

    def extend(i: int) -> bool:
        if i == len(s_nodes):
            return True
        sp = s_nodes[i][0]
        for tp, _ in t_nodes:
            if tp not in used and fits(sp, tp):
                assigned[sp] = tp
                used.add(tp)
                if extend(i + 1):
                    return True
                del assigned[sp]
                used.remove(tp)
        return False

    return TreeEmbedding(tuple(sorted(assigned.items()))) if extend(0) else None


def _random_cograph(rng: random.Random, n: int):
    parts = [make_graph([f"v{i}"], []) for i in range(n)]
    while len(parts) > 1:
        a = parts.pop(rng.randrange(len(parts)))
        b = parts.pop(rng.randrange(len(parts)))
        parts.append(combine(a, b, rng.choice(["disjoint", "join"])))
    return parts[0]


def test_label_meet_embed_matches_recursive_search_randomized() -> None:
    rng = random.Random(20261019)
    found = 0
    for _ in range(300):
        host = _random_cograph(rng, rng.randint(1, 12))
        if rng.random() < 0.5:
            keep = rng.sample(host.vertices, rng.randint(1, min(6, host.n)))
            pattern = induced_subgraph(host, keep)
        else:
            pattern = _random_cograph(rng, rng.randint(1, 6))
        source, target = decompose(pattern), decompose(host)
        got = label_meet_embed(source, target)
        assert got == _recursive_label_meet_embed(source, target)
        found += got is not None
    assert 150 < found < 300  # both verdicts are exercised


def test_cograph_induced_via_trees_matches_networkx() -> None:
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def to_nx(g):
        out = nx.Graph()
        out.add_nodes_from(g.vertices)
        out.add_edges_from(g.edges)
        return out

    rng = random.Random(20261020)
    found = 0
    for _ in range(200):
        g = _random_cograph(rng, rng.randint(1, 7))
        h = _random_cograph(rng, rng.randint(1, 14))
        expected = GraphMatcher(to_nx(h), to_nx(g)).subgraph_is_isomorphic()
        assert cograph_induced_via_trees(g, h) == expected
        found += expected
    assert 0 < found < 200  # both verdicts are exercised


def test_cograph_induced_examples() -> None:
    c4 = cycle_graph(4)
    assert cograph_induced_via_trees(P3, c4)
    assert not cograph_induced_via_trees(cycle_graph(3), c4)
    k1 = make_graph(["q"], [])
    assert cograph_induced_via_trees(k1, c4)
    assert cograph_induced_via_trees(k1, k1)


def test_damaschke_matches_brute_force_small() -> None:
    pool = [g for n in range(1, 6) for g in cograph_classes(n)]
    for g in pool:
        for h in pool:
            tree_answer = cograph_induced_via_trees(g, h)
            brute = find_induced_embedding(g, h, VertexMap(())) is not None
            assert tree_answer == brute


def test_delete_leaf_two_child_root() -> None:
    assert delete_vertex_cotree(parse_cotree("(1 a b)"), "b") == Leaf("a")


def test_delete_leaf_wide_parent() -> None:
    assert format_cotree(delete_vertex_cotree(parse_cotree("(1 a b c)"), "c")) == "(1 a b)"


def test_delete_leaf_splices_internal_sibling() -> None:
    t = parse_cotree("(1 (0 a (1 b c)) d)")
    assert format_cotree(delete_vertex_cotree(t, "a")) == "(1 b c d)"


def test_delete_leaf_errors() -> None:
    with pytest.raises(UnknownVertexError):
        delete_vertex_cotree(parse_cotree("(1 a b)"), "z")
    with pytest.raises(LastLeafError):
        delete_vertex_cotree(Leaf("a"), "a")


def test_deletion_matches_decompose_small() -> None:
    for n in range(2, 6):
        for g in cograph_classes(n):
            t = decompose(g)
            for v in g.vertices:
                left = canonical_code(delete_vertex_cotree(t, v))
                rest = [u for u in g.vertices if u != v]
                right = canonical_code(decompose(induced_subgraph(g, rest)))
                assert left == right


def test_max_induced_cycle() -> None:
    assert max_induced_cycle(cycle_graph(3)) == 3
    assert max_induced_cycle(cycle_graph(5)) == 5
    assert max_induced_cycle(K3_PLUS_K1) == 3
    assert max_induced_cycle(path_graph(4)) is None
    k4 = make_graph("abcd", [(u, v) for u, v in combinations("abcd", 2)])
    assert max_induced_cycle(k4) == 3


def test_antichain_params() -> None:
    assert antichain_params(cycle_graph(3)) == (False, 3)
    assert antichain_params(cycle_graph(4)) == (False, 4)
    assert antichain_params(cycle_graph(5)) == (False, 5)
    assert antichain_params(path_graph(5)) == (True, 4)
    assert antichain_params(K3_PLUS_K1) == (False, 3)


def test_antichain_params_rejects_p4_subgraphs() -> None:
    for g in [path_graph(4), path_graph(3), make_graph(["a"], []), make_graph("ab", [("a", "b")])]:
        with pytest.raises(ForbiddenInsideP4Error):
            antichain_params(g)


def test_antichain_graph_examples() -> None:
    c3 = cycle_graph(3)
    a = antichain_graph(c3, {0, 2})
    assert (a.n, a.m) == (10, 10)
    expected = combine(cycle_graph(4), cycle_graph(6), "disjoint")
    assert is_isomorphic(a, expected) is not None
    assert is_isomorphic(antichain_graph(c3, {0}), cycle_graph(4)) is not None
    b = antichain_graph(path_graph(5), {0})
    assert is_isomorphic(b, complement(cycle_graph(5))) is not None


def test_antichain_graph_errors() -> None:
    with pytest.raises(EmptyIndexSetError):
        antichain_graph(cycle_graph(3), set())
    with pytest.raises(BadSizeError):
        antichain_graph(cycle_graph(3), {-1})


def test_cycles_form_antichain() -> None:
    cycles = {i: cycle_graph(4 + i) for i in range(4)}
    for i, j in combinations(range(4), 2):
        assert is_free(cycles[i], cycles[j])
        assert is_free(cycles[j], cycles[i])


def test_antichain_members_are_forbidden_free() -> None:
    for forbidden in [cycle_graph(3), cycle_graph(4), K3_PLUS_K1]:
        for index_set in [{0}, {1}, {0, 2}]:
            assert is_free(antichain_graph(forbidden, index_set), forbidden)


def test_antichain_members_triangle_free() -> None:
    c3 = cycle_graph(3)
    for i in range(4):
        assert is_free(cycle_graph(4 + i), c3)


def test_cycle_formula_examples() -> None:
    g = combine(cycle_graph(4), cycle_graph(6), "disjoint")
    assert cycle_formula_holds(g, 0, 3, False)
    assert not cycle_formula_holds(g, 1, 3, False)
    assert not cycle_formula_holds(make_graph([], []), 2, 3, False)


def test_cycle_formula_guards() -> None:
    with pytest.raises(BadSizeError):
        cycle_formula_holds(cycle_graph(4), 0, 2, False)
    with pytest.raises(BadSizeError):
        cycle_formula_holds(cycle_graph(4), -1, 3, False)


def test_separation_plain_side() -> None:
    c3 = cycle_graph(3)
    _, m = antichain_params(c3)
    index_sets = [{0}, {1}, {0, 1}, {0, 2}, {1, 2}]
    for index_set in index_sets:
        a = antichain_graph(c3, index_set)
        for i in range(3):
            assert cycle_formula_holds(a, i, m, False) == (i in index_set)


def test_separation_complement_side() -> None:
    p5 = path_graph(5)
    complemented, m = antichain_params(p5)
    assert complemented
    for index_set in [{0}, {1}, {0, 1}]:
        b = antichain_graph(p5, index_set)
        for i in range(2):
            assert cycle_formula_holds(b, i, m, True) == (i in index_set)
