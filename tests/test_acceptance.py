from __future__ import annotations

import functools
import time
from itertools import combinations, permutations

from brute_force import (
    graph_classes,
    module_closure_oracle,
    module_from_meets,
    rooted_tree_classes,
)

from gfree import (
    ConstantedGraph,
    EmptyIndexSetError,
    LastLeafError,
    NotCographError,
    PlainTree,
    antichain_graph,
    antichain_params,
    automorphisms,
    canonical_code,
    check_no_z3,
    cograph_classes,
    cograph_induced_via_trees,
    cotree_shapes,
    cycle_formula_holds,
    cycle_graph,
    decode_psi,
    decompose,
    delete_vertex_cotree,
    encode_phi,
    find_induced_embedding,
    gadget_params,
    induced_subgraph,
    interpret_tree_from_graph,
    is_free,
    is_isomorphic,
    least_module,
    least_strong_module,
    make_graph,
    order3_to_order2,
    path_graph,
    realize,
    relabel,
    tree_lift,
    type_fragment,
)


RESULTS: list[str] = []


def _criterion(num: int, title: str):
    """Record one pass/fail line per criterion; conftest prints them at the end."""

    def wrap(fn):
        @functools.wraps(fn)
        def run() -> None:
            try:
                fn()
            except BaseException:
                RESULTS.append(f"FAIL criterion {num}: {title}")
                raise
            RESULTS.append(f"PASS criterion {num}: {title}")

        return run

    return wrap


def _unlabeled_count(n: int) -> int:
    """Orbit count of n-vertex graphs under vertex permutations, by brute force."""
    slots = list(combinations(range(n), 2))
    index = {e: i for i, e in enumerate(slots)}
    tables = [
        [index[tuple(sorted((p[u], p[v])))] for u, v in slots]
        for p in permutations(range(n))
    ]
    seen = bytearray(1 << len(slots))
    count = 0
    for mask in range(1 << len(slots)):
        if seen[mask]:
            continue
        count += 1
        for table in tables:
            img = 0
            rem = mask
            while rem:
                low = rem & -rem
                img |= 1 << table[low.bit_length() - 1]
                rem ^= low
            seen[img] = 1
    return count


@_criterion(1, "cotree round trip, all cotrees with at most 7 leaves")
def test_criterion_01_roundtrip() -> None:
    t0 = time.monotonic()
    shapes = [t for k in range(1, 8) for t in cotree_shapes(k)]
    assert len(shapes) == 287
    for t in shapes:
        g = realize(t)
        assert canonical_code(decompose(g)) == canonical_code(t)
        back = realize(decompose(g))
        assert set(back.vertices) == set(g.vertices) and back.edges == g.edges
    assert time.monotonic() - t0 < 120


@_criterion(2, "recognition agrees with the induced-P4 oracle on all graphs up to 6 vertices")
def test_criterion_02_recognition() -> None:
    assert _unlabeled_count(6) == 156
    assert len(graph_classes(6)) == 156
    p4 = path_graph(4)
    for n in range(1, 7):
        for g in graph_classes(n):
            try:
                decompose(g)
                recognized = True
            except NotCographError:
                recognized = False
            assert recognized == is_free(g, p4)


@_criterion(3, "module formulas match the closure oracles on all cographs up to 8 vertices")
def test_criterion_03_modules() -> None:
    t0 = time.monotonic()
    for n in range(2, 9):
        for g in cograph_classes(n):
            for u, v in combinations(g.vertices, 2):
                m = least_module(g, u, v)
                assert m.members == module_closure_oracle(g, u, v, strong=False).members
                assert m.members == module_from_meets(g, u, v)
                s = least_strong_module(g, u, v)
                assert s.members == module_closure_oracle(g, u, v, strong=True).members
    assert time.monotonic() - t0 < 300


@_criterion(4, "tree embedding matches brute-force induced search on cograph pairs up to 6")
def test_criterion_04_damaschke() -> None:
    cogs = [g for n in range(1, 7) for g in cograph_classes(n)]
    for g in cogs:
        for h in cogs:
            expect = find_induced_embedding(g, h) is not None
            assert cograph_induced_via_trees(g, h) == expect


@_criterion(5, "cotree vertex deletion matches decomposition of the deleted graph up to 7")
def test_criterion_05_deletion() -> None:
    k1 = decompose(make_graph(["a"], []))
    try:
        delete_vertex_cotree(k1, "a")
        raise AssertionError("deleting the only leaf must fail")
    except LastLeafError:
        pass
    for n in range(2, 8):
        for g in cograph_classes(n):
            t = decompose(g)
            for v in g.vertices:
                rest = induced_subgraph(g, [w for w in g.vertices if w != v])
                got = canonical_code(delete_vertex_cotree(t, v))
                assert got == canonical_code(decompose(rest))


@_criterion(6, "gadget encoding is free, decodes back, and reflects isomorphism")
def test_criterion_06_gadget() -> None:
    t0 = time.monotonic()
    assert _unlabeled_count(4) == 11
    assert len(graph_classes(4)) == 11
    forbidden = [
        cycle_graph(3),
        cycle_graph(4),
        cycle_graph(5),
        path_graph(5),
        make_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "c")]),
    ]
    classes = {n: graph_classes(n) for n in range(1, 5)}
    for forb in forbidden:
        params = gadget_params(forb)
        for n in range(1, 5):
            for h in classes[n]:
                enc = encode_phi(h, params)
                assert is_free(enc.deliverable, forb)
                assert is_isomorphic(decode_psi(enc.graph, params), h) is not None
        small = [g for n in range(1, 4) for g in classes[n]]
        encoded = [encode_phi(h, params).deliverable for h in small]
        for (h1, e1), (h2, e2) in combinations(zip(small, encoded), 2):
            assert is_isomorphic(h1, h2) is None
            assert is_isomorphic(e1, e2) is None
        for h, e in zip(small, encoded):
            copy = encode_phi(relabel(h, {v: v + "x" for v in h.vertices}), params)
            assert is_isomorphic(e, copy.deliverable) is not None
    assert time.monotonic() - t0 < 600


@_criterion(7, "triangle-free antichain with cycle formulas and type separation at k=9")
def test_criterion_07_antichain_types() -> None:
    c3 = cycle_graph(3)
    assert antichain_params(c3) == (False, 3)
    cycles = [cycle_graph(4 + i) for i in range(3)]
    for i, ci in enumerate(cycles):
        for j, cj in enumerate(cycles):
            if i != j:
                assert find_induced_embedding(ci, cj) is None
    subsets = [tuple(s) for r in range(4) for s in combinations(range(3), r)]
    anti = {}
    for idx in subsets:
        if idx:
            anti[idx] = antichain_graph(c3, idx)
        else:
            try:
                antichain_graph(c3, idx)
                raise AssertionError("empty index set must be rejected")
            except EmptyIndexSetError:
                anti[idx] = make_graph([], [])
    for idx, g in anti.items():
        assert is_free(g, c3) if g.n else True
        for i in range(3):
            assert cycle_formula_holds(g, i, 3) == (i in idx)
    fragments = {
        idx: frozenset(phi.render() for phi in type_fragment(ConstantedGraph(g, ()), c3, 9))
        for idx, g in anti.items()
    }
    assert len(set(fragments.values())) == len(subsets)


@_criterion(8, "no cograph up to 7 vertices has a plain order-3 symmetry group")
def test_criterion_08_no_z3() -> None:
    report = check_no_z3(7)
    assert report.ok
    assert report.offenders == ()
    assert report.total == 287
    assert dict(report.examined) == {1: 1, 2: 2, 3: 4, 4: 10, 5: 24, 6: 66, 7: 180}
    found = 0
    for n in range(1, 8):
        for g in cograph_classes(n):
            for f in automorphisms(g):
                if f.order() != 3:
                    continue
                inv = order3_to_order2(g, f)
                assert inv.order() == 2
                assert inv.domain == frozenset(g.vertices)
                for u, v in g.edges:
                    assert g.has_edge(inv[u], inv[v])
                found += 1
    assert found > 0


@_criterion(9, "graph-side tree interpretation matches decomposition up to 6 vertices")
def test_criterion_09_interpretation() -> None:
    for n in range(1, 7):
        for g in cograph_classes(n):
            got = canonical_code(interpret_tree_from_graph(g))
            assert got == canonical_code(decompose(g))


def _mirror(t: PlainTree) -> PlainTree:
    return PlainTree(tuple(_mirror(c) for c in reversed(t.children)))


@_criterion(10, "tree lift separates rooted trees with at most 5 nodes")
def test_criterion_10_tree_lift() -> None:
    trees = [t for n in range(1, 6) for t in rooted_tree_classes(n)]
    assert len(trees) == 17
    lifted = [realize(tree_lift(t, 2)) for t in trees]
    for (t1, g1), (t2, g2) in combinations(zip(trees, lifted), 2):
        assert t1 != t2
        assert is_isomorphic(g1, g2) is None
    for t, g in zip(trees, lifted):
        shuffled = realize(tree_lift(_mirror(t), 2))
        assert is_isomorphic(g, shuffled) is not None
