from __future__ import annotations

import random
from itertools import combinations

import pytest
from brute_force import (
    _module_masks,
    _strong_module_masks,
    module_closure_oracle,
    module_from_meets,
    rooted_tree_classes,
)

from gfree import (
    EmptyGraphError,
    Graph,
    Inner,
    InvalidCotreeError,
    Leaf,
    NotCographError,
    PlainTree,
    SameVertexError,
    TooLargeError,
    UnknownVertexError,
    VertexMap,
    canonical_code,
    cograph_classes,
    cograph_iso,
    combine,
    cotree_shapes,
    cycle_graph,
    decompose,
    ensure_valid,
    find_induced_embedding,
    format_cotree,
    induced_subgraph,
    interpret_tree_from_graph,
    is_isomorphic,
    leaf_names,
    least_module,
    least_strong_module,
    make_graph,
    normalize,
    parse_cotree,
    parse_plain_tree,
    path_graph,
    plain_tree_code,
    realize,
    relabel,
    tree_lift,
    validate_cotree,
)

P3 = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
K2 = make_graph(["a", "b"], [("a", "b")])
TWO_K2 = make_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])


# Oracle: the recursive split on string-tuple graphs that decompose used to
# run, with the components, complement and child ordering it relied on.
def _oracle_components(g: Graph) -> list[tuple[str, ...]]:
    seen: set[str] = set()
    out: list[tuple[str, ...]] = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for w in g.neighbors(v):
                    if w not in comp:
                        comp.add(w)
                        nxt.append(w)
            frontier = nxt
        seen.update(comp)
        out.append(tuple(v for v in g.vertices if v in comp))
    return out


def _oracle_complement(g: Graph) -> Graph:
    non_edges = [(u, v) for u, v in combinations(g.vertices, 2) if not g.has_edge(u, v)]
    return make_graph(g.vertices, non_edges)


def _oracle_code(node) -> bytes:
    if isinstance(node, Leaf):
        return b"2"
    kids = sorted((_oracle_code(c) for c in node.children), reverse=True)
    return str(node.label).encode("ascii") + b"(" + b"".join(kids) + b")"


def _oracle_min_leaf(node) -> str:
    if isinstance(node, Leaf):
        return node.name
    return min(_oracle_min_leaf(c) for c in node.children)


def _oracle_inner(label: int, children: list) -> Inner:
    kids = sorted(children, key=_oracle_min_leaf)
    kids.sort(key=_oracle_code, reverse=True)
    return Inner(label, tuple(kids))


def _oracle_decompose(g: Graph):
    if g.n == 1:
        return Leaf(g.vertices[0])
    comps = _oracle_components(g)
    if len(comps) > 1:
        return _oracle_inner(0, [_oracle_decompose(induced_subgraph(g, c)) for c in comps])
    cocomps = _oracle_components(_oracle_complement(g))
    if len(cocomps) > 1:
        return _oracle_inner(1, [_oracle_decompose(induced_subgraph(g, c)) for c in cocomps])
    p4 = path_graph(4)
    emb = find_induced_embedding(p4, g)
    witness = tuple(emb[v] for v in p4.vertices)
    raise NotCographError("not a cograph", witness)


def _random_cographs(count: int, seed: int) -> list[Graph]:
    """Cographs on 8-30 vertices: random joins and unions of single vertices,
    declared in a shuffled order."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        names = [f"v{i}" for i in range(rng.randint(8, 30))]
        parts = [make_graph([x], []) for x in names]
        while len(parts) > 1:
            a = parts.pop(rng.randrange(len(parts)))
            b = parts.pop(rng.randrange(len(parts)))
            parts.append(combine(a, b, rng.choice(["disjoint", "join"])))
        rng.shuffle(names)
        out.append(make_graph(names, parts[0].edges))
    return out


RANDOM_COGRAPHS = _random_cographs(40, 20261018)


def test_decompose_k2() -> None:
    assert format_cotree(decompose(K2)) == "(1 a b)"


def test_decompose_p3() -> None:
    assert format_cotree(decompose(P3)) == "(1 b (0 a c))"
    assert canonical_code(decompose(P3)) == b"1(20(22))"


def test_decompose_single_vertex() -> None:
    assert decompose(make_graph(["a"], [])) == Leaf("a")


def test_tree_nodes_are_frozen_values() -> None:
    leaf = Leaf("a")
    assert leaf == Leaf("a") == Leaf(name="a")
    assert hash(leaf) == hash(Leaf("a"))
    assert leaf != ("a",) and leaf != Leaf("b")
    assert repr(leaf) == "Leaf(name='a')"
    assert repr(Inner(1, (leaf,))) == "Inner(label=1, children=(Leaf(name='a'),))"
    with pytest.raises(AttributeError):
        leaf.name = "b"
    with pytest.raises(AttributeError):
        del leaf.name
    assert leaf.name == "a"
    assert PlainTree() == PlainTree(()) and PlainTree().children == ()
    ab = Inner(0, (leaf, Leaf("b")))
    assert {ab, Inner(0, (Leaf("a"), Leaf("b")))} == {ab}
    for args, kwargs in [((), {}), (("a", "b"), {}), (("a",), {"name": "a"}), ((), {"nam": "a"})]:
        with pytest.raises(TypeError):
            Leaf(*args, **kwargs)


def test_decompose_p4_witness() -> None:
    with pytest.raises(NotCographError) as exc:
        decompose(path_graph(4))
    assert exc.value.witness == ("g0", "g1", "g2", "g3")


def test_decompose_matches_recursive_oracle_randomized() -> None:
    rng = random.Random(4)
    for _ in range(3000):
        n = rng.randint(1, 14)
        names = rng.sample([f"x{i}" for i in range(20)], n)
        density = rng.uniform(0.1, 0.9)
        g = make_graph(names, [p for p in combinations(names, 2) if rng.random() < density])
        try:
            want = _oracle_decompose(g)
        except NotCographError as exc:
            with pytest.raises(NotCographError) as got:
                decompose(g)
            assert got.value.witness == exc.witness
        else:
            assert format_cotree(decompose(g)) == format_cotree(want)


def test_decompose_against_networkx() -> None:
    nx = pytest.importorskip("networkx")
    for seed in range(5):
        h = nx.relabel_nodes(nx.random_cograph(6, seed=seed), str)
        g = make_graph(list(h.nodes), list(h.edges))
        assert realize(decompose(g)).edges == g.edges
    rng = random.Random(11)
    for seed in range(20):
        h = nx.relabel_nodes(nx.random_cograph(4, seed=seed), str)
        a, b, c, d = rng.sample(list(h.nodes), 4)
        h.remove_edges_from(combinations((a, b, c, d), 2))
        h.add_edges_from([(a, b), (b, c), (c, d)])
        with pytest.raises(NotCographError) as exc:
            decompose(make_graph(list(h.nodes), list(h.edges)))
        w = exc.value.witness
        assert h.subgraph(w).number_of_edges() == 3
        assert all(h.has_edge(x, y) for x, y in zip(w, w[1:]))


def test_decompose_rejects_empty() -> None:
    with pytest.raises(EmptyGraphError):
        decompose(make_graph([], []))


def test_realize_examples() -> None:
    assert realize(Leaf("a")) == make_graph(["a"], [])
    t = parse_cotree("(1 (0 a b) (0 c d))")
    assert is_isomorphic(realize(t), cycle_graph(4)) is not None
    assert realize(parse_cotree("(0 a b c)")).m == 0


def test_realize_rejects_invalid() -> None:
    bad = parse_cotree("(1 (1 a b) c)", strict=False)
    with pytest.raises(InvalidCotreeError):
        realize(bad)


def test_validate_reports_alternation() -> None:
    rep = validate_cotree(parse_cotree("(1 (1 a b) c)", strict=False))
    assert not rep.ok
    assert any("parent label" in v.message for v in rep.violations)
    assert rep.violations[0].path == (0,)


def test_validate_reports_single_child() -> None:
    rep = validate_cotree(parse_cotree("(1 (0 a b))", strict=False))
    assert not rep.ok
    assert any("child" in v.message for v in rep.violations)


def test_validate_reports_a_repeated_leaf_and_a_bad_label() -> None:
    rep = validate_cotree(parse_cotree("(1 a a)", strict=False))
    assert [(v.path, v.message) for v in rep.violations] == [((1,), "duplicate leaf name 'a'")]
    rep = validate_cotree(parse_cotree("(3 a b)", strict=False))
    assert [(v.path, v.message) for v in rep.violations] == [((), "internal label must be 0 or 1, got 3")]


def test_validate_accepts_decomposition() -> None:
    assert validate_cotree(decompose(cycle_graph(4))).ok
    ensure_valid(decompose(cycle_graph(4)))


def test_canonical_code_invariance() -> None:
    a = parse_cotree("(1 a (0 b c))")
    b = parse_cotree("(1 (0 x y) z)")
    assert canonical_code(a) == canonical_code(b)


def test_canonical_code_distinguishes_labels() -> None:
    assert canonical_code(parse_cotree("(1 a b)")) != canonical_code(parse_cotree("(0 a b)"))


def test_canonical_code_c4_two_ways() -> None:
    two = make_graph(["x", "y"], [])
    joined = combine(two, two, "join")
    assert canonical_code(decompose(cycle_graph(4))) == canonical_code(decompose(joined))


def test_decompose_c4_shape() -> None:
    assert format_cotree(decompose(cycle_graph(4))) == "(1 (0 g0 g2) (0 g1 g3))"


def test_cograph_iso_examples() -> None:
    two = make_graph(["x", "y"], [])
    assert cograph_iso(cycle_graph(4), combine(two, two, "join"))
    assert not cograph_iso(cycle_graph(3), P3)
    assert cograph_iso(P3, P3)


def test_cograph_iso_rejects_p4() -> None:
    with pytest.raises(NotCographError):
        cograph_iso(path_graph(4), K2)


def test_cograph_iso_agrees_with_is_isomorphic() -> None:
    pool = [g for n in range(1, 8) for g in cograph_classes(n)]
    codes = [canonical_code(decompose(g)) for g in pool]
    degs = [tuple(sorted(g.degree(v) for v in g.vertices)) for g in pool]
    for i in range(len(pool)):
        for j in range(i, len(pool)):
            tree_answer = codes[i] == codes[j]
            if pool[i].n != pool[j].n or degs[i] != degs[j]:
                brute = False
            else:
                brute = is_isomorphic(pool[i], pool[j]) is not None
            assert tree_answer == brute


def test_roundtrip_small_exhaustive() -> None:
    for leaves in range(1, 6):
        for t in cotree_shapes(leaves):
            g = realize(t)
            assert canonical_code(decompose(g)) == canonical_code(t)
            assert is_isomorphic(realize(decompose(g)), g) is not None


def test_decompose_commutes_with_relabel() -> None:
    g = make_graph(["p", "q", "r", "s"], [("p", "q"), ("r", "s")])
    f = VertexMap.from_dict({"p": "1", "q": "2", "r": "3", "s": "4"})
    assert canonical_code(decompose(g)) == canonical_code(decompose(relabel(g, f)))


def test_least_module_examples() -> None:
    assert least_module(P3, "a", "c").members == frozenset({"a", "c"})
    assert least_module(P3, "a", "b").members == frozenset({"a", "b", "c"})
    assert least_module(K2, "a", "b").members == frozenset({"a", "b"})
    assert least_module(P3, "a", "c").kind == "least-module"


def test_least_strong_module_examples() -> None:
    assert least_strong_module(P3, "a", "c").members == frozenset({"a", "c"})
    assert least_strong_module(TWO_K2, "a", "c").members == frozenset({"a", "b", "c", "d"})
    assert least_strong_module(K2, "a", "b").members == frozenset({"a", "b"})
    assert least_strong_module(P3, "a", "c").kind == "least-strong-module"


def test_module_guards() -> None:
    with pytest.raises(SameVertexError):
        least_module(P3, "a", "a")
    with pytest.raises(UnknownVertexError):
        least_module(P3, "a", "z")
    with pytest.raises(NotCographError):
        least_module(path_graph(4), "g0", "g1")
    with pytest.raises(NotCographError):
        least_strong_module(path_graph(4), "g0", "g1")


def test_module_closure_oracle_examples() -> None:
    for u, v in combinations(P3.vertices, 2):
        assert module_closure_oracle(P3, u, v, strong=False).members == least_module(P3, u, v).members
    for u, v in combinations(TWO_K2.vertices, 2):
        assert (
            module_closure_oracle(TWO_K2, u, v, strong=True).members
            == least_strong_module(TWO_K2, u, v).members
        )
    assert module_closure_oracle(K2, "a", "b", strong=False).members == {"a", "b"}
    assert module_closure_oracle(K2, "a", "b", strong=True).members == {"a", "b"}


def test_module_closure_oracle_size_guard() -> None:
    big = make_graph([str(i) for i in range(13)], [])
    with pytest.raises(TooLargeError):
        module_closure_oracle(big, "0", "1", strong=True)


def test_module_enumeration_states_its_bound() -> None:
    # 2^13 subsets would enumerate quickly and return: only the bound raises.
    big = make_graph([str(i) for i in range(13)], [])
    for enumerate_modules in (_module_masks, _strong_module_masks):
        with pytest.raises(TooLargeError, match="limited to 12 vertices"):
            enumerate_modules(big)
        assert enumerate_modules.cache_info().maxsize is not None
    # A path on 12 vertices is prime: its modules are the singletons and V.
    assert len(_module_masks(path_graph(12))) == 13


def test_decompose_cache_is_bounded() -> None:
    for n in range(1, 12):  # eleven distinct graphs
        decompose(make_graph([f"v{i}" for i in range(n)], []))
    info = decompose.cache_info()
    assert info.maxsize == 8 and info.currsize <= 8


def test_module_formulas_match_oracles_small() -> None:
    small = [g for n in range(2, 7) for g in cograph_classes(n)]
    for g in small + RANDOM_COGRAPHS:
        for u, v in combinations(g.vertices, 2):
            assert least_module(g, u, v).members == module_closure_oracle(g, u, v, strong=False).members
            if g.n <= 6:
                assert (
                    least_strong_module(g, u, v).members
                    == module_closure_oracle(g, u, v, strong=True).members
                )


def test_least_module_matches_meet_characterization() -> None:
    for n in range(2, 6):
        for g in cograph_classes(n):
            for u, v in combinations(g.vertices, 2):
                assert least_module(g, u, v).members == module_from_meets(g, u, v)


def test_internal_nodes_are_least_strong_modules() -> None:
    small = [g for n in range(2, 7) for g in cograph_classes(n)]
    for g in small + RANDOM_COGRAPHS:
        stack = [decompose(g)]
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                continue
            u = sorted(leaf_names(node.children[0]))[0]
            v = sorted(leaf_names(node.children[1]))[0]
            assert least_strong_module(g, u, v).members == frozenset(leaf_names(node))
            stack.extend(node.children)


# Oracle: the pair-by-pair interpretation that interpret_tree_from_graph
# used to run, on frozensets, with a parent scan and a recursive build.
def _oracle_interpret(g: Graph):
    if g.n == 1:
        return Leaf(g.vertices[0])
    gen_pair: dict[frozenset[str], tuple[str, str]] = {}
    for u, v in combinations(g.vertices, 2):
        gen_pair.setdefault(least_strong_module(g, u, v).members, (u, v))
    nodes = [frozenset([x]) for x in g.vertices] + list(gen_pair)
    root = frozenset(g.vertices)
    children: dict[frozenset[str], list[frozenset[str]]] = {s: [] for s in nodes}
    for s in nodes:
        if s != root:
            children[min((t for t in nodes if s < t), key=len)].append(s)

    def build(s: frozenset[str]):
        if len(s) == 1:
            return Leaf(next(iter(s)))
        u, v = gen_pair[s]
        label = 1 if g.has_edge(u, v) else 0
        return Inner(label, tuple(build(c) for c in children[s]))

    return normalize(build(root))


def test_interpret_tree_matches_decompose_and_the_pairwise_oracle() -> None:
    small = [g for n in range(1, 7) for g in cograph_classes(n)]
    for g in small + RANDOM_COGRAPHS + _random_cographs(20, 7):
        got = interpret_tree_from_graph(g)
        assert got == decompose(g) == _oracle_interpret(g)


def test_interpret_tree_examples() -> None:
    assert format_cotree(interpret_tree_from_graph(K2)) == "(1 a b)"
    assert canonical_code(interpret_tree_from_graph(cycle_graph(4))) == canonical_code(
        decompose(cycle_graph(4))
    )
    assert canonical_code(interpret_tree_from_graph(P3)) == canonical_code(decompose(P3))


def test_interpret_tree_matches_decompose_small() -> None:
    for n in range(1, 6):
        for g in cograph_classes(n):
            assert canonical_code(interpret_tree_from_graph(g)) == canonical_code(decompose(g))


def test_interpret_tree_rejects_p4() -> None:
    with pytest.raises(NotCographError):
        interpret_tree_from_graph(path_graph(4))
    with pytest.raises(EmptyGraphError):
        interpret_tree_from_graph(make_graph([], []))


def test_tree_lift_single_node() -> None:
    assert format_cotree(tree_lift(parse_plain_tree("()"), 2)) == "(0 g0 g1)"


def test_tree_lift_one_child() -> None:
    assert format_cotree(tree_lift(parse_plain_tree("(())"), 2)) == "(0 g0 g1 (1 g2 g3))"


def test_tree_lift_alternates_by_depth() -> None:
    t = tree_lift(parse_plain_tree("((()))"), 2)
    assert format_cotree(t) == "(0 g0 g1 (1 g2 g3 (0 g4 g5)))"


def test_tree_lift_requires_k_at_least_two() -> None:
    from gfree import BadSizeError

    with pytest.raises(BadSizeError):
        tree_lift(parse_plain_tree("()"), 1)


def test_tree_lift_output_is_valid() -> None:
    for n in range(1, 5):
        for t in rooted_tree_classes(n):
            ensure_valid(tree_lift(t, 2))
            ensure_valid(tree_lift(t, 3))


def test_tree_lift_is_built_in_canonical_order() -> None:
    for n in range(1, 8):
        for t in rooted_tree_classes(n):
            for k in (2, 3):
                assert normalize(tree_lift(t, k)) == tree_lift(t, k)


def test_tree_lift_injective_on_small_trees() -> None:
    pool = [t for n in range(1, 5) for t in rooted_tree_classes(n)]
    for s, t in combinations(pool, 2):
        same_tree = plain_tree_code(s) == plain_tree_code(t)
        lifted_same = (
            is_isomorphic(realize(tree_lift(s, 2)), realize(tree_lift(t, 2))) is not None
        )
        assert same_tree == lifted_same


def test_normalize_is_idempotent() -> None:
    t = parse_cotree("(1 (0 c a) b)")
    assert normalize(normalize(t)) == normalize(t)
    assert canonical_code(normalize(t)) == canonical_code(t)
