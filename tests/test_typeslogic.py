from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, product

import pytest
from brute_force import graph_classes

from gfree import (
    BadSizeError,
    BaseNotFreeError,
    ConstantedGraph,
    ExistentialFormula,
    Graph,
    NotAnExtensionError,
    UnknownConstantError,
    VertexMap,
    cycle_graph,
    enumerate_extensions,
    eval_existential,
    find_induced_embedding,
    induced_subgraph,
    is_free,
    is_isomorphic,
    make_graph,
    path_graph,
    phi_formula,
    relabel,
    type_fragment,
)
from gfree.typeslogic import _fixes_base, _signature_table, _signatures

P3 = path_graph(3)
C3 = cycle_graph(3)
K1_A = make_graph(["a"], [])
PAW = make_graph(["p", "q", "r", "s"], [("p", "q"), ("q", "r"), ("p", "r"), ("r", "s")])
EMPTY = ConstantedGraph(make_graph([], []), ())


def _fresh_named(n: int, edges) -> ConstantedGraph:
    return ConstantedGraph(make_graph([str(i) for i in range(n)], edges), ())


def _eval_product_oracle(phi: ExistentialFormula, target: ConstantedGraph) -> bool:
    """Check every assignment of target vertices to bound variables directly."""
    g = target.graph
    for assign in product(g.vertices, repeat=phi.bound_count):
        def val(t):
            return t if isinstance(t, str) else assign[t]

        if all(g.has_edge(val(a), val(b)) == pol for a, b, pol in phi.literals):
            return True
    return phi.bound_count == 0 and all(
        g.has_edge(a, b) == pol for a, b, pol in phi.literals
    )


def _reconstruct(phi: ExistentialFormula) -> Graph:
    names = list(phi.constants) + [f"x{i}" for i in range(phi.bound_count)]

    def nm(t):
        return t if isinstance(t, str) else f"x{t}"

    return make_graph(names, [(nm(a), nm(b)) for a, b, pol in phi.literals if pol])


def test_formula_validation() -> None:
    ExistentialFormula(1, ("a",), (("a", 0, True),))
    with pytest.raises(ValueError):
        ExistentialFormula(1, ("a",), (("a", 5, True),))
    with pytest.raises(ValueError):
        ExistentialFormula(0, ("a",), (("a", "b", True),))
    with pytest.raises(ValueError):
        ExistentialFormula(1, (), ((0, 0, True),))
    with pytest.raises(ValueError):
        ExistentialFormula(-1, (), ())
    with pytest.raises(ValueError):
        ExistentialFormula(2, (), ((True, 0, True),))
    with pytest.raises(ValueError):
        ExistentialFormula(0, ("a", "a"), ())


def test_constanted_graph_validation() -> None:
    from gfree import DuplicateVertexError, UnknownVertexError

    ConstantedGraph(P3, ("g0",))
    assert ConstantedGraph(P3) == ConstantedGraph(P3, ()) == ConstantedGraph(graph=P3)
    with pytest.raises(UnknownVertexError):
        ConstantedGraph(P3, ("zz",))
    with pytest.raises(DuplicateVertexError):
        ConstantedGraph(P3, ("g0", "g0"))


def test_render_format() -> None:
    phi = ExistentialFormula(2, ("a",), (("a", 0, True), ("a", 1, False), (0, 1, True)))
    assert phi.render() == "E x0 x1 . a-x0 & !(a-x1) & x0-x1"
    assert ExistentialFormula(0, (), ()).render() == "true"


def test_enumerate_extensions_k0_is_base() -> None:
    base = ConstantedGraph(K1_A, ("a",))
    assert enumerate_extensions(base, P3, 0) == [base]


def test_enumerate_extensions_k1_of_k1() -> None:
    base = ConstantedGraph(K1_A, ("a",))
    exts = enumerate_extensions(base, P3, 1)
    assert len(exts) == 3
    proper = [e for e in exts if e.graph.n == 2]
    assert len(proper) == 2
    assert sorted(e.graph.m for e in proper) == [0, 1]
    assert all(e.graph.vertices == ("a", "0") for e in proper)


def test_enumerate_extensions_k2_never_pendant_on_edge() -> None:
    k2 = make_graph(["a", "b"], [("a", "b")])
    base = ConstantedGraph(k2, ("a", "b"))
    for ext in enumerate_extensions(base, P3, 1):
        for fresh in set(ext.graph.vertices) - {"a", "b"}:
            adj = {u for u in ("a", "b") if ext.graph.has_edge(fresh, u)}
            assert len(adj) != 1


def test_enumerate_extensions_rejects_unfree_base() -> None:
    with pytest.raises(BaseNotFreeError):
        enumerate_extensions(ConstantedGraph(P3, ()), P3, 1)


def test_enumerate_extensions_pin_base_but_not_fresh() -> None:
    two = make_graph(["u", "v"], [])
    base = ConstantedGraph(two, ("u", "v"))
    exts = enumerate_extensions(base, P3, 1)
    assert len(exts) == 4
    pendants = [e for e in exts if e.graph.m == 1]
    assert {next(iter(e.graph.edges)) for e in pendants} == {("0", "u"), ("0", "v")}
    fresh_swap = enumerate_extensions(EMPTY, P3, 2)
    kinds = sorted(e.graph.m for e in fresh_swap if e.graph.n == 2)
    assert kinds == [0, 1]


def test_enumerate_extensions_matches_clique_partition_counts() -> None:
    def partitions(n: int, cap: int | None = None) -> int:
        if n == 0:
            return 1
        cap = n if cap is None else cap
        return sum(partitions(n - i, min(i, n - i)) for i in range(min(cap, n), 0, -1))

    for k in range(6):
        got = enumerate_extensions(EMPTY, P3, k)
        want = sum(partitions(j) for j in range(k + 1))
        assert len(got) == want


def test_enumerate_extensions_deterministic() -> None:
    base = ConstantedGraph(K1_A, ("a",))
    assert enumerate_extensions(base, C3, 2) == enumerate_extensions(base, C3, 2)


def test_phi_formula_k2_over_empty() -> None:
    ext = _fresh_named(2, [("0", "1")])
    assert phi_formula(ext, EMPTY).render() == "E x0 x1 . x0-x1"


def test_phi_formula_2k1_over_empty() -> None:
    ext = _fresh_named(2, [])
    assert phi_formula(ext, EMPTY).render() == "E x0 x1 . !(x0-x1)"


def test_phi_formula_p3_over_k1() -> None:
    base = ConstantedGraph(K1_A, ("a",))
    ext = ConstantedGraph(
        make_graph(["a", "0", "1"], [("a", "0"), ("0", "1")]), ("a",)
    )
    assert phi_formula(ext, base).render() == "E x0 x1 . a-x0 & !(a-x1) & x0-x1"


def test_phi_formula_rejects_non_extension() -> None:
    base = ConstantedGraph(K1_A, ("a",))
    with pytest.raises(NotAnExtensionError):
        phi_formula(ConstantedGraph(make_graph(["b", "0"], []), ()), base)
    k2_base = ConstantedGraph(make_graph(["a", "b"], [("a", "b")]), ("a", "b"))
    broken = ConstantedGraph(make_graph(["a", "b", "0"], []), ("a", "b"))
    with pytest.raises(NotAnExtensionError, match="disagrees with the base"):
        phi_formula(broken, k2_base)


def test_phi_formula_base_in_another_order() -> None:
    abc = ("a", "b", "c")
    p3_base = ConstantedGraph(make_graph(abc, [("a", "b"), ("b", "c")]), abc)
    shuffled = make_graph(["0", "c", "b", "a"], [("a", "b"), ("b", "c"), ("0", "a")])
    phi = phi_formula(ConstantedGraph(shuffled, abc), p3_base)
    assert phi.render() == "E x0 . a-x0 & !(b-x0) & !(c-x0)"
    wrong = make_graph(["0", "c", "b", "a"], [("a", "b"), ("a", "c")])
    with pytest.raises(NotAnExtensionError, match="disagrees with the base"):
        phi_formula(ConstantedGraph(wrong, abc), p3_base)


def test_eval_examples() -> None:
    phi_k2 = phi_formula(_fresh_named(2, [("0", "1")]), EMPTY)
    assert eval_existential(phi_k2, ConstantedGraph(P3, ()))
    phi_k3 = phi_formula(_fresh_named(3, [("0", "1"), ("1", "2"), ("0", "2")]), EMPTY)
    assert not eval_existential(phi_k3, ConstantedGraph(cycle_graph(4), ()))
    assert eval_existential(ExistentialFormula(0, (), ()), ConstantedGraph(K1_A, ()))


def test_eval_unknown_constant() -> None:
    phi = ExistentialFormula(0, ("zz",), ())
    with pytest.raises(UnknownConstantError):
        eval_existential(phi, ConstantedGraph(K1_A, ("a",)))


def test_eval_variables_may_coincide() -> None:
    phi_2k1 = phi_formula(_fresh_named(2, []), EMPTY)
    assert eval_existential(phi_2k1, ConstantedGraph(K1_A, ()))
    assert find_induced_embedding(make_graph(["u", "v"], []), K1_A, VertexMap(())) is None


def test_eval_matches_product_oracle() -> None:
    targets = [ConstantedGraph(g, ()) for g in graph_classes(4)]
    patterns = [
        _fresh_named(2, []),
        _fresh_named(2, [("0", "1")]),
        _fresh_named(3, [("0", "1"), ("1", "2")]),
        _fresh_named(3, [("0", "1"), ("1", "2"), ("0", "2")]),
        _fresh_named(4, [("0", "1"), ("2", "3")]),
    ]
    for ext in patterns:
        phi = phi_formula(ext, EMPTY)
        for target in targets:
            assert eval_existential(phi, target) == _eval_product_oracle(phi, target)


def _random_constanted(rng: random.Random, names: list[str], density: float) -> ConstantedGraph:
    edges = [(u, v) for u, v in combinations(names, 2) if rng.random() < density]
    constants = rng.sample(names, min(len(names), rng.randint(0, 2)))
    return ConstantedGraph(make_graph(names, edges), tuple(constants))


def _random_formula(rng: random.Random, constants: tuple[str, ...]) -> ExistentialFormula:
    """Up to three bound variables and up to six literals over them and the
    constants, so with two constants some literals are ground."""
    bound = rng.randint(0, 3)
    terms = list(range(bound)) + list(constants)
    literals = []
    if len(terms) >= 2:
        for _ in range(rng.randint(0, 6)):
            a, b = rng.sample(terms, 2)
            literals.append((a, b, rng.random() < 0.5))
    return ExistentialFormula(bound, constants, tuple(literals))


def test_eval_with_constants_matches_product_oracle() -> None:
    base = ConstantedGraph(K1_A, ("a",))
    exts = enumerate_extensions(base, P3, 2)
    targets = [
        ConstantedGraph(make_graph(["a", "p", "q"], [("a", "p")]), ("a",)),
        ConstantedGraph(make_graph(["a", "p", "q"], [("a", "p"), ("a", "q")]), ("a",)),
        ConstantedGraph(make_graph(["a"], []), ("a",)),
    ]
    for ext in exts:
        phi = phi_formula(ext, base)
        for target in targets:
            assert eval_existential(phi, target) == _eval_product_oracle(phi, target)
    rng = random.Random(17)
    ground = 0
    for _ in range(300):
        names = [f"t{i}" for i in range(rng.randint(1, 6))]
        rng.shuffle(names)
        target = _random_constanted(rng, names, rng.uniform(0.2, 0.8))
        for _ in range(5):
            phi = _random_formula(rng, target.constants)
            ground += any(isinstance(a, str) and isinstance(b, str) for a, b, _ in phi.literals)
            assert eval_existential(phi, target) == _eval_product_oracle(phi, target)
    assert ground > 50
    # The shape type_fragment builds: complete formulas over the variables
    # and constants, here with a literal of each sign on one pair of terms.
    rng = random.Random(29)
    both_signs = 0
    for _ in range(60):
        names = [f"t{i}" for i in range(rng.randint(1, 5))]
        target = _random_constanted(rng, names, rng.uniform(0.2, 0.8))
        bound = rng.randint(4, 5)
        terms = list(range(bound)) + list(target.constants)
        literals = [(a, b, rng.random() < 0.5) for a, b in combinations(terms, 2)]
        if rng.random() < 0.2:
            a, b, pos = rng.choice(literals)
            literals.append((a, b, not pos))
            both_signs += 1
        phi = ExistentialFormula(bound, target.constants, tuple(literals))
        assert eval_existential(phi, target) == _eval_product_oracle(phi, target)
    assert both_signs > 0


def test_eval_long_formula_is_not_recursive() -> None:
    """A positive chain of 1200 variables on K2: the search depth is the
    variable count, past the interpreter's default recursion limit."""
    count = 1200
    chain = ExistentialFormula(count, (), tuple((i, i + 1, True) for i in range(count - 1)))
    assert eval_existential(chain, ConstantedGraph(make_graph(["a", "b"], [("a", "b")]), ()))


def _extensions_keyless(
    base: ConstantedGraph, forbidden: Graph, k: int
) -> list[ConstantedGraph]:
    """enumerate_extensions without the key buckets: every candidate is
    checked against every graph kept so far at its level, by a total
    induced embedding that fixes each base vertex."""
    fixed = {v: v for v in base.graph.vertices}
    out, current = [base], [base.graph]
    for level in range(k):
        new, kept = str(level), []
        for g in current:
            for mask in range(1 << g.n):
                extra = [(new, g.vertices[i]) for i in range(g.n) if mask >> i & 1]
                cand = make_graph(g.vertices + (new,), list(g.edges) + extra)
                if is_free(cand, forbidden) and not any(
                    find_induced_embedding(cand, h, fixed) is not None for h in kept
                ):
                    kept.append(cand)
        out.extend(ConstantedGraph(g, base.constants) for g in kept)
        current = kept
    return out


def test_base_fixing_check_matches_pinned_embedding() -> None:
    """_fixes_base against a total induced embedding fixing each base
    vertex, on random pairs that share their base: shuffled copies, which
    are isomorphic, and independent graphs, most of which are not."""
    rng = random.Random(43)
    seen: Counter = Counter()
    for _ in range(600):
        pinned = rng.randint(0, 3)
        names = [f"v{i}" for i in range(pinned + rng.randint(1, 5))]
        density = rng.uniform(0.2, 0.8)
        pairs = list(combinations(names, 2))
        g = make_graph(names, [e for e in pairs if rng.random() < density])
        if rng.random() < 0.5:
            fresh = names[pinned:]
            pi = dict(zip(names, names[:pinned] + rng.sample(fresh, len(fresh))))
            h = make_graph(names, [(pi[u], pi[v]) for u, v in g.edges])
        else:
            base_edges = [e for e in g.edges if e[0] in names[:pinned] and e[1] in names[:pinned]]
            fresh_pairs = [e for e in pairs if e[1] in names[pinned:]]
            h = make_graph(names, base_edges + [e for e in fresh_pairs if rng.random() < density])
        table = _signature_table(_signatures(h.rows, pinned), pinned)
        got = _fixes_base(g.rows, _signatures(g.rows, pinned), h.rows, table, pinned)
        fixed = {v: v for v in names[:pinned]}
        want = find_induced_embedding(g, h, fixed) is not None
        assert got == want
        seen[pinned > 0, want] += 1
    assert min(seen[key] for key in product((False, True), repeat=2)) > 25


def test_enumerate_extensions_matches_keyless_dedup() -> None:
    """The keyless reference is quadratic in the graphs kept per level, so
    n + k stays at most 6.  K1 leaves nothing after removing a vertex, so
    every candidate holds it; C5 is larger than most candidates here."""
    k1 = make_graph(["f"], [])
    k2 = make_graph(["f", "g"], [("f", "g")])
    two_k1 = make_graph(["f", "g"], [])
    forbidden = [P3, C3, path_graph(4), cycle_graph(4), path_graph(5)]
    forbidden += [k1, k2, two_k1, PAW, cycle_graph(5)]
    rng = random.Random(23)
    for f in forbidden:
        cases = 0
        while cases < 12:
            n, k = rng.randint(0, 4), rng.randint(0, 3)
            base = _random_constanted(rng, ["a", "b", "c", "d"][:n], 0.5)
            if n + k > 6 or not is_free(base.graph, f):
                continue
            cases += 1
            assert enumerate_extensions(base, f, k) == _extensions_keyless(base, f, k)


def _digit_named(g: Graph) -> ConstantedGraph:
    f = VertexMap.from_dict({v: str(i) for i, v in enumerate(g.vertices)})
    return ConstantedGraph(relabel(g, f), ())


def test_embedding_implies_eval() -> None:
    pool = [g for n in range(1, 5) for g in graph_classes(n)]
    patterns = [_digit_named(g) for g in graph_classes(3)]
    for raw in patterns:
        phi = phi_formula(raw, EMPTY)
        for host in pool:
            embeds = find_induced_embedding(raw.graph, host, VertexMap(())) is not None
            if embeds:
                assert eval_existential(phi, ConstantedGraph(host, ()))


def test_eval_equals_embedding_for_twin_free_patterns() -> None:
    def has_false_twins(g: Graph) -> bool:
        return any(
            not g.has_edge(u, v) and set(g.neighbors(u)) == set(g.neighbors(v))
            for u, v in combinations(g.vertices, 2)
        )

    pool = [g for n in range(1, 5) for g in graph_classes(n)]
    patterns = [_digit_named(g) for g in graph_classes(3) + graph_classes(2)]
    for raw in patterns:
        if has_false_twins(raw.graph):
            continue
        phi = phi_formula(raw, EMPTY)
        for host in pool:
            embeds = find_induced_embedding(raw.graph, host, VertexMap(())) is not None
            assert eval_existential(phi, ConstantedGraph(host, ())) == embeds


def test_type_fragment_c4_example() -> None:
    frag = type_fragment(ConstantedGraph(cycle_graph(4), ()), C3, 4)
    shapes = [_reconstruct(phi) for phi in frag]
    assert any(is_isomorphic(s, cycle_graph(4)) is not None for s in shapes)
    assert all(is_isomorphic(s, cycle_graph(5)) is None for s in shapes)


def test_type_fragment_k1_k0() -> None:
    frag = type_fragment(ConstantedGraph(K1_A, ()), C3, 0)
    assert [phi.render() for phi in frag] == ["true"]


def test_type_fragment_monotone_under_induced_extension() -> None:
    small = ConstantedGraph(P3, ())
    big = ConstantedGraph(cycle_graph(4), ())
    for k in range(4):
        frag_small = set(type_fragment(small, C3, k))
        frag_big = set(type_fragment(big, C3, k))
        assert frag_small <= frag_big


def _type_fragment_full(
    target: ConstantedGraph, forbidden: Graph, k: int
) -> list[ExistentialFormula]:
    """type_fragment without pruning by parent: every extension's formula
    is evaluated."""
    base = ConstantedGraph(
        induced_subgraph(target.graph, target.constants), target.constants
    )
    return [
        phi
        for phi in (phi_formula(ext, base) for ext in enumerate_extensions(base, forbidden, k))
        if eval_existential(phi, target)
    ]


def test_type_fragment_matches_full_evaluation() -> None:
    """Targets larger than the base, which the CLI never builds: the
    constants are a random subset of the target's vertices."""
    forbidden = [P3, C3, path_graph(4), cycle_graph(4), PAW]
    rng = random.Random(31)
    cases = failed = 0
    while cases < 150:
        names = [f"t{i}" for i in range(rng.randint(1, 7))]
        rng.shuffle(names)
        density = rng.uniform(0.2, 0.8)
        edges = [(u, v) for u, v in combinations(names, 2) if rng.random() < density]
        constants = tuple(rng.sample(names, min(len(names), rng.randint(0, 3))))
        target = ConstantedGraph(make_graph(names, edges), constants)
        base = ConstantedGraph(induced_subgraph(target.graph, constants), constants)
        f, k = rng.choice(forbidden), rng.randint(0, 3)
        if not is_free(base.graph, f):
            continue
        cases += 1
        want = _type_fragment_full(target, f, k)
        assert type_fragment(target, f, k) == want
        failed += len(enumerate_extensions(base, f, k)) - len(want)
    assert failed > 1000


def test_type_fragment_calls_public_eval_once_per_evaluated_extension(monkeypatch) -> None:
    """type_fragment evaluates through the module's eval_existential, which
    the benchmark's tracer wraps by name: once for the base and once for
    every extension whose parent's formula holds."""
    from gfree import typeslogic

    calls: list[tuple[ExistentialFormula, bool]] = []

    def spy(phi: ExistentialFormula, target: ConstantedGraph) -> bool:
        calls.append((phi, eval_existential(phi, target)))
        return calls[-1][1]

    monkeypatch.setattr(typeslogic, "eval_existential", spy)
    target = ConstantedGraph(make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")]), ("a",))
    base = ConstantedGraph(induced_subgraph(target.graph, ("a",)), ("a",))
    frag = type_fragment(target, C3, 3)
    extensions = enumerate_extensions(base, C3, 3)
    evaluated = 0
    for ext in extensions:
        # the base's formula, "true", holds; a deeper extension's parent is
        # the extension without its last fresh vertex
        parent = induced_subgraph(ext.graph, ext.graph.vertices[:-1])
        evaluated += ext.graph.n <= 2 or eval_existential(
            phi_formula(ConstantedGraph(parent, ("a",)), base), target
        )
    assert len(extensions) > len(calls) == evaluated > len(frag) > 1
    assert frag == [phi for phi, ok in calls if ok]


def test_type_fragment_enumerates_once_for_targets_sharing_a_base() -> None:
    from gfree.typeslogic import _extension_tree

    _extension_tree.cache_clear()
    for target in (P3, cycle_graph(4)):  # the constants g0, g1 are adjacent in both
        type_fragment(ConstantedGraph(target, ("g0", "g1")), C3, 2)
    info = _extension_tree.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_type_fragment_negative_k() -> None:
    with pytest.raises(BadSizeError):
        enumerate_extensions(EMPTY, C3, -1)


def test_small_index_sets_have_distinct_fragments() -> None:
    from gfree import antichain_graph

    targets = {}
    for index_set in [frozenset({0}), frozenset({1}), frozenset({0, 1})]:
        targets[index_set] = ConstantedGraph(antichain_graph(C3, index_set), ())
    frags = {i: frozenset(type_fragment(t, C3, 6)) for i, t in targets.items()}
    for i, j in combinations(frags, 2):
        assert frags[i] != frags[j]
