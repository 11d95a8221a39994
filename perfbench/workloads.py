"""Seeded request decks, each answer known by construction.

A deck is a list of CLI requests.  Each carries a check that judges the
request's stdout and exit code with the benchmark's own code (model.py),
never with gfree.  Every seed builds the same slots (kind and size) so that
decks cost the same on every seed; what the seed picks within a slot is
limited where costs swing with the input's shape (see each deck).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import model as M

Check = Callable[[str, int], "str | None"]


@dataclass
class Request:
    kind: str
    argv: list[str]
    check: Check


class Deck:
    """Writes input files under a directory and collects requests."""

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        self.rng = random.Random(seed)
        self.requests: list[Request] = []
        self._files = itertools.count()

    def file(self, text: str, suffix: str) -> str:
        path = self.dir / f"in{next(self._files)}.{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def add(self, kind: str, argv: list[str], check: Check) -> None:
        self.requests.append(Request(kind, argv, check))

    def names(self, n: int, prefix: str = "v") -> list[str]:
        """n distinct vertex names in a random order."""
        out = [f"{prefix}{i}" for i in range(n)]
        self.rng.shuffle(out)
        return out


# ------------------------------------------------------------------ checks


def expect(code: int, check: Callable[[str], "str | None"] | None = None) -> Check:
    def run(out: str, got: int) -> str | None:
        if got != code:
            return f"exit code {got}, expected {code}"
        return check(out) if check else None

    return run


def exact(code: int, text: str) -> Check:
    return expect(code, lambda out: None if out == text else f"stdout {out[:60]!r}, expected {text[:60]!r}")


def p4_witness(vertices, edges) -> Check:
    def check(out: str) -> str | None:
        adj = M.adjacency(vertices, edges)
        head = "not a cograph; witness: "
        if not out.startswith(head) or not out.endswith("\n"):
            return f"unexpected stdout {out[:60]!r}"
        if not M.is_induced_path(adj, out[len(head) : -1].split(" ")):
            return "witness is not an induced P4"
        return None

    return expect(1, check)


def prints_cotree_of(vertices, edges) -> Check:
    return expect(0, lambda out: M.realizes(out.rstrip("\n"), vertices, edges))


def prints_graph(vertices, edges, same_order: bool = False) -> Check:
    def check(out: str) -> str | None:
        gv, ge = M.parse_graph_text(out)
        if (gv if same_order else sorted(gv)) != (vertices if same_order else sorted(vertices)):
            return "printed graph has the wrong vertices"
        return None if ge == set(edges) else "printed graph has the wrong edges"

    return expect(0, check)


def prints_isomorphism(g, h) -> Check:
    def check(out: str) -> str | None:
        lines = out.rstrip("\n").split("\n")
        if lines[0] != "isomorphic":
            return f"unexpected verdict {lines[0]!r}"
        mapping = dict(line.split(" -> ") for line in lines[1:])
        return None if M.is_isomorphism(g, h, mapping) else "witness is not an isomorphism"

    return expect(0, check)


# ---------------------------------------------------------------- cotree


def _plant_p4(rng: random.Random, vertices, edges):
    """Force an induced path a-b-c-d on four random vertices."""
    a, b, c, d = rng.sample(vertices, 4)
    edges = set(edges)
    for x, y in itertools.combinations((a, b, c, d), 2):
        edges.discard(M.edge(x, y))
    edges.update({M.edge(a, b), M.edge(b, c), M.edge(c, d)})
    return edges


def _break_cotree(rng: random.Random, t):
    """Plant violations: a repeated leaf, a one-child node, an unalternated label."""
    inner = [p for p, n in M.iter_nodes(t) if not isinstance(n, str) and p]
    p = rng.choice(inner)
    node = M.node_at(t, p)
    kind = rng.randrange(3)
    if kind == 0:
        new = (node[0], node[1] + (M.leaves(t)[0],))
    elif kind == 1:
        new = (node[0], (node,))
    else:
        new = (1 - node[0], node[1])

    def replace(sub, path):
        if not path:
            return new
        kids = list(sub[1])
        kids[path[0]] = replace(kids[path[0]], path[1:])
        return (sub[0], tuple(kids))

    return replace(t, p)


def prints_violations(t) -> Check:
    expected = M.violations(t)
    words = {"duplicate": "duplicate", "label": "label must be", "arity": "child(ren)",
             "alternation": "equals parent"}

    def check(out: str) -> str | None:
        lines = out.rstrip("\n").split("\n")
        if len(lines) != len(expected):
            return f"{len(lines)} violations printed, {len(expected)} planted"
        for line, (p, kind) in zip(lines, expected):
            where = "/" + "/".join(map(str, p)) if p else "/"
            if not line.startswith(f"violation at {where}: ") or words[kind] not in line:
                return f"violation line {line!r}, expected {kind} at {where}"
        return None

    return expect(1, check)


def cotree_deck(d: Deck) -> None:
    # Shapes come from a fixed generator and the seed only picks the vertex
    # names: decompose's cost swings 4x between random cotrees of one size,
    # which made p90 of this workload depend on the seed.
    rng = random.Random(0)
    for i, n in enumerate((60, 120, 200, 300, 400)):
        names = d.names(n)
        t = M.random_cotree(rng, names, 5, i % 2)
        edges = M.realize(t)
        graph = d.file(M.graph_text(names, edges), "graph")
        tree = d.file(M.cotree_text(t), "cotree")
        d.add("recognize", ["recognize", graph], exact(0, "cograph\n"))
        d.add("decompose", ["decompose", graph], prints_cotree_of(names, edges))
        d.add("realize", ["realize", tree], prints_graph(names, edges))
        d.add("validate", ["validate", tree], exact(0, "valid\n"))
        broken = _break_cotree(rng, t)
        d.add("validate", ["validate", d.file(M.cotree_text(broken), "cotree")], prints_violations(broken))
        leaf = rng.choice(names)
        rest = [v for v in names if v != leaf]
        d.add("delete-leaf", ["delete-leaf", tree, leaf],
              prints_cotree_of(rest, {e for e in edges if leaf not in e}))
    # planted non-cographs: the P4 search cost grows fast and erratically with n
    for i, n in enumerate((40, 60, 80, 100)):
        names = d.names(n)
        bad = _plant_p4(rng, names, M.realize(M.random_cotree(rng, names, 5, i % 2)))
        bad_file = d.file(M.graph_text(names, bad), "graph")
        d.add("recognize", ["recognize", bad_file], p4_witness(names, bad))
        d.add("decompose", ["decompose", bad_file], p4_witness(names, bad))
    for n in (40, 80, 120):
        names = d.names(n)
        t = M.random_cotree(rng, names, 4, rng.randrange(2))
        graph = d.file(M.graph_text(names, M.realize(t)), "graph")
        u, v = rng.sample(names, 2)
        module, strong = M.least_modules(t, u, v)
        d.add("module", ["module", graph, u, v], exact(0, " ".join(sorted(module)) + "\n"))
        d.add("strong-module", ["strong-module", graph, u, v], exact(0, " ".join(sorted(strong)) + "\n"))
    for depth in (100, 150):  # decompose's cost grows with cotree depth
        names = d.names(depth * 3 // 2)
        t = M.caterpillar(rng, names, depth, rng.randrange(2))
        edges = M.realize(t)
        graph = d.file(M.graph_text(names, edges), "graph")
        tree = d.file(M.cotree_text(t), "cotree")
        d.add("decompose", ["decompose", graph], prints_cotree_of(names, edges))
        d.add("realize", ["realize", tree], prints_graph(names, edges))
        leaf = rng.choice(names)
        rest = [v for v in names if v != leaf]
        d.add("delete-leaf", ["delete-leaf", tree, leaf],
              prints_cotree_of(rest, {e for e in edges if leaf not in e}))
    for n in (16, 24):
        names = d.names(n)
        t = M.random_cotree(rng, names, 4, rng.randrange(2))
        edges = M.realize(t)
        graph = d.file(M.graph_text(names, edges), "graph")
        d.add("interpret-tree", ["interpret-tree", graph], prints_cotree_of(names, edges))
    # embed: a renamed, reshuffled induced subgraph of the host embeds; a
    # clique (or independent set) larger than any in the host does not.
    # The search can take minutes from 10 -> 24 (and 6 -> 16 when failing),
    # so sizes stay below that.
    for pn, hn in ((6, 16), (8, 16), (8, 20)):
        host_names = d.names(hn)
        host_edges = M.realize(M.random_cotree(rng, host_names, 4, rng.randrange(2)))
        keep = set(rng.sample(host_names, pn))
        pv, pe = M.relabel_shuffled(rng, list(keep), {e for e in host_edges if e <= keep}, "p")
        d.add("embed", ["embed", d.file(M.graph_text(pv, pe), "graph"),
                        d.file(M.graph_text(host_names, host_edges), "graph")], exact(0, "embeds\n"))
    for pn, hn in ((5, 12), (5, 16)):
        host_names = d.names(hn)
        for _ in range(1000):
            host = M.random_cotree(rng, host_names, 4, rng.randrange(2))
            omega, alpha = M.clique_number(host), M.independence_number(host)
            if min(omega, alpha) < pn:
                break
        else:
            raise RuntimeError("no host with a small clique or independence number")
        pat_names = d.names(pn, "p")
        r = min(omega, alpha) + 1
        label = 1 if omega <= alpha else 0
        core = (label, tuple(pat_names[:r]))
        pat = core if r == pn else (1 - label, (core, *pat_names[r:]))
        d.add("embed", ["embed", d.file(M.graph_text(pat_names, M.realize(pat)), "graph"),
                        d.file(M.graph_text(host_names, M.realize(host)), "graph")],
              exact(1, "does not embed\n"))
    for nodes in (40, 120, 250):
        plain = M.random_plain_tree(rng, nodes)
        k = rng.choice((2, 3))
        shape = M.lift_shape(plain, k)

        def lifted(out: str, shape=shape, leaves_n=nodes * k) -> str | None:
            t = M.parse_cotree_text(out.rstrip("\n"))
            if M.violations(t):
                return "lifted cotree is not valid"
            if sorted(M.leaves(t)) != sorted(f"g{i}" for i in range(leaves_n)):
                return "lifted cotree has the wrong leaves"
            return None if M.shape_code(t) == shape else "lifted cotree has the wrong shape"

        d.add("tree-lift", ["tree-lift", d.file(M.plain_tree_text(plain), "tree"), "-k", str(k)],
              expect(0, lifted))


# ---------------------------------------------------------------- gadget


FORBIDDEN = {
    "C3": M.cycle(["a", "b", "c"]),
    "C4": M.cycle(["a", "b", "c", "d"]),
    "C5": M.cycle(["a", "b", "c", "d", "e"]),
    "P5": M.path(["a", "b", "c", "d", "e"]),
    "pawK1": (["a", "b", "c", "d", "e"],
              {M.edge("a", "b"), M.edge("b", "c"), M.edge("a", "c"), M.edge("c", "d")}),
}


def gadget_deck(d: Deck) -> None:
    rng = d.rng
    for fname, F in FORBIDDEN.items():
        f_file = d.file(M.graph_text(*F), "graph")
        complemented, m = M.gadget_params(*F)
        # Inputs have half of all pairs as edges, so each slot's encoding has
        # the same size on every seed.
        for n in (2, 3, 5):
            H = M.random_graph(rng, d.names(n, "h"), n * (n - 1) // 4)
            h_file = d.file(M.graph_text(*H), "graph")
            V, E, hubs = M.encoding(*H, *F)
            enc_file = d.file(M.graph_text(V, E), "graph")
            if n <= 3:
                # freeness of the deliverable: the base check of types is the
                # CLI's only route to is_free; P5 at n = 3 takes over a second
                d.add("types-free", ["types", "--base", enc_file, "--forbidden", f_file, "-k", "0"],
                      exact(0, "true\n"))
            if n == 2:
                # iso of encodings: a shuffled, renamed copy is isomorphic (from
                # n = 3 some copies take minutes) ...
                copy = M.relabel_shuffled(rng, *H, "s")
                W, F2, _ = M.encoding(*copy, *F)
                d.add("iso", ["iso", enc_file, d.file(M.graph_text(W, F2), "graph")],
                      prints_isomorphism((V, E), (W, F2)))
                # ... and one edge more or less changes the encoding's vertex count
                other = (H[0], H[1] ^ {M.edge(*H[0][:2])})
                W, F2, _ = M.encoding(*other, *F)
                if len(W) == len(V):
                    raise RuntimeError("toggling an edge kept the encoding's size")
                d.add("iso", ["iso", enc_file, d.file(M.graph_text(W, F2), "graph")],
                      exact(1, "not isomorphic\n"))
                continue
            sidecar = str(d.dir / f"hubs{len(d.requests)}.txt")
            hub_lines = "".join(f"hub {v} {h}\n" for v, h in zip(H[0], hubs))

            def encoded(out: str, V=V, E=E, sidecar=sidecar, hub_lines=hub_lines) -> str | None:
                gv, ge = M.parse_graph_text(out)
                if gv != V or ge != E:
                    return "encoding differs from the construction"
                if Path(sidecar).read_text(encoding="utf-8") != hub_lines:
                    return "hub sidecar differs from the construction"
                return None

            d.add("encode", ["encode", "--forbidden", f_file, "--input", h_file, "--sidecar", sidecar],
                  expect(0, encoded))
            # the decoded graph lives on the hubs, in input order
            to_hub = dict(zip(H[0], hubs))
            decoded = (hubs, {M.edge(to_hub[a], to_hub[b]) for a, b in map(tuple, H[1])})
            d.add("decode", ["decode", "--forbidden", f_file, "--input", enc_file],
                  prints_graph(*decoded, same_order=True))

            def roundtrip(out: str, H=H, decoded=decoded) -> str | None:
                doc = json.loads(out)
                if doc["verdict"] != "roundtrip ok":
                    return f"verdict {doc['verdict']!r}"
                return None if M.is_isomorphism(H, decoded, doc["witness"]) else "witness is not an isomorphism"

            d.add("roundtrip", ["roundtrip", "--json", "--forbidden", f_file, h_file], expect(0, roundtrip))
            d.add("recognize", ["recognize", enc_file], p4_witness(V, E))
        indices = sorted(rng.sample(range(4), rng.randint(1, 3)))
        want = sorted(m + 1 + i for i in indices)

        def antichain(out: str, want=want, complemented=complemented) -> str | None:
            gv, ge = M.parse_graph_text(out)
            if complemented:
                ge = M.complement_edges(gv, ge)
            return None if M.cycle_lengths(gv, ge) == want else "not the expected cycle family"

        d.add("antichain", ["antichain", "--forbidden", f_file, *map(str, indices)], expect(0, antichain))


# ----------------------------------------------------------------- types


TYPE_FORBIDDEN = {k: FORBIDDEN[k] for k in ("C3", "C4", "P5")}
TYPE_FORBIDDEN["paw"] = (["a", "b", "c", "d"],
                         {M.edge("a", "b"), M.edge("b", "c"), M.edge("a", "c"), M.edge("c", "d")})

# cograph counts for n = 1..9 (OEIS A000084)
COGRAPHS = (1, 2, 4, 10, 24, 66, 180, 522, 1532)


def formulas_hold(vertices, edges) -> Check:
    def check(out: str) -> str | None:
        lines = out.rstrip("\n").split("\n")
        if len(set(lines)) != len(lines):
            return "a formula is printed twice"
        for line in lines:
            if not M.formula_holds(line, vertices, edges):
                return f"formula does not hold in the base: {line[:60]!r}"
        return None

    return expect(0, check)


def prints_automorphisms(vertices, edges, count: int) -> Check:
    def check(out: str) -> str | None:
        lines = out.rstrip("\n").split("\n")
        if lines[0] != f"count {count}" or len(lines) != count + 1 or len(set(lines)) != len(lines):
            return f"printed {lines[0]!r} with {len(lines) - 1} maps, expected {count} distinct"
        for line in lines[1:]:
            mapping = {v: v for v in vertices}
            if line != "id":
                for cyc in line[1:-1].split(")("):
                    c = cyc.split(" ")
                    mapping.update(zip(c, c[1:] + c[:1]))
            if not M.is_isomorphism((vertices, edges), (vertices, edges), mapping):
                return f"{line!r} is not an automorphism"
        return None

    return expect(0, check)


# (base shape, k) per forbidden graph, each F-free and under a second: the
# extension count explodes with base size and k (C4 base with F = C3 at k = 4
# takes 6 s), so the shapes are fixed and the seed picks names and order.
TYPE_CASES = {
    "C3": (("P4", 2), ("C5", 2), ("P3", 3), ("C4", 3), ("E2", 4), ("P2", 4)),
    "C4": (("P4", 2), ("K3", 2), ("P3", 3), ("K3", 3), ("P2", 4), ("K1", 4)),
    "P5": (("P4", 2), ("C4", 2), ("P3", 3), ("K3", 3), ("P2", 4), ("K1", 4)),
    "paw": (("P4", 2), ("C4", 2), ("P3", 3), ("P4", 3), ("P2", 4), ("E2", 4)),
}


def base_shape(d: Deck, shape: str):
    n = int(shape[1])
    names = d.names(n, "b")
    g = {"P": M.path, "C": M.cycle, "K": M.clique, "E": lambda vs: (vs, set())}[shape[0]](names)
    vertices = list(g[0])
    d.rng.shuffle(vertices)
    return vertices, g[1]


def types_deck(d: Deck) -> None:
    rng = d.rng
    for fname, F in TYPE_FORBIDDEN.items():
        f_file = d.file(M.graph_text(*F), "graph")
        for shape, k in TYPE_CASES[fname]:
            base = base_shape(d, shape)
            if M.contains_induced(F, base):
                raise RuntimeError(f"base {shape} is not {fname}-free")
            d.add("types", ["types", "--base", d.file(M.graph_text(*base), "graph"),
                            "--forbidden", f_file, "-k", str(k)], formulas_hold(*base))
        # a base holding a planted copy of F is refused as input
        n = len(F[0]) + 1
        host = M.random_graph(rng, d.names(n, "b"), n * (n - 1) // 4)
        spot = dict(zip(F[0], host[0]))
        bad = (host[0], {e for e in host[1] if not e <= set(spot.values())}
               | {M.edge(spot[a], spot[b]) for a, b in map(tuple, F[1])})
        d.add("types", ["types", "--base", d.file(M.graph_text(*bad), "graph"),
                        "--forbidden", f_file, "-k", "2"],
              exact(2, "error: base graph contains the forbidden graph\n"))
    # aut lists every automorphism, so keep the groups small
    for n in (5, 6, 6, 7, 7, 8, 8, 8, 9, 9):
        for _ in range(1000):
            t = M.random_cotree(rng, d.names(n, "a"), 4, rng.randrange(2))
            count = M.aut_count(t)
            if count <= 48:
                break
        vertices = M.leaves(t)
        rng.shuffle(vertices)
        edges = M.realize(t)
        d.add("aut", ["aut", d.file(M.graph_text(vertices, edges), "graph")],
              prints_automorphisms(vertices, edges, count))
    # no-z3 --max-n 8 takes over 4 s, more than a tenth of a run
    for max_n in (6, 7):
        lines = [f"n={n}: {c} cograph(s) examined" for n, c in zip(range(1, max_n + 1), COGRAPHS)]
        d.add("no-z3", ["no-z3", "--max-n", str(max_n)],
              exact(0, "\n".join(lines) + "\nno order-3 automorphism group found\n"))


def deep_deck(d: Deck) -> None:
    """Inputs deep enough to exceed the interpreter's recursion limit in
    gfree; not in BENCHMARK.json, because today every one of them fails."""
    rng = d.rng
    for depth in (600, 700):
        names = d.names(depth * 3 // 2)
        t = M.caterpillar(rng, names, depth, rng.randrange(2))
        edges = M.realize(t)
        tree = d.file(M.cotree_text(t), "cotree")
        d.add("realize", ["realize", tree], prints_graph(names, edges))
        leaf = M.leaves(t)[-1]
        rest = [v for v in names if v != leaf]
        d.add("delete-leaf", ["delete-leaf", tree, leaf],
              prints_cotree_of(rest, {e for e in edges if leaf not in e}))
    # two 1200-vertex paths, declared in path order so the search runs deep at once
    path_p = M.path([f"p{i}" for i in range(1200)])
    path_q = M.path([f"q{i}" for i in range(1200)])
    d.add("iso", ["iso", d.file(M.graph_text(*path_p), "graph"), d.file(M.graph_text(*path_q), "graph")],
          prints_isomorphism(path_p, path_q))


def search_deck(d: Deck) -> None:
    """gadget and types in one deck: the few large searches of the encodings
    and the thousands of tiny ones of the types, so that a change to the
    search layer shows its cost on both kinds of caller in the same runs."""
    gadget_deck(d)
    types_deck(d)


WORKLOADS = {
    "cotree": cotree_deck,
    "search": search_deck,
    "gadget": gadget_deck,
    "types": types_deck,
    "deep": deep_deck,
}
