"""Graphs, cotrees and formulas as the benchmark knows them, independent of gfree.

Every input the benchmark feeds to the CLI is built here, and every answer is
checked here.  Nothing in this file imports gfree: the checks must stay valid
even when the package under test is wrong.

Representations:
  graph   -- (vertices: list[str], edges: set[frozenset[str]])
  cotree  -- a leaf is a vertex name (str); an internal node is
             (label, [children]) with label 0 (union) or 1 (join)
  plain   -- a rooted tree as a list of child trees
"""

from __future__ import annotations

import itertools
import math
import random


# ---------------------------------------------------------------- graphs


def edge(u: str, v: str) -> frozenset[str]:
    return frozenset((u, v))


def graph_text(vertices: list[str], edges) -> str:
    """gfree's graph file format: "n m", n names, m edge lines."""
    lines = [f"{len(vertices)} {len(edges)}"]
    lines.extend(vertices)
    pairs = sorted((u, v) if u < v else (v, u) for u, v in edges)
    lines.extend(f"{u} {v}" for u, v in pairs)
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> tuple[list[str], set[frozenset[str]]]:
    lines = text.rstrip("\n").split("\n")
    n, m = (int(x) for x in lines[0].split())
    if len(lines) != 1 + n + m:
        raise ValueError(f"graph file has {len(lines)} lines, header says {1 + n + m}")
    vertices = [line.strip() for line in lines[1 : 1 + n]]
    edges = set()
    for line in lines[1 + n :]:
        u, v = line.split()
        edges.add(edge(u, v))
    if len(set(vertices)) != n or len(edges) != m:
        raise ValueError("duplicate vertex or edge in graph file")
    names = set(vertices)
    if any(u not in names for e in edges for u in e) or any(len(e) != 2 for e in edges):
        raise ValueError("edge with an unknown endpoint or a self-loop")
    return vertices, edges


def adjacency(vertices, edges) -> dict[str, set[str]]:
    adj = {v: set() for v in vertices}
    for e in edges:
        u, v = tuple(e)
        adj[u].add(v)
        adj[v].add(u)
    return adj


def complement_edges(vertices, edges) -> set[frozenset[str]]:
    return {edge(u, v) for u, v in itertools.combinations(vertices, 2)} - set(edges)


def is_induced_path(adj: dict[str, set[str]], path: list[str]) -> bool:
    """The listed vertices are distinct and induce exactly the path in order."""
    if len(set(path)) != len(path) or any(v not in adj for v in path):
        return False
    for i, j in itertools.combinations(range(len(path)), 2):
        if (path[j] in adj[path[i]]) != (j == i + 1):
            return False
    return True


def is_isomorphism(g, h, mapping: dict[str, str]) -> bool:
    """mapping is a bijection V(g) -> V(h) sending edges onto edges exactly."""
    (gv, ge), (hv, he) = g, h
    if set(mapping) != set(gv) or sorted(mapping.values()) != sorted(hv):
        return False
    return len(ge) == len(he) and all(
        edge(*(mapping[x] for x in e)) in he for e in ge
    )


def relabel_shuffled(rng: random.Random, vertices, edges, prefix: str):
    """An isomorphic copy with fresh names in a shuffled declared order."""
    order = list(vertices)
    rng.shuffle(order)
    mapping = {v: f"{prefix}{i}" for i, v in enumerate(order)}
    return [mapping[v] for v in order], {edge(*(mapping[x] for x in e)) for e in edges}


def components(vertices, adj) -> list[list[str]]:
    seen: set[str] = set()
    out = []
    for s in vertices:
        if s in seen:
            continue
        comp, stack = [], [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        out.append(comp)
    return out


def cycle_lengths(vertices, edges) -> list[int] | None:
    """Sorted component sizes if the graph is a disjoint union of cycles."""
    adj = adjacency(vertices, edges)
    if any(len(adj[v]) != 2 for v in vertices):
        return None
    return sorted(len(c) for c in components(vertices, adj))


def max_induced_cycle(vertices, edges) -> int:
    """Largest k with an induced k-cycle (0 if none); brute force, <= 8 vertices."""
    assert len(vertices) <= 8
    adj = adjacency(vertices, edges)
    best = 0
    for k in range(3, len(vertices) + 1):
        for sub in itertools.combinations(vertices, k):
            subset = set(sub)
            if all(len(adj[v] & subset) == 2 for v in sub) and len(
                components(list(sub), {v: adj[v] & subset for v in sub})
            ) == 1:
                best = k
    return best


def contains_induced(pattern, host) -> bool:
    """Brute-force induced-subgraph test, for hosts of at most ~9 vertices."""
    (pv, pe), (hv, he) = pattern, host
    for image in itertools.permutations(hv, len(pv)):
        mapping = dict(zip(pv, image))
        if all(
            (edge(mapping[a], mapping[b]) in he) == (edge(a, b) in pe)
            for a, b in itertools.combinations(pv, 2)
        ):
            return True
    return False


def random_graph(rng: random.Random, names: list[str], m: int):
    """Exactly m edges, chosen at random among all pairs of the names."""
    return list(names), {edge(u, v) for u, v in rng.sample(list(itertools.combinations(names, 2)), m)}


def path(names: list[str]):
    return list(names), {edge(a, b) for a, b in zip(names, names[1:])}


def clique(names: list[str]):
    return list(names), {edge(u, v) for u, v in itertools.combinations(names, 2)}


def cycle(names: list[str]):
    vertices, edges = path(names)
    edges.add(edge(names[-1], names[0]))
    return vertices, edges


# --------------------------------------------------------------- cotrees


def random_cotree(rng: random.Random, names: list[str], max_kids: int, label: int):
    """A reduced cotree on the given leaves: labels alternate, arity >= 2."""
    names = list(names)
    rng.shuffle(names)
    root: list = [label, []]
    stack = [(root, names)]
    while stack:
        node, leaves = stack.pop()
        k = rng.randint(2, min(max_kids, len(leaves)))
        cuts = sorted(rng.sample(range(1, len(leaves)), k - 1))
        for lo, hi in zip([0] + cuts, cuts + [len(leaves)]):
            part = leaves[lo:hi]
            if len(part) == 1:
                node[1].append(part[0])
            else:
                child: list = [1 - node[0], []]
                node[1].append(child)
                stack.append((child, part))
    return _freeze(root)


def caterpillar(rng: random.Random, names: list[str], depth: int, label: int):
    """A spine of depth internal nodes, each holding one leaf (the last two);
    the other leaves spread evenly along the spine, so the shape depends only
    on the sizes and the seed picks which names go where."""
    names = list(names)
    rng.shuffle(names)
    extra = len(names) - depth - 1
    if extra < 0:
        raise ValueError("a caterpillar of that depth needs more leaves")
    spine: list[list] = [[(label + i) % 2, [names[i]]] for i in range(depth)]
    spine[-1][1].append(names[depth])
    for j, v in enumerate(names[depth + 1 :]):
        spine[j * depth // extra][1].append(v)
    for parent, child in zip(spine, spine[1:]):
        parent[1].append(child)
    return _freeze(spine[0])


def _freeze(node):
    """Lists -> tuples, bottom-up without recursion."""
    out = {}
    order = list(iter_nodes(node))
    for _, n in reversed(order):
        if not isinstance(n, str):
            out[id(n)] = (n[0], tuple(c if isinstance(c, str) else out[id(c)] for c in n[1]))
    return out[id(node)] if not isinstance(node, str) else node


def iter_nodes(t):
    """Preorder (path, node) pairs."""
    stack = [((), t)]
    while stack:
        p, node = stack.pop()
        yield p, node
        if not isinstance(node, str):
            kids = node[1]
            for i in range(len(kids) - 1, -1, -1):
                stack.append((p + (i,), kids[i]))


def leaves(t) -> list[str]:
    return [n for _, n in iter_nodes(t) if isinstance(n, str)]


def node_at(t, p):
    for i in p:
        t = t[1][i]
    return t


def cotree_text(t) -> str:
    parts: list[str] = []
    stack = [t]
    while stack:
        x = stack.pop()
        if x is None:  # closes the node opened below it on the stack
            parts[-1] += ")"
        elif isinstance(x, str):
            parts.append(x)
        else:
            parts.append(f"({x[0]}")
            stack.append(None)
            stack.extend(reversed(x[1]))
    return " ".join(parts)


def parse_cotree_text(text: str):
    """Lax parse: any integer label, any arity, duplicates allowed."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    stack: list[list] = []
    root = None
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "(":
            node = [int(tokens[i + 1]), []]
            i += 2
            if stack:
                stack[-1][1].append(node)
            elif root is not None:
                raise ValueError("trailing tokens after the cotree")
            else:
                root = node
            stack.append(node)
            continue
        if tok == ")":
            stack.pop()
        elif stack:
            stack[-1][1].append(tok)
        elif root is None:
            root = tok
        else:
            raise ValueError("trailing tokens after the cotree")
        i += 1
    if stack or root is None:
        raise ValueError("unbalanced cotree text")
    return _freeze(root)


def violations(t) -> list[tuple[tuple[int, ...], str]]:
    """Structural violations in preorder, as (path, kind)."""
    out = []
    seen = set()
    for p, node in iter_nodes(t):
        if isinstance(node, str):
            if node in seen:
                out.append((p, "duplicate"))
            seen.add(node)
            continue
        label, kids = node
        if label not in (0, 1):
            out.append((p, "label"))
        if len(kids) < 2:
            out.append((p, "arity"))
        for i, c in enumerate(kids):
            if not isinstance(c, str) and c[0] == label:
                out.append((p + (i,), "alternation"))
    return out


def _bottom_up(t, leaf, inner):
    """Fold a cotree from the leaves up without recursion."""
    val: dict[tuple[int, ...], object] = {}
    for p, node in sorted(iter_nodes(t), key=lambda pn: -len(pn[0])):
        if isinstance(node, str):
            val[p] = leaf(node)
        else:
            val[p] = inner(node[0], [val.pop(p + (i,)) for i in range(len(node[1]))])
    return val[()]


def realize(t) -> set[frozenset[str]]:
    """Edges of the graph a cotree realizes (meet labeled 1 -> edge)."""
    edges: set[frozenset[str]] = set()

    def inner(label, groups):
        if label == 1:
            for a, b in itertools.combinations(groups, 2):
                edges.update(edge(u, v) for u in a for v in b)
        return [v for grp in groups for v in grp]

    _bottom_up(t, lambda v: [v], inner)
    return edges


def realizes(tree_text: str, vertices, edges) -> str | None:
    """None if the text is a valid cotree realizing exactly (vertices, edges)."""
    t = parse_cotree_text(tree_text)
    bad = violations(t)
    if bad:
        return f"printed cotree violates {bad[0][1]} at {bad[0][0]}"
    if sorted(leaves(t)) != sorted(vertices):
        return "printed cotree has the wrong leaf set"
    if realize(t) != set(edges):
        return "printed cotree realizes another graph"
    return None


def shape_code(t) -> str:
    """Equal for two cotrees iff they are isomorphic ignoring leaf names."""
    return _bottom_up(
        t, lambda _: "2", lambda lab, kids: f"{lab}(" + "".join(sorted(kids)) + ")"
    )


def aut_count(t) -> int:
    """|Aut| of the realized cograph: at each node, the product over classes
    of isomorphic children with multiplicity m of m! * |Aut(child)|^m."""

    def inner(label, kids):
        classes: dict[str, list[int]] = {}
        for code, count in kids:
            classes.setdefault(code, []).append(count)
        total = 1
        for counts in classes.values():
            total *= math.factorial(len(counts)) * counts[0] ** len(counts)
        return f"{label}(" + "".join(sorted(k[0] for k in kids)) + ")", total

    return _bottom_up(t, lambda _: ("2", 1), inner)[1]


def clique_number(t) -> int:
    return _bottom_up(t, lambda _: 1, lambda lab, kids: sum(kids) if lab == 1 else max(kids))


def independence_number(t) -> int:
    return _bottom_up(t, lambda _: 1, lambda lab, kids: sum(kids) if lab == 0 else max(kids))


def least_modules(t, u: str, v: str) -> tuple[set[str], set[str]]:
    """(least module, least strong module) of {u, v} in the realized cograph:
    the union of the meet's children holding u and v, and the meet's leaves."""
    paths = {n: p for p, n in iter_nodes(t) if isinstance(n, str)}
    pu, pv = paths[u], paths[v]
    d = 0
    while pu[d] == pv[d]:
        d += 1
    meet = node_at(t, pu[:d])
    module = set(leaves(meet[1][pu[d]])) | set(leaves(meet[1][pv[d]]))
    return module, set(leaves(meet))


def _plain_nodes(t) -> list:
    """(node, depth) pairs of a plain tree, parents before children."""
    out = [(t, 0)]
    for node, d in out:
        out.extend((c, d + 1) for c in node)
    return out


def plain_tree_text(t) -> str:
    text: dict[int, str] = {}
    for node, _ in reversed(_plain_nodes(t)):
        text[id(node)] = "(" + "".join(text[id(c)] for c in node) + ")"
    return text[id(t)]


def random_plain_tree(rng: random.Random, nodes: int):
    """Random recursive tree: node i hangs under a random earlier node."""
    kids: list[list] = [[] for _ in range(nodes)]
    for i in range(1, nodes):
        kids[rng.randrange(i)].append(kids[i])
    return kids[0]


def lift_shape(t, k: int) -> str:
    """Shape code of the cotree that adds k leaves to every node of a plain tree,
    labels alternating by depth from 0 at the root."""
    codes: dict[int, str] = {}
    for node, d in reversed(_plain_nodes(t)):
        kids = ["2"] * k + [codes[id(c)] for c in node]
        codes[id(node)] = f"{d % 2}(" + "".join(sorted(kids)) + ")"
    return codes[id(t)]


# ---------------------------------------------------------------- gadget


def gadget_params(f_vertices, f_edges) -> tuple[bool, int]:
    """(complemented, n): the side of the forbidden graph holding a cycle, and
    its largest induced cycle; the plain side wins when both have one."""
    n = max_induced_cycle(f_vertices, f_edges)
    if n:
        return False, n
    return True, max_induced_cycle(f_vertices, complement_edges(f_vertices, f_edges))


def encoding(vertices, edges, f_vertices, f_edges):
    """The paper's encoding: every vertex a hub on an (n+3)-cycle; every pair
    joined by a path of |F| internal vertices, each on an (n+1)-cycle for an
    edge or an (n+2)-cycle for a non-edge; vertices minted g0, g1, ... in
    construction order.  Returns (deliverable vertices, edges, hubs)."""
    complemented, n = gadget_params(f_vertices, f_edges)
    counter = itertools.count()
    names: list[str] = []
    out: set[frozenset[str]] = set()

    def fresh() -> str:
        name = f"g{next(counter)}"
        names.append(name)
        return name

    def attach_cycle(first: str, length: int) -> None:
        cyc = [first] + [fresh() for _ in range(length - 1)]
        out.update(edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1]))

    hubs = {}
    for v in vertices:
        hubs[v] = fresh()
        attach_cycle(hubs[v], n + 3)
    for v, w in itertools.combinations(vertices, 2):
        marker = n + 1 if edge(v, w) in edges else n + 2
        internals = [fresh() for _ in range(len(f_vertices))]
        chain = [hubs[v], *internals, hubs[w]]
        out.update(edge(a, b) for a, b in zip(chain, chain[1:]))
        for p in internals:
            attach_cycle(p, marker)
    if complemented:
        out = complement_edges(names, out)
    return names, out, [hubs[v] for v in vertices]


# --------------------------------------------------------------- formulas


def formula_holds(text: str, vertices, edges) -> bool:
    """Brute-force truth of a printed existential formula in a graph.

    Syntax: "E x0 x1 . lit & lit ..." or a bare conjunction, where a literal
    is "a-b" or "!(a-b)" over constants (vertex names) and variables x<i>;
    "true" is the empty conjunction.  Variables range over all vertices,
    repetitions allowed, and no vertex is adjacent to itself.
    """
    variables: list[str] = []
    body = text
    if text.startswith("E "):
        head, body = text[2:].split(" . ", 1)
        variables = head.split()
    literals = []
    if body != "true":
        for lit in body.split(" & "):
            pos = not lit.startswith("!(")
            a, b = (lit if pos else lit[2:-1]).split("-")
            literals.append((a, b, pos))
    names = set(vertices)
    for a, b, _ in literals:
        for t in (a, b):
            if t not in names and t not in variables:
                raise ValueError(f"formula term {t!r} is neither a vertex nor bound")
    # Backtrack over the variables in order, testing each literal as soon as
    # its last variable is bound; the search is still exhaustive.
    rank = {x: i for i, x in enumerate(variables)}
    due: list[list[tuple[str, str, bool]]] = [[] for _ in range(len(variables) + 1)]
    for a, b, pos in literals:
        due[max(rank.get(a, -1), rank.get(b, -1)) + 1].append((a, b, pos))
    env: dict[str, str] = {}

    def ok(level: int) -> bool:
        return all(
            (env.get(a, a) != env.get(b, b) and edge(env.get(a, a), env.get(b, b)) in edges)
            == pos
            for a, b, pos in due[level]
        )

    def extend(i: int) -> bool:
        if i == len(variables):
            return True
        for v in vertices:
            env[variables[i]] = v
            if ok(i + 1) and extend(i + 1):
                return True
        del env[variables[i]]
        return False

    return ok(0) and extend(0)
