"""Text formats: graphs, cotree s-expressions, plain rooted trees.

Graph files: first line "n m", then n vertex-name lines, then m lines
"u v".  UTF-8 with LF endings; names are whitespace-free tokens, and any
other whitespace (tab, CR, NBSP, ...) separates or surrounds tokens.  A
repeated edge line counts once.  The parser reads the edge lines in one
pass, ORing each edge into the adjacency rows, and builds no list of
edges.  Errors come in a fixed order: the header, the line count, the
first bad name line, the first edge line that is not two tokens, a
repeated name, then the first edge line with a self-loop or an unknown
endpoint.  At the first fault of the last two kinds the parser goes on
checking only the shape of the edge lines, then lets make_graph, the one
validator of names and edges, raise.  The formatter writes the edges from
each vertex to the later ones as one chunk, so edges come out in declared
order of their first and then their second endpoint.

Cotree files: one s-expression, internal node "(<label> child ...)" with
label 0 or 1, leaf = vertex name.  The strict parser rejects structural
violations (alternation, arity, duplicate leaves) with line and column;
the lax parser builds the tree anyway so a validator can report them.

Plain tree files: nested parentheses, one node per "()" pair.

Both tree formats are read by one explicit-stack reader, so nesting depth
is not bounded by the interpreter's recursion limit.

Only the graph format is needed at import: the tree functions import the
cotree layer when they run, so graph I/O loads just `graphs`.
"""

from __future__ import annotations

import re
from itertools import compress
from typing import TYPE_CHECKING, Callable

from .errors import FormatError
from .graphs import Graph, make_graph

if TYPE_CHECKING:
    from .cotree import CotreeNode, PlainTree

__all__ = [
    "parse_graph",
    "format_graph",
    "parse_cotree",
    "format_cotree",
    "parse_plain_tree",
    "format_plain_tree",
]

_NAME_RE = re.compile(r"^\S+$")


def parse_graph(text: str) -> Graph:
    lines = text.split("\n")
    # ignore a trailing newline's empty tail and stray blank lines at the end
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise FormatError("empty graph file", line=1)
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError('first line must be "n m"', line=1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError('first line must be "n m" with integers', line=1) from None
    if n < 0 or m < 0:
        raise FormatError("vertex and edge counts must be nonnegative", line=1)
    if len(lines) != 1 + n + m:
        raise FormatError(
            f"expected {1 + n + m} lines for n={n}, m={m}, got {len(lines)}",
            line=len(lines),
        )
    names: list[str] = []
    for i in range(n):
        name = lines[1 + i].strip()
        if not _NAME_RE.match(name):
            raise FormatError("vertex name must be one nonempty token", line=2 + i)
        names.append(name)
    index = dict(zip(names, range(n)))
    bit = [1 << i for i in range(n)]
    rows = [0] * n
    anomaly = len(index) != n  # a repeated name
    for k in range(1 + n, len(lines)):
        parts = lines[k].split()
        if len(parts) != 2:
            raise FormatError('edge line must be "u v"', line=k + 1)
        if anomaly:
            continue
        i, j = index.get(parts[0]), index.get(parts[1])
        if i is None or j is None or i == j:
            anomaly = True  # an unknown endpoint or a self-loop
            continue
        rows[i] |= bit[j]
        rows[j] |= bit[i]
    if anomaly:
        # Every edge line has its shape; make_graph names the first fault.
        return make_graph(names, (line.split() for line in lines[1 + n :]))
    return Graph(tuple(names), tuple(rows))


# bytes.translate table: the digits of bin() to selector bytes 0 and 1
_BIT_SELECTORS = bytes.maketrans(b"01", b"\0\1")


def format_graph(g: Graph) -> str:
    for v in g.vertices:
        if not _NAME_RE.match(v):
            raise FormatError(f"vertex name {v!r} is not serializable")
    names = g.vertices
    out = [f"{g.n} {g.m}"]
    out.extend(names)
    for i, row in enumerate(g.rows):
        above = row >> i + 1
        if above:
            # selectors[k] is 1 when vertex i + 1 + k is a neighbour
            selectors = bin(above)[:1:-1].encode().translate(_BIT_SELECTORS)
            sep = "\n" + names[i] + " "
            out.append(names[i] + " " + sep.join(compress(names[i + 1 :], selectors)))
    return "\n".join(out) + "\n"


_TOKEN_RE = re.compile(r"[()]|[^\s()]+")


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    """Parentheses and whitespace-free names, each with its line and column."""
    return [
        (m.group(), line, m.start() + 1)
        for line, row in enumerate(text.split("\n"), 1)
        for m in _TOKEN_RE.finditer(row)
    ]


def _read_tree(
    text: str,
    opened: Callable[[Callable[[], tuple[str, int, int]], object], object],
    leaf: Callable[[str, int, int], object],
    closed: Callable[[object, int, int, list], object],
):
    """Read one parenthesized tree, with an explicit stack of open nodes.

    On "(" opened(take, state of the enclosing open node or None) gives the
    new node's state, and may call take() for the tokens that follow the
    parenthesis; any other token becomes leaf(token, line, col); on the
    matching ")" closed(state, line, col of its "(", children) builds the
    node.
    """
    tokens = _tokenize(text)
    pos = 0

    def take() -> tuple[str, int, int]:
        nonlocal pos
        if pos == len(tokens):
            raise FormatError("unexpected end of input")
        pos += 1
        return tokens[pos - 1]

    stack: list[tuple[object, int, int, list]] = []  # state, line, col, children
    while True:
        tok, line, col = take()
        if tok == "(":
            stack.append((opened(take, stack[-1][0] if stack else None), line, col, []))
            node = None
        else:
            node = leaf(tok, line, col)
        while stack:
            state, line, col, children = stack[-1]
            if node is not None:
                children.append(node)
            if pos == len(tokens):
                raise FormatError("missing ')'", line=line, col=col)
            if tokens[pos][0] != ")":
                break
            pos += 1
            stack.pop()
            node = closed(state, line, col, children)
        if not stack:
            break
    if pos < len(tokens):
        tok, line, col = tokens[pos]
        raise FormatError(f"unexpected trailing token {tok!r}", line=line, col=col)
    return node


def parse_cotree(text: str, strict: bool = True) -> CotreeNode:
    """Parse one cotree s-expression.

    strict=True additionally rejects label alternation breaks, internal
    nodes with fewer than two children, duplicate leaf names, and labels
    other than 0/1, pointing at the offending token.
    """
    from .cotree import Inner, Leaf

    seen: set[str] = set()

    def leaf(tok: str, line: int, col: int) -> Leaf:
        if tok == ")":
            raise FormatError("unexpected ')'", line=line, col=col)
        if strict and tok in seen:
            raise FormatError(f"duplicate leaf name {tok!r}", line=line, col=col)
        seen.add(tok)
        return Leaf(tok)

    def opened(take, parent_label) -> int:
        lab_tok, lab_line, lab_col = take()
        if not lab_tok.isdecimal():
            raise FormatError(
                f"internal node label must be an integer, got {lab_tok!r}",
                line=lab_line,
                col=lab_col,
            )
        label = int(lab_tok)
        if strict and label not in (0, 1):
            raise FormatError(
                f"internal node label must be 0 or 1, got {label}",
                line=lab_line,
                col=lab_col,
            )
        if strict and label == parent_label:
            raise FormatError(
                f"child label {label} equals parent label", line=lab_line, col=lab_col
            )
        return label

    def closed(label: int, line: int, col: int, children: list) -> Inner:
        if strict and len(children) < 2:
            raise FormatError(
                f"internal node has {len(children)} child(ren), needs >= 2",
                line=line,
                col=col,
            )
        return Inner(label, tuple(children))

    return _read_tree(text, opened, leaf, closed)


def format_cotree(t: CotreeNode) -> str:
    from .cotree import _fold

    return _fold(
        t,
        lambda leaf: leaf.name,
        lambda node, kids: "(" + str(node.label) + " " + " ".join(kids) + ")",
    )


def parse_plain_tree(text: str) -> PlainTree:
    """Parse a nested-parentheses rooted tree, e.g. "(()(()))"."""
    from .cotree import PlainTree

    def leaf(tok: str, line: int, col: int):
        raise FormatError(f"expected '(', got {tok!r}", line=line, col=col)

    return _read_tree(
        text,
        lambda take, parent: None,
        leaf,
        lambda state, line, col, children: PlainTree(tuple(children)),
    )


def format_plain_tree(t: PlainTree) -> str:
    from .cotree import _fold

    return _fold(t, None, lambda node, kids: "(" + "".join(kids) + ")")
