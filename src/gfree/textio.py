"""Text formats: graphs, cotree s-expressions, plain rooted trees.

Graph files: first line "n m", then n vertex-name lines, then m lines
"u v".  UTF-8 with LF endings; names are whitespace-free tokens, and any
other whitespace (tab, CR, NBSP, ...) separates or surrounds tokens.  A
repeated edge line counts once.  The parser makes one forward pass over
the lines, a string's split at "\n" or an open file's read a chunk at a
time, in four sections: the header, n names, m edges, then the tail, where
a nonblank line is a line-count fault.  It ORs each edge line into the
adjacency rows and keeps the names, the rows and the first fault of each
kind, never the lines, so a read costs memory for the graph, not for the
file.  Every fault is raised at the end of the file, so an invalid UTF-8
byte anywhere in it comes first; then the faults come in a fixed order:
the header, the line count (blank lines at the end do not count), the
first bad name line, the first edge line that is not two tokens, a
repeated name, then the first edge line with a self-loop or an unknown
endpoint.  For the last two kinds the parser keeps the names and the first
offending pair, and lets make_graph, the one validator of names and edges,
raise.  The formatter makes the text in pieces, the edges from each vertex
to the later ones being one piece, so edges come out in declared order of
their first and then their second endpoint; format_graph joins the pieces,
and the CLI writes them out as they come, so printing a graph costs memory
for the graph, not for its text.

Cotree files: one s-expression, internal node "(<label> child ...)" with
label 0 or 1, leaf = vertex name.  The strict parser rejects structural
violations (alternation, arity, duplicate leaves) with line and column;
the lax parser builds the tree anyway so a validator can report them.

Plain tree files: nested parentheses, one node per "()" pair.

Each tree format is read by one loop over a generator of tokens, with an
explicit stack of open nodes, so nesting depth is not bounded by the
interpreter's recursion limit and a read holds the tree, not a list of its
tokens.

Only the graph format is needed at import: the tree functions import the
tree values (`trees`) when they run, so graph I/O loads just `graphs`, and
a tree is read and printed without the graph algorithms of `cotree`.
"""

from __future__ import annotations

import re
from itertools import chain, compress, islice
from typing import TYPE_CHECKING, Iterator, TextIO

from .errors import FormatError
from .graphs import Graph, make_graph

if TYPE_CHECKING:
    from .trees import CotreeNode, PlainTree

__all__ = [
    "parse_graph",
    "format_graph",
    "parse_cotree",
    "format_cotree",
    "parse_plain_tree",
    "format_plain_tree",
]

_NAME_RE = re.compile(r"\S+")
_CHUNK = 8192  # characters per readlines chunk


def parse_graph(source: str | TextIO) -> Graph:
    """Parse a graph file's text, or read an open text file in chunks.

    A string's lines are its text split at "\n", a file's come from
    readlines(_CHUNK), about 8 KiB at a time; the same loops read the
    header, n names, m edges and the tail, which only moves the line count.
    The faults are raised after the last line, in the order of the module
    docstring, so an error of the file itself (UnicodeDecodeError from a
    UTF-8 text file) comes before any of them.
    """
    if isinstance(source, str):
        lines = iter(source.split("\n"))
    else:
        lines = chain.from_iterable(iter(lambda: source.readlines(_CHUNK), []))
    n = m = 0  # until a valid header; then lines 2..n+1 are names, the next m edges
    head_fault = name_fault = shape_fault = None
    head = next(lines, "").split()
    count = 1 if head else 0  # the lines up to the last nonblank one
    if len(head) != 2:
        head_fault = 'first line must be "n m"'
    else:
        try:
            n, m = int(head[0]), int(head[1])
        except ValueError:
            head_fault = 'first line must be "n m" with integers'
        else:
            if n < 0 or m < 0:
                head_fault = "vertex and edge counts must be nonnegative"
    if head_fault:
        n = m = 0
    names: list[str] = []
    for k, line in enumerate(islice(lines, n), 2):
        name = line.strip()
        if name:
            count = k
        if name_fault is None and not _NAME_RE.fullmatch(name):
            name_fault = k
        names.append(name)
    index = dict(zip(names, range(n)))
    bit = [1 << i for i in range(len(names))]
    rows = [0] * len(names)
    pair = None  # the first edge line with an unknown endpoint or a self-loop
    for k, line in enumerate(islice(lines, m), n + 2):
        try:
            u, v = line.split()
        except ValueError:
            if line.strip():
                count = k
            if shape_fault is None:
                shape_fault = k
            continue
        count = k
        try:
            i, j = index[u], index[v]
        except KeyError:
            i = j = None
        if i == j:  # an unknown endpoint or a self-loop
            if pair is None:
                pair = u, v
            continue
        rows[i] |= bit[j]
        rows[j] |= bit[i]
    for k, line in enumerate(lines, n + m + 2):
        if line.strip():
            count = k
    if not count:
        raise FormatError("empty graph file", line=1)
    if head_fault:
        raise FormatError(head_fault, line=1)
    if count != 1 + n + m:
        raise FormatError(
            f"expected {1 + n + m} lines for n={n}, m={m}, got {count}", line=count
        )
    if name_fault:
        raise FormatError("vertex name must be one nonempty token", line=name_fault)
    if shape_fault:
        raise FormatError('edge line must be "u v"', line=shape_fault)
    if pair or len(index) != len(names):
        # make_graph, the one validator, names the repeated name or the pair
        return make_graph(names, [pair] if pair else [])
    return Graph(tuple(names), tuple(rows))


# bytes.translate table: the digits of bin() to selector bytes 0 and 1
_BIT_SELECTORS = bytes.maketrans(b"01", b"\0\1")


def format_graph(g: Graph) -> str:
    return "".join(_graph_pieces(g))


def _graph_pieces(g: Graph) -> Iterator[str]:
    """The text of g in pieces: the header, the names, then one piece per
    vertex with an edge to a later one, holding those edge lines.

    Every name is checked before this returns, so a FormatError comes
    before the first piece.
    """
    for v in g.vertices:
        if not _NAME_RE.fullmatch(v):
            raise FormatError(f"vertex name {v!r} is not serializable")
    return _pieces(g)


def _pieces(g: Graph) -> Iterator[str]:
    names = g.vertices
    yield f"{g.n} {g.m}\n"
    if names:
        yield "\n".join(names) + "\n"
    for i, row in enumerate(g.rows):
        above = row >> i + 1
        if above:
            # selectors[k] is 1 when vertex i + 1 + k is a neighbour
            selectors = bin(above)[:1:-1].encode().translate(_BIT_SELECTORS)
            sep = "\n" + names[i] + " "
            yield names[i] + " " + sep.join(compress(names[i + 1 :], selectors)) + "\n"


_LEAF_RE = re.compile(r"[^\s()]+")
_TOKEN_RE = re.compile(r"[()]|" + _LEAF_RE.pattern)


def _tokenize(text: str) -> Iterator[tuple[str, int, int]]:
    """Parentheses and whitespace-free names, each with its line and column."""
    for line, row in enumerate(text.split("\n"), 1):
        for m in _TOKEN_RE.finditer(row):
            yield m.group(), line, m.start() + 1


def _end(tokens: Iterator[tuple[str, int, int]], stack: list, root):
    """The root of a tree read whose loop stopped, at the root or at the end
    of the tokens; or the fault: "missing ')'" at the innermost open "("
    (each stack entry starts with its line and column), no token at all, or
    a token after the root."""
    if stack:
        raise FormatError("missing ')'", line=stack[-1][0], col=stack[-1][1])
    if root is None:
        raise FormatError("unexpected end of input")
    for tok, line, col in tokens:
        raise FormatError(f"unexpected trailing token {tok!r}", line=line, col=col)
    return root


def parse_cotree(text: str, strict: bool = True) -> CotreeNode:
    """Parse one cotree s-expression.

    strict=True additionally rejects label alternation breaks, internal
    nodes with fewer than two children, duplicate leaf names, and labels
    other than 0/1, pointing at the offending token.
    """
    from .trees import Inner, Leaf

    tokens = _tokenize(text)
    stack: list[tuple[int, int, list, int]] = []  # line, col of "(", children, label
    seen: set[str] = set()
    root = None
    for tok, line, col in tokens:
        if tok == "(":
            label = _label(next(tokens, None), strict, stack[-1][3] if stack else None)
            stack.append((line, col, [], label))
            continue
        if tok == ")":
            if not stack:
                raise FormatError("unexpected ')'", line=line, col=col)
            line, col, children, label = stack.pop()
            if strict and len(children) < 2:
                raise FormatError(
                    f"internal node has {len(children)} child(ren), needs >= 2",
                    line=line,
                    col=col,
                )
            node = Inner(label, tuple(children))
        else:
            if strict:
                if tok in seen:
                    raise FormatError(f"duplicate leaf name {tok!r}", line=line, col=col)
                seen.add(tok)
            node = Leaf(tok)
        if not stack:
            root = node
            break
        stack[-1][2].append(node)
    return _end(tokens, stack, root)


def _label(token: tuple[str, int, int] | None, strict: bool, parent: int | None) -> int:
    """The label of an internal node from the token after its "("."""
    if token is None:
        raise FormatError("unexpected end of input")
    tok, line, col = token
    if not tok.isdecimal():
        raise FormatError(
            f"internal node label must be an integer, got {tok!r}", line=line, col=col
        )
    try:
        label = int(tok)
    except ValueError:  # more digits than int() converts
        raise FormatError(
            f"internal node label is too long ({len(tok)} digits)", line=line, col=col
        ) from None
    if strict and label not in (0, 1):
        raise FormatError(f"internal node label must be 0 or 1, got {label}", line=line, col=col)
    if strict and label == parent:
        raise FormatError(f"child label {label} equals parent label", line=line, col=col)
    return label


def format_cotree(t: CotreeNode) -> str:
    from .trees import _fold

    def leaf(node) -> str:
        if not _LEAF_RE.fullmatch(node.name):  # it would not read back as one leaf
            raise FormatError(f"leaf name {node.name!r} is not serializable")
        return node.name

    return _fold(t, leaf, lambda node, kids: "(" + str(node.label) + " " + " ".join(kids) + ")")


def parse_plain_tree(text: str) -> PlainTree:
    """Parse a nested-parentheses rooted tree, e.g. "(()(()))"."""
    from .trees import PlainTree

    tokens = _tokenize(text)
    stack: list[tuple[int, int, list]] = []  # line, col of "(", children
    root = None
    for tok, line, col in tokens:
        if tok == "(":
            stack.append((line, col, []))
            continue
        if tok != ")" or not stack:
            raise FormatError(f"expected '(', got {tok!r}", line=line, col=col)
        node = PlainTree(tuple(stack.pop()[2]))
        if not stack:
            root = node
            break
        stack[-1][2].append(node)
    return _end(tokens, stack, root)


def format_plain_tree(t: PlainTree) -> str:
    from .trees import _fold

    return _fold(t, None, lambda node, kids: "(" + "".join(kids) + ")")
