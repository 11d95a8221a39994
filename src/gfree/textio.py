"""Text formats: graphs, cotree s-expressions, plain rooted trees.

Graph files: first line "n m", then n vertex-name lines, then m lines
"u v".  UTF-8 with LF endings; names are whitespace-free tokens.

Cotree files: one s-expression, internal node "(<label> child ...)" with
label 0 or 1, leaf = vertex name.  The strict parser rejects structural
violations (alternation, arity, duplicate leaves) with line and column;
the lax parser builds the tree anyway so a validator can report them.

Plain tree files: nested parentheses, one node per "()" pair.
"""

from __future__ import annotations

import re
from typing import Iterator

from .cotree import CotreeNode, Inner, Leaf, PlainTree, _fold
from .errors import FormatError
from .graphs import Graph, make_graph

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
    edges: list[tuple[str, str]] = []
    for j in range(m):
        parts = lines[1 + n + j].split()
        if len(parts) != 2:
            raise FormatError('edge line must be "u v"', line=2 + n + j)
        edges.append((parts[0], parts[1]))
    return make_graph(names, edges)


def format_graph(g: Graph) -> str:
    for v in g.vertices:
        if not _NAME_RE.match(v):
            raise FormatError(f"vertex name {v!r} is not serializable")
    out = [f"{g.n} {g.m}"]
    out.extend(g.vertices)
    out.extend(f"{u} {v}" for u, v in g.edge_list())
    return "\n".join(out) + "\n"


def _tokenize(text: str) -> Iterator[tuple[str, int, int]]:
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch in "()":
            yield ch, line, col
            col += 1
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            yield text[i:j], line, col
            col += j - i
            i = j


class _TokenStream:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self) -> tuple[str, int, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, int, int]:
        tok = self.peek()
        if tok is None:
            raise FormatError("unexpected end of input")
        self.pos += 1
        return tok


def parse_cotree(text: str, strict: bool = True) -> CotreeNode:
    """Parse one cotree s-expression.

    strict=True additionally rejects label alternation breaks, internal
    nodes with fewer than two children, duplicate leaf names, and labels
    other than 0/1, pointing at the offending token.
    """
    stream = _TokenStream(text)
    seen: dict[str, tuple[int, int]] = {}
    root = _parse_node(stream, None, strict, seen)
    extra = stream.peek()
    if extra is not None:
        raise FormatError(
            f"unexpected trailing token {extra[0]!r}", line=extra[1], col=extra[2]
        )
    return root


def _parse_node(
    stream: _TokenStream,
    parent_label: int | None,
    strict: bool,
    seen: dict[str, tuple[int, int]],
) -> CotreeNode:
    tok, line, col = stream.next()
    if tok == ")":
        raise FormatError("unexpected ')'", line=line, col=col)
    if tok != "(":
        if strict and tok in seen:
            raise FormatError(f"duplicate leaf name {tok!r}", line=line, col=col)
        seen[tok] = (line, col)
        return Leaf(tok)
    lab_tok, lab_line, lab_col = stream.next()
    if not lab_tok.isdigit():
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
    if strict and parent_label is not None and label == parent_label:
        raise FormatError(
            f"child label {label} equals parent label", line=lab_line, col=lab_col
        )
    children: list[CotreeNode] = []
    while True:
        nxt = stream.peek()
        if nxt is None:
            raise FormatError("missing ')'", line=line, col=col)
        if nxt[0] == ")":
            stream.next()
            break
        children.append(_parse_node(stream, label, strict, seen))
    if strict and len(children) < 2:
        raise FormatError(
            f"internal node has {len(children)} child(ren), needs >= 2",
            line=line,
            col=col,
        )
    return Inner(label, tuple(children))


def format_cotree(t: CotreeNode) -> str:
    return _fold(
        t,
        lambda leaf: leaf.name,
        lambda node, kids: "(" + str(node.label) + " " + " ".join(kids) + ")",
    )


def parse_plain_tree(text: str) -> PlainTree:
    """Parse a nested-parentheses rooted tree, e.g. "(()(()))"."""
    stream = _TokenStream(text)
    root = _parse_plain(stream)
    extra = stream.peek()
    if extra is not None:
        raise FormatError(
            f"unexpected trailing token {extra[0]!r}", line=extra[1], col=extra[2]
        )
    return root


def _parse_plain(stream: _TokenStream) -> PlainTree:
    tok, line, col = stream.next()
    if tok != "(":
        raise FormatError(f"expected '(', got {tok!r}", line=line, col=col)
    children: list[PlainTree] = []
    while True:
        nxt = stream.peek()
        if nxt is None:
            raise FormatError("missing ')'", line=line, col=col)
        if nxt[0] == ")":
            stream.next()
            return PlainTree(tuple(children))
        children.append(_parse_plain(stream))


def format_plain_tree(t: PlainTree) -> str:
    return "(" + "".join(format_plain_tree(c) for c in t.children) + ")"
