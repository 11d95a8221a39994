"""Reference graph text I/O for the tests: the two-pass parser, which
collects every edge as a pair of names and hands the list to make_graph,
and the formatter that writes one line per edge position pair.

textio.parse_graph and textio.format_graph must agree with these on every
input: the same graph or text, or the same error class, message and line.
ShortReads feeds parse_graph a file in chunks of a chosen size.
"""

from __future__ import annotations

import re

from gfree import FormatError, GfreeError, Graph, make_graph
from gfree.graphs import _edge_positions

_NAME_RE = re.compile(r"\S+")


def oracle_parse_graph(text: str) -> Graph:
    lines = text.split("\n")
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
        if not _NAME_RE.fullmatch(name):
            raise FormatError("vertex name must be one nonempty token", line=2 + i)
        names.append(name)
    edges: list[tuple[str, str]] = []
    for j in range(m):
        parts = lines[1 + n + j].split()
        if len(parts) != 2:
            raise FormatError('edge line must be "u v"', line=2 + n + j)
        edges.append((parts[0], parts[1]))
    return make_graph(names, edges)


def oracle_format_graph(g: Graph) -> str:
    for v in g.vertices:
        if not _NAME_RE.fullmatch(v):
            raise FormatError(f"vertex name {v!r} is not serializable")
    names = g.vertices
    out = [f"{g.n} {g.m}"]
    out.extend(names)
    out.extend(f"{names[i]} {names[j]}" for i, j in _edge_positions(g.rows))
    return "\n".join(out) + "\n"


def outcome(fn, *args):
    """fn's result, or its GfreeError as (class, message, line, col); any
    other exception propagates."""
    try:
        return fn(*args)
    except GfreeError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


class ShortReads:
    """An open text file whose readlines ignores its size hint and takes a
    fixed one, so a small file is read in many chunks."""

    def __init__(self, file, hint: int):
        self.file, self.hint = file, hint

    def readlines(self, hint: int = -1) -> list[str]:
        return self.file.readlines(self.hint)
