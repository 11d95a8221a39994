"""Reading tree files token by token, and the plain rooted tree format.

Both tree readers, textio.parse_cotree and parse_plain_tree, run one loop
over a generator of tokens (_tokenize), with an explicit stack of open
nodes, so nesting depth is not bounded by the interpreter's recursion
limit and a read holds the tree, not a list of its tokens.  _end settles
where such a loop stopped.

Plain tree files: nested parentheses, one node per "()" pair.
"""

from __future__ import annotations

import re
from typing import Iterator

from .errors import FormatError
from .textio import _LEAF_RE
from .trees import PlainTree, _fold

__all__ = ["parse_plain_tree", "format_plain_tree"]

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


def parse_plain_tree(text: str) -> PlainTree:
    """Parse a nested-parentheses rooted tree, e.g. "(()(()))"."""
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
    return _fold(t, None, lambda node, kids: "(" + "".join(kids) + ")")
