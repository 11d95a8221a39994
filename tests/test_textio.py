from __future__ import annotations

import gc
import random
import tracemalloc
from pathlib import Path

import pytest
from graph_text_oracle import (
    ShortReads,
    oracle_format_graph,
    oracle_parse_graph,
    outcome,
)

from gfree import (
    DuplicateVertexError,
    FormatError,
    Inner,
    Leaf,
    PlainTree,
    SelfLoopError,
    UnknownEndpointError,
    cycle_graph,
    format_cotree,
    format_graph,
    format_plain_tree,
    make_graph,
    parse_cotree,
    parse_graph,
    parse_plain_tree,
    path_graph,
    plain_tree_code,
)
from gfree.cli import run_command
from gfree.commands import _load_graph


def test_parse_graph_basic() -> None:
    text = "3 2\na\nb\nc\na b\nb c\n"
    g = parse_graph(text)
    assert g.vertices == ("a", "b", "c")
    assert g.m == 2
    assert g.has_edge("a", "b")


def test_graph_roundtrip() -> None:
    for g in [path_graph(1), path_graph(4), cycle_graph(5), make_graph(["x"], [])]:
        assert parse_graph(format_graph(g)) == g


def test_format_graph_shape() -> None:
    g = make_graph(["a", "b"], [("a", "b")])
    assert format_graph(g) == "2 1\na\nb\na b\n"


def test_format_graph_refuses_a_name_ending_in_newline() -> None:
    # the name would print as two lines, so the text would not read back
    g = make_graph(["a\n", "b"], [])
    for format_text in (format_graph, oracle_format_graph):
        with pytest.raises(FormatError):
            format_text(g)


def test_parse_graph_tolerates_trailing_blank() -> None:
    g = parse_graph("1 0\na\n\n")
    assert g.n == 1


def test_parse_graph_bad_header() -> None:
    with pytest.raises(FormatError) as exc:
        parse_graph("oops\n")
    assert exc.value.line == 1


def test_parse_graph_wrong_line_count() -> None:
    with pytest.raises(FormatError):
        parse_graph("2 1\na\nb\n")


def test_parse_graph_multi_token_name() -> None:
    with pytest.raises(FormatError) as exc:
        parse_graph("2 0\na\nb c\n")
    assert exc.value.line == 3


def test_parse_graph_semantic_errors() -> None:
    with pytest.raises(DuplicateVertexError):
        parse_graph("2 0\na\na\n")
    with pytest.raises(UnknownEndpointError):
        parse_graph("2 1\na\nb\na z\n")
    with pytest.raises(SelfLoopError):
        parse_graph("1 1\na\na a\n")


# Files with two faults each (or odd but valid text): the parser must report
# the fault the two-pass oracle reports, with the same message and line.
PRECEDENCE = [
    # a repeated name, then a bad edge line: the edge line's shape wins
    "2 1\na\na\nx\n",
    "3 2\na\nb\na\na b\nb c d\n",
    # a repeated name, then an unknown endpoint: the repeated name wins
    "2 1\na\na\na z\n",
    # an unknown endpoint before a bad edge line
    "2 2\na\nb\na z\nb\n",
    "2 3\na\nb\nz b\na b\n\n\n",
    # a self-loop before an unknown endpoint, and the other way round
    "2 2\na\nb\na a\na z\n",
    "2 2\na\nb\na z\nb b\n",
    "1 1\na\nz z\n",
    "2 1\na\nb\nx y\n",
    "2 1\na\nb\na y\n",
    # a self-loop before a bad edge line
    "2 2\na\nb\nb b\na b c\n",
    # tab, CR, \x0b and NBSP whitespace
    "2 1\na\t\n\tb\na\tb\n",
    "2 1\r\na\r\nb\r\na b\r\n",
    "2 1\na\nb\na\x0bb\n",
    "2 1\na\xa0\n\xa0b\na\xa0b\n",
    "2 1\na\xa0c\nb\na b c\n",
    "2\xa01\na\nb\na b\n",
    "2 1\na\nb\r\na\r\n",
    # repeated edge lines count once
    "2 2\na\nb\na b\nb a\n",
    "3 3\na\nb\nc\na b\na b\nb z\n",
    # trailing blank lines, and a blank line inside
    "1 0\na\n\n \n\t\n",
    "2 1\na\nb\na b\n\n\n\n",
    "2 1\na\n\nb\na b\n",
    "3 1\na\nb\nb\n\n",
    # a file that ends inside the names or the edges, a nonblank line after
    # a blank tail, and a header alone
    "3 0\na\nb\n",
    "2 2\na\nb\na b\n",
    "1 0\na\n\nx\n",
    "2 0\n",
    "",
    " \n\n",
]


@pytest.mark.parametrize("text", PRECEDENCE)
def test_parse_graph_error_precedence_matches_oracle(text: str) -> None:
    assert outcome(parse_graph, text) == outcome(oracle_parse_graph, text)


@pytest.mark.parametrize("text", PRECEDENCE)
def test_streamed_read_matches_text_parse(tmp_path: Path, text: str) -> None:
    path = tmp_path / "in.graph"
    path.write_bytes(text.encode("utf-8"))
    want = outcome(parse_graph, path.read_text(encoding="utf-8"))
    assert outcome(_load_graph, str(path)) == want
    # chunks of one line, and of a few, put chunk boundaries everywhere
    for hint in (1, 12):
        with open(path, encoding="utf-8") as f:
            assert outcome(parse_graph, ShortReads(f, hint)) == want


def test_invalid_utf8_beats_a_format_fault_and_gives_the_file_offset(tmp_path: Path) -> None:
    head = b"x y z\n" + b"a b\n" * 30_000
    path = tmp_path / "bad.graph"
    path.write_bytes(head[:100_000] + b"\xff" + head[100_000:])
    result = run_command(["recognize", str(path)])
    assert result.exit_code == 2
    assert result.stdout == f"error: {path}: not UTF-8 (invalid start byte at byte 100000)\n"


def test_parse_graph_repeated_edge_line_counts_once() -> None:
    g = parse_graph("2 2\na\nb\na b\nb a\n")
    assert g.m == 1
    assert format_graph(g) == "2 1\na\nb\na b\n"


def test_parse_graph_repeated_name_before_bad_edge_line() -> None:
    with pytest.raises(FormatError) as exc:
        parse_graph("2 1\na\na\nx\n")
    assert exc.value.line == 4


def _dense_graph_text(n: int = 300, density: float = 0.7) -> str:
    rng = random.Random(0)
    names = [f"v{i}" for i in range(n)]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return format_graph(make_graph(names, edges))


def _peak_bytes(fn, *args) -> int:
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def test_graph_text_io_allocates_at_most_half_of_oracle() -> None:
    text = _dense_graph_text()
    g = parse_graph(text)
    assert g == oracle_parse_graph(text) and g.m > 30_000
    assert _peak_bytes(parse_graph, text) <= _peak_bytes(oracle_parse_graph, text) / 2
    assert _peak_bytes(format_graph, g) <= _peak_bytes(oracle_format_graph, g) / 2


def test_streamed_read_peak_is_the_graph_not_the_file(tmp_path: Path) -> None:
    text = _dense_graph_text(density=0.9)
    head, rest = text.split("\n", 1)
    n, m = map(int, head.split())
    names, edges = rest.split("\n")[:n], rest.split("\n")[n:-1]
    assert n >= 300 and m >= 40_000
    once, twice = tmp_path / "once.graph", tmp_path / "twice.graph"
    once.write_text(text, encoding="utf-8")
    # the same graph with every edge line written twice
    twice.write_text("\n".join([f"{n} {2 * m}", *names, *edges, *edges]) + "\n", encoding="utf-8")
    assert _load_graph(str(once)) == _load_graph(str(twice)) == parse_graph(text)
    peak = _peak_bytes(_load_graph, str(once))
    assert peak < 500_000
    assert _peak_bytes(_load_graph, str(twice)) < 1.25 * peak


# One row per fault of the tree readers: reader, text, the exact message.
TREE_FAULTS = [
    ("strict", "", "unexpected end of input"),
    ("strict", "(", "unexpected end of input"),
    ("strict", "(x a b)", "internal node label must be an integer, got 'x' (line 1, col 2)"),
    ("lax", "(1 a\n (\u00b2 b c))", "internal node label must be an integer, got '\u00b2' (line 2, col 3)"),
    ("strict", "(" + "1" * 5000 + " a b)", "internal node label is too long (5000 digits) (line 1, col 2)"),
    ("lax", "(0 a (" + "7" * 4301 + " b))", "internal node label is too long (4301 digits) (line 1, col 7)"),
    ("strict", "(2 a b)", "internal node label must be 0 or 1, got 2 (line 1, col 2)"),
    ("strict", "(1 a\n  (1 b c))", "child label 1 equals parent label (line 2, col 4)"),
    ("strict", "(1 a (0 b)\n)", "internal node has 1 child(ren), needs >= 2 (line 1, col 6)"),
    ("strict", "(0)", "internal node has 0 child(ren), needs >= 2 (line 1, col 1)"),
    ("strict", "(0 a (1 b\n  a))", "duplicate leaf name 'a' (line 2, col 3)"),
    ("strict", ")", "unexpected ')' (line 1, col 1)"),
    ("lax", " \n )", "unexpected ')' (line 2, col 2)"),
    ("strict", "(1 a (0 b c)", "missing ')' (line 1, col 1)"),
    ("strict", "(1 a\n (0 b c", "missing ')' (line 2, col 2)"),
    ("lax", "(5 a", "missing ')' (line 1, col 1)"),
    ("strict", "(1 a b) c", "unexpected trailing token 'c' (line 1, col 9)"),
    ("strict", "a )", "unexpected trailing token ')' (line 1, col 3)"),
    ("lax", "(1 a)\n(", "unexpected trailing token '(' (line 2, col 1)"),
    ("plain", "", "unexpected end of input"),
    ("plain", "a", "expected '(', got 'a' (line 1, col 1)"),
    ("plain", ")", "expected '(', got ')' (line 1, col 1)"),
    ("plain", "(()\n a)", "expected '(', got 'a' (line 2, col 2)"),
    ("plain", "((", "missing ')' (line 1, col 2)"),
    ("plain", "(()\n(()", "missing ')' (line 2, col 1)"),
    ("plain", "()()", "unexpected trailing token '(' (line 1, col 3)"),
    ("plain", "(())\n)", "unexpected trailing token ')' (line 2, col 1)"),
]

TREE_READERS = {
    "strict": parse_cotree,
    "lax": lambda text: parse_cotree(text, strict=False),
    "plain": parse_plain_tree,
}


@pytest.mark.parametrize("reader, text, message", TREE_FAULTS)
def test_tree_reader_fault_message(reader: str, text: str, message: str) -> None:
    with pytest.raises(FormatError) as exc:
        TREE_READERS[reader](text)
    assert str(exc.value) == message


def _caterpillar_cotree(depth: int) -> str:
    inner = f"v{depth}"
    for i in reversed(range(depth)):
        inner = f"({i % 2} v{i} {inner})"
    return inner


TREE_TEXTS = {
    "flat cotree": ("strict", "(0 " + " ".join(f"v{i}" for i in range(3000)) + ")"),
    "caterpillar cotree": ("strict", _caterpillar_cotree(2000)),
    "flat plain tree": ("plain", "(" + "()" * 3000 + ")"),
    "deep plain tree": ("plain", "(" * 2000 + ")" * 2000),
}


@pytest.mark.parametrize("name", TREE_TEXTS)
def test_tree_read_peak_is_the_tree_not_its_tokens(name: str) -> None:
    reader, text = TREE_TEXTS[name]
    parse = TREE_READERS[reader]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tree = parse(text)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
        peak = _peak_bytes(parse, text)
    finally:
        tracemalloc.stop()
    assert tree is not None and peak < 1.5 * kept


def test_parse_cotree_basic() -> None:
    t = parse_cotree("(1 b (0 a c))")
    assert isinstance(t, Inner)
    assert t.label == 1
    assert isinstance(t.children[0], Leaf)
    assert t.children[0].name == "b"


def test_parse_cotree_single_leaf() -> None:
    t = parse_cotree("a")
    assert t == Leaf("a")


def test_cotree_roundtrip() -> None:
    for text in ["a", "(1 a b)", "(0 x (1 y z))", "(1 b (0 a c))"]:
        assert format_cotree(parse_cotree(text)) == text


def test_parse_cotree_strict_rejections() -> None:
    with pytest.raises(FormatError):
        parse_cotree("(3 a b)")
    with pytest.raises(FormatError):
        parse_cotree("(1 a)")
    with pytest.raises(FormatError):
        parse_cotree("(1 (1 a b) c)")
    with pytest.raises(FormatError):
        parse_cotree("(1 a a)")


def test_parse_cotree_reports_position() -> None:
    with pytest.raises(FormatError) as exc:
        parse_cotree("(1 a (3 b c))")
    assert exc.value.line == 1
    assert exc.value.col == 7


def test_parse_cotree_rejects_non_decimal_digit_label() -> None:
    # "²" is a digit to str.isdigit but not a number to int()
    with pytest.raises(FormatError) as exc:
        parse_cotree("(1 a (² b c))", strict=False)
    assert (exc.value.line, exc.value.col) == (1, 7)


@pytest.mark.parametrize("strict", [True, False])
def test_parse_cotree_rejects_a_label_longer_than_int_converts(strict: bool) -> None:
    with pytest.raises(FormatError) as exc:
        parse_cotree("(1 a (" + "1" * 5000 + " b c))", strict=strict)
    assert str(exc.value) == "internal node label is too long (5000 digits) (line 1, col 7)"


def test_parse_cotree_unbalanced() -> None:
    with pytest.raises(FormatError):
        parse_cotree("(1 a (0 b")
    with pytest.raises(FormatError):
        parse_cotree("(1 a b) c")


def test_parse_cotree_lax_mode() -> None:
    t = parse_cotree("(3 a (3 b c))", strict=False)
    assert isinstance(t, Inner)
    assert t.label == 3
    assert format_cotree(t) == "(3 a (3 b c))"


def test_plain_tree_roundtrip() -> None:
    deep = "(" * 2000 + ")" * 2000
    for text in ["()", "(())", "(()())", "(()(()))", deep]:
        assert format_plain_tree(parse_plain_tree(text)) == text
    assert plain_tree_code(parse_plain_tree(deep)) == deep.encode()


def test_parse_plain_tree_shape() -> None:
    t = parse_plain_tree("(()(()))")
    assert isinstance(t, PlainTree)
    assert len(t.children) == 2
    assert len(t.children[1].children) == 1


def test_parse_plain_tree_errors() -> None:
    with pytest.raises(FormatError):
        parse_plain_tree("((")
    with pytest.raises(FormatError):
        parse_plain_tree("")
    with pytest.raises(FormatError):
        parse_plain_tree("()()")
