from __future__ import annotations

import pytest

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
