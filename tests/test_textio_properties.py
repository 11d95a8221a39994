"""Property tests of graph text I/O against the two-pass oracle: the same
text or graph, or the same GfreeError; any other exception fails.  And
fuzzing of every text parser: any text raises only a GfreeError, and any
file given to the CLI gets a verdict or exit 2, never 3.  And every printed
cotree reads back."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from graph_text_oracle import ShortReads, oracle_format_graph, oracle_parse_graph, outcome
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfree import (
    FormatError,
    GfreeError,
    Graph,
    combine,
    decompose,
    format_cotree,
    format_graph,
    make_graph,
    parse_cotree,
    parse_graph,
    parse_plain_tree,
)
from gfree.cli import run_command
from gfree.commands import _load_graph

# names with a space cannot be written: both formatters must refuse them
_NAMES = st.text(st.sampled_from("abcxyz019_.-é "), min_size=1, max_size=3)


@st.composite
def graphs(draw) -> Graph:
    names = draw(st.lists(_NAMES, unique=True, max_size=12))
    n = len(names)
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(tuple(names), tuple(rows))


@settings(max_examples=300, deadline=None, database=None)
@given(graphs())
def test_format_graph_matches_oracle_and_roundtrips(g: Graph) -> None:
    got = outcome(format_graph, g)
    assert got == outcome(oracle_format_graph, g)
    if isinstance(got, str):
        assert parse_graph(got) == g


_TOKENS = st.sampled_from(["a", "b", "c", "d", "e", "a", "b", "x", "0", "-1"])
_SPACES = st.sampled_from([" ", " ", "  ", "\t", "\r", "\x0b", "\xa0", "\x1c"])


def _line(min_tokens: int, max_tokens: int, tokens=_TOKENS, unique: bool = False):
    return st.tuples(
        st.sampled_from(["", "", " ", "\t"]),
        st.lists(
            st.tuples(tokens, _SPACES),
            min_size=min_tokens,
            max_size=max_tokens,
            unique_by=(lambda t: t[0]) if unique else None,
        ),
        st.sampled_from(["", "", "\r", " "]),
    ).map(lambda t: t[0] + "".join(tok + sp for tok, sp in t[1])[:-1] + t[2])


@st.composite
def graph_texts(draw) -> str:
    """Graph files whose every line is well formed nine times in ten; the
    tenth is any line of zero to three tokens."""

    def pick(good, bad) -> str:
        return draw(bad if draw(st.integers(0, 9)) == 0 else good)

    n = draw(st.integers(0, 5))
    m = draw(st.integers(0, 6))
    names = ["a", "b", "c", "d", "e"][:n]
    lines = [pick(_SPACES.map(f"{n}{{}}{m}".format), _line(0, 3))]
    lines += [pick(_line(1, 1, st.just(name)), _line(0, 2)) for name in names]
    edge = _line(2, 2, st.sampled_from(names), unique=True) if n > 1 else _line(2, 2)
    lines += [pick(edge, _line(0, 3)) for _ in range(m)]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n", "\n \n\t"]))


_GRAPH_TEXTS = st.one_of(graph_texts(), st.text(st.sampled_from("ab01 \n\t\r"), max_size=30))


@settings(max_examples=300, deadline=None, database=None)
@given(_GRAPH_TEXTS)
def test_parse_graph_matches_oracle(text: str) -> None:
    assert outcome(parse_graph, text) == outcome(oracle_parse_graph, text)


@settings(max_examples=200, deadline=None, database=None)
@given(_GRAPH_TEXTS, st.integers(1, 12))
def test_streamed_read_matches_text_parse(tmp_path_factory, text: str, hint: int) -> None:
    """A file on disk, CRs included, reads as its decoded text parses, at
    the default chunk size and at a chunk of hint characters of lines."""
    path = tmp_path_factory.getbasetemp() / "streamed.graph"
    path.write_bytes(text.encode("utf-8"))
    want = outcome(parse_graph, path.read_text(encoding="utf-8"))
    assert outcome(_load_graph, str(path)) == want
    with open(path, encoding="utf-8") as f:
        assert outcome(parse_graph, ShortReads(f, hint)) == want


# Any text, and text over the formats' own characters, which gets further
# into the parsers; a label of more digits than int() converts.
_ANY_TEXT = st.one_of(
    st.text(max_size=80),
    st.text(st.sampled_from("()01 ab\n\t\r\xa0\u0660"), max_size=40),
    _GRAPH_TEXTS,
)
_HUGE_LABEL = "(" + "1" * 5000 + " a b)"


@settings(max_examples=300, deadline=None, database=None)
@given(_ANY_TEXT, st.booleans())
@example(_HUGE_LABEL, True)
@example(_HUGE_LABEL, False)
def test_text_parsers_raise_only_gfree_errors(text: str, strict: bool) -> None:
    outcome(parse_cotree, text, strict)
    outcome(parse_plain_tree, text)
    outcome(parse_graph, text)


def _spliced(parts: tuple[str, bytes, int]) -> bytes:
    """Text with random bytes put in at a position: mostly well formed,
    sometimes not UTF-8."""
    text, junk, at = parts
    data = text.encode("utf-8")
    at %= len(data) + 1
    return data[:at] + junk + data[at:]


_ANY_BYTES = st.one_of(
    st.binary(max_size=60),
    st.tuples(_ANY_TEXT, st.binary(max_size=3), st.integers(0, 60)).map(_spliced),
)
_PARSERS = {"realize": parse_cotree, "recognize": parse_graph, "tree-lift": parse_plain_tree}


@settings(max_examples=200, deadline=None, database=None)
@given(_ANY_BYTES)
@example(_HUGE_LABEL.encode())
def test_any_file_gets_a_verdict_or_exit_2_never_3(tmp_path_factory, data: bytes) -> None:
    path = tmp_path_factory.getbasetemp() / "fuzzed"
    path.write_bytes(data)
    for command, parse in _PARSERS.items():
        try:
            parse(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, GfreeError):
            codes = {2}
        else:  # a command may still refuse what parses, as recognize the empty graph
            codes = {0, 1, 2}
        assert run_command([command, str(path)]).exit_code in codes, command


# names a tree cannot hold: a parenthesis or a space would split the token
_TREE_NAMES = st.text(st.sampled_from("ab01() "), min_size=1, max_size=3)


@st.composite
def cographs(draw) -> Graph:
    """Random joins and unions of single vertices."""
    names = draw(st.lists(_TREE_NAMES, unique=True, min_size=1, max_size=8))
    parts = [make_graph([x], []) for x in names]
    while len(parts) > 1:
        a = parts.pop(draw(st.integers(0, len(parts) - 1)))
        b = parts.pop(draw(st.integers(0, len(parts) - 1)))
        parts.append(combine(a, b, draw(st.sampled_from(["disjoint", "join"]))))
    return parts[0]


@settings(max_examples=300, deadline=None, database=None)
@given(cographs())
def test_a_printed_cotree_reads_back_or_is_a_format_error(g: Graph) -> None:
    tree = decompose(g)
    try:
        text = format_cotree(tree)
    except FormatError:
        assert any(c in v for v in g.vertices for c in "() ")
    else:
        assert parse_cotree(text) == tree
