"""The CLI's handlers of the graph and tree subcommands, and the helpers
that every handler shares.

The handler of subcommand "delete-leaf" is _cmd_delete_leaf, and so on;
the handlers of the paper's constructions are in `constructions`.  A
handler takes the parsed arguments and returns one Report; `cli` parses
the request, calls the handler and renders its Report as text or JSON.
Each handler imports the layer functions it calls when it runs, so a
request loads only the modules whose code it runs, and looks them up in
their defining modules at call time, so a rebinding of a module attribute
(a test's monkeypatch, a tracer's wrapper) takes effect.

This module never imports `gfree.cli`: `python -m gfree.cli` runs that
file as __main__, and an import would compile and run it a second time.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .errors import FormatError, NotCographError, record


@record
class Report:
    """What a command found: the exit code, the JSON verdict, the text
    output (a string or its pieces), and the JSON witness (omitted when
    None, called first when it is a function, and one JSON string written
    in pieces when it is an iterator of strings) and stats (None prints as
    {})."""

    exit_code: int
    verdict: str
    text: str | Iterable[str]
    witness: object = None
    stats: dict | None = None


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _load_graph(path: str):
    from .textio import parse_graph

    try:
        with open(path, encoding="utf-8") as f:
            return parse_graph(f)
    except UnicodeDecodeError:
        # The streamed decoder's offset is within its chunk: read the whole
        # file for the error with the file's byte offset.
        _read(path)
        raise


def _graph_stats(g) -> dict:
    return {"vertices": g.n, "edges": g.m}


def _cograph_command(args, print_tree: bool) -> Report:
    from .cotree import decompose

    g = _load_graph(args.graph)
    try:
        tree = decompose(g)
    except NotCographError as exc:
        witness = list(exc.witness)
        return Report(1, "not a cograph", f"not a cograph; witness: {' '.join(witness)}\n", witness)
    if not print_tree:
        return Report(0, "cograph", "cograph\n", stats=_graph_stats(g))
    return _tree_report("cograph", tree, _graph_stats(g))


def _cmd_recognize(args) -> Report:
    return _cograph_command(args, print_tree=False)


def _cmd_decompose(args) -> Report:
    return _cograph_command(args, print_tree=True)


def _cmd_realize(args) -> Report:
    from .cotree import realize
    from .textio import parse_cotree

    g = realize(parse_cotree(_read(args.cotree)))
    return _graph_report("realized", g, _graph_stats(g))


def _cmd_validate(args) -> Report:
    from .cotree import validate_cotree
    from .textio import parse_cotree
    from .trees import _path_str

    report = validate_cotree(parse_cotree(_read(args.cotree), strict=False))
    if report.ok:
        return Report(0, "valid", "valid\n")
    violations = [(_path_str(v.path), v.message) for v in report.violations]
    return Report(
        1,
        "invalid",
        "".join(f"violation at {path}: {message}\n" for path, message in violations),
        [{"path": path, "message": message} for path, message in violations],
        {"violations": len(violations)},
    )


def _cmd_iso(args) -> Report:
    from .graphs import is_isomorphic

    found = is_isomorphic(_load_graph(args.first), _load_graph(args.second))
    if found is None:
        return Report(1, "not isomorphic", "not isomorphic\n")
    text = "".join(f"{u} -> {v}\n" for u, v in found.pairs)
    return Report(0, "isomorphic", "isomorphic\n" + text, found.as_dict())


def _cmd_embed(args) -> Report:
    from .cotree import decompose
    from .embedding import label_meet_embed
    from .trees import _path_str

    g = _load_graph(args.pattern)
    h = _load_graph(args.host)
    emb = label_meet_embed(decompose(g), decompose(h))
    if emb is None:
        return Report(1, "does not embed", "does not embed\n")
    return Report(0, "embeds", "embeds\n", lambda: [  # the text prints no witness
        {"from": _path_str(sp), "to": _path_str(tp)} for sp, tp in emb.pairs
    ])


def _tree_report(verdict: str, tree, stats: dict | None = None) -> Report:
    from .textio import format_cotree

    text = format_cotree(tree)
    return Report(0, verdict, text + "\n", text, stats)


def _cmd_delete_leaf(args) -> Report:
    from .embedding import delete_vertex_cotree
    from .textio import parse_cotree

    tree = parse_cotree(_read(args.cotree))
    return _tree_report("deleted", delete_vertex_cotree(tree, args.leaf))


def _module_command(args, strong: bool) -> Report:
    from .cotree import least_module, least_strong_module

    g = _load_graph(args.graph)
    op = least_strong_module if strong else least_module
    members = sorted(op(g, args.u, args.v).members)
    return Report(0, "ok", " ".join(members) + "\n", members, {"size": len(members)})


def _cmd_module(args) -> Report:
    return _module_command(args, strong=False)


def _cmd_strong_module(args) -> Report:
    return _module_command(args, strong=True)


def _cmd_interpret_tree(args) -> Report:
    from .cotree import interpret_tree_from_graph

    return _tree_report("ok", interpret_tree_from_graph(_load_graph(args.graph)))


def _cmd_tree_lift(args) -> Report:
    from .treetext import parse_plain_tree
    from .trees import tree_lift

    return _tree_report("ok", tree_lift(parse_plain_tree(_read(args.tree)), args.k))


def _graph_report(verdict: str, g, stats: dict) -> Report:
    """The graph's text as pieces, which are also the witness under --json."""
    from .textio import _graph_pieces

    pieces = _graph_pieces(g)
    return Report(0, verdict, pieces, pieces, stats)
