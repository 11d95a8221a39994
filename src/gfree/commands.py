"""The CLI's subcommands: one handler per subcommand and the helpers they share.

The handler of subcommand "delete-leaf" is _cmd_delete_leaf, and so on.  A
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
    from .textio import parse_plain_tree
    from .trees import tree_lift

    return _tree_report("ok", tree_lift(parse_plain_tree(_read(args.tree)), args.k))


def _graph_report(verdict: str, g, stats: dict) -> Report:
    """The graph's text as pieces, which are also the witness under --json."""
    from .textio import _graph_pieces

    pieces = _graph_pieces(g)
    return Report(0, verdict, pieces, pieces, stats)


def _cmd_antichain(args) -> Report:
    from .embedding import antichain_graph, antichain_params

    forbidden = _load_graph(args.forbidden)
    g = antichain_graph(forbidden, args.indices)
    complemented, m = antichain_params(forbidden)
    return _graph_report("ok", g, dict(_graph_stats(g), complemented=complemented, m=m))


def _cmd_types(args) -> Report:
    from .typeslogic import ConstantedGraph, type_fragment

    g = _load_graph(args.base)
    forbidden = _load_graph(args.forbidden)
    target = ConstantedGraph(g, g.vertices)
    formulas = [phi.render() for phi in type_fragment(target, forbidden, args.k)]
    return Report(0, "ok", "\n".join(formulas) + "\n", formulas, {"formulas": len(formulas)})


def _cmd_encode(args) -> Report:
    from .gadget import encode_phi, gadget_params

    forbidden = _load_graph(args.forbidden)
    h = _load_graph(args.input)
    params = gadget_params(forbidden)
    enc = encode_phi(h, params)
    if args.sidecar:
        lines = [f"hub {v} {hub}\n" for v, hub in enc.hub_of]
        Path(args.sidecar).write_text("".join(lines), encoding="utf-8")
    out = enc.deliverable
    stats = dict(
        _graph_stats(out),
        complemented=params.complemented,
        hub_cycle=params.hub_cycle,
        edge_cycle=params.edge_cycle,
        non_edge_cycle=params.non_edge_cycle,
        path_len=params.path_len,
    )
    return _graph_report("encoded", out, stats)


def _cmd_decode(args) -> Report:
    from .gadget import decode_psi, gadget_params
    from .graphs import complement

    forbidden = _load_graph(args.forbidden)
    e = _load_graph(args.encoded)
    params = gadget_params(forbidden)
    g = decode_psi(complement(e) if params.complemented else e, params)
    return _graph_report("decoded", g, _graph_stats(g))


def _cmd_roundtrip(args) -> Report:
    from .gadget import decode_psi, encode_phi, gadget_params
    from .graphs import is_isomorphic

    forbidden = _load_graph(args.forbidden)
    h = _load_graph(args.input)
    params = gadget_params(forbidden)
    enc = encode_phi(h, params)
    found = is_isomorphic(h, decode_psi(enc.graph, params))
    stats = dict(_graph_stats(enc.deliverable), complemented=params.complemented)
    if found is None:
        text = "decoded graph is NOT isomorphic to the input\n"
        return Report(1, "decoded graph differs", text, stats=stats)
    text = "decoded graph isomorphic to the input\n"
    return Report(0, "roundtrip ok", text, found.as_dict(), stats)


def _cmd_aut(args) -> Report:
    from .automorphism import automorphisms

    perms = automorphisms(_load_graph(args.graph))
    lines = [f"count {len(perms)}\n"]
    for p in perms:
        cycles = "".join("(" + " ".join(c) + ")" for c in p.cycles())
        lines.append((cycles or "id") + "\n")
    return Report(0, "ok", "".join(lines), [p.as_dict() for p in perms], {"count": len(perms)})


def _cmd_no_z3(args) -> Report:
    from .automorphism import check_no_z3
    from .textio import format_graph

    report = check_no_z3(args.max_n)
    stats = {
        "examined": {str(n): count for n, count in report.examined},
        "total": report.total,
    }
    if report.ok:
        lines = [f"n={n}: {count} cograph(s) examined\n" for n, count in report.examined]
        text = "".join(lines) + "no order-3 automorphism group found\n"
        return Report(0, "no order-3 automorphism group", text, stats=stats)
    witness = [format_graph(g) for g in report.offenders]
    text = "\n".join(["order-3 automorphism group found on:"] + witness)
    return Report(1, "offenders found", text, witness, stats)
