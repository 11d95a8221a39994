"""Command-line interface.

Exit codes: 0 = success or affirmative answer, 1 = well-formed negative
answer, 2 = input error (unreadable, non-UTF-8 or malformed input) or a
report that cannot be written, 3 = internal error, printed as
`internal error: <Type>: <message>`.  Output is
deterministic: identical inputs give byte-identical output.  `--json` wraps
every report in an object with fields command, inputs, verdict, optional
witness, and stats; an error becomes an object with verdict "error" and its
text in message.

Every handler returns one Report, and _render alone turns it into text or
JSON; a witness that only --json prints may be a function, called only then.
A report's text is a string or, for a printed graph, a sequence of pieces:
main writes them to stdout as they come, joined into batches of about 64
KiB, so printing a graph costs memory for one batch, not for the whole
text, and the number of writes does not grow with the number of edge
lines; run_command joins them, so its stdout is a string.  When stdout
cannot be written (a full disk, a closed pipe), main exits 2 with one
error line on stderr, never with the report's verdict.

Start-up is kept lean, because a request's cost is mostly start-up: at
module level this file imports only sys, pathlib, types, typing and
errors, and each handler imports the layer functions it calls when it
runs, so a request loads only the modules whose code it runs (`json` only
under --json).  Handlers look the functions up in their defining modules at call
time, so a rebinding of a module attribute (a test's monkeypatch, a
tracer's wrapper) takes effect.  _parse reads a plain request's arguments
straight from _COMMANDS: the command name, then --json, exact flags each
with its value and one run of positionals.  Anything else (help, a usage
error, an abbreviated flag, --flag=value, -k3, --) goes to argparse, which
is imported only then and prints its usual help and usage text.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable

from .errors import FormatError, GfreeError, NotCographError, record

if TYPE_CHECKING:
    import argparse

__all__ = ["CommandResult", "run_command", "main"]

_BATCH = 1 << 16  # characters per stdout write of a report in pieces


@record
class CommandResult:
    exit_code: int
    stdout: str


@record
class Report:
    """What a command found: the exit code, the JSON verdict, the text
    output (a string or its pieces), and the JSON witness (omitted when
    None, and called first when it is a function) and stats (None prints
    as {})."""

    exit_code: int
    verdict: str
    text: str | Iterable[str]
    witness: object = None
    stats: dict | None = None


# An exit code and the text to print, as a string or its pieces.
Output = tuple[int, "str | Iterable[str]"]

# Parsed arguments that are not inputs of the command's result.
_NOT_INPUTS = {"command", "func", "json", "sidecar"}


def _render(args, report: Report, **fields) -> Output:
    """The exit code and the report's text, or under --json its sorted-key
    JSON object; fields add to or override the object's top-level keys."""
    if not args.json:
        return report.exit_code, report.text
    import json

    doc = {
        "command": args.command,
        "inputs": {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS},
        "verdict": report.verdict,
        "stats": report.stats or {},
        **fields,
    }
    witness = report.witness() if callable(report.witness) else report.witness
    if witness is not None:
        doc["witness"] = witness
    return report.exit_code, json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _error(args, exit_code: int, label: str, message: str) -> Output:
    report = Report(exit_code, "error", f"{label}: {message}\n")
    return _render(args, report, inputs={}, message=message)


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
    from .cotree import _path_str, validate_cotree
    from .textio import parse_cotree

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
    from .cotree import _path_str, decompose
    from .embedding import label_meet_embed

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
    from .cotree import tree_lift
    from .textio import parse_plain_tree

    return _tree_report("ok", tree_lift(parse_plain_tree(_read(args.tree)), args.k))


def _graph_report(verdict: str, g, stats: dict) -> Report:
    """The graph's text as pieces, and as the witness under --json."""
    from .textio import _graph_pieces, format_graph

    return Report(0, verdict, _graph_pieces(g), lambda: format_graph(g), stats)


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


# Each subcommand: its help line and its arguments, in order.  An argument
# is a positional name or a (flag, add_argument keywords) pair.  The handler
# of "delete-leaf" is _cmd_delete_leaf, and so on.
_FORBIDDEN = ("--forbidden", {"required": True})
_COMMANDS = {
    "recognize": ("test whether a graph is a cograph", ["graph"]),
    "decompose": ("print the decomposition tree of a cograph", ["graph"]),
    "realize": ("print the graph a cotree realizes", ["cotree"]),
    "validate": ("report structural violations of a cotree file", ["cotree"]),
    "iso": ("test two graphs for isomorphism", ["first", "second"]),
    "embed": ("induced-subgraph test for cographs, on the trees", ["pattern", "host"]),
    "delete-leaf": ("remove one leaf from a cotree", ["cotree", "leaf"]),
    "module": ("least module containing two vertices", ["graph", "u", "v"]),
    "strong-module": ("least strong module of two vertices", ["graph", "u", "v"]),
    "interpret-tree": ("rebuild the decomposition tree from pair modules", ["graph"]),
    "tree-lift": (
        "lift a plain rooted tree to a cotree",
        ["tree", ("-k", {"type": int, "default": 2, "help": "fresh leaves per node (default 2)"})],
    ),
    "antichain": (
        "cycle-family graph for an index set",
        [_FORBIDDEN, ("indices", {"nargs": "+", "type": int})],
    ),
    "types": (
        "k-bounded existential type fragment",
        [
            ("--base", {"required": True}),
            _FORBIDDEN,
            ("-k", {"type": int, "default": 4, "help": "fresh-vertex bound (default 4)"}),
        ],
    ),
    "encode": (
        "encode a graph into a forbidden-free graph",
        [
            _FORBIDDEN,
            ("--input", {"required": True}),
            ("--sidecar", {"help": "write a hub map file"}),
        ],
    ),
    "decode": (
        "decode an encoded graph",
        [_FORBIDDEN, ("--input", {"required": True, "dest": "encoded"})],
    ),
    "roundtrip": ("encode, decode, and compare", [_FORBIDDEN, "input"]),
    "aut": ("list all automorphisms of a graph", ["graph"]),
    "no-z3": (
        "exhaustive order-3 automorphism group search",
        [("--max-n", {"type": int, "required": True})],
    ),
}


def _handler(name: str):
    return globals()["_cmd_" + name.replace("-", "_")]


def _split(arg) -> tuple[str, dict]:
    """An argument of _COMMANDS as its name or flag and its keywords."""
    return (arg, {}) if isinstance(arg, str) else arg


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The arguments argparse would give a plain request, or None.

    A plain request is an exact command name, then tokens that are each
    --json, an exact flag of the command followed by a value, or a
    positional; no value or positional starts with "-", no flag is given
    twice, every required flag is given, the positionals are one run of the
    right length, and every type conversion succeeds.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    name = argv[0]
    args = SimpleNamespace(command=name, func=_handler(name), json=False)
    flags: dict[str, dict] = {"--json": {}}
    positionals = []
    for arg in _COMMANDS[name][1]:
        flag, keywords = _split(arg)
        if flag.startswith("-"):
            flags[flag] = keywords
            setattr(args, _dest(flag, keywords), keywords.get("default"))
        else:
            positionals.append((flag, keywords))
    words = []  # (dest, keywords, a word or a list of words), converted last
    given: set[str] = set()
    at = []  # the positions of the positionals
    i = 1
    while i < len(argv):
        token = argv[i]
        if not token.startswith("-"):
            at.append(i)
        elif token not in flags or token in given:
            return None
        elif token == "--json":
            args.json = True
        elif i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        else:
            i += 1
            words.append((_dest(token, flags[token]), flags[token], argv[i]))
        given.add(token)
        i += 1
    if any(k.get("required") and flag not in given for flag, k in flags.items()):
        return None
    # One run, of one word per positional, plus any extra for the one "+".
    extra = len(at) - len(positionals)
    plus = any(k.get("nargs") == "+" for _, k in positionals)
    if (at and at[-1] - at[0] >= len(at)) or extra < 0 or (extra and not plus):
        return None
    run = [argv[j] for j in at]
    for dest, keywords in positionals:
        many = keywords.get("nargs") == "+"
        words.append((dest, keywords, run[: 1 + extra] if many else run[0]))
        del run[: 1 + extra if many else 1]
    try:
        for dest, keywords, word in words:
            convert = keywords.get("type", str)
            setattr(args, dest, [*map(convert, word)] if isinstance(word, list) else convert(word))
    except (TypeError, ValueError):  # argparse refuses such a value
        return None
    return args


def _dest(flag: str, keywords: dict) -> str:
    return keywords.get("dest", flag.lstrip("-").replace("-", "_"))


def _build_parser() -> argparse.ArgumentParser:
    """The gfree parser with every subcommand; _run uses it only for
    requests that _parse leaves (help, usage errors, other spellings)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="gfree",
        description="Cographs, decomposition trees, and forbidden-subgraph tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=_handler(name))
        p.add_argument("--json", action="store_true", help="structured output")
        for arg in arguments:
            flag, keywords = _split(arg)
            p.add_argument(flag, **keywords)
    return parser


def _run(argv: list[str]) -> Output:
    args = _parse(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2, ""
    try:
        return _render(args, args.func(args))
    except (GfreeError, OSError) as exc:
        return _error(args, 2, "error", str(exc))
    except Exception as exc:
        # A crash must never read as a verdict: exit 1 means "no".
        return _error(args, 3, "internal error", _crash(exc))


def _crash(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_command(argv: list[str]) -> CommandResult:
    code, out = _run(argv)
    try:
        return CommandResult(code, out if isinstance(out, str) else "".join(out))
    except Exception as exc:  # a crash while the pieces are made
        return CommandResult(3, f"internal error: {_crash(exc)}\n")


def _write(text: str | Iterable[str]) -> None:
    """Write text, a string or its pieces, to stdout and flush; pieces are
    joined into batches of about _BATCH characters."""
    batch: list[str] = []
    size = 0
    for piece in (text,) if isinstance(text, str) else text:
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH:
            sys.stdout.write("".join(batch))
            batch, size = [], 0
    sys.stdout.write("".join(batch))
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    code, out = _run(sys.argv[1:] if argv is None else argv)
    if sys.stdout is None:  # started with descriptor 1 closed
        sys.stderr.write("error: cannot write stdout: it is closed\n")
        return 2
    try:
        _write(out)
    except OSError as exc:
        # The report is lost, so its verdict was never given.  Shutdown
        # flushes stdout again: point its descriptor at os.devnull.
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.stderr.write(f"error: cannot write stdout: {exc}\n")
        return 2
    except Exception as exc:
        # A crash while the pieces are made; some of the text may be out.
        sys.stderr.write(f"internal error: {_crash(exc)}\n")
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
