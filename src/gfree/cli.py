"""Command-line interface.

Exit codes: 0 = success or affirmative answer, 1 = well-formed negative
answer, 2 = input error (unreadable, non-UTF-8 or malformed input) or a
report that cannot be written, 3 = internal error, printed as
`internal error: <Type>: <message>`.  Output is
deterministic: identical inputs give byte-identical output.  `--json` wraps
every report in an object with fields command, inputs, verdict, optional
witness, and stats; an error becomes an object with verdict "error" and its
text in message.

Every handler (in `commands`) returns one Report, and _render alone turns
it into text or JSON; a witness that only --json prints may be a function,
called only then.  A report's text is a string or, for a printed graph, a
sequence of pieces: main writes them to stdout as they come, joined into
batches of about 64 KiB, so printing a graph costs memory for one batch,
not for the whole text, and the number of writes does not grow with the
number of edge lines; run_command joins them, so its stdout is a string.
Under --json such a graph is the witness, and "witness" sorts after every
other key, so the document is written up to it, then the graph's pieces
each as its JSON-escaped text, then the tail: the same batches, and the
same bytes as one json.dumps.  When stdout cannot be written (a full
disk, a closed pipe), main exits 2 with one error line on stderr, never
with the report's verdict.

Start-up is kept lean, because a request's cost is mostly start-up: at
module level this file imports only sys, types, typing, errors and the
handlers (`commands`, which adds pathlib), and each handler imports the
layer functions it calls when it runs, so a request loads only the modules
whose code it runs (`json` only under --json).  Every module a request
compiles is kept small, since compiling from source, without bytecode,
sets a cograph request's peak memory.  _parse reads a plain request's arguments
straight from _COMMANDS: the command name, then --json, exact flags each
with its value and one run of positionals.  Anything else (help, a usage
error, an abbreviated flag, --flag=value, -k3, --) goes to argparse, which
is imported only then and prints its usual help and usage text.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator

from . import commands
from .commands import Report
from .errors import GfreeError, record

if TYPE_CHECKING:
    import argparse

__all__ = ["CommandResult", "run_command", "main"]

_BATCH = 1 << 16  # characters per stdout write of a report in pieces


@record
class CommandResult:
    exit_code: int
    stdout: str


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
    if isinstance(witness, Iterator):  # a graph's text, in pieces
        return report.exit_code, _json_pieces(json.dumps(doc, sort_keys=True, indent=2), witness)
    if witness is not None:
        doc["witness"] = witness
    return report.exit_code, json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _json_pieces(head: str, pieces: Iterator[str]) -> Iterator[str]:
    """The document head, whose text ends in "\n}", with the string of the
    pieces added as its last key, "witness", escaped a piece at a time."""
    from json.encoder import encode_basestring_ascii

    yield head[:-2] + ',\n  "witness": "'
    for piece in pieces:
        yield encode_basestring_ascii(piece)[1:-1]
    yield '"\n}\n'


def _error(args, exit_code: int, label: str, message: str) -> Output:
    report = Report(exit_code, "error", f"{label}: {message}\n")
    return _render(args, report, inputs={}, message=message)


# Each subcommand: its help line and its arguments, in order.  An argument
# is a positional name or a (flag, add_argument keywords) pair.  The handler
# of "delete-leaf" is commands._cmd_delete_leaf, and so on.
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
    return getattr(commands, "_cmd_" + name.replace("-", "_"))


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
