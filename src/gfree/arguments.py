"""The CLI's arguments: the table of subcommands, the reader of a plain
request and the argparse parser for every other.

_parse reads a plain request's arguments straight from _COMMANDS: the
command name, then --json, exact flags each with its value and one run of
positionals.  Anything else (help, a usage error, an abbreviated flag,
--flag=value, -k3, --) goes to _build_parser, which imports argparse only
then and prints its usual help and usage text.  Either way the arguments
hold the command's name, and _handler gives its handler.

This module never imports `gfree.cli`: `python -m gfree.cli` runs that
file as __main__, and an import would compile and run it a second time.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import argparse

# Each subcommand: its help line and its arguments, in order.  An argument
# is a positional name or a (flag, add_argument keywords) pair.
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


# The subcommands of the paper's constructions, whose handlers are in
# `constructions`; the handlers of the others are in `commands`.
_CONSTRUCTIONS = {"antichain", "types", "encode", "decode", "roundtrip", "aut", "no-z3"}


def _handler(name: str):
    """The handler of a subcommand: that of "delete-leaf" is
    commands._cmd_delete_leaf, that of "no-z3" constructions._cmd_no_z3."""
    if name in _CONSTRUCTIONS:
        from . import constructions as module
    else:
        from . import commands as module
    return getattr(module, "_cmd_" + name.replace("-", "_"))


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
    args = SimpleNamespace(command=name, json=False)
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
    """The gfree parser with every subcommand; the CLI uses it only for
    requests that _parse leaves (help, usage errors, other spellings)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="gfree",
        description="Cographs, decomposition trees, and forbidden-subgraph tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="structured output")
        for arg in arguments:
            flag, keywords = _split(arg)
            p.add_argument(flag, **keywords)
    return parser
