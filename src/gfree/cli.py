"""Command-line interface.

Exit codes: 0 = success or affirmative answer, 1 = well-formed negative
answer, 2 = input error (unreadable, non-UTF-8 or malformed input) or a
report that cannot be written, 3 = internal error, printed as
`internal error: <Type>: <message>`.  Output is
deterministic: identical inputs give byte-identical output.  `--json` wraps
every report in an object with fields command, inputs, verdict, optional
witness, and stats; an error becomes an object with verdict "error" and its
text in message.

Every handler (in `commands` or `constructions`) returns one Report, and
_render alone turns it into text or JSON; a witness that only --json
prints may be a function, called only then.  A report's text is a string
or, for a printed graph, a sequence of pieces: main writes them to stdout
as they come, joined into batches of about 64 KiB, so printing a graph
costs memory for one batch, not for the whole text, and the number of
writes does not grow with the number of edge lines; run_command joins
them, so its stdout is a string.
Under --json such a graph is the witness, and "witness" sorts after every
other key, so the document is written up to it, then the graph's pieces
each as its JSON-escaped text, then the tail: the same batches, and the
same bytes as one json.dumps.  When stdout cannot be written (a full
disk, a closed pipe), main exits 2 with one error line on stderr, never
with the report's verdict.

Start-up is kept lean, because a request's cost is mostly start-up: at
module level this file imports only sys, typing, errors, the argument
reader (`arguments`) and the handlers' shared code (`commands`, which adds
pathlib).  The handlers of the paper's constructions (`constructions`) are
imported only for those commands, and each handler imports the layer
functions it calls when it runs, so a request loads only the modules whose
code it runs (`json` only under --json).  Without bytecode each request
compiles those modules from source, and its peak memory follows the
largest single compile, not the total compiled, so every gfree module
compiles at 600 KB traced or less (CPython 3.11, tests/test_startup.py).
A plain request never imports argparse: see `arguments`.
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator

from .arguments import _build_parser, _handler, _parse
from .commands import Report
from .errors import GfreeError, record

__all__ = ["CommandResult", "run_command", "main"]

_BATCH = 1 << 16  # characters per stdout write of a report in pieces


@record
class CommandResult:
    exit_code: int
    stdout: str


# An exit code and the text to print, as a string or its pieces.
Output = tuple[int, "str | Iterable[str]"]

# Parsed arguments that are not inputs of the command's result.
_NOT_INPUTS = {"command", "json", "sidecar"}


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


def _run(argv: list[str]) -> Output:
    args = _parse(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2, ""
    try:
        return _render(args, _handler(args.command)(args))
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
