"""Replay the benchmark's request decks through two gfree trees and compare.

Usage (from the repository root):
  python3 tools/replay_decks.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold the gfree package, such
as the src directories of two checkouts.  The script builds the cotree,
search and deep decks of perfbench/workloads.py at seeds 1 and 7 (the deep
deck holds 1200-vertex graph files and depth-600 and depth-700 cotrees) and
runs every request as `python -m gfree.cli ...` under each tree in three
spellings: as text, with --json, and as text with each option and its value
in one token (`--flag=value`, `-kVALUE`), a form that only the argparse
fallback of the CLI reads.  A request that reads a cotree (.cotree) or
plain-tree (.tree) file runs once more, as text, on a copy of each such
file cut at half its length, which replays the tree readers' faults on
real deck files.  It compares the exit code, the stdout and
stderr bytes and the file that a --sidecar option names.  On the first
mismatch it prints the request and what differs and exits 1; otherwise it
prints how many runs agreed and exits 0.  It uses the standard library only
and changes nothing under perfbench/.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, Deck  # noqa: E402

DECKS = ("cotree", "search", "deep")
SEEDS = (1, 7)
TREE_SUFFIXES = (".cotree", ".tree")

# Exit code, stdout, stderr and the sidecar's text (None when the run
# wrote none).
Result = tuple[int, bytes, bytes, "bytes | None"]


def _joined(argv: list[str]) -> list[str]:
    """The request with each option and its value as one token."""
    out, tokens = [], iter(argv)
    for a in tokens:
        if a.startswith("-") and a != "--json":
            a += ("=" if a.startswith("--") else "") + next(tokens)
        out.append(a)
    return out


def _cut(path: str) -> str:
    """A copy of the file at path, cut at half its length, beside it."""
    src = Path(path)
    data = src.read_bytes()
    cut = src.with_name(f"{src.stem}-cut{src.suffix}")
    cut.write_bytes(data[: len(data) // 2])
    return str(cut)


def _modes(argv: list[str]) -> list[list[str]]:
    """The request as text, as --json, as text with joined options and, when
    it reads a tree file, as text on cut copies of its tree files."""
    text = [a for a in argv if a != "--json"]
    cut = [_cut(a) if a.endswith(TREE_SUFFIXES) else a for a in text]
    modes = [text, [*text, "--json"], _joined(text)]
    return modes + [cut] if cut != text else modes


def _run(src: Path, argv: list[str], sidecar: Path) -> Result:
    """One request under the gfree package in src; a --sidecar file goes to
    the given path instead of the deck's."""
    argv = [f"--sidecar={sidecar}" if a.startswith("--sidecar=") else a for a in argv]
    if "--sidecar" in argv:
        argv[argv.index("--sidecar") + 1] = str(sidecar)
    proc = subprocess.run(
        [sys.executable, "-m", "gfree.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        timeout=600,
    )
    side = sidecar.read_bytes() if sidecar.exists() else None
    return proc.returncode, proc.stdout, proc.stderr, side


def _difference(parent: Result, change: Result) -> str | None:
    if parent[0] != change[0]:
        return f"exit code {parent[0]} (parent) vs {change[0]} (change)"
    for what, a, b in zip(("stdout", "stderr", "sidecar"), parent[1:], change[1:]):
        if a == b:
            continue
        if a is None or b is None:
            return f"{what} written by one side only"
        lines = zip(a.splitlines(keepends=True), b.splitlines(keepends=True))
        line = next((i for i, (x, y) in enumerate(lines, 1) if x != y), None)
        if line is None:
            return f"{what} of {len(a)} (parent) vs {len(b)} (change) bytes, one a prefix"
        x, y = a.splitlines(keepends=True)[line - 1], b.splitlines(keepends=True)[line - 1]
        col = next(i for i, (p, q) in enumerate(zip(x + b"$", y + b"%")) if p != q)
        near = slice(max(0, col - 40), col + 40)
        return f"{what} line {line}, byte {col + 1}: {x[near]!r} (parent) vs {y[near]!r} (change)"
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("parent_src", type=Path, help="directory holding the parent's gfree package")
    ap.add_argument("change_src", type=Path, help="directory holding the change's gfree package")
    args = ap.parse_args()
    for src in (args.parent_src, args.change_src):
        if not (src / "gfree" / "cli.py").is_file():
            ap.error(f"{src} holds no gfree package")
    srcs = (args.parent_src.resolve(), args.change_src.resolve())

    with tempfile.TemporaryDirectory() as tmp:
        runs: list[tuple[str, list[str]]] = []
        for name in DECKS:
            for seed in SEEDS:
                deck = Deck(Path(tmp) / f"{name}{seed}", seed)
                deck.dir.mkdir()
                WORKLOADS[name](deck)
                for i, request in enumerate(deck.requests):
                    label = f"{name} seed {seed} request {i}"
                    runs.extend((label, argv) for argv in _modes(request.argv))

        def compare(numbered: tuple[int, tuple[str, list[str]]]) -> str | None:
            n, (label, argv) = numbered
            sidecars = (Path(tmp) / f"sidecar{n}.{i}" for i in range(2))
            parent, change = map(_run, srcs, (argv, argv), sidecars)
            found = _difference(parent, change)
            return None if found is None else f"{label}: gfree {' '.join(argv)}\n  {found}"

        with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
            for mismatch in pool.map(compare, enumerate(runs)):
                if mismatch is not None:
                    print(f"mismatch in {mismatch}")
                    pool.shutdown(cancel_futures=True)
                    return 1
    print(
        f"{len(runs)} requests agree: decks {DECKS}, seeds {SEEDS}, text, --json, joined"
        " and on cut tree files"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
