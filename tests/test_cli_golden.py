"""Golden corpus of CLI outputs: every subcommand, text and --json, on its
exit-0, exit-1 and exit-2 paths, byte for byte, through run_command and
through main writing to a file descriptor.

cli_golden.json holds the input files and, per case, the argv, the exit
code and the exact stdout.  Cases run in a temporary directory with
relative file names, so the paths echoed in JSON `inputs` are stable.  Two
negative verdicts that no real input reaches (an order-3 offender, a
failed round trip) are forced by a named patch.

Re-record the expected outputs after an intended change with
`PYTHONPATH=src python tests/test_cli_golden.py`.

cli_help.json pins the help and usage text that argparse prints for four
requests, with the exit code and both streams, at COLUMNS=80.  Other tests
compare the plain-request reader with the parser built from the same
table, which cannot show a change to the text itself.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest

import gfree
from gfree import NoZ3Report, cycle_graph
from gfree.arguments import _build_parser
from gfree.cli import run_command

DATA = Path(__file__).with_name("cli_golden.json")
CORPUS = json.loads(DATA.read_text(encoding="utf-8"))
HELP = json.loads(Path(__file__).with_name("cli_help.json").read_text(encoding="utf-8"))

PATCHES = {
    "no-z3 offenders": (
        "gfree.automorphism.check_no_z3",
        lambda max_n: NoZ3Report(3, ((1, 1), (2, 2), (3, 4)), (cycle_graph(3),)),
    ),
    "decode mismatch": ("gfree.graphs.is_isomorphic", lambda g, h: None),
}


@contextmanager
def _case_dir(case: dict, workdir: Path):
    """Run the body in workdir, which holds the corpus files, with the
    case's patch applied."""
    for name, text in CORPUS["files"].items():
        (workdir / name).write_text(text, encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        if "patch" in case:
            mp.setattr(*PATCHES[case["patch"]])
        yield


def _run(case: dict, workdir: Path):
    with _case_dir(case, workdir):
        return run_command(case["argv"])


def _case_id(case: dict) -> str:
    argv = " ".join(case["argv"])
    return f"{case['patch']}: {argv}" if "patch" in case else argv


@pytest.mark.parametrize("case", CORPUS["cases"], ids=_case_id)
def test_golden_output(case: dict, tmp_path: Path) -> None:
    res = _run(case, tmp_path)
    assert (res.exit_code, res.stdout) == (case["exit_code"], case["stdout"])


# Replays the whole corpus in a fresh interpreter and prints the results as
# JSON; argv[1] is this directory.
_REPLAY = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from test_cli_golden import CORPUS, _run
out = []
for case in CORPUS["cases"]:
    with tempfile.TemporaryDirectory() as tmp:
        res = _run(case, Path(tmp))
    out.append([res.exit_code, res.stdout])
print(json.dumps(out))
"""


@pytest.mark.parametrize("seed", ["0", "1"])
def test_golden_outputs_do_not_depend_on_hash_seed(seed: str) -> None:
    # The pytest process runs under one random hash seed, so a dependency
    # on set or dict order of strings would show up only as a flake here.
    src = str(Path(gfree.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _REPLAY, str(DATA.parent)],
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    expected = [[case["exit_code"], case["stdout"]] for case in CORPUS["cases"]]
    assert json.loads(proc.stdout) == expected


# Replays the whole corpus through gfree.cli.main in a fresh interpreter,
# each case with stdout (file descriptor 1) on a file, and prints the exit
# codes and the files' text as JSON; argv[1] is this directory.
_REPLAY_MAIN = """
import json, os, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from test_cli_golden import CORPUS, _case_dir
from gfree.cli import main
terminal = os.dup(1)
out = []
for case in CORPUS["cases"]:
    with tempfile.TemporaryDirectory() as tmp, _case_dir(case, Path(tmp)):
        with open("stdout", "w+b") as f:
            os.dup2(f.fileno(), 1)
            code = main(case["argv"])
            os.dup2(terminal, 1)
            f.seek(0)
            out.append([code, f.read().decode("utf-8")])
print(json.dumps(out))
"""


def test_main_writes_the_golden_bytes_to_a_file_descriptor() -> None:
    # The benchmark's setting: every write to stdout is a system call.
    src = str(Path(gfree.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _REPLAY_MAIN, str(DATA.parent)],
        env={**os.environ, "PYTHONUNBUFFERED": "1", "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    expected = [[case["exit_code"], case["stdout"]] for case in CORPUS["cases"]]
    assert json.loads(proc.stdout) == expected


def test_a_printed_graph_is_never_formatted_as_a_whole(tmp_path: Path, monkeypatch) -> None:
    # The text and the --json witness both stream the graph's pieces;
    # neither calls format_graph, which joins the whole text.
    def broken(g):
        raise RuntimeError("boom")

    monkeypatch.setattr("gfree.textio.format_graph", broken)
    for argv in (["realize", "t.tree"], ["realize", "t.tree", "--json"]):
        case = next(c for c in CORPUS["cases"] if c["argv"] == argv)
        res = _run(case, tmp_path)
        assert (res.exit_code, res.stdout) == (case["exit_code"], case["stdout"]), argv


@pytest.mark.parametrize("case", HELP["cases"], ids=lambda case: " ".join(case["argv"]))
def test_help_and_usage_text_is_pinned(case: dict) -> None:
    # argparse wraps its text to the width that COLUMNS gives
    src = str(Path(gfree.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "gfree.cli", *case["argv"]],
        env={**os.environ, "COLUMNS": str(HELP["columns"]), "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    got = (proc.returncode, proc.stdout, proc.stderr)
    assert got == (case["exit_code"], case["stdout"], case["stderr"])


def test_corpus_covers_every_subcommand_in_both_modes() -> None:
    subparsers = _build_parser()._subparsers._group_actions[0]
    for name in subparsers.choices:
        runs = [c["argv"] for c in CORPUS["cases"] if c["argv"][:1] == [name]]
        assert any("--json" in a for a in runs), name
        assert any("--json" not in a for a in runs), name


if __name__ == "__main__":
    for case in CORPUS["cases"]:
        with tempfile.TemporaryDirectory() as tmp:
            res = _run(case, Path(tmp))
        case["exit_code"], case["stdout"] = res.exit_code, res.stdout
    DATA.write_text(json.dumps(CORPUS, indent=1, sort_keys=True) + "\n", encoding="utf-8")
