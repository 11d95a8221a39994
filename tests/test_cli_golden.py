"""Golden corpus of CLI outputs: every subcommand, text and --json, on its
exit-0, exit-1 and exit-2 paths, byte for byte.

cli_golden.json holds the input files and, per case, the argv, the exit
code and the exact stdout.  Cases run in a temporary directory with
relative file names, so the paths echoed in JSON `inputs` are stable.  Two
negative verdicts that no real input reaches (an order-3 offender, a
failed round trip) are forced by a named patch.

Re-record the expected outputs after an intended change with
`PYTHONPATH=src python tests/test_cli_golden.py`.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

from gfree import NoZ3Report, cycle_graph
from gfree.cli import _build_parser, run_command

DATA = Path(__file__).with_name("cli_golden.json")
CORPUS = json.loads(DATA.read_text(encoding="utf-8"))

PATCHES = {
    "no-z3 offenders": (
        "gfree.automorphism.check_no_z3",
        lambda max_n: NoZ3Report(3, ((1, 1), (2, 2), (3, 4)), (cycle_graph(3),)),
    ),
    "decode mismatch": ("gfree.graphs.is_isomorphic", lambda g, h: None),
}


def _run(case: dict, workdir: Path):
    for name, text in CORPUS["files"].items():
        (workdir / name).write_text(text, encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        if "patch" in case:
            mp.setattr(*PATCHES[case["patch"]])
        return run_command(case["argv"])


def _case_id(case: dict) -> str:
    argv = " ".join(case["argv"])
    return f"{case['patch']}: {argv}" if "patch" in case else argv


@pytest.mark.parametrize("case", CORPUS["cases"], ids=_case_id)
def test_golden_output(case: dict, tmp_path: Path) -> None:
    res = _run(case, tmp_path)
    assert (res.exit_code, res.stdout) == (case["exit_code"], case["stdout"])


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
