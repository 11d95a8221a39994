"""A graph costs a CLI request memory for the graph, not for its text,
whether the request reads the graph from a file or prints it.

Each request runs as `python -m gfree.cli ...` with stdout on os.devnull,
spawned with os.posix_spawn from a small helper process and reaped with
os.wait4, whose ru_maxrss is the request's peak RSS.  On Linux a child's
peak RSS includes that of the process that spawned it, so the requests are
not spawned from the test process itself.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gfree
from gfree import format_graph, make_graph

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="ru_maxrss of a reaped child is read on Linux"
)

SRC = Path(gfree.__file__).resolve().parent.parent

# Spawns each argv, one JSON list per line of stdin, and prints its exit
# code and peak RSS in KiB.
_SPAWNER = """
import json, os, sys
for line in sys.stdin:
    argv = json.loads(line)
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, flush=True)
"""


def _peak_rss_kib(requests: list[list[str]]) -> list[tuple[str, int]]:
    """The exit code and peak RSS of each gfree request, with a discarded
    first run."""
    requests = [[sys.executable, "-m", "gfree.cli", *argv] for argv in requests]
    done = subprocess.run(
        [sys.executable, "-c", _SPAWNER],
        input="".join(json.dumps(argv) + "\n" for argv in [requests[0], *requests]),
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return [(code, int(kib)) for code, kib in map(str.split, done.stdout.splitlines()[1:])]


def test_dense_graph_file_adds_little_to_a_requests_peak_rss(tmp_path: Path) -> None:
    rng = random.Random(0)
    names = [f"v{i}" for i in range(300)]
    edges = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :] if rng.random() < 0.9]
    dense, small = tmp_path / "dense.graph", tmp_path / "small.graph"
    dense.write_text(format_graph(make_graph(names, edges)), encoding="utf-8")
    small.write_text("3 2\na\nb\nc\na b\nb c\n", encoding="utf-8")
    assert dense.stat().st_size > 350_000
    (dense_code, dense_kib), (small_code, small_kib) = _peak_rss_kib(
        [["recognize", str(dense)], ["recognize", str(small)]]
    )
    assert (dense_code, small_code) == ("1", "0")  # the dense graph holds a P4
    assert dense_kib - small_kib < 1.5 * 1024, (dense_kib, small_kib)


def _printing_a_dense_graph_adds_kib(tmp_path: Path, *options: str) -> tuple[int, int]:
    """The peak RSS of printing K450 (about 1 MB of text) and of a 3-vertex
    graph, with the given options."""
    big, small = tmp_path / "k450.tree", tmp_path / "small.tree"
    big.write_text("(1 " + " ".join(f"v{i}" for i in range(450)) + ")\n", encoding="utf-8")
    small.write_text("(1 a (0 b c))\n", encoding="utf-8")
    assert len(format_graph(gfree.realize(gfree.parse_cotree(big.read_text())))) > 950_000
    (big_code, big_kib), (small_code, small_kib) = _peak_rss_kib(
        [["realize", str(big), *options], ["realize", str(small), *options]]
    )
    assert (big_code, small_code) == ("0", "0")
    return big_kib, small_kib


def test_printing_a_dense_graph_adds_little_to_a_requests_peak_rss(tmp_path: Path) -> None:
    big_kib, small_kib = _printing_a_dense_graph_adds_kib(tmp_path)
    assert big_kib - small_kib < 0.5 * 1024, (big_kib, small_kib)


def test_printing_a_dense_graph_as_json_adds_little_to_a_requests_peak_rss(
    tmp_path: Path,
) -> None:
    big_kib, small_kib = _printing_a_dense_graph_adds_kib(tmp_path, "--json")
    assert big_kib - small_kib < 0.5 * 1024, (big_kib, small_kib)
