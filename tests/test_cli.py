from __future__ import annotations

import errno
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gfree
from gfree import (
    NoZ3Report,
    cycle_graph,
    encode_phi,
    format_graph,
    gadget_params,
    make_graph,
    parse_graph,
    path_graph,
)
from gfree.cli import (
    _BATCH,
    _COMMANDS,
    Report,
    _build_parser,
    _parse,
    _split,
    main,
    run_command,
)
from test_cli_golden import CORPUS
from test_cli_golden import _run as _run_golden

P4_TEXT = "4 3\na\nb\nc\nd\na b\nb c\nc d\n"
K2_TEXT = "2 1\na\nb\na b\n"
P3_TEXT = "3 2\na\nb\nc\na b\nb c\n"
C3_TEXT = "3 3\nx\ny\nz\nx y\ny z\nx z\n"
C4_TEXT = "4 4\np\nq\nr\ns\np q\nq r\nr s\np s\n"
JOIN22_TEXT = "4 4\nu1\nu2\nw1\nw2\nu1 w1\nu1 w2\nu2 w1\nu2 w2\n"


def _write(tmp_path: Path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_recognize_cograph(tmp_path: Path) -> None:
    res = run_command(["recognize", _write(tmp_path, "k2.graph", K2_TEXT)])
    assert res.exit_code == 0
    assert res.stdout.strip() == "cograph"


def test_recognize_p4_message(tmp_path: Path) -> None:
    res = run_command(["recognize", _write(tmp_path, "p4.graph", P4_TEXT)])
    assert res.exit_code == 1
    assert res.stdout.strip() == "not a cograph; witness: a b c d"


def test_recognize_json_fields(tmp_path: Path) -> None:
    res = run_command(["recognize", _write(tmp_path, "p4.graph", P4_TEXT), "--json"])
    assert res.exit_code == 1
    payload = json.loads(res.stdout)
    assert payload["command"] == "recognize"
    assert payload["witness"] == ["a", "b", "c", "d"]
    assert set(payload) >= {"command", "inputs", "verdict", "stats"}


def test_decompose(tmp_path: Path) -> None:
    res = run_command(["decompose", _write(tmp_path, "k2.graph", K2_TEXT)])
    assert (res.exit_code, res.stdout.strip()) == (0, "(1 a b)")
    res = run_command(["decompose", _write(tmp_path, "p4.graph", P4_TEXT)])
    assert res.exit_code == 1
    assert res.stdout.strip() == "not a cograph; witness: a b c d"


def test_realize_roundtrip(tmp_path: Path) -> None:
    tree = _write(tmp_path, "t.tree", "(1 b (0 a c))\n")
    res = run_command(["realize", tree])
    assert res.exit_code == 0
    g = parse_graph(res.stdout)
    assert g.has_edge("a", "b") and g.has_edge("b", "c") and not g.has_edge("a", "c")


def test_validate(tmp_path: Path) -> None:
    good = _write(tmp_path, "good.tree", "(1 a b)\n")
    assert run_command(["validate", good]).exit_code == 0
    assert run_command(["validate", good]).stdout.strip() == "valid"
    bad = _write(tmp_path, "bad.tree", "(1 (1 a b) c)\n")
    res = run_command(["validate", bad])
    assert res.exit_code == 1
    assert "violation" in res.stdout


def test_iso_two_realizations_of_c4(tmp_path: Path) -> None:
    a = _write(tmp_path, "c4.graph", C4_TEXT)
    b = _write(tmp_path, "join22.graph", JOIN22_TEXT)
    assert run_command(["iso", a, b]).exit_code == 0
    c = _write(tmp_path, "p3.graph", P3_TEXT)
    assert run_command(["iso", a, c]).exit_code == 1


def test_embed(tmp_path: Path) -> None:
    small = _write(tmp_path, "p3.graph", P3_TEXT)
    big = _write(tmp_path, "c4.graph", C4_TEXT)
    assert run_command(["embed", small, big]).exit_code == 0
    assert run_command(["embed", big, small]).exit_code == 1


def test_embed_text_output_builds_no_witness(tmp_path: Path, monkeypatch) -> None:
    def no_witness(path):
        raise AssertionError("the text of embed prints no witness")

    monkeypatch.setattr("gfree.trees._path_str", no_witness)
    small = _write(tmp_path, "p3.graph", P3_TEXT)
    big = _write(tmp_path, "c4.graph", C4_TEXT)
    res = run_command(["embed", small, big])
    assert (res.exit_code, res.stdout) == (0, "embeds\n")


def test_delete_leaf(tmp_path: Path) -> None:
    tree = _write(tmp_path, "t.tree", "(1 (0 a (1 b c)) d)\n")
    res = run_command(["delete-leaf", tree, "a"])
    assert (res.exit_code, res.stdout.strip()) == (0, "(1 b c d)")
    assert run_command(["delete-leaf", tree, "zz"]).exit_code == 2


def test_module_commands(tmp_path: Path) -> None:
    g = _write(tmp_path, "p3.graph", P3_TEXT)
    assert run_command(["module", g, "a", "c"]).stdout.split() == ["a", "c"]
    assert run_command(["module", g, "a", "b"]).stdout.split() == ["a", "b", "c"]
    assert run_command(["strong-module", g, "a", "c"]).stdout.split() == ["a", "c"]
    assert run_command(["module", g, "a", "a"]).exit_code == 2


def test_interpret_tree(tmp_path: Path) -> None:
    g = _write(tmp_path, "p3.graph", P3_TEXT)
    res = run_command(["interpret-tree", g])
    assert (res.exit_code, res.stdout.strip()) == (0, "(1 b (0 a c))")


def test_a_tree_with_an_unreadable_leaf_name_is_exit_2(tmp_path: Path) -> None:
    # printed, the tree would be "(1 b (0 a( c)))", which reads back as a
    # node labeled "c"
    g = _write(tmp_path, "parens.graph", "3 2\na(\nb\nc)\na( b\nb c)\n")
    for command in ("decompose", "interpret-tree"):
        res = run_command([command, g])
        assert (res.exit_code, res.stdout) == (2, "error: leaf name 'a(' is not serializable\n")


def test_tree_lift_default_and_flag(tmp_path: Path) -> None:
    t = _write(tmp_path, "plain.tree", "(())\n")
    assert run_command(["tree-lift", t]).stdout.strip() == "(0 g0 g1 (1 g2 g3))"
    res = run_command(["tree-lift", t, "-k", "3"])
    assert res.stdout.strip() == "(0 g0 g1 g2 (1 g3 g4 g5))"


def test_antichain(tmp_path: Path) -> None:
    c3 = _write(tmp_path, "c3.graph", C3_TEXT)
    res = run_command(["antichain", "--forbidden", c3, "0", "2"])
    assert res.exit_code == 0
    g = parse_graph(res.stdout)
    assert (g.n, g.m) == (10, 10)
    res = run_command(["antichain", "--forbidden", c3, "0", "--json"])
    payload = json.loads(res.stdout)
    assert payload["stats"]["m"] == 3
    assert payload["stats"]["complemented"] is False


def test_antichain_rejects_p4_sub(tmp_path: Path) -> None:
    p3 = _write(tmp_path, "p3.graph", P3_TEXT)
    assert run_command(["antichain", "--forbidden", p3, "0"]).exit_code == 2


def test_types(tmp_path: Path) -> None:
    k1 = _write(tmp_path, "k1.graph", "1 0\na\n")
    p3 = _write(tmp_path, "p3.graph", P3_TEXT)
    res = run_command(["types", "--base", k1, "--forbidden", p3, "-k", "1"])
    assert res.exit_code == 0
    assert res.stdout.splitlines() == ["true", "E x0 . !(a-x0)"]


def test_types_rejects_a_base_vertex_named_like_a_fresh_one(tmp_path: Path) -> None:
    base = _write(tmp_path, "zero.graph", "1 0\n0\n")
    p3 = _write(tmp_path, "p3.graph", P3_TEXT)
    res = run_command(["types", "--base", base, "--forbidden", p3, "-k", "1"])
    assert (res.exit_code, res.stdout) == (2, "error: base vertex '0' collides with the fresh-name scheme\n")


def test_types_rejects_empty_forbidden(tmp_path: Path) -> None:
    # With no vertex to remove, the forbidden graph leaves no traces, so
    # only the freeness check of the base can refuse it.
    k1 = _write(tmp_path, "k1.graph", "1 0\na\n")
    empty = _write(tmp_path, "empty.graph", "0 0\n")
    for k in ("0", "2"):
        res = run_command(["types", "--base", k1, "--forbidden", empty, "-k", k])
        assert (res.exit_code, res.stdout) == (2, "error: freeness needs a nonempty forbidden graph\n")


def test_types_of_a_triangle_free_edge_at_k_8_ends(tmp_path: Path) -> None:
    """Only the extensions whose formula holds are expanded: K2 with the
    triangle forbidden at k = 8 prints its 45 formulas in well under a
    second, where expanding every kept extension ran for over a minute."""
    k2 = _write(tmp_path, "k2.graph", K2_TEXT)
    c3 = _write(tmp_path, "c3.graph", C3_TEXT)
    res = run_command(["types", "--base", k2, "--forbidden", c3, "-k", "8"])
    assert res.exit_code == 0
    assert len(res.stdout.splitlines()) == 45


def test_types_states_its_size_bound(tmp_path: Path) -> None:
    """Every neighbour mask of a parent is listed, so a parent may have at
    most 20 vertices; with k = 0 nothing is enumerated and any base goes."""

    def edgeless(n: int) -> str:
        text = f"{n} 0\n" + "".join(f"v{i}\n" for i in range(n))
        return _write(tmp_path, f"e{n}.graph", text)

    k2 = _write(tmp_path, "k2.graph", K2_TEXT)
    for n, k in ((21, "1"), (20, "2"), (3, "19")):
        res = run_command(["types", "--base", edgeless(n), "--forbidden", k2, "-k", k])
        assert res.exit_code == 2
        assert res.stdout.startswith("error: extension enumeration lists every neighbour mask")
    res = run_command(["types", "--base", edgeless(40), "--forbidden", k2, "-k", "0"])
    assert (res.exit_code, res.stdout) == (0, "true\n")


def test_encode_decode_roundtrip(tmp_path: Path) -> None:
    c3 = _write(tmp_path, "c3.graph", C3_TEXT)
    k2 = _write(tmp_path, "k2.graph", K2_TEXT)
    enc = run_command(["encode", "--forbidden", c3, "--input", k2])
    assert enc.exit_code == 0
    assert parse_graph(enc.stdout).n == 24
    enc_file = _write(tmp_path, "enc.graph", enc.stdout)
    dec = run_command(["decode", "--forbidden", c3, "--input", enc_file])
    assert dec.exit_code == 0
    assert parse_graph(dec.stdout).m == 1
    rt = run_command(["roundtrip", "--forbidden", c3, k2])
    assert rt.exit_code == 0
    assert "isomorphic" in rt.stdout


def test_encode_sidecar(tmp_path: Path) -> None:
    c3 = _write(tmp_path, "c3.graph", C3_TEXT)
    k2 = _write(tmp_path, "k2.graph", K2_TEXT)
    sidecar = tmp_path / "side.txt"
    res = run_command(["encode", "--forbidden", c3, "--input", k2, "--sidecar", str(sidecar)])
    assert res.exit_code == 0
    lines = sidecar.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert all(line.startswith("hub ") for line in lines)
    assert lines[0].split()[1] == "a"


def test_decode_lone_hub_cycle(tmp_path: Path) -> None:
    c3 = _write(tmp_path, "c3.graph", C3_TEXT)
    from gfree import cycle_graph

    lone = _write(tmp_path, "lone.graph", format_graph(cycle_graph(6)))
    res = run_command(["decode", "--forbidden", c3, "--input", lone])
    assert res.exit_code == 0
    assert parse_graph(res.stdout).n == 1


def test_decode_malformed_is_input_error(tmp_path: Path) -> None:
    c3 = _write(tmp_path, "c3.graph", C3_TEXT)
    bad = _write(tmp_path, "bad.graph", format_graph(path_graph(6)))
    assert run_command(["decode", "--forbidden", c3, "--input", bad]).exit_code == 2


def test_decode_of_two_paths_for_one_hub_pair_is_exit_2(tmp_path: Path) -> None:
    # the graph of test_gadget's test_decode_rejects_two_paths_for_one_hub_pair
    from test_gadget import C3, K2, _edited, _second_path

    enc = encode_phi(K2, gadget_params(C3))
    doubled = _edited(enc.graph, add=_second_path(enc, enc.params.edge_cycle))
    c3 = _write(tmp_path, "c3.graph", C3_TEXT)
    bad = _write(tmp_path, "doubled.graph", format_graph(doubled))
    message = "found 2 hub-pair paths on 1 pairs, expected 1"
    res = run_command(["decode", "--forbidden", c3, "--input", bad])
    assert (res.exit_code, res.stdout) == (2, f"error: {message}\n")
    res = run_command(["decode", "--forbidden", c3, "--input", bad, "--json"])
    assert (res.exit_code, json.loads(res.stdout)["message"]) == (2, message)


def test_decode_error_text_does_not_depend_on_hash_seed(tmp_path: Path) -> None:
    # K4 on A X Y Z with every edge subdivided is no encoding: the first
    # degree-2 chain from anchor A, walked in declared order, ends at X.
    hubs = ["A", "X", "Y", "Z"]
    pairs = [(u, v) for i, u in enumerate(hubs) for v in hubs[i + 1 :]]
    names = hubs + [f"s{u}{v}" for u, v in pairs]
    edges = [e for u, v in pairs for e in ((u, f"s{u}{v}"), (f"s{u}{v}", v))]
    k4sub = _write(tmp_path, "k4sub.graph", format_graph(make_graph(names, edges)))
    c3 = _write(tmp_path, "c3.graph", C3_TEXT)
    src = str(Path(gfree.__file__).resolve().parent.parent)
    runs = set()
    for seed in range(4):
        proc = subprocess.run(
            [sys.executable, "-m", "gfree.cli", "decode", "--forbidden", c3, "--input", k4sub],
            env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        runs.add((proc.returncode, proc.stdout))
    assert runs == {(2, "error: degree-2 chain from 'A' ends at 'X', not a marker cycle\n")}


def test_aut(tmp_path: Path) -> None:
    p3 = _write(tmp_path, "p3.graph", P3_TEXT)
    res = run_command(["aut", p3])
    assert res.exit_code == 0
    assert res.stdout.splitlines() == ["count 2", "id", "(a c)"]


def test_no_z3(tmp_path: Path) -> None:
    res = run_command(["no-z3", "--max-n", "3"])
    assert res.exit_code == 0
    assert "no order-3 automorphism group found" in res.stdout
    payload = json.loads(run_command(["no-z3", "--max-n", "3", "--json"]).stdout)
    assert payload["stats"]["examined"] == {"1": 1, "2": 2, "3": 4}
    assert payload["stats"]["total"] == 7


def test_no_z3_rejects_negative_max_n() -> None:
    res = run_command(["no-z3", "--max-n", "-1"])
    assert (res.exit_code, res.stdout) == (2, "error: max_n must be nonnegative, got -1\n")
    assert run_command(["no-z3", "--max-n", "0"]).exit_code == 0


def test_each_report_gets_its_own_stats() -> None:
    # no default dict is shared: stats is None until a handler passes one,
    # and _render prints None as {}
    first, second = Report(0, "ok", "ok\n"), Report(0, "ok", "ok\n")
    assert first == second and first.stats is None
    assert first.witness is None
    assert Report(1, "no", "no\n", stats={"n": 1}).stats == {"n": 1}


def test_no_z3_offender_text_ends_in_newline(monkeypatch) -> None:
    report = NoZ3Report(3, ((3, 4),), (cycle_graph(3),))
    monkeypatch.setattr("gfree.automorphism.check_no_z3", lambda max_n: report)
    res = run_command(["no-z3", "--max-n", "3"])
    assert res.exit_code == 1
    assert res.stdout == "order-3 automorphism group found on:\n" + format_graph(cycle_graph(3))
    assert res.stdout.endswith("\n")


def test_iso_of_long_paths_runs_without_recursion(tmp_path: Path) -> None:
    n = 1200
    p = [f"p{i}" for i in range(n)]
    q = [f"q{i}" for i in range(n)]
    first = make_graph(p, list(zip(p, p[1:])))
    second = make_graph(random.Random(5).sample(q, n), list(zip(q, q[1:])))
    res = run_command([
        "iso",
        _write(tmp_path, "p.graph", format_graph(first)),
        _write(tmp_path, "q.graph", format_graph(second)),
        "--json",
    ])
    assert res.exit_code == 0
    witness = json.loads(res.stdout)["witness"]
    assert sorted(witness) == sorted(p)
    assert sorted(witness.values()) == sorted(q)
    assert all(second.has_edge(witness[u], witness[v]) for u, v in first.edges)


def test_embed_of_large_flat_cotree_runs_without_recursion(tmp_path: Path) -> None:
    names = [f"v{i}" for i in range(1000)]
    flat = _write(tmp_path, "flat.graph", format_graph(make_graph(names, [])))
    res = run_command(["embed", flat, flat])
    assert (res.exit_code, res.stdout) == (0, "embeds\n")


def _caterpillar_text(depth: int) -> str:
    """Cotree text of a spine of depth internal nodes, labels 0, 1, 0, ...
    from the root, node i holding leaf v<i> and the last one also v<depth>."""
    text = f"({(depth - 1) % 2} v{depth - 1} v{depth})"
    for i in range(depth - 2, -1, -1):
        text = f"({i % 2} v{i} {text})"
    return text


def test_realize_of_deep_caterpillar_runs_without_recursion(tmp_path: Path) -> None:
    for depth in (600, 2000):
        tree = _write(tmp_path, f"deep{depth}.tree", _caterpillar_text(depth) + "\n")
        res = run_command(["realize", tree])
        assert res.exit_code == 0
        names = [f"v{i}" for i in range(depth + 1)]
        # v<i> and a later leaf meet at spine node i, whose label is i % 2
        edges = [f"v{i} v{j}" for i in range(1, depth, 2) for j in range(i + 1, depth + 1)]
        assert res.stdout == "\n".join([f"{len(names)} {len(edges)}", *names, *edges]) + "\n"


def test_delete_leaf_of_deep_caterpillar_runs_without_recursion(tmp_path: Path) -> None:
    for depth in (600, 2000):
        tree = _write(tmp_path, f"deep{depth}.tree", _caterpillar_text(depth) + "\n")
        res = run_command(["delete-leaf", tree, f"v{depth}"])
        assert (res.exit_code, res.stdout) == (0, _caterpillar_text(depth - 1) + "\n")


def test_validate_of_deep_caterpillar_runs_without_recursion(tmp_path: Path) -> None:
    tree = _write(tmp_path, "deep.tree", _caterpillar_text(2000) + "\n")
    res = run_command(["validate", tree])
    assert (res.exit_code, res.stdout) == (0, "valid\n")


def test_embed_of_deep_caterpillar_into_itself_is_the_identity(tmp_path: Path) -> None:
    tree = _write(tmp_path, "deep.tree", _caterpillar_text(300) + "\n")
    graph = _write(tmp_path, "deep.graph", run_command(["realize", tree]).stdout)
    res = run_command(["embed", graph, graph, "--json"])
    assert res.exit_code == 0
    witness = json.loads(res.stdout)["witness"]
    # 301 leaves and 300 inner nodes, each mapped to itself: the first placement
    assert len(witness) == 601
    assert all(pair["from"] == pair["to"] for pair in witness)


def test_interpret_tree_of_a_caterpillar_prints_what_decompose_prints(tmp_path: Path) -> None:
    tree = _write(tmp_path, "cat.tree", _caterpillar_text(100) + "\n")  # 101 vertices
    graph = _write(tmp_path, "cat.graph", run_command(["realize", tree]).stdout)
    want = run_command(["decompose", graph])
    assert want.exit_code == 0
    res = run_command(["interpret-tree", graph])
    assert (res.exit_code, res.stdout) == (0, want.stdout)


def test_tree_lift_of_deep_path_runs_without_recursion(tmp_path: Path) -> None:
    depth = 2000
    res = run_command(["tree-lift", _write(tmp_path, "deep.tree", "(" * depth + ")" * depth + "\n")])
    # node i of the path sits at depth i and owns the leaves g<2i> and g<2i+1>
    want = " ".join(f"({i % 2} g{2 * i} g{2 * i + 1}" for i in range(depth)) + ")" * depth
    assert (res.exit_code, res.stdout) == (0, want + "\n")


def test_missing_file_is_exit_2(tmp_path: Path) -> None:
    assert run_command(["recognize", str(tmp_path / "absent.graph")]).exit_code == 2


def test_malformed_graph_is_exit_2(tmp_path: Path) -> None:
    bad = _write(tmp_path, "bad.graph", "not a header\n")
    assert run_command(["recognize", bad]).exit_code == 2


def test_unknown_command_is_exit_2() -> None:
    assert run_command(["nonsense"]).exit_code == 2


def test_bad_flag_is_exit_2(tmp_path: Path) -> None:
    k2 = _write(tmp_path, "k2.graph", K2_TEXT)
    assert run_command(["recognize", k2, "--bogus"]).exit_code == 2


def test_json_outputs_are_byte_deterministic(tmp_path: Path) -> None:
    c3 = _write(tmp_path, "c3.graph", C3_TEXT)
    k2 = _write(tmp_path, "k2.graph", K2_TEXT)
    for argv in [
        ["recognize", c3, "--json"],
        ["antichain", "--forbidden", c3, "0", "1", "--json"],
        ["encode", "--forbidden", c3, "--input", k2],
        ["no-z3", "--max-n", "4", "--json"],
    ]:
        assert run_command(argv).stdout == run_command(argv).stdout


def test_outputs_parse_back(tmp_path: Path) -> None:
    g = make_graph(["m", "n", "o"], [("m", "n")])
    src = _write(tmp_path, "g.graph", format_graph(g))
    tree_text = run_command(["decompose", src]).stdout
    tree_file = _write(tmp_path, "g.tree", tree_text)
    back = parse_graph(run_command(["realize", tree_file]).stdout)
    assert set(back.vertices) == set(g.vertices)
    assert back.m == g.m


def test_non_utf8_input_is_exit_2(tmp_path: Path) -> None:
    bad = tmp_path / "b.graph"
    bad.write_bytes(b"\xff\n")
    res = run_command(["recognize", str(bad)])
    assert res.exit_code == 2
    assert res.stdout.startswith("error: ") and "not UTF-8" in res.stdout


def test_json_io_error_is_a_json_error_object(tmp_path: Path) -> None:
    res = run_command(["recognize", "--json", str(tmp_path / "missing.graph")])
    assert res.exit_code == 2
    payload = json.loads(res.stdout)
    assert payload["verdict"] == "error"
    assert payload["command"] == "recognize"
    assert "No such file" in payload["message"]


def test_unexpected_exception_is_exit_3_never_1(tmp_path: Path, monkeypatch) -> None:
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("gfree.commands._cmd_recognize", crash)
    k2 = _write(tmp_path, "k2.graph", K2_TEXT)
    res = run_command(["recognize", k2])
    assert (res.exit_code, res.stdout) == (3, "internal error: RuntimeError: boom\n")
    res = run_command(["recognize", k2, "--json"])
    assert res.exit_code == 3
    payload = json.loads(res.stdout)
    assert (payload["verdict"], payload["message"]) == ("error", "RuntimeError: boom")


# Argument vectors that end in argparse's own output: help, usage errors.
PARSER_EXITS = [["--help"], [], ["nope"]] + [
    argv for name in _COMMANDS for argv in ([name, "--help"], [name], [name, "--bogus", "x"])
]


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=lambda a: " ".join(a) or "no arguments")
def test_one_command_parser_prints_what_the_full_parser_prints(argv: list[str], capsys) -> None:
    res = run_command(argv)
    got = (res.exit_code, res.stdout, *capsys.readouterr())
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(argv)
    assert got == (exc.value.code, "", *capsys.readouterr())


def test_a_plain_request_builds_no_parser(tmp_path: Path, monkeypatch) -> None:
    # Every golden request that prints a report is plain; the others end in
    # argparse's help or usage errors, which print nothing on stdout.
    def refuse():
        raise AssertionError("a plain request built a parser")

    monkeypatch.setattr("gfree.cli._build_parser", refuse)
    for case in CORPUS["cases"]:
        assert (_parse(case["argv"]) is None) == (case["stdout"] == ""), case["argv"]
        if case["stdout"]:
            res = _run_golden(case, tmp_path)
            assert (res.exit_code, res.stdout) == (case["exit_code"], case["stdout"])


# Tokens for argument vectors near the plain form: values, and spellings
# that only argparse reads (abbreviations, --flag=value, -k3, --, -h).
_WORDS = ["a", "p3.graph", "0", "3", "12", "", " 7", "x=1", "1.5", "é", "-x"]
_NUMBERS = ["0", "1", "3", "12", " 7", "1_0", "x", "-1"]
_NOISE = ["-1", "-x", "--", "-h", "--help", "-k3", "--bogus", "--json", "--json=1", "nope", "rec"]


def _argvs(name: str):
    from hypothesis import strategies as st

    @st.composite
    def argvs(draw) -> list[str]:
        parts = [] if draw(st.booleans()) else [["--json"]]
        run = []
        for flag, keywords in map(_split, _COMMANDS[name][1]):
            value = draw(st.sampled_from(_NUMBERS if "type" in keywords else _WORDS))
            if not flag.startswith("-"):
                extra = draw(st.integers(0, 2)) if keywords.get("nargs") == "+" else 0
                run += [value] * (1 + extra)
            elif keywords.get("required") or draw(st.booleans()):
                spell = draw(st.sampled_from([flag] * 4 + [flag[:4], flag + "=" + value]))
                parts.append([spell] if "=" in spell else [spell, value])
        parts += [run[:1], run[1:]]  # a long run may come in two parts
        argv = [name] + [t for part in draw(st.permutations(parts)) for t in part]
        for _ in range(draw(st.integers(0, 2))):  # insert, replace or drop a token
            i = draw(st.integers(0, len(argv)))
            token = draw(st.lists(st.sampled_from(_WORDS + _NOISE + [name]), max_size=1))
            argv[i : i + draw(st.integers(0, 1))] = token
        return argv

    return argvs()


@pytest.mark.parametrize(
    "argv",
    [
        ["tree-lift", "t", "--js"],
        ["tree-lift", "t", "-k3"],
        ["tree-lift", "t", "-k=3"],
        ["tree-lift", "t", "-k", "1", "-k", "2"],
        ["tree-lift", "t", "--json", "--json"],
        ["tree-lift", "--", "t"],
        ["tree-lift", "t", "-h"],
        ["tree-lift", "-t"],
        ["tree-lift", "t", "-k", "-1"],
        ["tree-lift", "t", "-k", "x"],
        ["no-z3", "--max-n=3"],
        ["no-z3", "--max", "3"],
        ["antichain", "--forbidden", "f", "-1"],
        ["antichain", "0", "--forbidden", "f", "1"],
        ["iso", "a", "--json", "b"],
        ["iso", "a"],
        ["iso", "a", "b", "c"],
        ["types", "--base", "b"],
        ["recognize"],
        ["rec", "g"],
        [],
    ],
    ids=lambda a: " ".join(a) or "no arguments",
)
def test_parse_leaves_other_spellings_to_argparse(argv: list[str]) -> None:
    assert _parse(argv) is None


@pytest.mark.parametrize("name", _COMMANDS)
def test_parse_gives_what_argparse_gives(name: str) -> None:
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings

    plain = []

    @settings(max_examples=60, deadline=None, database=None)
    @given(_argvs(name))
    def check(argv: list[str]) -> None:
        args = _parse(argv)
        if args is None:
            return
        plain.append(argv)
        try:
            parsed = _build_parser().parse_args(argv)
        except SystemExit:
            raise AssertionError(f"argparse refuses {argv}") from None
        assert vars(parsed) == vars(args)

    check()
    assert plain  # the plain path is really exercised


def _complete_tree(n: int) -> str:
    return "(1 " + " ".join(f"v{i}" for i in range(n)) + ")\n"


class _Stdout:
    """A stdout that keeps each write."""

    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def test_main_prints_a_large_graph_in_bounded_batches(tmp_path: Path, monkeypatch) -> None:
    tree = _write(tmp_path, "k450.tree", _complete_tree(450))
    stdout = _Stdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["realize", tree]) == 0
    text = "".join(stdout.writes)
    assert text == run_command(["realize", tree]).stdout
    assert len(text) > 950_000
    # the number of writes follows the size of the text, not its 101,025 lines
    assert len(stdout.writes) <= len(text) // _BATCH + 1
    assert max(map(len, stdout.writes)) < _BATCH + 5000


def test_a_crash_while_printing_is_exit_3_never_1(tmp_path: Path, monkeypatch, capsys) -> None:
    def pieces(g):
        yield "3 2\n"
        raise RuntimeError("boom")

    monkeypatch.setattr("gfree.textio._graph_pieces", pieces)
    tree = _write(tmp_path, "t.tree", "(1 b (0 a c))\n")
    assert main(["realize", tree]) == 3
    # the crash came before the first batch was full, so nothing was written
    assert capsys.readouterr() == ("", "internal error: RuntimeError: boom\n")
    res = run_command(["realize", tree])
    assert (res.exit_code, res.stdout) == (3, "internal error: RuntimeError: boom\n")


def _realize_to(fd: int | None, tree: str, unbuffered: str) -> subprocess.CompletedProcess:
    """Run `gfree realize` with stdout on fd, or closed when fd is None."""
    src = str(Path(gfree.__file__).resolve().parent.parent)
    argv = [sys.executable, "-m", "gfree.cli", "realize", tree]
    if fd is None:
        argv = ["sh", "-c", 'exec "$0" "$@" >&-', *argv]
    return subprocess.run(
        argv,
        stdout=fd,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered},
        text=True,
        timeout=60,
    )


# A graph text within one write, and one of several batches; stdout
# buffered and not.
WRITE_FAILURES = [(size, unbuffered) for size in (3, 150) for unbuffered in ("", "1")]


@pytest.mark.parametrize("sink", ["/dev/full", "closed pipe"])
@pytest.mark.parametrize("size, unbuffered", WRITE_FAILURES)
def test_a_failed_stdout_write_is_exit_2_never_1(
    tmp_path: Path, sink: str, size: int, unbuffered: str
) -> None:
    tree = _write(tmp_path, "t.tree", _complete_tree(size))
    if sink == "/dev/full":
        if not os.path.exists(sink):
            pytest.skip("no /dev/full device")
        fd, code = os.open(sink, os.O_WRONLY), errno.ENOSPC
    else:
        read_end, fd = os.pipe()
        os.close(read_end)
        code = errno.EPIPE
    try:
        proc = _realize_to(fd, tree, unbuffered)
    finally:
        os.close(fd)
    assert proc.returncode == 2
    # one line, no traceback and no "Exception ignored" at shutdown
    assert proc.stderr.startswith(f"error: cannot write stdout: [Errno {code}] ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


def test_a_closed_stdout_is_exit_2_never_1(tmp_path: Path) -> None:
    tree = _write(tmp_path, "t.tree", _complete_tree(3))
    proc = _realize_to(None, tree, "")
    assert (proc.returncode, proc.stderr) == (2, "error: cannot write stdout: it is closed\n")
