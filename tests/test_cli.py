from __future__ import annotations

import json
import random
from pathlib import Path

from gfree import NoZ3Report, cycle_graph, format_graph, make_graph, parse_graph, path_graph
from gfree.cli import run_command

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


def test_no_z3_offender_text_ends_in_newline(monkeypatch) -> None:
    report = NoZ3Report(3, ((3, 4),), (cycle_graph(3),))
    monkeypatch.setattr("gfree.cli.check_no_z3", lambda max_n: report)
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


def _caterpillar_text(depth: int) -> str:
    """Cotree text of a spine of depth internal nodes, labels 0, 1, 0, ...
    from the root, node i holding leaf v<i> and the last one also v<depth>."""
    text = f"({(depth - 1) % 2} v{depth - 1} v{depth})"
    for i in range(depth - 2, -1, -1):
        text = f"({i % 2} v{i} {text})"
    return text


def test_realize_of_deep_caterpillar_runs_without_recursion(tmp_path: Path) -> None:
    depth = 600
    res = run_command(["realize", _write(tmp_path, "deep.tree", _caterpillar_text(depth) + "\n")])
    assert res.exit_code == 0
    names = [f"v{i}" for i in range(depth + 1)]
    # v<i> and a later leaf meet at spine node i, whose label is i % 2
    edges = [(names[i], names[j]) for i in range(1, depth, 2) for j in range(i + 1, depth + 1)]
    assert res.stdout == format_graph(make_graph(names, edges))


def test_delete_leaf_of_deep_caterpillar_runs_without_recursion(tmp_path: Path) -> None:
    depth = 600
    tree = _write(tmp_path, "deep.tree", _caterpillar_text(depth) + "\n")
    res = run_command(["delete-leaf", tree, f"v{depth}"])
    assert (res.exit_code, res.stdout) == (0, _caterpillar_text(depth - 1) + "\n")


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

    monkeypatch.setattr("gfree.cli._cmd_recognize", crash)
    k2 = _write(tmp_path, "k2.graph", K2_TEXT)
    res = run_command(["recognize", k2])
    assert (res.exit_code, res.stdout) == (3, "internal error: RuntimeError: boom\n")
    res = run_command(["recognize", k2, "--json"])
    assert res.exit_code == 3
    payload = json.loads(res.stdout)
    assert (payload["verdict"], payload["message"]) == ("error", "RuntimeError: boom")
