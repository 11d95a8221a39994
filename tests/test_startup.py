"""CLI start-up loads only the modules whose code a request runs (argparse
only for help, usage errors and other spellings), and the package
re-exports its names lazily.

Each CLI case runs `python -X importtime -m gfree.cli ...` in a fresh
process and reads the modules that request imported from the import-time
report on stderr.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import gfree
from gfree.arguments import _COMMANDS, _parse

SRC = Path(gfree.__file__).resolve().parent.parent
P3_TEXT = "3 2\na\nb\nc\na b\nb c\n"
P4_TEXT = "4 3\na\nb\nc\nd\na b\nb c\nc d\n"
FILES = {
    "p3.graph": P3_TEXT,
    "p4.graph": P4_TEXT,
    "k2.graph": "2 1\nx\ny\nx y\n",
    "c3.graph": "3 3\nx\ny\nz\nx y\ny z\nx z\n",
    "p3.tree": "(1 b (0 a c))\n",
    "bad.tree": "(1 a (1 b c))\n",
    "plain.tree": "(()())\n",
}

LAYERS = {
    "gfree.graphs",
    "gfree.sums",
    "gfree.cotree",
    "gfree.pairmodules",
    "gfree.textio",
    "gfree.treetext",
    "gfree.typeslogic",
    "gfree.extensions",
    "gfree.gadget",
    "gfree.transport",
    "gfree.automorphism",
    "gfree.census",
    "gfree.embedding",
    "gfree.search",
    "gfree.trees",
}
# The CLI's own modules besides gfree.cli.
CLI = {"gfree.arguments", "gfree.commands", "gfree.constructions"}

# The exact gfree modules each subcommand loads (the CLI itself runs as
# __main__, so gfree.cli is not among them; it reads its arguments with
# gfree.arguments, and the handlers are gfree.commands and, for the paper's
# constructions, gfree.constructions).  Graph I/O needs only graphs; a
# command loads trees only when it builds or prints a tree, treetext only
# when it reads one, cotree only when it runs an algorithm between trees and
# graphs, pairmodules only for a module query, and search only when it
# searches: a cograph request never does, but one whose input graph holds a
# P4 searches for its witness.
GRAPH_IO = {"gfree", "gfree.arguments", "gfree.commands", "gfree.errors", "gfree.graphs",
            "gfree.textio"}
TREES = GRAPH_IO | {"gfree.trees"}
COTREE = TREES | {"gfree.cotree"}
READ_TREE = {"gfree.treetext"}
PAIRS = {"gfree.pairmodules"}
SEARCH = {"gfree.search"}
CONSTRUCTION = GRAPH_IO | SEARCH | {"gfree.constructions"}
GADGET = CONSTRUCTION | {"gfree.embedding", "gfree.gadget", "gfree.transport"}
LOADS = {
    "recognize": COTREE,
    "decompose": COTREE,
    "realize": COTREE | READ_TREE,
    "validate": COTREE | READ_TREE,
    "module": COTREE | PAIRS,
    "strong-module": COTREE | PAIRS,
    "interpret-tree": COTREE | PAIRS,
    "tree-lift": TREES | READ_TREE,
    "iso": GRAPH_IO | SEARCH,
    "embed": COTREE | SEARCH | {"gfree.embedding"},
    "delete-leaf": COTREE | READ_TREE | {"gfree.embedding"},
    "antichain": CONSTRUCTION | {"gfree.embedding", "gfree.sums"},
    "encode": GADGET,
    "decode": GADGET,
    "roundtrip": GADGET,
    "aut": CONSTRUCTION | {"gfree.automorphism"},
    "no-z3": CONSTRUCTION | COTREE | {"gfree.automorphism", "gfree.census"},
    "types": CONSTRUCTION | {"gfree.typeslogic", "gfree.extensions"},
}

COTREE_SIDE = [
    ["recognize", "p3.graph"],
    ["recognize", "p4.graph", "--json"],
    ["decompose", "p3.graph"],
    ["realize", "p3.tree"],
    ["validate", "bad.tree"],
    ["module", "p3.graph", "a", "b"],
    ["module", "p4.graph", "a", "b"],
    ["strong-module", "p3.graph", "a", "c", "--json"],
    ["interpret-tree", "p3.graph"],
    ["tree-lift", "plain.tree"],
    ["iso", "p3.graph", "p3.graph"],
]
OTHER = [
    ["embed", "k2.graph", "p3.graph"],
    ["delete-leaf", "p3.tree", "a"],
    ["antichain", "--forbidden", "c3.graph", "0"],
    ["encode", "--forbidden", "c3.graph", "--input", "k2.graph"],
    ["decode", "--forbidden", "c3.graph", "--input", "k2.graph"],
    ["roundtrip", "--forbidden", "c3.graph", "k2.graph"],
    ["aut", "p3.graph"],
    ["no-z3", "--max-n", "3", "--json"],
]
TYPES = ["types", "--base", "k2.graph", "--forbidden", "p4.graph", "-k", "1"]


def _loaded(argv: list[str], cwd: Path) -> set[str]:
    for name, text in FILES.items():
        (cwd / name).write_text(text, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "gfree.cli", *argv],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode in (0, 1, 2), proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def _check_loads(argv: list[str], cwd: Path) -> None:
    loaded = _loaded(argv, cwd)
    # Importing it would compile and run the __main__ module a second time.
    assert "gfree.cli" not in loaded, f"{argv[0]} imported gfree.cli besides running it"
    expected = LOADS[argv[0]] | (SEARCH if "p4.graph" in argv else set())
    assert {m for m in loaded if m.split(".")[0] == "gfree"} == expected
    assert not loaded & {"dataclasses", "argparse", "gettext"}


def test_loads_cover_every_subcommand() -> None:
    assert set(LOADS) == set(_COMMANDS)
    assert {argv[0] for argv in COTREE_SIDE + OTHER + [TYPES]} == set(LOADS)


@pytest.mark.parametrize("argv", COTREE_SIDE, ids=lambda a: " ".join(a))
def test_cotree_side_request_loads_no_heavy_layer(argv: list[str], tmp_path: Path) -> None:
    _check_loads(argv, tmp_path)


def test_types_loads_only_its_layer(tmp_path: Path) -> None:
    _check_loads(TYPES, tmp_path)


@pytest.mark.parametrize("argv", OTHER, ids=lambda a: a[0])
def test_no_request_loads_dataclasses(argv: list[str], tmp_path: Path) -> None:
    _check_loads(argv, tmp_path)


def test_every_module_is_a_layer_or_errors_or_cli() -> None:
    modules = {f"gfree.{info.name}" for info in pkgutil.iter_modules(gfree.__path__)}
    assert modules == LAYERS | CLI | {"gfree.errors", "gfree.cli"}


def test_each_listed_function_and_class_has_one_import_path() -> None:
    # A module lists in __all__ only what it defines; the package alone
    # re-exports.  Type aliases such as typeslogic.Term are neither.
    for info in pkgutil.iter_modules(gfree.__path__):
        module = importlib.import_module(f"gfree.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, f"{module.__name__}.{name}"


# Each request compiles the modules it loads from source: no bytecode is
# read or written under PYTHONDONTWRITEBYTECODE=1.  A request's peak RSS
# follows its largest single compile, not the total it compiles: with the
# same source split so that the largest compile fell from 1,060 KB traced
# to 593 KB, the benchmark's search peak RSS fell from 14.75 to 14.38 MB
# (CPython 3.11).  A request's own work stays below that: the largest
# run-time peaks of the benchmark decks' requests, traced around cli.main
# with every module imported first, are about 300 KB (delete-leaf) and 265 KB
# (encode).  So every module's compile is kept at MAX_COMPILE_KB traced or
# less, measured as SourceFileLoader.get_code compiles it, the second
# time, once the first has interned its names.
MAX_COMPILE_KB = 600


def _compile_peak_kb(path: Path) -> float:
    source = path.read_bytes()
    compile(source, str(path), "exec", dont_inherit=True)
    tracemalloc.start()
    try:
        compile(source, str(path), "exec", dont_inherit=True)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def test_no_module_compiles_past_600_kb() -> None:
    peaks = {
        info.name: round(_compile_peak_kb(SRC / "gfree" / f"{info.name}.py"))
        for info in pkgutil.iter_modules(gfree.__path__)
    }
    large = {name: kb for name, kb in peaks.items() if kb > MAX_COMPILE_KB}
    ranked = dict(sorted(peaks.items(), key=lambda item: -item[1]))
    assert not large, f"compile peaks over {MAX_COMPILE_KB} KB traced: {large}; all: {ranked}"


def test_every_listed_request_is_plain() -> None:
    # So each case above checks the path that needs no argparse.
    for argv in COTREE_SIDE + OTHER + [TYPES]:
        assert _parse(argv) is not None, argv


def test_help_loads_no_layer(tmp_path: Path) -> None:
    loaded = _loaded(["--help"], tmp_path)
    assert {m for m in loaded if m.split(".")[0] == "gfree"} == {
        "gfree", "gfree.arguments", "gfree.commands", "gfree.errors"
    }
    assert not loaded & {"dataclasses", "json"}
    assert "argparse" in loaded


def test_bare_package_import_loads_no_submodule() -> None:
    code = "import sys, gfree; print(sorted(m for m in sys.modules if m.startswith('gfree.')))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.stdout == "[]\n", proc.stderr


# Every name the package exports, by module.
EXPORTS = {
    "automorphism": "NoZ3Report Permutation automorphisms check_no_z3 order3_to_order2",
    "census": "cograph_classes cotree_shapes",
    "cotree": "canonical_code cograph_iso decompose ensure_valid interpret_tree_from_graph "
    "least_module least_strong_module normalize realize validate_cotree",
    "embedding": "TreeEmbedding antichain_graph antichain_params cograph_induced_via_trees "
    "cycle_formula_holds delete_vertex_cotree label_meet_embed max_induced_cycle",
    "errors": "BadPartialError BadSizeError BaseNotFreeError DuplicateVertexError "
    "EmptyGraphError EmptyIndexSetError ForbiddenInsideP4Error FormatError GfreeError "
    "InvalidCotreeError LastLeafError LengthMismatchError MalformedEncodingError "
    "NotAnExtensionError NotCographError NotIsomorphismError NotOrderThreeError "
    "SameVertexError SelfLoopError TooLargeError UnknownConstantError "
    "UnknownEndpointError UnknownVertexError",
    "gadget": "GadgetParams decode_psi encode_phi gadget_params",
    "graphs": "Graph complement connected_components cycle_graph find_induced_embedding "
    "induced_subgraph is_free is_isomorphic make_graph path_graph",
    "search": "VertexMap",
    "sums": "combine labeled_chain_sum relabel",
    "textio": "format_cotree format_graph parse_cotree parse_graph",
    "transport": "EncodedGraph natural_iso_lambda transport_iso_phi transport_iso_psi",
    "treetext": "format_plain_tree parse_plain_tree",
    "trees": "CotreeNode Inner Leaf ModuleSet PlainTree ValidationReport Violation "
    "leaf_names leaf_paths meet_path plain_tree_code tree_lift",
    "typeslogic": "ConstantedGraph ExistentialFormula enumerate_extensions eval_existential "
    "phi_formula type_fragment",
}


def test_every_exported_name_resolves_to_its_defining_object() -> None:
    pairs = [(module, name) for module, names in EXPORTS.items() for name in names.split()]
    assert len(pairs) == 94
    for module, name in pairs:
        namespace: dict = {}
        exec(f"from gfree import {name}", namespace)
        defining = __import__(f"gfree.{module}", fromlist=[name])
        assert namespace[name] is getattr(defining, name), name
        assert name in dir(gfree)
    assert {"automorphism", "cotree", "textio"} <= set(dir(gfree))
    assert gfree.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error() -> None:
    with pytest.raises(AttributeError):
        gfree.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from gfree import no_such_name", {})

