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
import tokenize
from pathlib import Path

import pytest

import gfree
from gfree.cli import _COMMANDS, _parse

SRC = Path(gfree.__file__).resolve().parent.parent
P3_TEXT = "3 2\na\nb\nc\na b\nb c\n"
P4_TEXT = "4 3\na\nb\nc\nd\na b\nb c\nc d\n"
FILES = {
    "p3.graph": P3_TEXT,
    "p4.graph": P4_TEXT,
    "k2.graph": "2 1\nx\ny\nx y\n",
    "p3.tree": "(1 b (0 a c))\n",
    "bad.tree": "(1 a (1 b c))\n",
    "plain.tree": "(()())\n",
}

LAYERS = {
    "gfree.graphs",
    "gfree.cotree",
    "gfree.textio",
    "gfree.typeslogic",
    "gfree.gadget",
    "gfree.automorphism",
    "gfree.census",
    "gfree.embedding",
    "gfree.search",
    "gfree.trees",
}

# The exact gfree modules each subcommand loads (the CLI itself runs as
# __main__, so gfree.cli is not among them; its handlers are gfree.commands).
# Graph I/O needs only graphs; a command loads trees only when it reads,
# builds or prints a tree, cotree only when it runs an algorithm between
# trees and graphs, and search only when it searches: a cograph request
# never does, but one whose input graph holds a P4 searches for its witness.
GRAPH_IO = {"gfree", "gfree.commands", "gfree.errors", "gfree.graphs", "gfree.textio"}
TREES = GRAPH_IO | {"gfree.trees"}
COTREE = TREES | {"gfree.cotree"}
SEARCH = {"gfree.search"}
LOADS = {
    "recognize": COTREE,
    "decompose": COTREE,
    "realize": COTREE,
    "validate": COTREE,
    "module": COTREE,
    "strong-module": COTREE,
    "interpret-tree": COTREE,
    "tree-lift": TREES,
    "iso": GRAPH_IO | SEARCH,
    "embed": COTREE | SEARCH | {"gfree.embedding"},
    "delete-leaf": COTREE | {"gfree.embedding"},
    "antichain": GRAPH_IO | SEARCH | {"gfree.embedding"},
    "encode": GRAPH_IO | SEARCH | {"gfree.embedding", "gfree.gadget"},
    "decode": GRAPH_IO | SEARCH | {"gfree.embedding", "gfree.gadget"},
    "roundtrip": GRAPH_IO | SEARCH | {"gfree.embedding", "gfree.gadget"},
    "aut": GRAPH_IO | SEARCH | {"gfree.automorphism"},
    "no-z3": COTREE | SEARCH | {"gfree.automorphism", "gfree.census"},
    "types": GRAPH_IO | SEARCH | {"gfree.typeslogic"},
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
    ["antichain", "--forbidden", "p4.graph", "0"],
    ["encode", "--forbidden", "p4.graph", "--input", "k2.graph"],
    ["decode", "--forbidden", "p4.graph", "--input", "k2.graph"],
    ["roundtrip", "--forbidden", "p4.graph", "k2.graph"],
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
    assert modules == LAYERS | {"gfree.errors", "gfree.cli", "gfree.commands"}


def test_each_listed_function_and_class_has_one_import_path() -> None:
    # A module lists in __all__ only what it defines; the package alone
    # re-exports.  Type aliases such as typeslogic.Term are neither.
    for info in pkgutil.iter_modules(gfree.__path__):
        module = importlib.import_module(f"gfree.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, f"{module.__name__}.{name}"


# Each request compiles the modules it loads from source (no bytecode is
# read or written under PYTHONDONTWRITEBYTECODE=1), and on Python 3.11
# compile() peaks at about 360 bytes traced per token (365-425 for the
# modules here), comments and blank lines aside.  No cograph request's own
# work goes past 0.67 MB traced, so the largest module such a request
# compiles sets its peak RSS; each is kept at MAX_TOKENS or fewer, about
# 0.8-0.9 MB.
MAX_TOKENS = 2200


def _tokens(module: str) -> int:
    """The tokens of a gfree module's source, without comments and blank lines."""
    name = module.partition(".")[2] or "__init__"
    with open(SRC / "gfree" / f"{name}.py", encoding="utf-8") as f:
        tokens = tokenize.generate_tokens(f.readline)
        return sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokens)


def test_no_module_a_cotree_side_request_compiles_is_large() -> None:
    modules = {"gfree.cli"} | SEARCH | set().union(*(LOADS[argv[0]] for argv in COTREE_SIDE))
    counts = {module: _tokens(module) for module in sorted(modules)}
    large = {module: count for module, count in counts.items() if count > MAX_TOKENS}
    assert not large, f"modules over {MAX_TOKENS} tokens: {large}"


def test_every_listed_request_is_plain() -> None:
    # So each case above checks the path that needs no argparse.
    for argv in COTREE_SIDE + OTHER + [TYPES]:
        assert _parse(argv) is not None, argv


def test_help_loads_no_layer(tmp_path: Path) -> None:
    loaded = _loaded(["--help"], tmp_path)
    assert not loaded & LAYERS
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
    "gadget": "EncodedGraph GadgetParams decode_psi encode_phi gadget_params "
    "natural_iso_lambda transport_iso_phi transport_iso_psi",
    "graphs": "Graph combine complement connected_components cycle_graph "
    "find_induced_embedding induced_subgraph is_free is_isomorphic labeled_chain_sum "
    "make_graph path_graph relabel",
    "search": "VertexMap",
    "textio": "format_cotree format_graph format_plain_tree parse_cotree parse_graph "
    "parse_plain_tree",
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

