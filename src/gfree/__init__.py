"""Cographs, decomposition trees, and forbidden-subgraph machinery.

Immutable graphs with an induced-subgraph search, cotree construction and
canonical codes, module formulas, labeled-tree embedding tests, cycle
antichains, a graph-into-free-graph encoding functor with decoder and
isomorphism transports, bounded existential-type fragments, and
automorphism utilities, all behind one deterministic CLI.

`import gfree` loads no submodule: each name below is imported from its
defining module on first access (PEP 562), so a CLI request pays only for
the layer it runs.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "automorphism": "NoZ3Report Permutation automorphisms check_no_z3 order3_to_order2",
    "census": "cograph_classes cotree_shapes",
    "cotree": (
        "canonical_code cograph_iso decompose ensure_valid interpret_tree_from_graph"
        " least_module least_strong_module normalize realize validate_cotree"
    ),
    "embedding": (
        "TreeEmbedding antichain_graph antichain_params cograph_induced_via_trees"
        " cycle_formula_holds delete_vertex_cotree label_meet_embed max_induced_cycle"
    ),
    "errors": (
        "BadPartialError BadSizeError BaseNotFreeError DuplicateVertexError"
        " EmptyGraphError EmptyIndexSetError ForbiddenInsideP4Error FormatError"
        " GfreeError InvalidCotreeError LastLeafError LengthMismatchError"
        " MalformedEncodingError NotAnExtensionError NotCographError"
        " NotIsomorphismError NotOrderThreeError SameVertexError SelfLoopError"
        " TooLargeError UnknownConstantError UnknownEndpointError UnknownVertexError"
    ),
    "gadget": "GadgetParams decode_psi encode_phi gadget_params",
    "graphs": (
        "Graph complement connected_components cycle_graph find_induced_embedding"
        " induced_subgraph is_free is_isomorphic make_graph path_graph"
    ),
    "search": "VertexMap",
    "sums": "combine labeled_chain_sum relabel",
    "textio": "format_cotree format_graph parse_cotree parse_graph",
    "transport": "EncodedGraph natural_iso_lambda transport_iso_phi transport_iso_psi",
    "treetext": "format_plain_tree parse_plain_tree",
    "trees": (
        "CotreeNode Inner Leaf ModuleSet PlainTree ValidationReport Violation"
        " leaf_names leaf_paths meet_path plain_tree_code tree_lift"
    ),
    "typeslogic": (
        "ConstantedGraph ExistentialFormula enumerate_extensions eval_existential"
        " phi_formula type_fragment"
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_EXPORTS})
