"""The CLI's handlers for the paper's constructions: antichain, types,
encode, decode, roundtrip, aut and no-z3.

They follow the rules of `commands`, whose shared helpers they use: each
takes the parsed arguments, returns one Report and imports the layer
functions it calls when it runs.  A request of the cograph side never
loads this module.
"""

from __future__ import annotations

from pathlib import Path

from .commands import Report, _graph_report, _graph_stats, _load_graph


def _cmd_antichain(args) -> Report:
    from .embedding import antichain_graph, antichain_params

    forbidden = _load_graph(args.forbidden)
    g = antichain_graph(forbidden, args.indices)
    complemented, m = antichain_params(forbidden)
    return _graph_report("ok", g, dict(_graph_stats(g), complemented=complemented, m=m))


def _cmd_types(args) -> Report:
    from .typeslogic import ConstantedGraph, type_fragment

    g = _load_graph(args.base)
    forbidden = _load_graph(args.forbidden)
    target = ConstantedGraph(g, g.vertices)
    formulas = [phi.render() for phi in type_fragment(target, forbidden, args.k)]
    return Report(0, "ok", "\n".join(formulas) + "\n", formulas, {"formulas": len(formulas)})


def _cmd_encode(args) -> Report:
    from .gadget import encode_phi, gadget_params

    forbidden = _load_graph(args.forbidden)
    h = _load_graph(args.input)
    params = gadget_params(forbidden)
    enc = encode_phi(h, params)
    if args.sidecar:
        lines = [f"hub {v} {hub}\n" for v, hub in enc.hub_of]
        Path(args.sidecar).write_text("".join(lines), encoding="utf-8")
    out = enc.deliverable
    stats = dict(
        _graph_stats(out),
        complemented=params.complemented,
        hub_cycle=params.hub_cycle,
        edge_cycle=params.edge_cycle,
        non_edge_cycle=params.non_edge_cycle,
        path_len=params.path_len,
    )
    return _graph_report("encoded", out, stats)


def _cmd_decode(args) -> Report:
    from .gadget import decode_psi, gadget_params
    from .graphs import complement

    forbidden = _load_graph(args.forbidden)
    e = _load_graph(args.encoded)
    params = gadget_params(forbidden)
    g = decode_psi(complement(e) if params.complemented else e, params)
    return _graph_report("decoded", g, _graph_stats(g))


def _cmd_roundtrip(args) -> Report:
    from .gadget import decode_psi, encode_phi, gadget_params
    from .graphs import is_isomorphic

    forbidden = _load_graph(args.forbidden)
    h = _load_graph(args.input)
    params = gadget_params(forbidden)
    enc = encode_phi(h, params)
    found = is_isomorphic(h, decode_psi(enc.graph, params))
    stats = dict(_graph_stats(enc.deliverable), complemented=params.complemented)
    if found is None:
        text = "decoded graph is NOT isomorphic to the input\n"
        return Report(1, "decoded graph differs", text, stats=stats)
    text = "decoded graph isomorphic to the input\n"
    return Report(0, "roundtrip ok", text, found.as_dict(), stats)


def _cmd_aut(args) -> Report:
    from .automorphism import automorphisms

    perms = automorphisms(_load_graph(args.graph))
    lines = [f"count {len(perms)}\n"]
    for p in perms:
        cycles = "".join("(" + " ".join(c) + ")" for c in p.cycles())
        lines.append((cycles or "id") + "\n")
    return Report(0, "ok", "".join(lines), [p.as_dict() for p in perms], {"count": len(perms)})


def _cmd_no_z3(args) -> Report:
    from .automorphism import check_no_z3
    from .textio import format_graph

    report = check_no_z3(args.max_n)
    stats = {
        "examined": {str(n): count for n, count in report.examined},
        "total": report.total,
    }
    if report.ok:
        lines = [f"n={n}: {count} cograph(s) examined\n" for n, count in report.examined]
        text = "".join(lines) + "no order-3 automorphism group found\n"
        return Report(0, "no order-3 automorphism group", text, stats=stats)
    witness = [format_graph(g) for g in report.offenders]
    text = "\n".join(["order-3 automorphism group found on:"] + witness)
    return Report(1, "offenders found", text, witness, stats)
