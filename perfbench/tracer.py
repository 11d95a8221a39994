"""Run one gfree CLI request with a span around every public function call.

Usage: python perfbench/tracer.py SPANS_JSON -- <gfree arguments>

Every module-level function listed in the __all__ of a gfree module is
wrapped, and every name under which a gfree module holds it (its own
module's and every importer's) is rebound to the wrapper, so calls between
and inside modules are seen.  A call a function makes to itself is folded
into the outer span.  Graph methods are not wrapped.  The request then runs
through gfree.cli.run_command; stdout and the exit code are those of the
plain CLI.  Spans stay in memory and are written to SPANS_JSON at exit as
[name, start_ns, end_ns, parent_index, note], followed by a line with the
tracer's own time in ns (wrapping plus writing), which start-up excludes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time

clock = time.perf_counter_ns


def _found(args, kwargs, result):
    return result is not None


def _true(args, kwargs, result):
    return bool(result)


def _kept_tried(args, kwargs, result):
    """Extensions kept and adjacency patterns tried, read off the returned
    list: level L tries every mask over each graph kept at level L - 1."""
    k = args[2] if len(args) > 2 else kwargs["k"]
    n0 = result[0].graph.n
    per_level = [1] + [0] * k
    for ext in result[1:]:
        per_level[ext.graph.n - n0] += 1
    tried = sum(per_level[level] << (n0 + level) for level in range(k))
    return [len(result) - 1, tried]


NOTES = {
    "graphs.find_induced_embedding": _found,
    "typeslogic.eval_existential": _true,
    "typeslogic.enumerate_extensions": _kept_tried,
}


def install(spans: list) -> dict:
    """Wrap and rebind every public gfree function; returns the originals by name."""
    import gfree

    modules = [gfree] + [
        importlib.import_module(f"gfree.{info.name}")
        for info in pkgutil.iter_modules(gfree.__path__)
    ]
    stack: list[tuple[object, int]] = []
    originals: dict[str, object] = {}
    wrappers: dict[int, object] = {}

    def wrap(name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] is traced:
                return fn(*args, **kwargs)
            rec = [name, 0, 0, stack[-1][1] if stack else -1, None]
            stack.append((traced, len(spans)))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, result)
            return result

        return traced

    for mod in modules[1:]:
        short = mod.__name__.split(".", 1)[1]
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            is_fn = inspect.isfunction(fn) or isinstance(fn, functools._lru_cache_wrapper)
            if is_fn and fn.__module__ == mod.__name__:
                originals[f"{short}.{attr}"] = fn
                wrappers[id(fn)] = wrap(f"{short}.{attr}", fn)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])
    return originals


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON -- <gfree arguments>")
    import gfree.cli  # the package import is part of start-up, as in the CLI

    t1 = clock()
    spans: list = []
    originals = install(spans)
    own = clock() - t1
    try:
        result = gfree.cli.run_command(argv)
        sys.stdout.write(result.stdout)
        return result.exit_code
    finally:
        sys.stdout.flush()
        t2 = clock()
        cached = originals.get("cotree.decompose")
        info = cached.cache_info() if hasattr(cached, "cache_info") else None
        doc = {
            "functions": sorted(originals),
            "decompose_cache": [info.hits, info.misses] if info else [0, 0],
            "spans": spans,
        }
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        doc_ns = clock() - t2
        with open(spans_path, "a", encoding="utf-8") as fh:
            fh.write(f"\n{own + doc_ns}\n")


if __name__ == "__main__":
    sys.exit(main())
