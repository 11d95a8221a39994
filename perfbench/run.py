"""Closed-loop benchmark of the gfree CLI.

Usage (from the repository root):
  python3 perfbench/run.py --workload cotree|search|gadget|types|deep [--seed N]
                           [--seconds S] [--trace 0|1]

One client sends one request at a time; each request is a fresh
`python -m gfree.cli ...` process with `src` on the path.  Inputs are
generated from the seed (workloads.py) and every answer is checked with the
benchmark's own code (model.py).  The run repeats a deck of requests in a
fixed order until --seconds have passed, so each request is seen several
times and its stdout must be byte-identical across repeats.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
every request twice, plainly and under tracer.py, requires identical stdout
from both, and reports the per-layer metrics from the spans.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.

The workload `deep` is not in BENCHMARK.json: it holds inputs deep enough
to exhaust the interpreter's recursion limit in gfree today, so its
error_rate shows the robustness gap rather than a speed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Deck, Request

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
SETUPS = 3  # set-up repeats per run; setup_s is their median
REQUEST_TIMEOUT_S = 60.0


# ------------------------------------------------------------- processes


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    code: int  # exit code, or -signal
    timed_out: bool
    stdout: str
    stderr: str


class Spawner:
    """Runs request processes through spawner.py; stops it, and anything it
    started, on close."""

    def __init__(self, env: dict, scratch: Path):
        self.scratch = scratch
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
            start_new_session=True,
        )

    def run(self, argv: list[str]) -> Outcome:
        out, err = self.scratch / "stdout", self.scratch / "stderr"
        self.proc.stdin.write(json.dumps([argv, REQUEST_TIMEOUT_S, str(out), str(err)]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the request spawner exited")
        wall, cpu, rss, code, timed_out = json.loads(reply)
        return Outcome(wall, cpu, rss, code, timed_out,
                       out.read_text(encoding="utf-8", errors="replace"),
                       err.read_text(encoding="utf-8", errors="replace"))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:  # interrupted mid-request
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


# ----------------------------------------------------------------- run


@dataclass
class Entry:
    """What the run saw of one deck request."""

    request: Request
    first: tuple[str, int] | None = None  # (stdout, exit code) of the first run
    runs: int = 0
    failures: list[str] = field(default_factory=list)


def crash(o: Outcome) -> str | None:
    if o.timed_out:
        return "timeout"
    if "Traceback (most recent call last)" in o.stderr:
        return "traceback: " + o.stderr.strip().rsplit("\n", 1)[-1][:100]
    return None


def observe(entry: Entry, o: Outcome) -> None:
    entry.runs += 1
    problem = crash(o)
    if problem is None and entry.first is not None and (o.stdout, o.code) != entry.first:
        problem = "stdout differs between repeats"
    if entry.first is None:
        entry.first = (o.stdout, o.code)
    if problem:
        entry.failures.append(problem)


def judge(entries: list[Entry]) -> None:
    """Check each request's first answer; a wrong answer fails every repeat."""
    for e in entries:
        if e.first is None or len(e.failures) == e.runs:
            continue
        try:
            problem = e.request.check(*e.first)
        except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
            problem = f"unreadable answer: {exc!r}"
        if problem:
            e.failures.extend([problem] * (e.runs - len(e.failures)))


def setup(workload: str, seed: int, base: Path, spawner: Spawner) -> tuple[Deck, float]:
    """Generate and write the inputs, then send one untimed warm-up request."""
    start = time.perf_counter()
    workdir = base / f"deck{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    deck = Deck(workdir, seed)
    WORKLOADS[workload](deck)
    # Every seed builds the same slots (kind and size) in the same order, so a
    # fixed shuffle makes the partial last pass of a run alike across seeds.
    random.Random(0).shuffle(deck.requests)
    spawner.run([sys.executable, "-m", "gfree.cli", "--help"])
    return deck, time.perf_counter() - start


def cli_argv(r: Request) -> list[str]:
    return [sys.executable, "-m", "gfree.cli", *r.argv]


def traced_argv(r: Request, spans: Path) -> list[str]:
    return [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), "--", *r.argv]


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "gfree" / "cli.py").is_file():
        print(f"perfbench: no gfree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    os.chdir(ROOT)
    base = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    spawner = Spawner(env, base)
    try:
        setup_times = []
        for _ in range(SETUPS):
            for old in base.glob("deck*"):
                shutil.rmtree(old)
            deck, seconds = setup(args.workload, args.seed, base, spawner)
            setup_times.append(seconds)
        result = measure(args, deck, spawner, base, spec)
        result["metrics"]["setup_s"] = statistics.median(setup_times)
    finally:
        spawner.close()
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            base.parent.rmdir()

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        if m["name"] not in result["metrics"]:
            raise SystemExit(f"perfbench: metric {m['name']!r} was not measured")
        metrics[m["name"]] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def measure(args, deck: Deck, spawner: Spawner, base: Path, spec: dict) -> dict:
    entries = [Entry(r) for r in deck.requests]
    untraced: list[Outcome] = []
    walls: dict[int, list[float]] = {}  # deck slot -> wall times of its plain runs
    layers = LayerTotals()
    t0 = time.perf_counter()
    i = 0
    while time.perf_counter() - t0 < args.seconds:
        slot = i % len(entries)
        e = entries[slot]
        i += 1
        o = spawner.run(cli_argv(e.request))
        observe(e, o)
        untraced.append(o)
        walls.setdefault(slot, []).append(o.wall_s)
        if args.trace:
            spans = base / "spans.json"
            spans.unlink(missing_ok=True)
            t = spawner.run(traced_argv(e.request, spans))
            if (t.stdout, t.code) != (o.stdout, o.code):
                e.failures.append("traced stdout differs from the plain run")
            elif not spans.exists():
                e.failures.append("traced run wrote no spans")
            else:
                layers.add(spans, t.wall_s, o.wall_s)
    loop_s = time.perf_counter() - t0
    judge(entries)

    attempted = len(untraced)
    failed = sum(min(len(e.failures), e.runs) for e in entries)
    completed = sum(not o.timed_out for o in untraced)
    # A request's latency is the median of its repeats, which sit a deck pass
    # apart: a burst of load from outside then moves one repeat, not the tail.
    typical = [statistics.median(w) for w in walls.values()]
    p90 = percentile(typical, 90) if len(typical) > 1 else typical[0]
    metrics = {
        "req_per_s": completed / loop_s,
        "req_p50_ms": statistics.median(typical) * 1000,
        "req_p90_ms": p90 * 1000,
        "cpu_ms_per_req": sum(o.cpu_s for o in untraced) / attempted * 1000,
        "peak_rss_mb": max(o.maxrss_kb for o in untraced) / 1024,
        "error_rate": failed / attempted,
    }
    beyond = [w for w in walls.values() if statistics.median(w) > p90]
    info = {
        "workload": args.workload, "seed": args.seed, "python": platform.python_version(),
        "nproc": os.cpu_count(), "deck": len(entries), "samples": attempted,
        "requests_beyond_p90": len(beyond), "samples_beyond_p90": sum(map(len, beyond)),
        "error_rate": metrics["error_rate"],
    }
    print("# " + json.dumps(info))
    for e in entries:
        if e.failures:
            print(f"# FAIL {e.request.kind} {' '.join(e.request.argv)[:120]}: {e.failures[0]}")
    if args.trace:
        metrics.update(layers.metrics(spec["per_layer"]))
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------- traces


RATIOS = {
    # metric -> function whose spans note a True or False outcome
    "graphs.find_induced_embedding.found_ratio": "graphs.find_induced_embedding",
    "typeslogic.eval_existential.true_ratio": "typeslogic.eval_existential",
}


class LayerTotals:
    """Sums over traced requests; metrics are per request or pooled ratios."""

    def __init__(self):
        self.requests = 0
        self.traced_s = 0.0
        self.plain_s = 0.0
        self.startup_ns = 0
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.true: Counter[str] = Counter()
        self.kept = self.tried = 0
        self.cache_hits = self.cache_calls = 0
        self.functions: set[str] = set()

    def add(self, spans_file: Path, traced_s: float, plain_s: float) -> None:
        head, own = spans_file.read_text(encoding="utf-8").rsplit("\n", 2)[:2]
        doc = json.loads(head)
        spans = doc["spans"]
        self.requests += 1
        self.traced_s += traced_s
        self.plain_s += plain_s
        self.functions.update(doc["functions"])
        hits, misses = doc["decompose_cache"]
        self.cache_hits += hits
        self.cache_calls += hits + misses
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        run_ns = 0
        for (name, start, end, parent, note), inner in zip(spans, child_ns):
            self.calls[name] += 1
            self.self_ns[name] += end - start - inner
            if name == "cli.run_command" and parent < 0:
                run_ns += end - start
            if name == "typeslogic.enumerate_extensions" and note:
                self.kept += note[0]
                self.tried += note[1]
            elif note is True:
                self.true[name] += 1
        self.startup_ns += int(traced_s * 1e9) - run_ns - int(own)

    def metrics(self, wanted: list[dict]) -> dict:
        n = max(self.requests, 1)
        out = {
            "cli.startup_ms": self.startup_ns / n / 1e6,
            "trace.overhead_ratio": self.traced_s / self.plain_s if self.plain_s else 0.0,
            "cotree.decompose.cache_hit_ratio": self.cache_hits / self.cache_calls
            if self.cache_calls else 0.0,
            "typeslogic.extensions_kept_ratio": self.kept / self.tried if self.tried else 0.0,
        }
        for metric, fn in RATIOS.items():
            out[metric] = self.true[fn] / self.calls[fn] if self.calls[fn] else 0.0
        module_ns: Counter[str] = Counter()
        for fn, ns in self.self_ns.items():
            module_ns[fn.split(".")[0]] += ns
        modules = {fn.split(".")[0] for fn in self.functions}
        for m in wanted:
            name = m["name"]
            if name in out:
                continue
            stem, _, kind = name.rpartition(".")
            if kind == "self_ms" and stem in modules:
                out[name] = module_ns[stem] / n / 1e6
            elif kind == "self_ms" and stem in self.functions:
                out[name] = self.self_ns[stem] / n / 1e6
            elif kind == "calls" and stem in self.functions:
                out[name] = self.calls[stem] / n
            else:  # the function is gone from gfree's public names
                out[name] = 0.0
                print(f"# no traced function for per-layer metric {name}")
        return out


if __name__ == "__main__":
    sys.exit(main())
