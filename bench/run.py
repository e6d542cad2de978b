"""Benchmark of the doushouqi engine: one workload per run, closed loop.

    python3 bench/run.py --workload opening --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the engine is imported from
``src/``.  The workload's inputs are made from ``--seed`` by a set-up step
that runs in child processes (several times, for a median ``setup_s``).
The timed part then repeats one fixed pass of operations, one after the
other on a single thread, until ``--seconds`` have passed, and every result
is judged against the engine's oracles after the timing ends.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run alternates untraced and traced
passes and reports the per-layer ones.  A result file with the run record
and, for traced runs, the spans are written under ``.bench_out/``.
``--quick`` shrinks every input, for the smoke test.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
MODULES = ("rules", "search", "tablebase", "mining", "cli")

# Never used while the benchmark was tuned; a claim must also hold on it.
HELD_OUT_SEED = 9973
SETUP_RUNS = {"opening": 3, "endgame-query": 3, "table-build": 5}
MIN_PASSES = 2
TAIL_BEYOND = 10      # operations of one pass above the tail latency

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "rules.perft.calls": "count",
    "rules.perft.s": "s",
    "rules.perft.leaves": "count",
    "rules.perft.leaves_per_s": "1/s",
    "search.alphabeta.calls": "count",
    "search.alphabeta.s": "s",
    "search.alphabeta.nodes": "count",
    "search.alphabeta.leaves": "count",
    "search.alphabeta.nodes_per_s": "1/s",
    "search.tt.probes": "count",
    "search.tt.hits": "count",
    "search.tt.stores": "count",
    "search.tt.hit_ratio": "ratio",
    "search.probe_aware_search.calls": "count",
    "search.probe_aware_search.s": "s",
    "search.probe_aware_search.nodes": "count",
    "search.oracle_mismatches": "count",
    "search.item1_mismatches": "count",
    "tablebase.solve_pair.calls": "count",
    "tablebase.solve_pair.s": "s",
    "tablebase.solve_pair.states": "count",
    "tablebase.solve_pair.states_per_s": "1/s",
    "tablebase.verify.s": "s",
    "tablebase.verify.entries": "count",
    "tablebase.verify.entries_per_s": "1/s",
    "tablebase.verify.violations": "count",
    "tablebase.write_tablebase.s": "s",
    "tablebase.write_tablebase.bytes": "B",
    "tablebase.read_tablebase.s": "s",
    "tablebase.read_tablebase.bytes": "B",
    "tablebase.load_directory.s": "s",
    "tablebase.load_directory.tables": "count",
    "tablebase.probe.calls": "count",
    "tablebase.probe.us_p50": "us",
    "tablebase.digest_mismatches": "count",
    "cli.probe.ms_p50": "ms",
    "cli.search.ms_p50": "ms",
    "cli.main.calls": "count",
    "cli.main.s": "s",
    "mining.partition_examples.s": "s",
    "mining.induce_tree.s": "s",
    "mining.evaluate_tree.s": "s",
    "mining.evaluate_tree.misclassified": "count",
    **{f"loc.{m}": "lines" for m in MODULES + ("total",)},
    **{f"{m}.self_s": "s" for m in MODULES + ("bench",)},
    "trace.overhead_s": "s",
    "fail_ratio": "ratio",
}


# --- tracing ----------------------------------------------------------------

class NullTracer:
    """Untraced runs: every call goes straight through."""

    def op(self, op):
        return op.fn(self)

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n=1):
        pass


class Tracer:
    """Spans around each operation and each engine call inside it.

    A span is (name, start, end, parent span index, operation id).  Spans
    and counts stay in memory until the run writes them out.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._parent = None
        self._op_id = -1

    def op(self, op):
        self._op_id += 1
        self._parent = len(self.spans)
        self.spans.append(None)
        start = time.perf_counter()
        try:
            return op.fn(self)
        finally:
            self.spans[self._parent] = (f"bench.{op.kind}", start,
                                        time.perf_counter(), None, self._op_id)
            self._parent = None

    def call(self, name, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, time.perf_counter(), self._parent,
                               self._op_id))

    def count(self, name, n=1):
        self.counts[name] += n


class Failed:
    """Result of an operation that raised."""

    def __init__(self, error: str) -> None:
        self.error = error

    def __repr__(self) -> str:
        return f"raised: {self.error}"


# --- one run ----------------------------------------------------------------

def run_pass(workload, ops: list, tr, latencies: list) -> tuple[list, float]:
    results = []
    started = time.perf_counter()
    workload.begin_pass(tr)
    for op in ops:
        t0 = time.perf_counter()
        try:
            got = tr.op(op)
        except Exception:  # noqa: BLE001 - a raising op is a failure
            got = Failed(traceback.format_exc(limit=-4))
        latencies.append(time.perf_counter() - t0)
        results.append(got)
    return results, time.perf_counter() - started


def judge(workload, ops: list, results: list, tr, failures: list) -> list[bool]:
    """Oracle verdict per operation; checks never abort the run."""
    verdicts, notes = [], {}
    for i, (op, got) in enumerate(zip(ops, results)):
        try:
            ok = not isinstance(got, Failed) and bool(op.check(got, tr))
        except Exception as exc:  # noqa: BLE001 - malformed output fails
            ok, notes[i] = False, f"check raised {type(exc).__name__}: {exc}"
        verdicts.append(ok)
    workload.end_pass(results, verdicts)
    for i, ok in enumerate(verdicts):
        if not ok and len(failures) < 50:
            failures.append({"op": i, "kind": ops[i].kind,
                             "result": repr(results[i])[:2000],
                             "note": notes.get(i, "")})
    return verdicts


def run_setup(args, directory: str) -> float:
    command = [sys.executable, os.path.abspath(__file__), "--setup-into",
               directory, "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        command.append("--quick")
    os.makedirs(directory)
    started = time.perf_counter()
    # No timeout: with one, wait() polls in steps of up to 50 ms.
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - started


def tail(latencies: list, ops_per_pass: int) -> tuple[float, float]:
    """Latency with ``TAIL_BEYOND`` operations per pass above it (at most
    half the samples), and its percentile.

    The rank follows the pass length rather than a round percentile: a fixed
    pass has clusters of similar operations, and a round percentile can
    land on the gap between two clusters, where noise makes it jump.
    """
    ordered = sorted(latencies)
    beyond = min(TAIL_BEYOND * len(ordered) // ops_per_pass,
                 len(ordered) // 2)
    return 100 * (1 - beyond / len(ordered)), ordered[-1 - beyond]


def layer_metrics(tracer: Tracer, walls: dict, fail_ratio: float) -> dict:
    """Per-layer metrics, per traced pass, from the spans and counts."""
    passes = len(walls["traced"])
    spent = defaultdict(float)
    samples = defaultdict(list)
    covered = defaultdict(float)         # child time inside each span
    for name, start, end, parent, _ in tracer.spans:
        samples[name].append(end - start)
        spent[name] += end - start
        if parent is not None:
            covered[parent] += end - start
    own = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(tracer.spans):
        own[name.split(".")[0]] += end - start - covered[i]
    per = {k: v / passes for k, v in tracer.counts.items()}
    s = {k: v / passes for k, v in spent.items()}

    def rate(count: str, seconds: str) -> float:
        t = s.get(seconds, 0.0)
        return per.get(count, 0) / t if t else 0.0

    def p50(name: str, scale: float) -> float:
        return statistics.median(samples[name]) * scale if samples[name] else 0.0

    m = {name: per.get(name, 0) for name, unit in PER_LAYER.items()
         if unit in ("count", "B")}
    m.update({name: s.get(name[:-2], 0.0) for name in PER_LAYER
              if name.endswith(".s")})
    m["rules.perft.leaves_per_s"] = rate("rules.perft.leaves", "rules.perft")
    m["search.alphabeta.nodes_per_s"] = rate("search.alphabeta.nodes",
                                             "search.alphabeta")
    probes = per.get("search.tt.probes", 0)
    m["search.tt.hit_ratio"] = per.get("search.tt.hits", 0) / probes if probes else 0.0
    m["tablebase.solve_pair.states_per_s"] = rate("tablebase.solve_pair.states",
                                                  "tablebase.solve_pair")
    m["tablebase.verify.entries_per_s"] = rate("tablebase.verify.entries",
                                               "tablebase.verify")
    m["tablebase.probe.us_p50"] = p50("tablebase.probe", 1e6)
    m["cli.probe.ms_p50"] = p50("cli.probe", 1e3)
    m["cli.search.ms_p50"] = p50("cli.search", 1e3)
    m["cli.main.s"] = s.get("cli.probe", 0.0) + s.get("cli.search", 0.0)
    for module, lines in source_lines().items():
        m[f"loc.{module}"] = lines
    for module in MODULES:
        m[f"{module}.self_s"] = own[module] / passes
    engine = sum(own[module] for module in MODULES)
    m["bench.self_s"] = (sum(walls["traced"]) - engine) / passes
    m["trace.overhead_s"] = (statistics.median(walls["traced"])
                             - statistics.median(walls["untraced"]))
    m["fail_ratio"] = fail_ratio
    return m


def source_lines() -> dict:
    package = os.path.join(SRC, "doushouqi")
    loc = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                loc[name[:-3]] = sum(1 for _ in fh)
    out = {m: loc.get(m, 0) for m in MODULES}
    out["total"] = sum(loc.values())
    return out


def git_revision() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def measure(args, workload) -> tuple[dict, dict, int, int]:
    """Passes until ``--seconds`` of pass time, each judged right after it;
    returns metrics, the run record, and the attempted and failed counts."""
    null, tracer = NullTracer(), Tracer() if args.trace else None
    walls = {"untraced": [], "traced": []}
    latencies, failures = [], []
    attempted = failed = 0
    # The benchmark's own long-lived objects (every batch's operations) stay
    # out of the collector's scans, which would otherwise land in op times.
    gc.collect()
    gc.freeze()
    while True:
        ops = workload.batches[len(walls["untraced"]) % len(workload.batches)]
        for tr, kind, lat in ((null, "untraced", latencies),
                              (tracer, "traced", []))[:2 if tracer else 1]:
            results, wall = run_pass(workload, ops, tr, lat)
            walls[kind].append(wall)
            verdicts = judge(workload, ops, results, tr, failures)
            attempted += len(verdicts)
            failed += verdicts.count(False)
        # Untraced runs end on whole cycles, so that every run's medians
        # cover the same batches; per-layer values are per pass anyway.
        passes = len(walls["untraced"])
        done = (tracer is not None and passes >= 1) or (
            passes % len(workload.batches) == 0 and passes >= MIN_PASSES)
        if done and sum(walls["untraced"] + walls["traced"]) >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ops_per_pass = len(workload.batches[0])
    percentile, tail_latency = tail(latencies, ops_per_pass)
    record = {
        "ops_per_pass": ops_per_pass,
        "batches": len(workload.batches),
        "passes": len(walls["untraced"]),
        "traced_passes": len(walls["traced"]),
        "pass_wall_s": walls,
        "op_samples": len(latencies),
        "tail_percentile": percentile,
        "failures": failures,
        "known_defects": getattr(workload, "known_defects", {}),
    }
    if tracer:
        metrics = layer_metrics(tracer, walls, failed / attempted)
        record["spans"] = len(tracer.spans)
        with open(os.path.join(OUT_DIR, f"trace-{args.workload}-s{args.seed}"
                               ".json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    else:
        metrics = {
            "wall_s": statistics.median(walls["untraced"]),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": tail_latency * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
    return metrics, record, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(SETUP_RUNS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for the smoke test")
    parser.add_argument("--setup-into", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "doushouqi", "__init__.py")):
        print(f"error: no engine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    setup, workload_class = WORKLOADS[args.workload]
    if args.setup_into:
        setup(args.seed, args.setup_into, args.quick)
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{args.workload}-s{args.seed}-"
                                 f"t{args.trace}-{os.getpid()}")
    try:
        setup_runs = [run_setup(args, os.path.join(work, f"setup-{i}"))
                      for i in range(1 if args.quick or args.trace
                                 else SETUP_RUNS[args.workload])]
        workload = workload_class(os.path.join(work, "setup-0"))
        metrics, record, attempted, failed = measure(args, workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_runs)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "setup_runs_s": setup_runs,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "loc": source_lines(),
    })
    path = os.path.join(OUT_DIR, f"result-{args.workload}-s{args.seed}-"
                                 f"t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(f"# run record: {os.path.relpath(path, ROOT)}", file=sys.stderr)
    wrong = [text for text, seen in record["known_defects"].items()
             if seen["mismatched"]]
    if wrong:
        print(f"# known defect: alpha-beta with a table disagrees with minimax"
              f" on {len(wrong)} of {len(record['known_defects'])} item-1"
              f" positions (ROADMAP item 1): {', '.join(wrong)}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
