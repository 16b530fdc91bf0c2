"""The critind benchmark: one workload per run, in one process and one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout: the program is imported from
the checkout's ./src and nothing is installed. Inputs come from --seed alone.

--trace 0 times each graph's user-visible path once over the run's inputs,
then cycles through them again until --seconds have passed, and reports the
end-to-end metrics. On the polynomial workloads that path is
`parse_graph(text) -> analyze(g) -> json.dumps(report.to_json_dict(), indent=2)`,
which is `critind analyze --input` without the process start; on
verify-corpus it is `analyze(g, include_checks=True)` and `report.ok`, as
`critind verify` does per graph.

--trace 1 makes one pass over the run's inputs with every public layer
function wrapped in a span (see spans.py), between two untraced passes, and
reports per-layer self times and exact work counters. A fixed pass count, not a
deadline, bounds this run so that the counters repeat exactly.

Times are reported in calibrated seconds (cal_s, see CAL_LOOP below), which
take out most of the machine's own speed swings; set-up time is plain
seconds. Every answer is checked outside the timed region: on the polynomial
workloads against the references stored in bench/refs, on verify-corpus by
`report.ok`. Each mismatch is printed with its workload, seed and graph
index. The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from gen import sparse_gnp_text
from spans import LAYER_METRICS, Tracer, self_time_metric

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
try:
    from critind import analysis, cli, critical, graph
except ImportError as exc:
    sys.exit(f"error: cannot import critind from {SRC}: {exc}")
if Path(graph.__file__).resolve().parent != (SRC / "critind").resolve():
    sys.exit(f"error: critind was imported from {graph.__file__}, not from {SRC}")

# Set-up is repeated and its median reported, so that one slow repetition
# does not read as a regression.
SETUP_REPEATS = 5

# Calibrated seconds (cal_s). The 2-vCPU Xeon virtual machine this was sized
# on runs for seconds at a time up to 1.6x slower than its best (CPU time grows with
# wall time, so the slowdown is shared hardware, not waiting), and a run's
# raw median moved by up to 35% between seeds. So the benchmark times a
# fixed pure-Python loop before and after every CAL_EVERY_S of timed work,
# and rescales each graph's wall time by CAL_NOMINAL_S over the loop's mean
# time around it. On this machine at full speed, 1 cal_s is about 1 s.
CAL_LOOP = 100_000
CAL_NOMINAL_S = 0.006
CAL_EVERY_S = 0.25

CORPUS_N = (4, 12)
CORPUS_P = [0.1, 0.3, 0.5, 0.8]

END_TO_END_UNITS = {"setup_s": "s", "graphs_per_s": "1/cal_s", "graph_s.p50": "cal_s", "peak_rss_mb": "MB"}


def start_process_state() -> None:
    """Drop what the program cached for earlier graphs, as a new process would.

    critical._structures is a weak cache whose values hold their own keys, so
    it never frees an entry: in one long process every analyzed graph stays
    alive, and full garbage collections then slow each later graph in
    proportion to how many ran before it. A run resets it where the command
    it models starts a new process, outside the timed region.
    """
    cache = getattr(critical, "_structures", None)
    if cache is not None:
        cache.clear()


def to_json(report: analysis.AnalysisReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2)


def _digest(labels: list[str]) -> str:
    return hashlib.sha256("\n".join(sorted(labels)).encode()).hexdigest()


def answers(doc: dict[str, Any]) -> dict[str, Any]:
    """The unique, label-invariant answers of one JSON report."""
    dec = doc["decomposition"]
    return {
        "n": doc["graph"]["n"],
        "m": doc["graph"]["m"],
        "d": doc["d"],
        "mu": doc["mu"],
        "I_size": len(dec["I"]),
        "X_size": len(dec["X"]),
        "X_sha256": _digest(dec["X"]),
        "diadem_size": len(doc["diadem"]),
        "diadem_sha256": _digest(doc["diadem"]),
    }


def check_report(g: graph.Graph, doc: dict[str, Any], want: dict[str, Any]) -> list[str]:
    """Mismatches between a JSON report and its reference answers."""
    got = answers(doc)
    problems = [f"{key}: got {got[key]!r}, want {want[key]!r}" for key in got if got[key] != want[key]]
    i_set = g.indices(doc["decomposition"]["I"])
    if not graph.is_independent(g, i_set):
        problems.append("I is not independent")
    if graph.difference(g, i_set) != doc["d"]:
        problems.append(f"d(I) = {graph.difference(g, i_set)} differs from d = {doc['d']}")
    return problems


@dataclass
class Item:
    """One input: its index in the workload's input list, what the timed path
    consumes, and what its answers are checked against."""

    index: int
    source: Any
    ref: dict[str, Any] | None = None
    ready: Any = None


class AnalyzeWorkload:
    """G(n, c/(n-1)) graphs drawn from a pool with stored reference answers.

    The pool holds graphs with generator seeds 0..pool-1; --seed picks
    `inputs` of them and their order. A pool not much larger than `inputs`
    keeps the spread between seeds small. Every pass parses each graph
    afresh, so that the program's per-Graph caches cannot serve a repeat.
    """

    graphs_per_process = 1  # `critind analyze` reads one graph per process

    def __init__(self, name: str, n: int, c: float, pool: int, inputs: int):
        self.name = name
        self.n = n
        self.c = c
        self.pool = pool
        self.inputs = inputs

    @property
    def ref_path(self) -> Path:
        return BENCH / "refs" / f"{self.name}.json"

    def setup(self, seed: int) -> list[Item]:
        pool = json.loads(self.ref_path.read_text(encoding="utf-8"))["graphs"]
        if len(pool) != self.pool:
            raise SystemExit(f"error: {self.ref_path} holds {len(pool)} graphs, not {self.pool}")
        order = random.Random(seed).sample(range(self.pool), self.inputs)
        return [Item(j, sparse_gnp_text(self.n, self.c, pool[j]["seed"]), pool[j]) for j in order]

    def materialize(self, item: Item) -> str:
        return item.source

    def timed(self, text: str, traced: bool) -> tuple[graph.Graph, analysis.AnalysisReport, str]:
        g = graph.parse_graph(text)
        if traced:
            critical.critical_difference(g)  # the closure structure gets its own span
        report = analysis.analyze(g)
        return g, report, to_json(report)

    def check(self, item: Item, out: tuple[graph.Graph, analysis.AnalysisReport, str]) -> list[str]:
        g, _, text = out
        return check_report(g, json.loads(text), item.ref)


class CorpusWorkload:
    """The seeded `critind verify` corpus, every graph analyzed with checks."""

    name = "verify-corpus"

    def __init__(self, inputs: int):
        self.inputs = inputs
        self.graphs_per_process = inputs  # one pass is one `critind verify --trials <inputs>`

    def setup(self, seed: int) -> list[Item]:
        specs = cli.corpus_specs(self.inputs, *CORPUS_N, CORPUS_P, seed)
        return [Item(i, spec, ready=graph.generate(spec)) for i, spec in enumerate(specs)]

    def materialize(self, item: Item) -> graph.Graph:
        g = item.ready if item.ready is not None else graph.generate(item.source)
        item.ready = None  # a later pass gets a fresh Graph, outside the timed region
        return g

    def timed(self, g: graph.Graph, traced: bool) -> tuple[graph.Graph, analysis.AnalysisReport, None]:
        if traced:
            critical.critical_difference(g)
        report = analysis.analyze(g, include_checks=True)
        report.ok  # evaluated in the timed region, as `critind verify` does
        return g, report, None

    def check(self, item: Item, out: tuple[graph.Graph, analysis.AnalysisReport, None]) -> list[str]:
        report = out[1]
        if report.ok:
            return []
        bad = [c.id for group in (report.checks or [], report.consistency or []) for c in group if not c.holds]
        return [f"report.ok is false ({','.join(bad) or 'verdicts disagree'}); spec {item.source}"]


# A run times every one of its inputs once, then cycles through them again
# until --seconds have passed; inputs are sized so that one pass takes 8-12 s
# on the seed code.
WORKLOADS = {
    w.name: w
    for w in (
        AnalyzeWorkload("sparse-critical", 2500, 4.0, pool=14, inputs=12),
        AnalyzeWorkload("sparse-forest", 10000, 2.0, pool=14, inputs=12),
        AnalyzeWorkload("dense-matched", 1000, 100.0, pool=32, inputs=24),
        CorpusWorkload(inputs=3000),
    )
}


@dataclass
class Tally:
    """Timed attempts and failed ones, over every pass of a run."""

    attempted: int = 0
    failed: int = 0


@dataclass
class Timing:
    graph: int  # position in the run, also the tracer's graph id
    wall_s: float
    cal_s: float


def calibration_loop() -> float:
    """Seconds a fixed pure-Python loop takes now."""
    clock = time.perf_counter
    t0 = clock()
    x = 0
    for i in range(CAL_LOOP):
        x += i * i
    return clock() - t0


def timed_pass(w, items: list[Item], where: str, tally: Tally, *, seconds: float | None = None,
               tracer: Tracer | None = None) -> list[Timing]:
    """Time the workload's path on each item once or, given seconds, cycle
    through the items until that many seconds have passed. Returns the
    timings of the graphs whose answers checked out."""
    clock = time.perf_counter
    timings: list[Timing] = []
    pending: list[tuple[int, float]] = []
    cal_before = calibration_loop()

    def calibrate() -> None:
        nonlocal cal_before
        cal_after = calibration_loop()
        scale = CAL_NOMINAL_S / ((cal_before + cal_after) / 2)
        timings.extend(Timing(i, wall, wall * scale) for i, wall in pending)
        pending.clear()
        cal_before = cal_after

    start = clock()
    stream = itertools.cycle(items) if seconds is not None else items
    for i, item in enumerate(stream):
        if seconds is not None and clock() - start >= seconds:
            break
        if i % w.graphs_per_process == 0:
            start_process_state()
        arg = w.materialize(item)
        if tracer is not None:
            tracer.graph_id = i
        tally.attempted += 1
        try:
            t0 = clock()
            out = w.timed(arg, tracer is not None)
            elapsed = clock() - t0
            problems = w.check(item, out)
        except Exception:
            problems = ["exception\n" + traceback.format_exc()]
        if problems:
            tally.failed += 1
            for problem in problems:
                print(f"MISMATCH {where} graph {i} (input {item.index}): {problem}")
            continue
        pending.append((i, elapsed))
        if sum(wall for _, wall in pending) >= CAL_EVERY_S:
            calibrate()
        if tracer is not None:
            g, report, text = out
            tracer.counters["graph.edges"] += g.m
            tracer.counters["critical.d"] += report.d
            tracer.counters["critical.diadem_size"] += len(report.diadem)
            if text is not None:  # the report's bytes, less its timings, which vary
                untimed = dict(report.to_json_dict(), timings={})
                tracer.counters["analysis.json_bytes"] += len(json.dumps(untimed, indent=2))
    if pending:
        calibrate()
    return timings


def completed(timings: list[Timing], where: str) -> list[Timing]:
    if not timings:
        raise SystemExit(f"error: {where}: every graph failed")
    return timings


def environment() -> dict[str, Any]:
    """Python, commit, source digest, CPUs and CPU model of this run."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "critind").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(w, items: list[Item], where: str, seconds: float, setup_s: float) -> tuple[Tally, dict]:
    tally = Tally()
    start = time.perf_counter()
    timings = timed_pass(w, items, where, tally)
    # Read after one pass over the inputs, so that it does not grow with the
    # number of graphs a faster program fits into the run.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timings += timed_pass(w, items, where, tally, seconds=seconds - (time.perf_counter() - start))
    timings = completed(timings, where)
    cal = [t.cal_s for t in timings]
    wall = [t.wall_s for t in timings]
    print(f"{len(timings)} graphs over {len(items)} inputs; wall p50 {statistics.median(wall):.6g} s,"
          f" {len(wall) / sum(wall):.6g} graphs/s; wall over calibrated time {sum(wall) / sum(cal):.4f}")
    print(f"failed_ratio {tally.failed / tally.attempted} = {tally.failed} failed / {tally.attempted} attempted")
    if len(cal) >= 1000:
        p99 = statistics.quantiles(cal, n=100)[98]
        print(f"graph_s.p99 {p99:.6g} cal_s over {len(cal)} graphs")
    values = {
        "setup_s": setup_s,
        "graphs_per_s": len(cal) / sum(cal),
        "graph_s.p50": statistics.median(cal),
        "peak_rss_mb": peak_rss_mb,
    }
    return tally, {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer(w, items: list[Item], where: str, spans_path: Path) -> tuple[Tally, dict]:
    tally = Tally()
    # Untraced passes before and after the traced one, so that a drift in
    # speed over the run does not read as tracing cost.
    untraced = timed_pass(w, items, where + " untraced", tally)
    tracer = Tracer()
    tracer.install(sys.modules, extra=((sys.modules[__name__], "to_json", "analysis.to_json"),))
    try:
        traced = timed_pass(w, items, where + " traced", tally, tracer=tracer)
    finally:
        tracer.uninstall()
    untraced += timed_pass(w, items, where + " untraced", tally)
    tracer.write(spans_path)
    untraced_p50 = statistics.median(t.cal_s for t in completed(untraced, where))
    traced_p50 = statistics.median(t.cal_s for t in completed(traced, where))

    k = len(traced)
    values: dict[str, float] = {name: 0.0 for name, unit, _, _ in LAYER_METRICS if unit == "cal_s"}
    self_times = tracer.self_times({t.graph: t.cal_s / t.wall_s for t in traced})
    total = sum(self_times.values())
    print(f"self time per traced graph over {k} graphs (share of {total:.6g} cal_s traced total):")
    for span, seconds in sorted(self_times.items(), key=lambda kv: -kv[1]):
        values[self_time_metric(span)] = seconds / k
        print(f"  {self_time_metric(span):28s} {seconds / k:.6g} cal_s  {seconds / total:7.2%}")
    values.update(tracer.counters)
    values["trace.graphs"] = k
    values["trace.untraced_p50_s"] = untraced_p50
    values["trace.traced_p50_s"] = traced_p50
    values["trace.overhead_ratio"] = traced_p50 / untraced_p50
    print(f"trace.overhead_ratio {traced_p50 / untraced_p50:.4f} = traced p50 {traced_p50:.6g} cal_s"
          f" / untraced p50 {untraced_p50:.6g} cal_s, over the same {k} graphs")
    return tally, {name: metric(values.get(name, 0), unit) for name, unit, _, _ in LAYER_METRICS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    w = WORKLOADS[args.workload]
    where = f"workload={w.name} seed={args.seed}"

    setups = []
    for _ in range(SETUP_REPEATS):
        items = None  # free the previous repetition's inputs first
        t0 = time.perf_counter()
        items = w.setup(args.seed)
        setups.append(time.perf_counter() - t0)
    print("env " + json.dumps(environment()))
    print(f"setup_s median of {SETUP_REPEATS}: {[round(s, 4) for s in setups]}")

    w.timed(w.materialize(items[0]), False)  # untimed warm-up
    start_process_state()
    if args.trace:
        tally, metrics = per_layer(w, items, where, BENCH / "out" / f"spans-{w.name}-seed{args.seed}.jsonl")
    else:
        tally, metrics = end_to_end(w, items, where, args.seconds, statistics.median(setups))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
