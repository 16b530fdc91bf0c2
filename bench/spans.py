"""Outside-in spans for the traced benchmark run.

The traced process replaces each public critind function at the name its
callers look it up under (for example `critind.critical.max_matching_bipartite`
is the name the closure structure uses) with a wrapper that records a span.
No file of the program changes, and the untraced pass runs before the
wrappers are installed, so it pays nothing for them.

A span is (name, start, end, parent index, graph id). Spans stay in memory
until the run ends; self time is a span's duration minus the time its direct
children cover, which is exact because calls nest on one thread.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# Span name for each wrapped function, keyed by (module, attribute) as the
# callers on the analyze and verify paths look it up.
WRAPPED: tuple[tuple[str, str, str], ...] = (
    ("critind.graph", "parse_graph", "graph.parse"),
    ("critind.analysis", "induced_subgraph", "graph.induced_subgraph"),
    ("critind.critical", "critical_difference", "critical.structure"),
    ("critind.critical", "bipartite_double", "critical.double"),
    ("critind.critical", "max_critical_independent_set", "critical.greedy"),
    ("critind.critical", "diadem", "critical.diadem"),
    ("critind.critical", "decompose", "critical.decompose"),
    ("critind.critical", "find_critical_independent_set", "critical.find_cis"),
    ("critind.critical", "max_matching_bipartite", "matching.hk"),
    ("critind.critical", "min_vertex_cover_bipartite", "matching.cover"),
    ("critind.matching", "max_matching_bipartite", "matching.hk"),
    ("critind.matching", "max_matching_general", "matching.blossom"),
    ("critind.oracle", "independence_profile", "oracle.profile"),
    ("critind.oracle", "critical_family", "oracle.family"),
    ("critind.oracle", "max_independent_difference", "oracle.mid"),
    ("critind.oracle", "mu_exact", "oracle.mu_exact"),
    ("critind.oracle", "max_difference_exhaustive", "oracle.subset_scan"),
    ("critind.analysis", "analyze", "analysis.analyze"),
)

# Exact work counted at a wrapper from its arguments and result.
CALL_COUNTERS: dict[str, tuple[str, Callable[[tuple, Any], int]]] = {
    "matching.hk": ("matching.hk_calls", lambda args, out: 1),
    "matching.blossom": ("matching.blossom_calls", lambda args, out: 1),
    "oracle.subset_scan": ("oracle.subset_masks", lambda args, out: 1 << args[0].n),
    "oracle.family": ("oracle.family_sets", lambda args, out: len(out.all_critical_independent)),
}

# Every per-layer metric: (name, unit, the end-to-end metric it should move,
# the workloads where it should move it). Self times are calibrated seconds
# (see run.py) per traced graph; counters are totals over the run's inputs.
LAYER_METRICS: tuple[tuple[str, str, str, str], ...] = (
    ("graph.parse_s", "cal_s", "graph_s.p50", "dense-matched"),
    ("graph.induced_subgraph_s", "cal_s", "graphs_per_s", "verify-corpus"),
    ("critical.double_s", "cal_s", "graph_s.p50", "dense-matched"),
    ("critical.structure_s", "cal_s", "graph_s.p50", "dense-matched"),
    ("critical.greedy_s", "cal_s", "graph_s.p50", "sparse-critical (not sparse-forest, verify-corpus)"),
    ("critical.diadem_s", "cal_s", "graph_s.p50", "sparse-critical (not sparse-forest, verify-corpus)"),
    ("critical.decompose_s", "cal_s", "graph_s.p50", "sparse-forest"),
    ("critical.find_cis_s", "cal_s", "graphs_per_s", "verify-corpus"),
    ("matching.hk_s", "cal_s", "graph_s.p50", "dense-matched"),
    ("matching.cover_s", "cal_s", "graphs_per_s", "verify-corpus"),
    ("matching.blossom_s", "cal_s", "graph_s.p50", "sparse-forest, sparse-critical (not verify-corpus)"),
    ("oracle.subset_scan_s", "cal_s", "graphs_per_s", "verify-corpus only"),
    ("oracle.profile_s", "cal_s", "graphs_per_s", "verify-corpus only"),
    ("oracle.family_s", "cal_s", "graphs_per_s", "verify-corpus only"),
    ("oracle.mid_s", "cal_s", "graphs_per_s", "verify-corpus only"),
    ("oracle.mu_exact_s", "cal_s", "graphs_per_s", "verify-corpus only"),
    ("analysis.self_s", "cal_s", "graphs_per_s", "verify-corpus"),
    ("analysis.to_json_s", "cal_s", "graph_s.p50", "sparse-forest"),
    ("graph.edges", "count", "-", "input fingerprint"),
    ("critical.d", "count", "-", "answer fingerprint"),
    ("critical.diadem_size", "count", "-", "answer fingerprint"),
    ("matching.hk_calls", "count", "graph_s.p50", "dense-matched"),
    ("matching.blossom_calls", "count", "graph_s.p50", "sparse-forest"),
    ("oracle.subset_masks", "count", "graphs_per_s", "verify-corpus"),
    ("oracle.family_sets", "count", "graphs_per_s", "verify-corpus"),
    ("analysis.json_bytes", "count", "graph_s.p50", "sparse-forest (timings field left out)"),
    ("trace.graphs", "count", "-", "base of the per-graph self times"),
    ("trace.untraced_p50_s", "cal_s", "-", "base of trace.overhead_ratio, over both untraced passes"),
    ("trace.traced_p50_s", "cal_s", "-", "numerator of trace.overhead_ratio"),
    ("trace.overhead_ratio", "ratio", "-", "tracing cost; end-to-end metrics come from the untraced run"),
)


def self_time_metric(span: str) -> str:
    """Per-layer metric name for a span's self time."""
    return "analysis.self_s" if span == "analysis.analyze" else span + "_s"


class Tracer:
    """Records nested spans and exact counters for one traced pass."""

    def __init__(self) -> None:
        # A slot is None only while its call is still running.
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.graph_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        counter = CALL_COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.graph_id)
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, out)
            return out

        return traced

    def install(self, modules: dict[str, Any], extra: tuple[tuple[Any, str, str], ...] = ()) -> None:
        """Wrap every WRAPPED name, plus (module object, attribute, span) extras."""
        targets = [(modules[mod], attr, name) for mod, attr, name in WRAPPED] + list(extra)
        for obj, attr, name in targets:
            fn = getattr(obj, attr)
            self._saved.append((obj, attr, fn))
            setattr(obj, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        for obj, attr, fn in reversed(self._saved):
            setattr(obj, attr, fn)
        self._saved.clear()

    def self_times(self, scale: dict[int, float]) -> dict[str, float]:
        """Total self time per span name, each span's scaled by scale[its graph id].
        Spans of graphs missing from scale (failed ones) are left out."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, graph_id) in enumerate(spans):
            if graph_id in scale:
                totals[name] += ((end - start) - covered[i]) * scale[graph_id]
        return dict(totals)

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, graph_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "graph": graph_id}) + "\n")
