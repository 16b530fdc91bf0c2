"""Regenerate the stored reference answers of the polynomial workloads.

    python3 bench/make_refs.py [WORKLOAD ...]

For each pool graph (generator seed 0..pool-1) this runs the benchmark's own
timed path once and stores the unique, label-invariant answers of the JSON
report: n, m, d, mu, |I|, and X and the diadem as sizes plus SHA-256 digests
of their sorted labels. Before storing, I is checked to be independent with
d(I) = d, and d and mu are cross-checked against independent
implementations in networkx (Hopcroft-Karp on the bipartite double, and
max_weight_matching with maxcardinality), which must be installed. X and the
diadem rest on the program's paths, which its test suite checks against the
exhaustive oracle. Rerun this only when a workload's inputs change, never to
absorb a change in the program's answers.
"""

from __future__ import annotations

import argparse
import json
import sys

import networkx as nx

from gen import sparse_gnp_text
from run import WORKLOADS, AnalyzeWorkload, answers, check_report, environment


def networkx_d_mu(g) -> tuple[int, int]:
    """d = n - mu(B(G)) and mu(G), both computed by networkx."""
    b = nx.Graph()
    b.add_nodes_from(range(2 * g.n))
    b.add_edges_from((u, g.n + v) for u in range(g.n) for v in g.adj[u])
    double = nx.bipartite.hopcroft_karp_matching(b, top_nodes=range(g.n))
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return g.n - len(double) // 2, len(nx.max_weight_matching(h, maxcardinality=True))


def make(w: AnalyzeWorkload) -> None:
    graphs = []
    for seed in range(w.pool):
        g, _, text = w.timed(sparse_gnp_text(w.n, w.c, seed), False)
        doc = json.loads(text)
        ans = answers(doc)
        problems = check_report(g, doc, ans)
        nx_d, nx_mu = networkx_d_mu(g)
        if (nx_d, nx_mu) != (ans["d"], ans["mu"]):
            problems.append(f"(d, mu) = {(ans['d'], ans['mu'])} but networkx gives {(nx_d, nx_mu)}")
        if problems:
            sys.exit(f"error: {w.name} pool graph {seed}: {problems}")
        graphs.append({"seed": seed, **ans})
        print(f"{w.name} {seed}: d={ans['d']} mu={ans['mu']} diadem={ans['diadem_size']}", flush=True)
    doc = {
        "workload": w.name,
        "generator": f"gen.sparse_gnp_text(n={w.n}, c={w.c}, seed)",
        "cross_checked": f"d and mu with networkx {nx.__version__}",
        "made_with": environment(),
        "graphs": graphs,
    }
    w.ref_path.parent.mkdir(exist_ok=True)
    w.ref_path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main() -> int:
    names = [name for name, w in WORKLOADS.items() if isinstance(w, AnalyzeWorkload)]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD", help=f"default: {' '.join(names)}")
    args = parser.parse_args()
    for name in args.workloads:
        if name not in names:
            parser.error(f"unknown workload {name!r}; choose from {names}")
    for name in args.workloads or names:
        make(WORKLOADS[name])
    return 0


if __name__ == "__main__":
    sys.exit(main())
