"""Shared hypothesis strategies and graph helpers for the test suite."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from critind import Graph


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 10):
    """Arbitrary small simple graphs."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    return Graph([f"v{i}" for i in range(n)], edges)


@st.composite
def bipartite_graphs(draw, max_side: int = 5):
    """Arbitrary small bipartite graphs (left u*, right w*)."""
    nl = draw(st.integers(0, max_side))
    nr = draw(st.integers(0, max_side))
    pairs = [(i, nl + j) for i in range(nl) for j in range(nr)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    labels = [f"u{i}" for i in range(nl)] + [f"w{j}" for j in range(nr)]
    return Graph(labels, edges), frozenset(range(nl)), frozenset(range(nl, nl + nr))


def permuted(g: Graph, rng: random.Random) -> Graph:
    """The same labeled graph with vertices stored in a shuffled order."""
    order = list(range(g.n))
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    labels = [g.labels[v] for v in order]
    edges = [(pos[u], pos[v]) for u, v in g.edges()]
    return Graph(labels, edges)


def sparse_graph(n: int, c: float, seed: int) -> Graph:
    """A seeded random graph on n vertices with round(c * n / 2) edges,
    drawn in O(n + m) so that it scales past the oracle bound."""
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < round(c * n / 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph([f"v{i}" for i in range(n)], sorted(edges))


def dimacs_text(g: Graph) -> str:
    """g as DIMACS text: the problem line, then one 'e i j' line per edge."""
    lines = [f"p edge {g.n} {g.m}"] + [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"
