"""Shared hypothesis strategies and graph helpers for the test suite."""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from hypothesis import strategies as st

from critind import Graph, difference, is_independent
from critind import critical


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


def two_choice_bipartite(a: int, seed: int) -> Graph:
    """A seeded sparse bipartite graph: left vertices 0 .. a-1, right
    vertices a .. 3a-1, each right vertex joined to 2 distinct random left
    vertices. The Karp-Sipser seed leaves about a core vertices unmatched
    and, on the seeds tried, is already maximum, so the blossom's one phase
    fails over much of the graph."""
    rng = random.Random(seed)
    edges = [(u, a + j) for j in range(2 * a) for u in rng.sample(range(a), 2)]
    return Graph([f"l{i}" for i in range(a)] + [f"r{j}" for j in range(2 * a)], sorted(edges))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: the a-side is vertices 0 .. a-1, the b-side a .. a+b-1."""
    edges = [(u, a + j) for u in range(a) for j in range(b)]
    return Graph([f"a{i}" for i in range(a)] + [f"b{j}" for j in range(b)], edges)


def odd_cycles(k: int) -> Graph:
    """Disjoint cycles C_3, C_5, ..., C_{2k+1}: n = k(k + 2) vertices. Each
    B(C_{2i+1}) is C_{4i+2}, so d = 0, mu = k(k + 1) / 2, and the critical
    independent sets are all empty."""
    labels, edges = [], []
    for i in range(1, k + 1):
        base, size = len(labels), 2 * i + 1
        labels += [f"c{i}_{j}" for j in range(size)]
        edges += [(base + j, base + (j + 1) % size) for j in range(size)]
    return Graph(labels, edges)


def path(n: int) -> Graph:
    """P_n on vertices 0 .. n-1 in path order."""
    return Graph([f"v{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def vertex_mask(s: Iterable[int]) -> int:
    """A vertex set in the oracle's family encoding: bit i for vertex index i."""
    return sum(1 << v for v in s)


def mask_members(mask: int) -> frozenset[int]:
    """The vertex indices whose bits are set in mask."""
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def mate_size(mate: Sequence[int]) -> int:
    """The number of edges of a matching given as a mate list."""
    return (len(mate) - mate.count(-1)) // 2


def certified_mu(g: Graph, mate: Sequence[int]) -> int | None:
    """The size of mate, a matching of G, when a certificate proves it
    maximum, else None.

    The certificate pins d = d(G) first. d(G) <= d: right_match is a
    matching of B(G) of size n - d, and for any X at most |N(X)| + n - |X|
    of its edges fit. d(G) >= d: X_min is independent with d(X_min) = d. A
    matching of G doubles to one of B(G), so 2 mu <= n - d, and a matching
    of size floor((n - d) / 2) is maximum.
    """
    s = critical._structure(g)
    n, d = g.n, s.d
    pairs = [(w, u) for w, u in enumerate(s.right_match) if u >= 0]
    assert len(pairs) == len({u for _, u in pairs}) == n - d
    assert all(w in g.adj[u] for w, u in pairs)
    assert is_independent(g, s.x_min) and difference(g, s.x_min) == d
    assert all(mate[v] == -1 or mate[v] in g.adj[v] and mate[mate[v]] == v for v in range(n))
    size = mate_size(mate)
    assert size <= (n - d) // 2
    return size if size == (n - d) // 2 else None


def dimacs_text(g: Graph) -> str:
    """g as DIMACS text: the problem line, then one 'e i j' line per edge."""
    lines = [f"p edge {g.n} {g.m}"] + [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def with_pendants(g: Graph, hosts: Sequence[int]) -> Graph:
    """g plus one new vertex per entry of hosts, joined to that vertex only.
    hosts[i] may name an earlier new vertex (index g.n + j, j < i), which
    grows pendant paths and trees."""
    labels = list(g.labels) + [f"pend{i}" for i in range(len(hosts))]
    edges = g.edges() + [(h, g.n + i) for i, h in enumerate(hosts)]
    return Graph(labels, edges)


def random_pendants(g: Graph, k: int, rng: random.Random) -> Graph:
    """g with k pendant vertices, each hung on a uniform earlier vertex."""
    return with_pendants(g, [rng.randrange(g.n + i) for i in range(k)])


@st.composite
def graphs_with_pendants(draw, max_n: int = 10, max_pendants: int = 4):
    """graphs(max_n=max_n) with up to max_pendants pendant vertices hung on
    it, some of them on each other."""
    g = draw(graphs(max_n=max_n))
    k = draw(st.integers(0, max_pendants)) if g.n else 0
    return with_pendants(g, [draw(st.integers(0, g.n + i - 1)) for i in range(k)])
