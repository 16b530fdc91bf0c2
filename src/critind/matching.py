"""Maximum matchings: Hopcroft-Karp for bipartite graphs (with Konig cover
extraction) and blossom contraction for general graphs.

hopcroft_karp works on plain index lists: the critical-difference reduction
runs it on the host adjacency, max_matching_bipartite on a Graph with a
checked bipartition. The general matching supplies mu(G) for the
Konig-Egervary verdict. Returned matchings are deterministic (vertices are
scanned in index order) but not canonical; consumers should rely only on
size and saturation structure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .graph import Graph, check_vertex_set

__all__ = [
    "Matching",
    "BipartitePartition",
    "hopcroft_karp",
    "max_matching_bipartite",
    "min_vertex_cover_bipartite",
    "max_matching_general",
    "has_augmenting_path",
]


class Matching:
    """A set of pairwise non-incident edges of a host graph."""

    __slots__ = ("edges", "_partner")

    def __init__(self, g: Graph, pairs: Iterable[tuple[int, int]]):
        partner: dict[int, int] = {}
        edges: set[tuple[int, int]] = set()
        for u, v in pairs:
            if not g.has_edge(u, v):
                raise ValueError(f"matching edge ({u}, {v}) is not an edge of the graph")
            if u in partner or v in partner:
                raise ValueError(f"matching edges share vertex at ({u}, {v})")
            partner[u] = v
            partner[v] = u
            edges.add((min(u, v), max(u, v)))
        self.edges = frozenset(edges)
        self._partner = partner

    @property
    def size(self) -> int:
        return len(self.edges)

    @property
    def saturated(self) -> frozenset[int]:
        """Vertices incident to a matching edge."""
        return frozenset(self._partner)

    def partner(self, v: int) -> int:
        """Matched partner of v, or -1 when v is unsaturated."""
        return self._partner.get(v, -1)

    def is_saturated(self, v: int) -> bool:
        return v in self._partner

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class BipartitePartition:
    """A two-coloring of the vertex set; no edge may run inside a side."""

    left: frozenset[int]
    right: frozenset[int]


def _validate_partition(g: Graph, parts: BipartitePartition) -> None:
    left = check_vertex_set(g, parts.left)
    right = check_vertex_set(g, parts.right)
    if left & right:
        raise ValueError("bipartition sides overlap")
    if len(left) + len(right) != g.n:
        raise ValueError("bipartition does not cover the vertex set")
    for side in (left, right):
        for u in side:
            if g.adj_sets[u] & side:
                raise ValueError(f"edge inside one side of the bipartition at vertex {u}")


def hopcroft_karp(adj: Sequence[Sequence[int]], n_right: int) -> tuple[list[int], list[int]]:
    """Maximum bipartite matching; adj[u] lists the right indices (below
    n_right) adjacent to left index u. Returns (match_left, match_right):
    each entry is the partner's index on the other side, or -1."""
    n_left = len(adj)
    INF = n_left + 1
    match_left = [-1] * n_left
    match_right = [-1] * n_right
    dist = [0] * n_left

    def bfs() -> int:
        q: deque[int] = deque()
        for u in range(n_left):
            if match_left[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = INF
        d_nil = INF
        while q:
            u = q.popleft()
            if dist[u] < d_nil:
                for w in adj[u]:
                    x = match_right[w]
                    if x == -1:
                        if d_nil == INF:
                            d_nil = dist[u] + 1
                    elif dist[x] == INF:
                        dist[x] = dist[u] + 1
                        q.append(x)
        return d_nil

    def dfs(root: int, d_nil: int) -> bool:
        # Iterative: explicit frame stack so long augmenting paths cannot
        # overflow the interpreter recursion limit.
        stack: list[tuple[int, Iterator[int]]] = [(root, iter(adj[root]))]
        via: list[int] = []
        while stack:
            u, it = stack[-1]
            for w in it:
                x = match_right[w]
                if x == -1:
                    if d_nil == dist[u] + 1:
                        # Frame i descended through via[i]; augment along it.
                        via.append(w)
                        for (pu, _), pw in zip(stack, via):
                            match_right[pw] = pu
                            match_left[pu] = pw
                        return True
                elif dist[x] == dist[u] + 1:
                    via.append(w)
                    stack.append((x, iter(adj[x])))
                    break
            else:
                dist[u] = INF
                stack.pop()
                if via:
                    via.pop()
        return False

    while True:
        d_nil = bfs()
        if d_nil == INF:
            break
        for u in range(n_left):
            if match_left[u] == -1:
                dfs(u, d_nil)
    return match_left, match_right


def max_matching_bipartite(g: Graph, parts: BipartitePartition) -> Matching:
    """Maximum matching via Hopcroft-Karp, each side numbered in sorted
    order so that the kernel scans in the host's index order."""
    _validate_partition(g, parts)
    left = sorted(parts.left)
    right = sorted(parts.right)
    pos = {w: j for j, w in enumerate(right)}
    adj = [[pos[w] for w in g.adj[u]] for u in left]
    match_left, _ = hopcroft_karp(adj, len(right))
    return Matching(g, ((u, right[j]) for u, j in zip(left, match_left) if j != -1))


def min_vertex_cover_bipartite(g: Graph, parts: BipartitePartition, m: Matching) -> frozenset[int]:
    """Konig cover: alternate from unmatched left vertices; complement on the
    left, intersection on the right. Raises if m turns out non-maximum."""
    _validate_partition(g, parts)
    left = parts.left
    reach: set[int] = set()
    queue = deque(u for u in sorted(left) if not m.is_saturated(u))
    reach.update(queue)
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if w in reach:
                continue
            reach.add(w)
            x = m.partner(w)
            if x != -1 and x not in reach:
                reach.add(x)
                queue.append(x)
    cover = frozenset(u for u in left if u not in reach) | frozenset(
        w for w in parts.right if w in reach
    )
    if len(cover) != m.size:
        raise ValueError(
            f"cover size {len(cover)} != matching size {m.size}; matching is not maximum"
        )
    for u, v in g.edges():
        if u not in cover and v not in cover:
            raise AssertionError(f"internal error: edge ({u}, {v}) left uncovered")
    return cover


# ---------------------------------------------------------------------------
# General graphs: blossom contraction


def _find_augmenting(
    adj: tuple[tuple[int, ...], ...], match: list[int], root: int
) -> tuple[int, list[int]]:
    """BFS an alternating tree from an unmatched root, contracting blossoms.

    Returns (endpoint, parent) where endpoint is an unmatched vertex closing
    an augmenting path, or -1 if none exists from this root.
    """
    n = len(adj)
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    used[root] = True
    q: deque[int] = deque([root])

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while q:
        v = q.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                # Even-even edge: contract the blossom through the LCA.
                curbase = lca(v, to)
                in_blossom = [False] * n
                mark_path(v, curbase, to, in_blossom)
                mark_path(to, curbase, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = curbase
                        if not used[i]:
                            used[i] = True
                            q.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    return to, parent
                used[match[to]] = True
                q.append(match[to])
    return -1, parent


def _augment_along(match: list[int], parent: list[int], to: int) -> None:
    while to != -1:
        v = parent[to]
        nxt = match[v]
        match[v] = to
        match[to] = v
        to = nxt


def max_matching_general(g: Graph) -> Matching:
    """Maximum matching in an arbitrary simple graph (handles odd cycles).

    Greedy seed, then one blossom search per remaining unmatched vertex.
    """
    n = g.n
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in g.adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    for v in range(n):
        if match[v] == -1:
            to, parent = _find_augmenting(g.adj, match, v)
            if to != -1:
                _augment_along(match, parent, to)
    return Matching(g, ((u, match[u]) for u in range(n) if match[u] > u))


def has_augmenting_path(g: Graph, m: Matching) -> bool:
    """True iff an augmenting path for m exists (false exactly at maximum)."""
    match = [-1] * g.n
    for u, v in m.edges:
        match[u] = v
        match[v] = u
    for v in range(g.n):
        if match[v] == -1:
            to, _ = _find_augmenting(g.adj, match, v)
            if to != -1:
                return True
    return False
