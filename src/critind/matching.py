"""Maximum matchings: Hopcroft-Karp for bipartite graphs (with Konig cover
extraction) and blossom contraction for general graphs.

Both kernels work on plain index lists. The critical structure runs each
once per graph on the host adjacency: blossom gives mu(G) for the
Konig-Egervary verdict, and its matching, doubled onto B(G), seeds
hopcroft_karp, which then makes only the few augmentations left to reach
n - d(G). max_matching_bipartite and max_matching_general wrap the kernels
for a Graph and validate the result as a Matching; they are cross-checks,
and no production answer goes through them. blossom is Edmonds'
contraction, one BFS alternating tree per unmatched vertex after a greedy
seed. Blossom bases live in a
union-find (Gabow, J. ACM 23, 1976), the scratch arrays are allocated once
per call and reset only where a search touched them, and the lowest common
base is found by stamping, so one search works only on the vertices of its
tree and never on all n. A contraction walks its two paths under the bases
as they were and merges them after both walks. Returned matchings are
deterministic (vertices are scanned in index order) but not canonical;
consumers should rely only on size and saturation structure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .graph import Graph, check_vertex_set

__all__ = [
    "Matching",
    "BipartitePartition",
    "hopcroft_karp",
    "blossom",
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
            if any(w in side for w in g.adj[u]):
                raise ValueError(f"edge inside one side of the bipartition at vertex {u}")


def hopcroft_karp(
    adj: Sequence[Sequence[int]],
    n_right: int,
    initial: tuple[list[int], list[int]] | None = None,
) -> tuple[list[int], list[int]]:
    """Maximum bipartite matching; adj[u] lists the right indices (below
    n_right) adjacent to left index u. Returns (match_left, match_right):
    each entry is the partner's index on the other side, or -1.

    initial, a matching in that form to start from, is augmented in place
    and returned, so a near-maximum start leaves few phases to run.
    """
    n_left = len(adj)
    INF = n_left + 1
    match_left, match_right = initial or ([-1] * n_left, [-1] * n_right)
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


def _augmenter(adj: Sequence[Sequence[int]], match: list[int]) -> Callable[[int], bool]:
    """The blossom search over one graph and one mutable mate array.

    The returned function grows a BFS alternating tree from an unmatched
    root, contracting blossoms as it meets them. If it reaches an unmatched
    vertex it flips the augmenting path into `match` and returns True. Its
    scratch arrays are allocated here once; each search resets only the
    vertices its tree touched, so it does no O(n) work.
    """
    n = len(adj)
    parent = [-1] * n
    used = [False] * n  # even (outer) vertices of the current tree
    uf = list(range(n))  # union-find over blossoms; each root is its blossom's base
    mark = [0] * n  # lca stamps
    stamp = 0

    def find(v: int) -> int:
        while uf[v] != v:
            uf[v] = v = uf[uf[v]]
        return v

    def lca(a: int, b: int) -> int:
        # Climb from both ends in turn, stamping bases; the first base met
        # twice is the lowest common one. Each side climbs only until then.
        nonlocal stamp
        stamp += 1
        while True:
            if a != -1:
                a = find(a)
                if mark[a] == stamp:
                    return a
                mark[a] = stamp
                a = -1 if match[a] == -1 else parent[match[a]]
            a, b = b, a

    def mark_path(v: int, b: int, child: int, queue: list[int], bases: list[int]) -> None:
        # Walk from v up to base b, collecting the bases passed. Their odd
        # vertices become even and join the queue; the rest already were
        # even. The bases are merged only after both walks: a walk that
        # enters an earlier blossom away from its base must still see that
        # blossom's own base, or it would stop inside it.
        while (bv := find(v)) != b:
            x = match[v]
            bases.append(bv)
            bases.append(find(x))
            if not used[x]:
                used[x] = True
                queue.append(x)
            parent[v] = child
            child = x
            v = parent[x]

    def augment(root: int) -> bool:
        used[root] = True
        queue = [root]
        odd: list[int] = []
        end = -1
        i = 0
        while i < len(queue) and end == -1:
            v = queue[i]
            i += 1
            for to in adj[v]:
                if match[v] == to or find(v) == find(to):
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # Even-even edge: contract the blossom through the LCA.
                    b = lca(v, to)
                    bases: list[int] = []
                    mark_path(v, b, to, queue, bases)
                    mark_path(to, b, v, queue, bases)
                    for bv in bases:
                        uf[bv] = b
                elif parent[to] == -1:
                    parent[to] = v
                    odd.append(to)
                    if match[to] == -1:
                        end = to
                        break
                    used[match[to]] = True
                    queue.append(match[to])
        to = end
        while to != -1:
            v = parent[to]
            nxt = match[v]
            match[v] = to
            match[to] = v
            to = nxt
        for v in queue:
            used[v] = False
            parent[v] = -1
            uf[v] = v
        for v in odd:
            parent[v] = -1
        return end != -1

    return augment


def blossom(adj: Sequence[Sequence[int]]) -> list[int]:
    """Maximum matching of the simple graph with adjacency lists adj, as a
    mate list: mate[v] is v's partner, or -1 when v is unmatched.

    Greedy seed, then one blossom search per remaining unmatched vertex.
    """
    n = len(adj)
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    augment = _augmenter(adj, match)
    for v in range(n):
        if match[v] == -1:
            augment(v)
    return match


def max_matching_general(g: Graph) -> Matching:
    """Maximum matching in an arbitrary simple graph (handles odd cycles)."""
    mate = blossom(g.adj)
    return Matching(g, ((u, mate[u]) for u in range(g.n) if mate[u] > u))


def has_augmenting_path(g: Graph, m: Matching) -> bool:
    """True iff an augmenting path for m exists (false exactly at maximum)."""
    match = [-1] * g.n
    for u, v in m.edges:
        match[u] = v
        match[v] = u
    augment = _augmenter(g.adj, match)
    return any(augment(v) for v in range(g.n) if match[v] == -1)
