"""Maximum matchings: Hopcroft-Karp for bipartite graphs (with Konig cover
extraction) and blossom contraction for general graphs.

Both kernels work on plain index lists, and critical._CriticalStructure
runs each once per graph on the host adjacency. Each proof sits at the
function that relies on it:

- hopcroft_karp: a warm start, and phases started only from given roots.
- _seed: the Karp-Sipser peel never loses optimality.
- blossom: why searching only from the seed's core, and stopping once
  fewer than two of its vertices wait, gives a maximum matching.
- _augmenter: one search works only on the vertices its tree touches.

max_matching_bipartite, min_vertex_cover_bipartite and max_matching_general
wrap the kernels for a Graph; they are cross-checks, and no production
answer goes through them. They stay here, outside __all__, only because the
benchmark's spans wrap them by these names; the augmenting-path test lives
with the tests, in tests/reference.py. Every matching, taken or returned, is
a mate list: mate[v] is v's partner, or -1 when v is unmatched. Returned
matchings are deterministic (vertices are scanned in index order) but not
canonical.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from typing import Callable, Iterable, Iterator, Sequence

from .graph import Graph, check_vertex_set

__all__ = [
    "hopcroft_karp",
    "blossom",
]


def _validate_partition(g: Graph, left: Iterable[int]) -> frozenset[int]:
    """left as a frozenset, once every edge has exactly one end in it."""
    left = check_vertex_set(g, left)
    for u, v in g.edges():
        if (u in left) == (v in left):
            raise ValueError(f"edge inside one side of the bipartition at vertex {u}")
    return left


def _validate_mate(g: Graph, mate: Sequence[int]) -> None:
    """Raises unless mate is a mate list of a matching of g: length n,
    symmetric, and every pair an edge of g."""
    if len(mate) != g.n:
        raise ValueError(f"mate list has length {len(mate)}, not n={g.n}")
    for v, u in enumerate(mate):
        if u != -1 and not (0 <= u < g.n and mate[u] == v and g.has_edge(u, v)):
            raise ValueError(f"mate[{v}] = {u} is not a matching edge of the graph")


def hopcroft_karp(
    adj: Sequence[Sequence[int]],
    n_right: int,
    initial: tuple[list[int], list[int]] | None = None,
    roots: Iterable[int] | None = None,
) -> tuple[list[int], list[int]]:
    """Maximum bipartite matching; adj[u] lists the right indices (below
    n_right) adjacent to left index u. Returns (match_left, match_right):
    each entry is the partner's index on the other side, or -1.

    initial, a matching in that form to start from, is augmented in place
    and returned, so a near-maximum start leaves few phases to run.

    roots, distinct left indices, are the only vertices the phases start
    from; None means every left index. A free left vertex left out of roots
    is never matched: no path from a root reaches it, since the path enters
    a left vertex only through its matched right partner. So the result is
    a maximum matching of the graph minus the free left vertices left out,
    and it is maximum for the whole graph when the caller knows that removing
    them loses nothing. With roots empty, or all matched, initial comes back
    untouched. Each phase makes one O(n_left) pass to reset the BFS layers;
    the rest of its work is over the free roots and what they reach.
    """
    n_left = len(adj)
    INF = n_left + 1
    match_left, match_right = initial or ([-1] * n_left, [-1] * n_right)
    free = [u for u in (range(n_left) if roots is None else roots) if match_left[u] == -1]
    dist: list[int] = []

    def bfs() -> int:
        nonlocal dist
        dist = [INF] * n_left
        for u in free:
            dist[u] = 0
        q = deque(free)
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

    while free:
        d_nil = bfs()
        if d_nil == INF:
            break
        # A search matches its own root and re-pairs only matched vertices,
        # so every root still in free is unmatched when its turn comes.
        for u in free:
            dfs(u, d_nil)
        free = [u for u in free if match_left[u] == -1]
    return match_left, match_right


def max_matching_bipartite(g: Graph, left: Iterable[int]) -> list[int]:
    """Maximum matching via Hopcroft-Karp, as a mate list over g; left is
    one side of a bipartition. The left side is numbered in sorted order and
    the right side keeps its host indices, so the kernel scans in the host's
    index order."""
    left = sorted(_validate_partition(g, left))
    match_left, _ = hopcroft_karp([g.adj[u] for u in left], g.n)
    mate = [-1] * g.n
    for u, w in zip(left, match_left):
        if w != -1:
            mate[u] = w
            mate[w] = u
    return mate


def min_vertex_cover_bipartite(g: Graph, left: Iterable[int], mate: Sequence[int]) -> frozenset[int]:
    """Konig cover: alternate from unmatched left vertices; complement on the
    left, intersection on the right. Raises if mate turns out non-maximum."""
    left = _validate_partition(g, left)
    _validate_mate(g, mate)
    queue = deque(u for u in sorted(left) if mate[u] == -1)
    reach = set(queue)
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if w in reach:
                continue
            reach.add(w)
            x = mate[w]
            if x != -1 and x not in reach:
                reach.add(x)
                queue.append(x)
    cover = frozenset(v for v in range(g.n) if (v in left) != (v in reach))
    size = (g.n - mate.count(-1)) // 2
    if len(cover) != size:
        raise ValueError(
            f"cover size {len(cover)} != matching size {size}; matching is not maximum"
        )
    for u, v in g.edges():
        if u not in cover and v not in cover:
            raise AssertionError(f"internal error: edge ({u}, {v}) left uncovered")
    return cover


# ---------------------------------------------------------------------------
# General graphs: blossom contraction


def _augmenter(adj: Sequence[Sequence[int]], match: list[int]) -> Callable[[int], int]:
    """The blossom search over one graph and one mutable mate array.

    The returned function grows a BFS alternating tree from an unmatched
    root, contracting blossoms as it meets them. If it reaches an unmatched
    vertex it flips the augmenting path into `match` and returns that
    vertex, the path's other end; otherwise it returns -1 and leaves `match`
    as it was. Blossom bases live in a union-find (Gabow, J. ACM 23, 1976).
    Its scratch arrays are allocated here once; each search resets only the
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

    def augment(root: int) -> int:
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
        return end

    return augment


def _seed(adj: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """A maximal matching to start the blossom searches from, as a mate
    list, with the core it leaves to search.

    Karp-Sipser: while some unmatched vertex v has exactly one unmatched
    neighbour u, match v to u; otherwise match the next unmatched vertex in
    index order to its first unmatched neighbour. The peel never loses
    optimality (Karp & Sipser, FOCS 1981): a maximum matching of the still
    unmatched vertices that lacks uv leaves v free, so it matches u to some
    w, and trading uw for uv keeps it maximum. So on a forest, where every
    remainder has a leaf, the peel alone is maximum. On sparse random graphs
    the peel settles almost everything (Aronson, Frieze & Pittel, Random
    Struct. Algorithms 12, 1998).

    The core C is the list, in index order, of the vertices that are
    unmatched and still have an unmatched neighbour when the first greedy
    pick is made; it is empty when there is none. The blossom searches
    only from C (see blossom for why that is enough).

    Degrees count unmatched neighbours only. They are kept only when the
    graph has a degree-1 vertex at all: without one the first pick comes
    before any peel, C is every vertex with a neighbour, and the seed is the
    plain greedy pass over C.
    """
    n = len(adj)
    match = [-1] * n
    deg = list(map(len, adj))
    if 1 not in deg:
        core = list(compress(range(n), deg))
        for v in core:
            if match[v] == -1:
                for u in adj[v]:
                    if match[u] == -1:
                        match[v] = u
                        match[u] = v
                        break
        return match, core
    # From here deg[v] is v's count of unmatched neighbours while v is
    # unmatched, and 0 once v is matched. An unmatched neighbour of an
    # unmatched vertex therefore always reads nonzero.
    pending = [v for v, d in enumerate(deg) if d == 1]
    push = pending.append
    core: list[int] | None = None
    nxt = 0
    while True:
        if pending:
            v = pending.pop()
            if not deg[v]:
                continue  # matched, or left with no unmatched neighbour
        else:
            # No unmatched vertex has one unmatched neighbour: the greedy
            # pick. A vertex passed over is matched or has no unmatched
            # neighbour left, and stays so, so the scan never turns back.
            if core is None:
                core = list(compress(range(n), deg))
            while nxt < n and not deg[nxt]:
                nxt += 1
            if nxt == n:
                return match, core
            v = nxt
        for u in adj[v]:
            if deg[u]:
                break
        match[v] = u
        match[u] = v
        # A peeled v has no unmatched neighbour left but u.
        nbrs = adj[u] if deg[v] == 1 else (*adj[v], *adj[u])
        deg[v] = deg[u] = 0
        for w in nbrs:
            d = deg[w]
            if d:
                deg[w] = d - 1
                if d == 2:
                    push(w)


def blossom(adj: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Maximum matching of the simple graph with adjacency lists adj.

    Returns (mate, roots): mate[v] is v's partner, or -1 when v is
    unmatched, and roots lists in index order the vertices of the seed's
    core C that are still unmatched. Every other unmatched vertex is in Z
    below; hopcroft_karp needs to start only from roots (see
    critical._CriticalStructure).

    A Karp-Sipser seed first (_seed). Then one blossom search over the full
    adjacency from each vertex of C that the seed left unmatched and that is
    still unmatched when its turn comes, until fewer than two vertices are
    waiting: unmatched vertices of C not yet searched from. A seed with no
    greedy pick leaves C empty and runs no search.

    Why that is maximum. Let P be the peels before the first greedy pick
    (all of them if there is none), U the vertices they leave unmatched, C
    as in _seed and Z = U - C, the vertices of U with no neighbour in U.
    Peels keep optimality, so mu(G) = |P| + mu(G[U]) = |P| + mu(G[C]). Let
    Z_now be the vertices of Z unmatched right now.
    - G - Z_now still holds P and G[C], so mu(G - Z_now) = mu(G).
    - An augmentation never unmatches a vertex, so every unmatched vertex
      of G - Z_now is in C.
    - An augmenting path of G - Z_now joins two such vertices. Neither is
      the root of a search that succeeded, which left it matched. Neither
      is the root of a search that failed: a search that failed in G stays
      failed after later augmentations (Edmonds, Canad. J. Math. 17, 1965),
      and so finds no path in G - Z_now either. So both are waiting.
    - With fewer than two waiting, G - Z_now has no augmenting path, so the
      matching is maximum there, of size mu(G).
    Z', in critical._CriticalStructure, is Z_now at the end.

    So the one search skipped when a single vertex is waiting would fail,
    and a failed search writes nothing to mate: (mate, roots) are those
    that a search from every vertex still waiting would give.
    """
    match, core = _seed(adj)
    unmatched = [v for v in core if match[v] == -1]
    if unmatched:
        augment = _augmenter(adj, match)
        waiting = set(unmatched)
        for v in unmatched:
            if len(waiting) < 2:
                break
            if v in waiting:
                waiting.remove(v)
                waiting.discard(augment(v))
    return match, [v for v in unmatched if match[v] == -1]


def max_matching_general(g: Graph) -> list[int]:
    """Maximum matching in an arbitrary simple graph (handles odd cycles)."""
    return blossom(g.adj)[0]
