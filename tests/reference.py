"""Cross-checks that no production answer goes through, kept with the tests
that use them: each recomputes, by a route of its own, something the package
already answers."""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator, Sequence

from critind import Graph, neighborhood
from critind.graph import check_vertex_set
from critind.matching import _validate_mate


def forced_difference(g: Graph, force_in: Iterable[int] = (), force_out: Iterable[int] = ()) -> int:
    """max { d(X) : force_in subset of X, X disjoint from force_out }.

    Realized on the double: forced-in vertices saturate their mirrored
    neighborhood for free, forced-out vertices leave the selectable side but
    stay present as mirrors, and the rest is a maximum matching, of the kept
    originals into the mirrors outside N(force_in).
    """
    force_in = check_vertex_set(g, force_in)
    force_out = check_vertex_set(g, force_out)
    if force_in & force_out:
        raise ValueError("force_in and force_out overlap")
    nf = neighborhood(g, force_in)
    kept = [u for u in range(g.n) if u not in force_in and u not in force_out]
    left_match, _ = hopcroft_karp([[w for w in g.adj[u] if w not in nf] for u in kept], g.n)
    mu = len(kept) - left_match.count(-1)
    return g.n - len(force_out) - len(nf) - mu


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

    Layered shortest-path phases (Hopcroft & Karp, SIAM J. Comput. 2, 1973):
    the tests' judge of matching.augment_bipartite, whose unlayered forests
    share no code with it.
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


def has_augmenting_path(g: Graph, mate: Sequence[int]) -> bool:
    """True iff an augmenting path for mate exists (false exactly at
    maximum): a single-root search from every exposed vertex, on a copy, as
    augmenter writes into its list. It shares no code with the production
    blossom, which grows one forest from all its roots at once."""
    _validate_mate(g, mate)
    match = list(mate)
    augment = augmenter(g.adj, match)
    return any(augment(v) != -1 for v in range(g.n) if match[v] == -1)


def augmenter(adj: Sequence[Sequence[int]], match: list[int]) -> Callable[[int], int]:
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
