"""Cross-checks that no production answer goes through, kept with the tests
that use them: each recomputes, by a route of its own, something the package
already answers."""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from critind import Graph, neighborhood
from critind.graph import check_vertex_set
from critind.matching import _validate_mate, hopcroft_karp


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
