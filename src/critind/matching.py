"""Maximum matchings: alternating-forest phases for bipartite graphs (with
Konig cover extraction) and, with blossom contraction, for general graphs.

Both kernels work on plain index lists, and critical._CriticalStructure
runs each once per graph on the host adjacency. Both search in phases: a
phase grows one alternating forest from every waiting root, and a tree
that finds an augmenting path flips it and dies while the rest grow on.
Each proof sits at the function that relies on it:

- augment_bipartite: a warm start, trees grown only from given roots, and
  why a phase that flips nothing ends the search.
- _seed: the Karp-Sipser peel never loses optimality.
- blossom: why phases grown from the seed's unmatched core, until one
  fails or fewer than two roots wait, give a maximum matching.
- _augmenter: one blossom phase grows a forest from every root at once.

max_matching_bipartite, min_vertex_cover_bipartite and max_matching_general
wrap the kernels for a Graph; they are cross-checks, and no production
answer goes through them. They stay here, outside __all__, only because the
benchmark's spans wrap them by these names; Hopcroft-Karp and the
augmenting-path test live with the tests, in tests/reference.py. Every
matching, taken or returned, is a mate list: mate[v] is v's partner, or -1
when v is unmatched. Returned matchings are deterministic (vertices are
scanned in index order) but not canonical.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from typing import Callable, Iterable, Sequence

from .graph import Graph, check_vertex_set

__all__ = [
    "augment_bipartite",
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


def augment_bipartite(
    adj: Sequence[Sequence[int]],
    n_right: int,
    initial: tuple[list[int], list[int]] | None = None,
    roots: Iterable[int] | None = None,
) -> tuple[list[int], list[int]]:
    """Maximum bipartite matching; adj[u] lists the right indices (below
    n_right) adjacent to left index u. Returns (match_left, match_right):
    each entry is the partner's index on the other side, or -1.

    initial, a matching in that form to start from, is augmented in place
    and returned, so a near-maximum start leaves few augmentations to make.

    roots, distinct left indices, are the only vertices the trees grow from;
    None means every left index. A free left vertex left out of roots is
    never matched: a tree enters a left vertex only through its matched
    right partner. So the result is a maximum matching of the graph minus
    the free left vertices left out, and it is maximum for the whole graph
    when the caller knows that removing them loses nothing. With roots
    empty, or all matched, initial comes back untouched.

    The search runs in phases, as blossom's does, with no blossom to
    contract. A phase grows one BFS alternating forest with a tree from
    every free root. A right vertex joins the first tree that reaches it,
    and its partner joins with it. A tree that reaches a free right vertex
    flips its path and dies, and the other trees grow on: the flip re-pairs
    only right vertices the dying tree holds, which no other tree enters,
    and their partners. Why that is maximum: a phase that flips nothing
    left the matching as it was and grew a complete Hungarian forest, in
    which every right neighbour of a tree vertex is matched and in the
    forest. So no augmenting path starts at a root, and the call returns.
    A phase costs what its forest reads, with no O(n) reset. Unlike
    Hopcroft-Karp, which needs O(sqrt(n)) phases, nothing bounds the number
    of phases below the number of augmentations.
    """
    n_left = len(adj)
    match_left, match_right = initial or ([-1] * n_left, [-1] * n_right)
    free = [u for u in (range(n_left) if roots is None else roots) if match_left[u] == -1]
    if not free:
        return match_left, match_right  # most warm starts: allocate nothing
    seen = [0] * n_right  # the last phase that reached each right vertex
    parent = [-1] * n_left  # the left vertex a non-root joined the forest through
    tree = [-1] * n_left  # the root of each left vertex's tree
    phase = 0
    while free:
        phase += 1
        for r in free:
            tree[r] = r
        queue = list(free)
        for u in queue:
            r = tree[u]
            if match_left[r] != -1:
                continue  # its tree flipped this phase
            for w in adj[u]:
                if seen[w] == phase:
                    continue
                seen[w] = phase
                x = match_right[w]
                if x != -1:
                    parent[x] = u
                    tree[x] = r
                    queue.append(x)
                    continue
                while w != -1:
                    old = match_left[u]
                    match_left[u] = w
                    match_right[w] = u
                    u, w = parent[u], old
                break
        waiting = [u for u in free if match_left[u] == -1]
        if len(waiting) == len(free):
            break
        free = waiting
    return match_left, match_right


def max_matching_bipartite(g: Graph, left: Iterable[int]) -> list[int]:
    """Maximum matching via augment_bipartite, as a mate list over g; left is
    one side of a bipartition. The left side is numbered in sorted order and
    the right side keeps its host indices, so the kernel scans in the host's
    index order."""
    left = sorted(_validate_partition(g, left))
    match_left, _ = augment_bipartite([g.adj[u] for u in left], g.n)
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


def _augmenter(adj: Sequence[Sequence[int]], match: list[int]) -> Callable[[list[int]], bool]:
    """The blossom search over one graph and one mutable mate array.

    The returned function runs one phase: it grows a BFS alternating forest
    with one tree from each of roots, distinct unmatched vertices, and
    contracts blossoms, whose bases live in a union-find (Gabow, J. ACM 23,
    1976). An even vertex that meets an even vertex of another tree, or an
    unmatched vertex outside the forest, flips the augmenting path into
    `match`; its trees die and the rest grow on. The phase stops once fewer
    than two trees live and returns whether it augmented; one that did not
    grew a complete forest and left `match` as it was. Scratch arrays are
    allocated here once; a phase resets only the vertices it touched.
    """
    n = len(adj)
    parent = [-1] * n
    used = [False] * n  # even (outer) vertices of the forest
    tree = [-1] * n  # the position in roots of the vertex's tree, or -1
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

    def flip(x: int, y: int) -> None:
        # Match even x to y and flip the path from x to its root, through
        # the parent/match encoding mark_path writes for blossoms.
        while True:
            u = match[x]
            match[x] = y
            if u == -1:
                return
            x = parent[u]
            match[u] = x
            y = u

    def phase(roots: list[int]) -> bool:
        dead = bytearray(len(roots))
        live = len(roots)
        queue = list(roots)
        odd: list[int] = []
        for t, r in enumerate(roots):
            tree[r] = t
            used[r] = True
        i = 0
        while i < len(queue) and live >= 2:
            v = queue[i]
            i += 1
            t = tree[v]
            if dead[t]:
                continue
            for to in adj[v]:
                s = tree[to]
                if s == -1:
                    x = match[to]
                    if x != -1:
                        parent[to] = v
                        tree[to] = tree[x] = t
                        odd.append(to)
                        used[x] = True
                        queue.append(x)
                        continue
                    # An unmatched vertex outside the forest ends the path
                    # and joins the dying tree, so no live tree can enter
                    # the flipped path through its new mate.
                    tree[to] = s = t
                    odd.append(to)
                elif dead[s] or not used[to]:
                    continue  # a dead tree's vertex, or an odd one
                elif s == t:
                    if find(v) != find(to):
                        # Even-even edge: contract the blossom through the LCA.
                        b = lca(v, to)
                        bases: list[int] = []
                        mark_path(v, b, to, queue, bases)
                        mark_path(to, b, v, queue, bases)
                        for bv in bases:
                            uf[bv] = b
                    continue
                flip(v, to)
                flip(to, v)
                live -= 1 + (s != t)
                dead[s] = dead[t] = 1
                break
        for v in queue:
            used[v] = False
            parent[v] = -1
            uf[v] = v
            tree[v] = -1
        for v in odd:
            parent[v] = -1
            tree[v] = -1
        return live < len(roots)

    return phase


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
    below; augment_bipartite needs to start only from roots (see
    critical._CriticalStructure).

    A Karp-Sipser seed first (_seed). Then phases of _augmenter, each
    grown from every waiting vertex, the vertices of C still unmatched,
    while two or more wait and until one phase does not augment. A seed
    with no greedy pick leaves C empty and runs no phase.

    Why that is maximum. Let P be the peels before the first greedy pick
    (all of them if there is none), U the vertices they leave unmatched, C
    as in _seed and Z = U - C, the vertices of U with no neighbour in U.
    Peels keep optimality, so mu(G) = |P| + mu(G[U]) = |P| + mu(G[C]). Let
    Z_now be the vertices of Z unmatched right now, and H = G - Z_now.
    - H still holds P and G[C], so mu(H) = mu(G).
    - An augmentation never unmatches a vertex, so the unmatched vertices
      of H are in C: they are the waiting ones, every phase's roots.
    - With fewer than two waiting, H has no augmenting path.
    - A phase that does not augment grew a complete forest from every
      unmatched vertex of H and met no vertex of Z_now, so H has no
      augmenting path (Edmonds, Canad. J. Math. 17, 1965).
    Either way the matching is maximum on H, of size mu(G). Every phase but
    the last augments, so failed work is at most one phase per call.
    Z', in critical._CriticalStructure, is Z_now at the end.
    """
    match, core = _seed(adj)
    waiting = [v for v in core if match[v] == -1]
    if len(waiting) >= 2:
        phase = _augmenter(adj, match)
        while len(waiting) >= 2 and phase(waiting):
            waiting = [v for v in waiting if match[v] == -1]
    return match, waiting


def max_matching_general(g: Graph) -> list[int]:
    """Maximum matching in an arbitrary simple graph (handles odd cycles)."""
    return blossom(g.adj)[0]
