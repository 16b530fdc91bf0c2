"""Polynomial-time critical-independence machinery.

d(G) = n - mu(B(G)) over the bipartite double B(G), which is never built.
Each proof sits at the function that relies on it:

- _CriticalStructure: the blossom matching of G, doubled, seeds one
  augment_bipartite of B(G) grown only from the blossom's roots, and why
  that is maximum; the successor digraph, defined there once and never
  stored, whose closed sets are the critical sets; X_min, the closure of
  the unmatched originals.
- find_critical_independent_set: X_min is independent and is ker(G).
- _CriticalStructure._closures: the blocked vertices are N(X_min); a
  forward and a backward search find the lowest free vertex's component,
  and why the walk may number it whole after what it reaches; one Tarjan
  walk builds every other component's closure as a bitset of components.
- _CriticalStructure._scans: one scan of the free vertices yields I and
  the diadem, and why its bit tests are enough.
- max_critical_independent_set: why the greedy is exact.
- _CriticalStructure.extends: a plain closure walk that relies on none of
  these, the scans' judge in the tests beyond the exhaustive oracle's bound.

bipartite_double, the Graph of B(G), is an independent cross-check that no
production answer goes through. It stays here, outside __all__, only because
the benchmark's spans wrap it by this name; the other cross-checks live with
the tests, in tests/reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from typing import Iterable

from .graph import Graph, check_vertex_set, neighborhood
from .matching import augment_bipartite, blossom
# Unused here: bench/spans.py wraps these names on this module.
from .matching import max_matching_bipartite, min_vertex_cover_bipartite

__all__ = [
    "Decomposition",
    "critical_difference",
    "matching_number",
    "find_critical_independent_set",
    "extends_to_critical_independent",
    "max_critical_independent_set",
    "diadem",
    "decompose",
]


@dataclass(frozen=True)
class Decomposition:
    """The unique split X = I + N(I) for a maximum critical independent set I."""

    I: frozenset[int]
    X: frozenset[int]
    Xc: frozenset[int]


def bipartite_double(g: Graph) -> Graph:
    """B(G), its left side range(g.n): vertex u of the host keeps index u,
    and its mirror on the right side is n + u.

    An edge uv of the host contributes u-(n+v) and v-(n+u), so the double
    has 2n vertices and 2m edges and no edges within a side.
    """
    n = g.n
    existing = set(g.labels)
    suffix = "'"
    while any(lab + suffix in existing for lab in g.labels):
        suffix += "'"
    labels = list(g.labels) + [lab + suffix for lab in g.labels]
    return Graph(labels, [(u, n + v) for u in range(n) for v in g.adj[u]])


class _CriticalStructure:
    """mu(G), a maximum matching of B(G) and the closure structure over
    original vertices.

    succ[u] lists the matched partners of u's mirrored neighbours, that is
    right_match mapped over adj[u]. Distinct mirrors have distinct partners,
    so it has no repeats; it may hold u itself, a self-loop that changes no
    closure. A forbidden vertex has an unmatched mirrored neighbour, a -1 in
    that map. A critical set is exactly a succ-closed set that contains every
    unmatched original and no forbidden vertex. This digraph is defined here
    once and never stored: every walk maps right_match over adj as it goes.
    The structure keeps the matching, X_min and the scans' answers; the
    closure bitsets live only while _scans runs.

    Holds g.adj, not g: g owns its structure, so a reference back to g
    would form a cycle that only the cyclic collector frees.

    augment_bipartite grows its trees only from the blossom's roots, the
    core vertices it left unmatched; with P, U, C, Z and Z' as in matching.blossom that gives
    a maximum matching of B(G). A peel v -> u of the seed doubles to two
    peels of B(G): first v-u', u' being the only unmatched mirror v sees,
    then u-v', v' having only u left. So mu(B(G)) = 2|P| + mu(B(G[U]))
    = 2|P| + mu(B(G[C])), as Z is isolated in G[U]. The doubled blossom
    matching leaves free the left copies of the roots and of Z'. Removing
    the copies of Z' keeps the doubled peels and B(G[C]), so it loses no
    matching edge, and no tree from the roots reaches those copies: they
    are never roots, and no matched right vertex leads to them.
    """

    def __init__(self, g: Graph):
        n = g.n
        self.n = n
        self.adj = adj = g.adj
        mate, roots = blossom(adj)
        self.mu = (n - mate.count(-1)) // 2
        # B(G) matched without building it: left u is original u, right v is
        # the mirror of v, and original u sees the mirrors of its neighbours.
        # The doubled blossom matching starts it: left u holds the mirror of
        # mate[u], and the mirror of v is held by mate[v]. So it makes only
        # the few augmentations left, and its trees grow only from the
        # blossom's roots, the few vertices the peel has not settled.
        left_match, right_match = augment_bipartite(adj, n, (mate, mate[:]), roots)
        self.d = left_match.count(-1)
        self.left_match = left_match
        self.right_match = right_match

        # Minimum critical set: closure of the unmatched originals.
        in_xmin = bytearray(x == -1 for x in left_match)
        stack = list(compress(range(n), in_xmin))
        partner = right_match.__getitem__
        while stack:
            for x in map(partner, adj[stack.pop()]):
                assert x >= 0, "minimum critical set hit a forbidden vertex"
                if not in_xmin[x]:
                    in_xmin[x] = 1
                    stack.append(x)
        self.in_xmin = in_xmin
        self.x_min = frozenset(compress(range(n), in_xmin))

    def _closures(self) -> tuple[list[int], list[int]]:
        """(comp, closures). A free vertex, in some critical set but not in
        X_min, has its strongly connected component's id 1 .. k as comp; the
        rest have 0. closures[c] holds bit c and the bit of every component c
        reaches over succ, minus X_min; closures[0] = 0, so bit 0 is never set.

        The blocked vertices, in no critical set, are exactly N(X_min). In the
        Dulmage-Mendelsohn split of B(G), X_min is D_L, so by the automorphism
        u <-> u' D_R is its mirror and A_L = N(D_R) = N(X_min). A_L holds
        every forbidden vertex, each A_L vertex reaches one along an
        alternating path, and succ from C_L stays in C_L + D_L.

        So an iterative Tarjan, with Pearce's merged index and low-link (Inf.
        Process. Lett. 116, 2016), condenses succ outside X_min + N(X_min),
        numbering components in pop order, sinks first. A frame maps
        right_match over adj[x] itself: x is free, so outside N(X_min), which
        holds every forbidden vertex, and no partner is -1. The closure ORs
        ride along. An arc to a done vertex ORs its component's closure into
        acc[u]. A non-root u folds acc[u] into its DFS parent when it
        finishes: every vertex on the tree path from a component's root to u
        lies in u's component, so the parent does too, and the root gathers
        what its component reaches. An arc to a vertex still on the stack
        stays inside u's component, as that vertex's root is an ancestor of u.
        The root's closure is acc | its component's bit, folded into its own
        parent. Each fold clears the acc it read, so only the frames on the
        DFS path hold one. Memory is at most (components)^2 / 8 bytes.

        Before the walk, the pivot step (the forward-backward step of
        Fleischer, Hendrickson and Pinar, 2000) finds the component S of the
        lowest free vertex p. A forward search from p over succ gives F, its
        free reach; it stops once every free vertex is met. A backward search
        from p inside F, over the arcs into x, which come from the neighbours
        of the mirror x holds, left_match[x], gives S = F & B; it stops once
        all of F is met. Every path from p's reach to p stays in F, so the
        backward search needs nothing outside it. The walk takes its roots
        from F - S first. Whatever F - S reaches lies in F, and a vertex of
        F - S that reached S would reach p and lie in B, so these walks stay
        in F - S and number exactly its components. S reaches all of F and
        nothing else free, so it is numbered next as one component c with
        closure bits 1 .. c, and marked done. The walk then roots in index
        order as before; a vertex outside F that reaches S finds it done and
        ORs in its closure, as for any popped component. When the free part
        is one component, as on dense graphs, both searches stop after a few
        arcs per vertex and the walk itself does nothing. The extra scratch
        is the mark bytearray and the lists of F, S and F - S.
        """
        n = self.n
        adj = self.adj
        partner = self.right_match.__getitem__
        # mark[u]: 1 once u is done (X_min, N(X_min)), 0 while u is free;
        # the pivot step below raises free vertices to 2 in F and 3 in S.
        mark = bytearray(self.in_xmin)
        for u in self.x_min:
            for w in adj[u]:
                mark[w] = 1
        # low[u]: -1 until u is visited, then its DFS number, lowered; n once
        # u is done (X_min, N(X_min), popped), so it never lowers a low-link.
        low = [n if x else -1 for x in mark]
        comp = [0] * n
        acc = [0] * n
        closures = [0]
        counter = 0
        stack: list[int] = []
        roots: Iterable[int] = range(n)
        p = mark.find(0)
        if p >= 0:
            # Forward: F, the free vertices p reaches, stopping once all are met.
            free = mark.count(0)
            mark[p] = 2
            fwd = [p]
            for y in fwd:
                for x in map(partner, adj[y]):
                    if not mark[x]:
                        mark[x] = 2
                        fwd.append(x)
                if len(fwd) == free:
                    break
            # Backward, inside F: S, those of F that reach p. The arcs into
            # x come from the neighbours of the mirror x holds.
            left_match = self.left_match
            mark[p] = 3
            bwd = [p]
            for x in bwd:
                for u in adj[left_match[x]]:
                    if mark[u] == 2:
                        mark[u] = 3
                        bwd.append(u)
                if len(bwd) == len(fwd):
                    break
            roots = chain([y for y in fwd if mark[y] == 2], (p,), roots)
        for root in roots:
            if low[root] != -1:
                continue
            if root == p:
                # S reaches every component numbered so far, all in F - S,
                # and nothing else free.
                c = len(closures)
                closures.append((2 << c) - 2)
                for y in bwd:
                    low[y] = n
                    comp[y] = c
                continue
            low[root] = counter
            stack.append(root)
            work = [(root, map(partner, adj[root]), 0, counter)]
            counter += 1
            while work:
                u, it, height, num = work[-1]
                for x in it:
                    i = low[x]
                    if i == -1:
                        low[x] = counter
                        work.append((x, map(partner, adj[x]), len(stack), counter))
                        counter += 1
                        stack.append(x)
                        break
                    if i == n:
                        acc[u] |= closures[comp[x]]
                    elif i < low[u]:
                        low[u] = i
                else:
                    work.pop()
                    if low[u] != num:
                        parent = work[-1][0]
                        if low[u] < low[parent]:
                            low[parent] = low[u]
                        acc[parent] |= acc[u]
                        acc[u] = 0
                        continue
                    c = len(closures)
                    cl = acc[u] | 1 << c
                    acc[u] = 0
                    closures.append(cl)
                    for y in stack[height:]:
                        low[y] = n
                        comp[y] = c
                    del stack[height:]
                    if work:
                        acc[work[-1][0]] |= cl
        return comp, closures

    @cached_property
    def _scans(self) -> tuple[frozenset[int], frozenset[int]]:
        """(I, diadem): the greedy maximum critical independent set in index
        order, and the vertices lying in some critical independent set.

        v lies in one iff N(v) misses X_min + Cl(v); with I kept so far, v
        extends I iff N(v) misses U = X_min + Cl(I) + Cl(v), and that Cl(v)
        misses N(I) follows. U is closed (v, outside N(X_min), is not
        blocked), so critical, and v is not in N(U), so U - N(U), critical
        too, holds v and so Cl(v). A w in Cl(v) and in N(I) would lie in
        U - N(U) and in N(U) at once.

        One pass over the free vertices alone settles both. An X_min vertex
        always passes and adds no bits (X_min is independent and its
        neighbours are blocked); an N(X_min) vertex always fails. A free v
        has no neighbour in X_min, by definition, so its test is the bit test
        alone: every closure is a union of whole components, so w lies in it
        iff the bit comp[w] is set, and a blocked w, comp 0, never is. The
        greedy tests only diadem members, and only against Cl(I): if N(v) met
        Cl(v), it would meet Cl(I) + Cl(v) too.
        """
        comp, closures = self._closures()
        adj = self.adj
        x_bits = 0  # the components of the free part of X_min + Cl(I)
        chosen: list[int] = []
        dia: list[int] = []
        for v in compress(range(self.n), comp):
            cv = closures[comp[v]]
            for w in adj[v]:
                if cv >> comp[w] & 1:
                    break
            else:
                dia.append(v)
                for w in adj[v]:
                    if x_bits >> comp[w] & 1:
                        break
                else:
                    x_bits |= cv
                    chosen.append(v)
        return self.x_min.union(chosen), self.x_min.union(dia)

    def extends(self, members: frozenset[int]) -> bool:
        """Is there a critical independent set containing all of members?

        A plain closure walk over succ, sharing nothing with the scans'
        bitsets; it fails on meeting N(members) or a forbidden vertex (X_min,
        skipped, has none).
        """
        if not members:
            return True
        nj: set[int] = set()
        for v in members:
            nj.update(self.adj[v])
        if nj & members:
            return False  # members are not independent
        if nj & self.x_min:
            return False
        seen: set[int] = set()
        stack = [v for v in members if not self.in_xmin[v]]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            if u in nj:
                return False  # u is in N(members)
            seen.add(u)
            for x in map(self.right_match.__getitem__, self.adj[u]):
                if x == -1:
                    return False  # u is forbidden: members are blocked
                if not self.in_xmin[x] and x not in seen:
                    stack.append(x)
        return True


def _structure(g: Graph) -> _CriticalStructure:
    got = g._derived.get("critical")
    if got is None:
        got = g._derived["critical"] = _CriticalStructure(g)
    return got


def critical_difference(g: Graph) -> int:
    """d(G) = n - mu(B(G)); always >= 0 since d(empty set) = 0."""
    return _structure(g).d


def matching_number(g: Graph) -> int:
    """mu(G), from the blossom matching that seeds the structure's B(G)
    matching."""
    return _structure(g).mu


def find_critical_independent_set(g: Graph) -> frozenset[int]:
    """Some independent S with d(S) = d(G), possibly empty: X_min, the
    closure of the unmatched originals and the original side left out of the
    Konig cover of B(G).

    For X critical, I = X - N(X) is critical (Butenko & Trukhanov, Oper. Res.
    Lett. 35, 2007): N(X) holds N(I) and X - I disjointly. X_min lies in every
    critical set, so in X_min - N(X_min): X_min is independent and is ker(G).
    """
    return _structure(g).x_min


def extends_to_critical_independent(g: Graph, members: Iterable[int]) -> bool:
    """True iff members is independent and some maximum critical independent
    set contains it; equivalently the forced difference pinning members in and
    N(members) out still reaches d(G)."""
    return _structure(g).extends(check_vertex_set(g, members))


def max_critical_independent_set(g: Graph) -> frozenset[int]:
    """Largest critical independent set, grown greedily in index order.

    Greedy is exact here: any partial set that extends is contained in a
    maximum critical independent set, whose members all pass their tests.
    """
    return _structure(g)._scans[0]


def diadem(g: Graph) -> frozenset[int]:
    """Union of all maximum critical independent sets: the vertices that
    individually extend to one."""
    return _structure(g)._scans[1]


def decompose(g: Graph) -> Decomposition:
    """The unique X = I + N(I) over any maximum critical independent set I."""
    i_set = max_critical_independent_set(g)
    x = i_set | neighborhood(g, i_set)
    return Decomposition(i_set, x, frozenset(range(g.n)) - x)
