"""Polynomial-time critical-independence machinery.

The critical difference d(G) = max |X| - |N(X)| is computed as n - mu(B(G))
over the bipartite double B(G). One blossom per graph gives mu(G), and its
matching, doubled (uv to u-v' and v-u'), is a matching of B(G) of size
2 mu(G) <= n - d(G). It seeds one Hopcroft-Karp on the host adjacency, the
mirror of v being right index v, so B(G) is never built and only the few
augmentations left to n - d(G) are searched for, and only from the
vertices that the Karp-Sipser peel behind the blossom has not settled. On
top of that one maximum matching of B(G) we build a closure structure that
characterizes every critical set at once:

    X is critical  <=>  X contains all unmatched originals, avoids every
    vertex with an unmatched mirrored neighbor, and is closed under
    "u in X forces the matched partner of each mirrored neighbor into X".

The family of critical sets is therefore a lattice of closed sets, and
membership questions (does some critical independent set contain J?) reduce
to a closure plus a disjointness test against N(J). The greedy maximum
critical independent set and the diadem build each closure once per strongly
connected component, as a bitset, so both scans are O(n + m) bitset tests
of "N(v) misses X_min and some closure bits"; the theorems that make that
test enough are proved where they are used. Single queries keep a plain
closure walk that relies on none of them: the scans' judge in the test suite
beyond the exhaustive oracle's bound. bipartite_double, forced_difference and
the Konig cover in matching.py stay public as independent cross-checks; no
production answer goes through them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .graph import Graph, check_vertex_set, induced_subgraph, neighborhood
from .matching import BipartitePartition, blossom, hopcroft_karp, max_matching_bipartite
# Unused here: bench/spans.py wraps this name on this module.
from .matching import min_vertex_cover_bipartite

__all__ = [
    "BipartiteDouble",
    "ForcingConstraints",
    "Decomposition",
    "bipartite_double",
    "critical_difference",
    "matching_number",
    "find_critical_independent_set",
    "forced_difference",
    "extends_to_critical_independent",
    "max_critical_independent_set",
    "diadem",
    "decompose",
]


@dataclass(frozen=True)
class BipartiteDouble:
    """B(G): original vertices on the left, mirrored copies on the right.

    Vertex u of the host maps to double index u; its mirror to n + u. An edge
    uv of the host contributes u-(n+v) and v-(n+u), so the double has 2n
    vertices and 2m edges and no edges within a side.
    """

    double: Graph
    parts: BipartitePartition


@dataclass(frozen=True)
class ForcingConstraints:
    """Vertices pinned inside / outside the set over which d is maximized."""

    force_in: frozenset[int] = frozenset()
    force_out: frozenset[int] = frozenset()


@dataclass(frozen=True)
class Decomposition:
    """The unique split X = I + N(I) for a maximum critical independent set I."""

    I: frozenset[int]
    X: frozenset[int]
    Xc: frozenset[int]


def bipartite_double(g: Graph) -> BipartiteDouble:
    n = g.n
    existing = set(g.labels)
    suffix = "'"
    while any(lab + suffix in existing for lab in g.labels):
        suffix += "'"
    labels = list(g.labels) + [lab + suffix for lab in g.labels]
    edges = [(u, n + v) for u in range(n) for v in g.adj[u]]
    double = Graph(labels, edges)
    parts = BipartitePartition(frozenset(range(n)), frozenset(range(n, 2 * n)))
    return BipartiteDouble(double, parts)


class _CriticalStructure:
    """mu(G), a maximum matching of B(G) and the closure graph over original
    vertices.

    succ[u] lists the matched partners of u's mirrored neighbors; a critical
    set is exactly a succ-closed set that contains every unmatched original
    and no forbidden vertex, one with an unmatched mirrored neighbor.

    Holds g.adj, not g: a reference to g from this value of the weak cache
    keyed by g would keep g alive forever.

    Hopcroft-Karp starts only from the blossom's roots, the core vertices it
    left unmatched; with P, U, C, Z and Z' as in matching.blossom that gives
    a maximum matching of B(G). A peel v -> u of the seed doubles to two
    peels of B(G): first v-u', u' being the only unmatched mirror v sees,
    then u-v', v' having only u left. So mu(B(G)) = 2|P| + mu(B(G[U]))
    = 2|P| + mu(B(G[C])), as Z is isolated in G[U]. The doubled blossom
    matching leaves free the left copies of the roots and of Z'. Removing
    the copies of Z' keeps the doubled peels and B(G[C]), so it loses no
    matching edge, and HK from the roots never reaches those copies: they
    are never roots, and no matched right vertex leads to them.
    """

    def __init__(self, g: Graph):
        n = g.n
        self.n = n
        self.adj = g.adj
        mate, roots = blossom(g.adj)
        self.mu = (n - mate.count(-1)) // 2
        # HK on B(G) without building it: left u is original u, right v is
        # the mirror of v, and original u sees the mirrors of its neighbours.
        # The doubled blossom matching starts it: left u holds the mirror of
        # mate[u], and the mirror of v is held by mate[v]. So it makes only
        # the few augmentations left, and its phases start only from the
        # blossom's roots, the few vertices the peel has not settled.
        left_match, right_match = hopcroft_karp(g.adj, n, (mate, mate[:]), roots)
        self.d = left_match.count(-1)

        # Distinct mirrors have distinct partners, so outs has no repeats. It
        # may hold u itself, a self-loop that changes no closure.
        succ: list[tuple[int, ...]] = []
        forbidden = [False] * n
        for u in range(n):
            outs = [right_match[w] for w in g.adj[u]]
            forbidden[u] = -1 in outs
            succ.append(() if forbidden[u] else tuple(outs))
        self.succ = succ
        self.forbidden = forbidden

        # Minimum critical set: closure of the unmatched originals.
        in_xmin = bytearray(x == -1 for x in left_match)
        stack = [u for u in range(n) if in_xmin[u]]
        while stack:
            u = stack.pop()
            assert not forbidden[u], "minimum critical set hit a forbidden vertex"
            for x in succ[u]:
                if not in_xmin[x]:
                    in_xmin[x] = 1
                    stack.append(x)
        self.in_xmin = in_xmin
        self.x_min = frozenset(u for u in range(n) if in_xmin[u])

    @cached_property
    def _closures(self) -> tuple[list[int], list[int]]:
        """(bit, closure) per vertex. A free vertex, in some critical set but
        not in X_min, has a bit and its succ-closure minus X_min as a bitset;
        the rest have bit -1 and closure 0.

        The blocked vertices, in no critical set, are exactly N(X_min). In the
        Dulmage-Mendelsohn split of B(G), X_min is D_L, so by the automorphism
        u <-> u' D_R is its mirror and A_L = N(D_R) = N(X_min). A_L holds
        every forbidden vertex, each A_L vertex reaches one along an
        alternating path, and succ from C_L stays in C_L + D_L.

        So an iterative Tarjan condenses succ outside X_min + N(X_min),
        popping components sinks first; each ORs in its successors' closures
        and adds its own run of bits, 0 .. free - 1. Memory is at most
        (free vertices)^2 / 8 bytes.
        """
        n = self.n
        succ = self.succ
        # index[u] is -1 until u is visited, and n once u is done (X_min,
        # N(X_min) or a popped component), so such u never lowers a low-link.
        index = [n if x else -1 for x in self.in_xmin]
        for u in self.x_min:
            for w in self.adj[u]:
                index[w] = n
        low = [0] * n
        bit = [-1] * n
        closure = [0] * n
        counter = nbits = 0
        stack: list[int] = []
        for root in range(n):
            if index[root] != -1:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            work = [(root, iter(succ[root]), 0)]
            while work:
                u, it, height = work[-1]
                for x in it:
                    if index[x] == -1:
                        index[x] = low[x] = counter
                        counter += 1
                        work.append((x, iter(succ[x]), len(stack)))
                        stack.append(x)
                        break
                    if index[x] < low[u]:
                        low[u] = index[x]
                else:
                    work.pop()
                    if work and low[u] < low[work[-1][0]]:
                        low[work[-1][0]] = low[u]
                    if low[u] != index[u]:
                        continue
                    members = stack[height:]
                    del stack[height:]
                    cl = ((1 << len(members)) - 1) << nbits
                    for y in members:
                        index[y] = n
                        bit[y] = nbits
                        nbits += 1
                        for x in succ[y]:
                            cl |= closure[x]  # 0 for members, X_min, N(X_min)
                    for y in members:
                        closure[y] = cl
        return bit, closure

    def _nbrs_miss(self, v: int, bits: int, bit: list[int]) -> bool:
        """Does N(v) miss X_min and the free vertices in bits?"""
        in_xmin = self.in_xmin
        for w in self.adj[v]:
            b = bit[w]
            if in_xmin[w] or b >= 0 and bits >> b & 1:
                return False
        return True

    def extends(self, members: frozenset[int]) -> bool:
        """Is there a critical independent set containing all of members?

        A plain closure walk, sharing nothing with the scans' bitsets; it fails
        on meeting N(members) or a forbidden vertex (X_min, skipped, has none).
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
            if u in nj or self.forbidden[u]:
                return False  # u is in N(members), or members are blocked
            seen.add(u)
            for x in self.succ[u]:
                if not self.in_xmin[x] and x not in seen:
                    stack.append(x)
        return True

    def greedy_max_critical_independent_set(self) -> frozenset[int]:
        """Scan vertices in index order, keeping those that still extend.

        With I kept so far, v extends I iff N(v) misses U = X_min + Cl(I) +
        Cl(v); that Cl(v) misses N(I) follows. U is closed (v, outside
        N(X_min), is not blocked), so critical, and v is not in N(U), so
        U - N(U), critical too, holds v and so Cl(v). A w in Cl(v) and in N(I)
        would lie in U - N(U) and in N(U) at once.
        """
        bit, closure = self._closures
        x_bits = 0  # the free part of X_min + Cl(I)
        chosen: list[int] = []
        for v in range(self.n):
            reach = x_bits | closure[v]
            if self._nbrs_miss(v, reach, bit):
                x_bits = reach
                chosen.append(v)
        return frozenset(chosen)

    def diadem(self) -> frozenset[int]:
        """Vertices lying in some critical independent set: v with N(v)
        missing X_min and Cl(v). A blocked v has a neighbour in X_min."""
        bit, closure = self._closures
        return frozenset(v for v in range(self.n) if self._nbrs_miss(v, closure[v], bit))


_structures: "weakref.WeakKeyDictionary[Graph, _CriticalStructure]" = weakref.WeakKeyDictionary()


def _structure(g: Graph) -> _CriticalStructure:
    got = _structures.get(g)
    if got is None:
        got = _CriticalStructure(g)
        _structures[g] = got
    return got


def critical_difference(g: Graph) -> int:
    """d(G) = n - mu(B(G)); always >= 0 since d(empty set) = 0."""
    return _structure(g).d


def matching_number(g: Graph) -> int:
    """mu(G), from the blossom matching that seeds the structure's HK."""
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


def forced_difference(g: Graph, constraints: ForcingConstraints) -> int:
    """max { d(X) : force_in subset of X, X disjoint from force_out }.

    Realized on the double: forced-in vertices saturate their mirrored
    neighborhood for free, forced-out vertices leave the selectable side but
    stay present as mirrors, and the rest is a maximum matching.
    """
    force_in = check_vertex_set(g, constraints.force_in)
    force_out = check_vertex_set(g, constraints.force_out)
    if force_in & force_out:
        raise ValueError("force_in and force_out overlap")
    n = g.n
    nf = neighborhood(g, force_in)
    dbl = bipartite_double(g)
    keep = [u for u in range(n) if u not in force_in and u not in force_out]
    keep += [n + w for w in range(n) if w not in nf]
    sub, back = induced_subgraph(dbl.double, keep)
    left = frozenset(i for i, orig in enumerate(back) if orig < n)
    parts = BipartitePartition(left, frozenset(range(sub.n)) - left)
    mu = max_matching_bipartite(sub, parts).size
    return n - len(force_out) - len(nf) - mu


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
    return _structure(g).greedy_max_critical_independent_set()


def diadem(g: Graph) -> frozenset[int]:
    """Union of all maximum critical independent sets: the vertices that
    individually extend to one."""
    return _structure(g).diadem()


def decompose(g: Graph) -> Decomposition:
    """The unique X = I + N(I) over any maximum critical independent set I."""
    i_set = max_critical_independent_set(g)
    x = i_set | neighborhood(g, i_set)
    return Decomposition(i_set, x, frozenset(range(g.n)) - x)
