"""Polynomial-time critical-independence machinery.

The critical difference d(G) = max |X| - |N(X)| is computed as n - mu(B(G))
over the bipartite double B(G). One blossom per graph gives mu(G), and its
matching, doubled (uv to u-v' and v-u'), is a matching of B(G) of size
2 mu(G) <= n - d(G). It seeds one Hopcroft-Karp on the host adjacency, the
mirror of v being right index v, so B(G) is never built and only the few
augmentations left to n - d(G) are searched for. On top of that one maximum
matching of B(G) we build a closure structure that characterizes every
critical set at once:

    X is critical  <=>  X contains all unmatched originals, avoids every
    vertex with an unmatched mirrored neighbor, and is closed under
    "u in X forces the matched partner of each mirrored neighbor into X".

The family of critical sets is therefore a lattice of closed sets, and
membership questions (does some critical independent set contain J?) reduce
to a closure plus a disjointness test against N(J). The greedy maximum
critical independent set and the diadem build each closure once per strongly
connected component, as a bitset, so both scans are O(n + m) bitset tests;
single queries keep a plain closure walk, an independent cross-check.
bipartite_double, forced_difference and the Konig cover in matching.py stay
public as independent cross-checks; no production answer goes through them.
Every fast answer here is cross-checked against the exhaustive oracle in the
test suite; nothing below is trusted on theory alone.
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
    and no vertex whose mirror side has an unmatched neighbor.

    Holds g.adj, not g: a reference to g from this value of the weak cache
    keyed by g would keep g alive forever.
    """

    def __init__(self, g: Graph):
        n = g.n
        self.n = n
        self.adj = g.adj
        mate = blossom(g.adj)
        self.mu = (n - mate.count(-1)) // 2
        # HK on B(G) without building it: left u is original u, right v is
        # the mirror of v, and original u sees the mirrors of its neighbours.
        # The doubled blossom matching starts it: left u holds the mirror of
        # mate[u], and the mirror of v is held by mate[v].
        left_match, right_match = hopcroft_karp(g.adj, n, (mate, mate[:]))
        self.d = left_match.count(-1)

        # Distinct mirrors have distinct partners, so outs has no repeats.
        succ: list[tuple[int, ...]] = []
        forbidden = [False] * n
        for u in range(n):
            outs = [right_match[w] for w in g.adj[u]]
            forbidden[u] = -1 in outs
            succ.append(() if forbidden[u] else tuple(sorted(x for x in outs if x != u)))
        self.succ = succ

        # blocked[u]: u reaches a forbidden vertex, so no critical set has u.
        rev: list[list[int]] = [[] for _ in range(n)]
        for u in range(n):
            for x in succ[u]:
                rev[x].append(u)
        blocked = forbidden[:]
        stack = [u for u in range(n) if forbidden[u]]
        while stack:
            x = stack.pop()
            for u in rev[x]:
                if not blocked[u]:
                    blocked[u] = True
                    stack.append(u)
        self.blocked = blocked

        # Minimum critical set: closure of the unmatched originals.
        in_xmin = bytearray(x == -1 for x in left_match)
        stack = [u for u in range(n) if in_xmin[u]]
        while stack:
            u = stack.pop()
            assert not blocked[u], "minimum critical set hit a blocked vertex"
            for x in succ[u]:
                if not in_xmin[x]:
                    in_xmin[x] = 1
                    stack.append(x)
        self.in_xmin = in_xmin
        self.x_min = frozenset(u for u in range(n) if in_xmin[u])

    @cached_property
    def _closures(self) -> tuple[list[int], list[int]]:
        """(bit, closure): a bit for each free vertex (neither blocked nor in
        X_min, else -1) and its succ-closure minus X_min as a bitset (else 0).

        An iterative Tarjan condenses succ on the free vertices. It pops
        components sinks first, each taking a run of consecutive bits, so a
        component's closure is its own run OR'd with its successors' closures.
        Memory is at most (free vertices)^2 / 8 bytes.
        """
        n = self.n
        succ = self.succ
        # index[u] is -1 until u is visited, and n once u is not free or its
        # component is done, so that such u never lowers a low-link.
        index = [n if self.blocked[u] or self.in_xmin[u] else -1 for u in range(n)]
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
                        bit[y] = nbits
                        nbits += 1
                        index[y] = n
                        for x in succ[y]:
                            cl |= closure[x]  # 0 for members and non-free x
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

        A plain closure walk, independent of the bitsets behind the scans.
        """
        if not members:
            return True
        nj: set[int] = set()
        for v in members:
            if self.blocked[v]:
                return False
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
                return False
            seen.add(u)
            for x in self.succ[u]:
                if not self.in_xmin[x] and x not in seen:
                    stack.append(x)
        return True

    def greedy_max_critical_independent_set(self) -> frozenset[int]:
        """Scan vertices in index order, keeping those that still extend.

        With I kept so far and X = X_min + Cl(I), v extends I iff it is not
        blocked, not in N(I), N(v) misses X, and Cl(v) misses N(I) + N(v).
        """
        bit, closure = self._closures
        blocked = self.blocked
        in_nj = bytearray(self.n)
        x_bits = 0  # the free part of X
        nj_bits = 0  # the free part of N(I)
        chosen: list[int] = []
        for v in range(self.n):
            if blocked[v] or in_nj[v] or closure[v] & nj_bits:
                continue
            reach = x_bits | closure[v]
            if not self._nbrs_miss(v, reach, bit):
                continue
            x_bits = reach
            for w in self.adj[v]:
                in_nj[w] = 1
                if bit[w] >= 0:
                    nj_bits |= 1 << bit[w]
            chosen.append(v)
        return frozenset(chosen)

    def diadem(self) -> frozenset[int]:
        """Vertices lying in some critical independent set: v not blocked,
        N(v) misses X_min and N(v) misses Cl(v)."""
        bit, closure = self._closures
        blocked = self.blocked
        return frozenset(
            v for v in range(self.n) if not blocked[v] and self._nbrs_miss(v, closure[v], bit)
        )


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
    """Some independent S with d(S) = d(G), possibly empty.

    X_min minus its neighbourhood. X_min, the closure of the unmatched
    originals, is the original side left out of the Konig cover of B(G).
    """
    x = _structure(g).x_min
    return x - neighborhood(g, x)


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
