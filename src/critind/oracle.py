"""Exact brute-force ground truth at desk scale.

Everything here enumerates: independence number with the complete family of
maximum independent sets, the complete critical-independent-set family with
its intersection/union summaries, and exact maximum-matching size. These are
the correctness anchors for the polynomial-time paths; they refuse inputs
beyond MAX_ORACLE_BOUND vertices instead of approximating, whatever bound
their caller chose.

The matching search rests on the covering lemma (Lovasz and Plummer, Matching
Theory, 1986): some maximum matching covers any vertex v with a neighbor, since
one that misses v can trade its edge at a neighbor u for uv. So v, of least
positive degree, is only matched to each neighbor in turn, and a node stops
once it reaches floor(k/2), k its vertices with a neighbor: no matching can
do better.

The searches and the checks in analysis.py read a graph's neighbor sets as
bitmasks from adjacency_masks, which builds them once per live Graph and holds
them weakly, so they go with the graph.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import Iterable, Iterator

from .graph import Graph

__all__ = [
    "DEFAULT_ORACLE_BOUND",
    "MAX_ORACLE_BOUND",
    "OracleBoundError",
    "IndependenceProfile",
    "CriticalFamily",
    "independence_profile",
    "critical_family",
    "mu_exact",
    "max_independent_difference",
    "max_difference_exhaustive",
]

DEFAULT_ORACLE_BOUND = 20

# The searches refuse above this, and analyze and --oracle-bound take no larger
# bound. They are exponential in n; their worst case met so far is n/2 disjoint
# edges, with 3^(n/2) critical sets, each kept as one int. On a 2-vCPU Xeon VM,
# analyze with checks took 0.14 s and 26 MB peak RSS on them at n = 22, 1.8-2.5 s
# and 130 MB at n = 26, and 5.8-8.6 s and 408 MB at n = 28, the largest n swept
# that stays within 10 s and 1 GB. At n = 28, disjoint triangles and C5s, K_n,
# K_{a,b} and G(n, p), p in {0.1, 0.5, 0.9}, took at most 3.8 s and 217 MB.
MAX_ORACLE_BOUND = 28

# Exhaustive 2^n subset scans cross-check the reduction identity on every graph
# within the default oracle bound. Their one build holds about n + 12 planes of
# 2^n bits: 0.23 MiB at n = 16 and 4.0-4.3 MiB (4-8 ms) at n = 20, doubling with
# every vertex above it, so a raised --oracle-bound does not raise this one.
MAX_SUBSET_SCAN_BOUND = 20


class OracleBoundError(RuntimeError):
    """Input too large for exact enumeration; never degrade silently."""

    def __init__(self, n: int, bound: int, what: str):
        self.n = n
        self.bound = bound
        super().__init__(f"{what}: n={n} exceeds oracle bound {bound}")


@dataclass(frozen=True)
class IndependenceProfile:
    """alpha, every maximum independent set, and their intersection/union.

    omega_family holds each maximum independent set as an int mask, bit i for
    vertex index i, in the order the search finds them: the pivot's include
    branch before its exclude branch. Only core and corona are vertex sets.
    """

    alpha: int
    omega_family: tuple[int, ...]
    core: frozenset[int]
    corona: frozenset[int]


@dataclass(frozen=True)
class CriticalFamily:
    """The complete family of critical independent sets of a graph.

    Each set is an int mask, bit i for vertex index i, in the order the search
    reaches its leaves: the lowest undecided index is taken before it is
    skipped. maximum_critical_independent keeps that order. Only ker, nucleus
    and diadem are vertex sets.
    """

    d: int
    all_critical_independent: tuple[int, ...]
    maximum_critical_independent: tuple[int, ...]
    ker: frozenset[int]
    nucleus: frozenset[int]
    diadem: frozenset[int]


def _require(g: Graph, bound: int, what: str) -> None:
    if g.n > bound:
        raise OracleBoundError(g.n, bound, what)


# One tuple per live Graph, keyed weakly like critical._structures. A tuple of
# ints holds no reference to its graph, so the cache keeps no graph alive. Two
# threads that miss at once build equal tuples, and nothing iterates it.
_masks: "weakref.WeakKeyDictionary[Graph, tuple[int, ...]]" = weakref.WeakKeyDictionary()


def vertex_mask(s: Iterable[int]) -> int:
    """A vertex set as a mask, index i owning bit 1 << i."""
    return sum(map((1).__lshift__, s))


def adjacency_masks(g: Graph) -> tuple[int, ...]:
    """Neighbor sets as masks: one weakly held tuple per live graph, built on
    its first call."""
    got = _masks.get(g)
    if got is None:
        got = _masks[g] = tuple(map(vertex_mask, g.adj))
    return got


def _mask_set(mask: int) -> frozenset[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return frozenset(out)


def independence_profile(g: Graph) -> IndependenceProfile:
    """Exact alpha with complete Omega(G), core, and corona.

    Branch and bound over a max-degree pivot; a vertex with no undecided
    neighbor is forced in, which every maximum independent set must contain.
    One walk forces these in and picks the pivot (lowest index on ties), since
    forcing such a vertex changes no other degree among the undecided ones.
    """
    _require(g, MAX_ORACLE_BOUND, "independence_profile")
    adj = adjacency_masks(g)

    best = -1
    found: list[int] = []

    def rec(avail: int, cur: int, size: int) -> None:
        nonlocal best, found
        pivot = -1
        pivot_deg = 0
        a = avail
        while a:
            b = a & -a
            v = b.bit_length() - 1
            a ^= b
            deg = (adj[v] & avail).bit_count()
            if not deg:
                cur |= b
                size += 1
                avail ^= b
            elif deg > pivot_deg:
                pivot, pivot_deg = v, deg
        if not avail:
            if size > best:
                best = size
                found = [cur]
            elif size == best:
                found.append(cur)
            return
        if size + avail.bit_count() < best:
            return
        pb = 1 << pivot
        rec(avail & ~(adj[pivot] | pb), cur | pb, size + 1)
        rec(avail & ~pb, cur, size)

    rec((1 << g.n) - 1, 0, 0)

    # found is never empty: the empty set is independent.
    return IndependenceProfile(
        best, tuple(found), _mask_set(reduce(and_, found)), _mask_set(reduce(or_, found))
    )


def max_independent_difference(g: Graph) -> int:
    """Max of d(S) over independent S; its own search cross-checks critical_family."""
    _require(g, MAX_ORACLE_BOUND, "max_independent_difference")
    adj = adjacency_masks(g)
    best = 0  # d(empty set) = 0

    def rec(avail: int, cur_nbrs: int, size: int) -> None:
        nonlocal best
        d_now = size - cur_nbrs.bit_count()
        if d_now > best:
            best = d_now
        if not avail:
            return
        # Optimistic bound: take all of avail, gain no new neighbors.
        if size + avail.bit_count() - cur_nbrs.bit_count() <= best:
            return
        b = avail & -avail
        v = b.bit_length() - 1
        rec(avail & ~(adj[v] | b), cur_nbrs | adj[v], size + 1)
        rec(avail & ~b, cur_nbrs, size)

    rec((1 << g.n) - 1, 0, 0)
    return best


def critical_family(g: Graph) -> CriticalFamily:
    """Enumerate every independent S with d(S) = d(G), plus ker/nucleus/diadem.

    The same search finds d(G): a running best prunes branches that cannot
    reach it and restarts the hits when it rises.

    ker intersects ALL critical independent sets (the empty set is one exactly
    when d(G) = 0, which then forces ker to be empty). nucleus and diadem
    intersect/union only the maximum-cardinality members.
    """
    _require(g, MAX_ORACLE_BOUND, "critical_family")
    adj = adjacency_masks(g)

    best = 0  # d(empty set) = 0
    hits: list[int] = []

    def rec(avail: int, cur: int, cur_nbrs: int, size: int) -> None:
        nonlocal best, hits
        # Record at leaves only: each independent set reaches exactly one leaf.
        if not avail:
            d_now = size - cur_nbrs.bit_count()
            if d_now > best:
                best = d_now
                hits = [cur]
            elif d_now == best:
                hits.append(cur)
            return
        if size + avail.bit_count() - cur_nbrs.bit_count() < best:
            return
        b = avail & -avail
        v = b.bit_length() - 1
        rec(avail & ~(adj[v] | b), cur | b, cur_nbrs | adj[v], size + 1)
        rec(avail & ~b, cur, cur_nbrs, size)

    rec((1 << g.n) - 1, 0, 0, 0)

    # hits is never empty: some leaf reaches the best d, the empty set's 0 at least.
    max_size = max(map(int.bit_count, hits))
    maximum = tuple([h for h in hits if h.bit_count() == max_size])
    return CriticalFamily(
        best,
        tuple(hits),
        maximum,
        _mask_set(reduce(and_, hits)),
        _mask_set(reduce(and_, maximum)),
        _mask_set(reduce(or_, maximum)),
    )


def mu_exact(g: Graph) -> int:
    """Exact maximum-matching size by the covering-lemma search above, memoized
    on the active vertices; the lowest index wins ties for the pivot."""
    _require(g, MAX_ORACLE_BOUND, "mu_exact")
    n = g.n  # rec sits in a reference cycle: it must not hold g
    adj = adjacency_masks(g)
    memo: dict[int, int] = {}

    def rec(active: int) -> int:
        got = memo.get(active)
        if got is not None:
            return got
        v, v_deg, k = -1, n, 0
        a = active
        while a:
            b = a & -a
            i = b.bit_length() - 1
            a ^= b
            deg = (adj[i] & active).bit_count()
            if deg:
                k += 1
                if deg < v_deg:
                    v, v_deg = i, deg
        best = 0
        nb = adj[v] & active if k else 0
        while nb:
            ub = nb & -nb
            nb ^= ub
            cand = 1 + rec(active ^ (1 << v) ^ ub)
            if cand > best:
                best = cand
                if best == k >> 1:
                    break
        memo[active] = best
        return best

    return rec((1 << n) - 1)


def _count_plane(counter: list[int], carry: int) -> None:
    """Add a one-bit plane to a ripple-carry counter; counter[i] weighs 2^i."""
    for i, plane in enumerate(counter):
        counter[i] = plane ^ carry
        carry &= plane
        if not carry:
            return
    counter.append(carry)


def _member_planes(n: int) -> Iterator[tuple[int, int]]:
    """(v, member[v]) for v = n-1 down to 0, one plane alive at a time.

    member[v] has bit X for each of the 2^n subsets X that contain v: period
    2^(v+1), 2^v zeros then 2^v ones. Bit v of X is set exactly where adding
    2^v to X carries into bit v+1, or past the top for v = n-1, so with
    p = member[v+1], or p = all ones for v = n-1, member[v] = p ^ (p >> 2^v):
    n shift-XORs in all.
    """
    plane = (1 << (1 << n)) - 1
    for v in reversed(range(n)):
        plane ^= plane >> (1 << v)
        yield v, plane


def subset_plane(n: int, masks: Iterable[int]) -> int:
    """The plane of 2^n bits with bit X set for each mask X < 2^n in masks.

    Built in a bytearray: setting bits by |= 1 << X copies the whole plane
    each time, which is quadratic.
    """
    buf = bytearray(((1 << n) + 7) >> 3)
    for x in masks:
        buf[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(buf, "little")


def down_closure(plane: int) -> int:
    """The plane of every subset of a set in plane: bit X is set iff X lies
    inside some Y with bit Y set. Step v adds Y minus v for each Y that holds
    v, so any X inside Y is reached by dropping Y's other vertices in turn.
    No set exceeds the top one, T, as a number, so none holds a vertex at or
    above k = T.bit_length(): the member planes span 2^k bits, not 2^n."""
    k = (plane.bit_length() - 1).bit_length() if plane else 0
    for v, member in _member_planes(k):
        plane |= (plane & member) >> (1 << v)
    return plane


def _subset_planes(g: Graph) -> tuple[list[int], int, int]:
    """(counter, full, independent): bit planes over all 2^n subsets, where bit X
    stands for subset X. Bit X of counter[i] is bit i of s(X) = |X| + n - |N(X)|
    = d(X) + n; full has bit X for every X, independent for every independent X.
    """
    full = (1 << (1 << g.n)) - 1
    member = [0] * g.n
    for v, plane in _member_planes(g.n):
        member[v] = plane
    # Each v in X adds one to s(X), and so does each w outside N(X); s(X) <= 2n,
    # so the counter grows to at most ceil(log2(2n + 1)) planes.
    counter: list[int] = []
    for plane in member:
        _count_plane(counter, plane)
    # touched: the subsets X with w in N(X). X holds an edge exactly when some
    # w in X lies in N(X). Each touched plane is dropped once counted.
    conflict = 0
    for w, nbrs in enumerate(g.adj):
        touched = 0
        for u in nbrs:
            touched |= member[u]
        conflict |= member[w] & touched
        _count_plane(counter, full ^ touched)
    return counter, full, full ^ conflict


def _top(counter: list[int], candidates: int) -> int:
    """Max count at a candidate bit: keep, from the top plane down, those with it."""
    best = 0
    for i in reversed(range(len(counter))):
        kept = candidates & counter[i]
        if kept:
            candidates = kept
            best |= 1 << i
    return best


def max_difference_exhaustive(g: Graph) -> tuple[int, int]:
    """(max of d(X) over all 2^n subsets, max over the independent ones).

    A bit-sliced scan that reads both maxima from one build of the planes of
    `_subset_planes`. Each of the 2^n subsets is counted and none is pruned;
    it reads only the adjacency lists and shares no code with the
    branch-and-bound searches or the polynomial path, so each checks the others.
    """
    _require(g, MAX_SUBSET_SCAN_BOUND, "max_difference_exhaustive")
    counter, full, independent = _subset_planes(g)
    return _top(counter, full) - g.n, _top(counter, independent) - g.n
