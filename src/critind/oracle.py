"""Exact brute-force ground truth at desk scale.

Everything here enumerates: independence number with the complete family of
maximum independent sets, the complete critical-independent-set family with
its intersection/union summaries, and exact maximum-matching size. These are
the correctness anchors for the polynomial-time paths; they refuse inputs
beyond the configured bound instead of approximating.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .graph import Graph

__all__ = [
    "DEFAULT_ORACLE_BOUND",
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

# Exhaustive 2^n subset scans cross-check the reduction identity on every graph
# within the default oracle bound. Each scan holds about 2n + 10 planes of 2^n
# bits: 0.4 MiB at n = 16 and about 7 MiB at n = 20, doubling with every vertex
# above it, so a raised --oracle-bound does not raise this one.
DEFAULT_SUBSET_SCAN_BOUND = 20


class OracleBoundError(RuntimeError):
    """Input too large for exact enumeration; never degrade silently."""

    def __init__(self, n: int, bound: int, what: str):
        self.n = n
        self.bound = bound
        super().__init__(f"{what}: n={n} exceeds oracle bound {bound}")


@dataclass(frozen=True)
class IndependenceProfile:
    """alpha, every maximum independent set, and their intersection/union."""

    alpha: int
    omega_family: tuple[frozenset[int], ...]
    core: frozenset[int]
    corona: frozenset[int]


@dataclass(frozen=True)
class CriticalFamily:
    """The complete family of critical independent sets of a graph."""

    d: int
    all_critical_independent: tuple[frozenset[int], ...]
    maximum_critical_independent: tuple[frozenset[int], ...]
    ker: frozenset[int]
    nucleus: frozenset[int]
    diadem: frozenset[int]


def _require(g: Graph, bound: int, what: str) -> None:
    if g.n > bound:
        raise OracleBoundError(g.n, bound, what)


def adjacency_masks(g: Graph) -> tuple[int, ...]:
    """Neighbor sets as bitmasks; index i owns bit 1 << i."""
    return tuple(sum(1 << u for u in nbrs) for nbrs in g.adj)


def _mask_set(mask: int) -> frozenset[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return frozenset(out)


def _sorted_family(masks: list[int]) -> tuple[frozenset[int], ...]:
    sets = [_mask_set(m) for m in masks]
    sets.sort(key=lambda s: (len(s), sorted(s)))
    return tuple(sets)


def independence_profile(g: Graph, bound: int = DEFAULT_ORACLE_BOUND) -> IndependenceProfile:
    """Exact alpha with complete Omega(G), core, and corona.

    Branch and bound over a max-degree pivot; a vertex with no undecided
    neighbor is forced in, which every maximum independent set must contain.
    One walk forces these in and picks the pivot (lowest index on ties), since
    forcing such a vertex changes no other degree among the undecided ones.
    """
    _require(g, bound, "independence_profile")
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

    family = _sorted_family(found)
    core = frozenset.intersection(*family) if family else frozenset()
    corona = frozenset.union(*family) if family else frozenset()
    return IndependenceProfile(best, family, core, corona)


def max_independent_difference(g: Graph, bound: int = DEFAULT_ORACLE_BOUND) -> int:
    """Max of d(S) over independent S; its own search cross-checks critical_family."""
    _require(g, bound, "max_independent_difference")
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


def critical_family(g: Graph, bound: int = DEFAULT_ORACLE_BOUND) -> CriticalFamily:
    """Enumerate every independent S with d(S) = d(G), plus ker/nucleus/diadem.

    The same search finds d(G): a running best prunes branches that cannot
    reach it and restarts the hits when it rises.

    ker intersects ALL critical independent sets (the empty set is one exactly
    when d(G) = 0, which then forces ker to be empty). nucleus and diadem
    intersect/union only the maximum-cardinality members.
    """
    _require(g, bound, "critical_family")
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

    family = _sorted_family(hits)
    max_size = max((len(s) for s in family), default=0)
    maximum = tuple(s for s in family if len(s) == max_size)
    ker = frozenset.intersection(*family) if family else frozenset()
    nucleus = frozenset.intersection(*maximum) if maximum else frozenset()
    diadem = frozenset.union(*maximum) if maximum else frozenset()
    return CriticalFamily(best, family, maximum, ker, nucleus, diadem)


def mu_exact(g: Graph, bound: int = DEFAULT_ORACLE_BOUND) -> int:
    """Exact maximum-matching size, memoized on the active vertices: the lowest
    one with a neighbor is left unmatched or matched to each neighbor in turn."""
    _require(g, bound, "mu_exact")
    adj = adjacency_masks(g)
    memo: dict[int, int] = {}

    def rec(active: int) -> int:
        got = memo.get(active)
        if got is not None:
            return got
        a = active
        v = -1
        while a:
            b = a & -a
            i = b.bit_length() - 1
            if adj[i] & active:
                v = i
                break
            a ^= b
        if v < 0:
            memo[active] = 0
            return 0
        vb = 1 << v
        best = rec(active & ~vb)  # v stays unmatched
        nb = adj[v] & active
        while nb:
            ub = nb & -nb
            nb ^= ub
            cand = 1 + rec(active & ~vb & ~ub)
            if cand > best:
                best = cand
        memo[active] = best
        return best

    return rec((1 << g.n) - 1)


def _subset_planes(g: Graph, independent_only: bool) -> tuple[list[int], int]:
    """Bit planes over all 2^n subsets: bit X of a plane stands for subset X.

    Returns (counter, candidates). Bit X of counter[i] is bit i of
    s(X) = |X| + n - |N(X)| = d(X) + n. candidates has bit X for every
    independent X with `independent_only`, and for every X without it.
    """
    size = 1 << g.n
    full = (1 << size) - 1
    # member[v]: the subsets that contain v, period 2^(v+1) (2^v zeros, then
    # 2^v ones), one period doubled up to the full width.
    member = []
    for v in range(g.n):
        half = 1 << v
        plane = ((1 << half) - 1) << half
        width = half << 1
        while width < size:
            plane |= plane << width
            width <<= 1
        member.append(plane)
    # touched[w]: the subsets X with w in N(X).
    touched = []
    for nbrs in g.adj:
        plane = 0
        for u in nbrs:
            plane |= member[u]
        touched.append(plane)
    # Ripple-carry counter: counter[i] has weight 2^i. Each v in X adds one
    # to s(X), and so does each w outside N(X); s(X) <= 2n, so the counter
    # grows to at most ceil(log2(2n + 1)) planes.
    counter: list[int] = []
    for carry in chain(member, (full ^ plane for plane in touched)):
        for i, plane in enumerate(counter):
            counter[i] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            counter.append(carry)
    if not independent_only:
        return counter, full
    # X holds an edge exactly when some v in X lies in N(X).
    conflict = 0
    for v, plane in enumerate(member):
        conflict |= plane & touched[v]
    return counter, full ^ conflict


def max_difference_exhaustive(g: Graph, independent_only: bool = False) -> int:
    """Max of d(X) over all 2^n subsets (or only the independent ones).

    A bit-sliced scan: `_subset_planes` evaluates s(X) = d(X) + n for every
    subset X at once, one bit position each, and the maximum is read from the
    top counter plane down, keeping the candidates that have the bit whenever
    any do. It is still exhaustive: each of the 2^n subsets is counted and
    none is pruned. It reads only the adjacency lists and shares no code with
    the branch-and-bound searches or the polynomial path, so the three can
    cross-check each other.
    """
    _require(g, DEFAULT_SUBSET_SCAN_BOUND, "max_difference_exhaustive")
    counter, candidates = _subset_planes(g, independent_only)
    best = 0
    for i in reversed(range(len(counter))):
        kept = candidates & counter[i]
        if kept:
            candidates = kept
            best |= 1 << i
    return best - g.n
