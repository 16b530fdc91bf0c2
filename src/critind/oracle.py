"""Exact brute-force ground truth at desk scale.

Everything here enumerates: independence number with the complete family of
maximum independent sets, the complete critical-independent-set family with
its intersection/union summaries, and exact maximum-matching size. These are
the correctness anchors for the polynomial-time paths; they refuse inputs
beyond the configured bound instead of approximating.
"""

from __future__ import annotations

from dataclasses import dataclass

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

# Exhaustive 2^n subset scans get a tighter bound than the branch-and-bound
# enumerations; they exist to cross-check the reduction identity on small graphs.
# Each scan costs one OR per mask and keeps a table of up to 2^n entries: a few
# MB at 16, doubling with every vertex above it.
DEFAULT_SUBSET_SCAN_BOUND = 16


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


def max_difference_exhaustive(g: Graph, independent_only: bool = False) -> int:
    """Max of d(X) over all 2^n subsets (or only the independent ones).

    A plain exhaustive scan, kept deliberately independent from the
    branch-and-bound paths so the two can cross-check each other. N(X) is
    tabulated by doubling: once vertices 0..v-1 are in, the table for the
    masks with bit v set is the old table with adj[v] OR-ed in, so each mask
    costs one OR. The table holds up to 2^n entries, a few MB at n = 16.
    With `independent_only` the table keeps (mask, N(mask)) pairs for the
    independent masks alone: a mask below 1 << v stays independent with v
    added exactly when it misses adj[v].
    """
    _require(g, DEFAULT_SUBSET_SCAN_BOUND, "max_difference_exhaustive")
    adj = adjacency_masks(g)
    if not independent_only:
        nbrs = [0]
        for av in adj:
            nbrs += [nb | av for nb in nbrs]
        return max(mask.bit_count() - nb.bit_count() for mask, nb in enumerate(nbrs))
    pairs = [(0, 0)]
    for v, av in enumerate(adj):
        b = 1 << v
        pairs += [(mask | b, nb | av) for mask, nb in pairs if not mask & av]
    return max(mask.bit_count() - nb.bit_count() for mask, nb in pairs)
