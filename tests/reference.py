"""Cross-checks that no production answer goes through, kept with the tests
that use them: each recomputes, by a route of its own, something the package
already answers."""

from __future__ import annotations

from typing import Iterable, Sequence

from critind import Graph, neighborhood
from critind.graph import check_vertex_set
from critind.matching import _augmenter, _validate_mate, hopcroft_karp


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
    maximum). The search runs on a copy, as _augmenter writes into its list."""
    _validate_mate(g, mate)
    match = list(mate)
    augment = _augmenter(g.adj, match)
    return any(augment(v) != -1 for v in range(g.n) if match[v] == -1)
