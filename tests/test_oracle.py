import gc
import inspect
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critind import (
    MAX_ORACLE_BOUND,
    Graph,
    OracleBoundError,
    analyze,
    critical_difference,
    critical_family,
    difference,
    disjoint_union,
    generate,
    gnp,
    independence_profile,
    is_independent,
    label_set,
    max_difference_exhaustive,
    max_independent_difference,
    mu_exact,
)
from critind.cli import corpus_specs
from critind.oracle import (
    MAX_SUBSET_SCAN_BOUND,
    _subset_planes,
    adjacency_masks,
    down_closure,
    subset_plane,
)
from strategies import complete_bipartite, graphs, mask_members, vertex_mask


def edgeless(n):
    return Graph([f"v{i}" for i in range(n)], [])


def complete(n):
    return Graph([f"v{i}" for i in range(n)], [(i, j) for i in range(n) for j in range(i + 1, n)])


# Shapes for mu_exact on 20 vertices. A node's floor(k/2) cap, k its active
# vertices with an active neighbor, ends the search of K_19 + K_1 and 10 K_2 at
# once; K_9,11, K_5,15 and the triangles rarely or never reach it and branch in
# full. The last shape has 6 vertices, and no graph with fewer makes matching
# the pivot to its first neighbor only go wrong: the pivot 2 must take 3, not 0.
MU_SHAPES = {
    "K19+K1": disjoint_union((19, 1), 1.0, 0),
    "K9,11": complete_bipartite(9, 11),
    "K5,15": complete_bipartite(5, 15),
    "6K3+2K1": disjoint_union((3,) * 6 + (1, 1), 1.0, 0),
    "10K2": disjoint_union((2,) * 10, 1.0, 0),
    "first-neighbor": Graph(
        [f"v{i}" for i in range(6)], [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 3)]
    ),
}


class TestIndependenceProfile:
    def test_gf_core(self, gf):
        prof = independence_profile(gf)
        assert label_set(gf, prof.core) == ["a", "b", "c", "h"]

    def test_gf_alpha_and_corona(self, gf):
        prof = independence_profile(gf)
        assert prof.alpha == 5
        # Both maximum independent sets are {a,b,c,h} plus one of f, j.
        assert label_set(gf, prof.corona) == ["a", "b", "c", "f", "h", "j"]

    def test_g2_corona(self, g2):
        prof = independence_profile(g2)
        assert label_set(g2, prof.corona) == ["a", "b", "c", "d", "f", "g", "h", "i", "j"]

    def test_k3(self, k3):
        prof = independence_profile(k3)
        assert prof.alpha == 1
        assert prof.core == frozenset()
        assert prof.corona == frozenset(range(3))
        assert len(prof.omega_family) == 3

    def test_g1_family(self, g1):
        prof = independence_profile(g1)
        assert prof.alpha == 4
        want = [vertex_mask(g1.indices(names)) for names in ("abcd", "abdf")]
        assert sorted(prof.omega_family) == sorted(want)

    def test_k0(self, k0):
        prof = independence_profile(k0)
        assert prof.alpha == 0
        assert prof.omega_family == (0,)

    def test_bound_refusal(self):
        with pytest.raises(OracleBoundError):
            independence_profile(edgeless(MAX_ORACLE_BOUND + 1))


class TestCriticalFamily:
    def test_g1(self, g1):
        fam = critical_family(g1)
        assert fam.d == 1
        assert label_set(g1, fam.ker) == ["a", "b"]
        assert label_set(g1, fam.nucleus) == ["a", "b", "d"]
        assert label_set(g1, fam.diadem) == ["a", "b", "c", "d", "f"]

    def test_g2_maximum_members(self, g2):
        fam = critical_family(g2)
        want = [vertex_mask(g2.indices(names)) for names in ("abcd", "abdf")]
        assert sorted(fam.maximum_critical_independent) == sorted(want)
        assert label_set(g2, fam.nucleus) == ["a", "b", "d"]
        assert label_set(g2, fam.diadem) == ["a", "b", "c", "d", "f"]
        assert label_set(g2, fam.ker) == ["a", "b"]

    def test_edgeless(self):
        g = edgeless(3)
        fam = critical_family(g)
        assert fam.d == 3
        assert fam.all_critical_independent == (0b111,)
        assert fam.ker == fam.nucleus == fam.diadem == frozenset(range(3))

    def test_k3_empty_only(self, k3):
        fam = critical_family(k3)
        assert fam.d == 0
        assert fam.all_critical_independent == (0,)
        assert fam.ker == fam.nucleus == fam.diadem == frozenset()

    def test_k0(self, k0):
        fam = critical_family(k0)
        assert fam.d == 0
        assert fam.ker == fam.nucleus == fam.diadem == frozenset()

    def test_bound_refusal(self):
        with pytest.raises(OracleBoundError):
            critical_family(edgeless(MAX_ORACLE_BOUND + 3))


SEARCHES = [independence_profile, max_independent_difference, critical_family, mu_exact]


@pytest.mark.parametrize("search", SEARCHES, ids=lambda f: f.__name__)
class TestOracleCap:
    """The searches share one cap, checked inside each: they run on every
    graph up to MAX_ORACLE_BOUND vertices and refuse every larger one,
    whatever bound the caller chose."""

    def test_runs_at_the_cap(self, search):
        search(edgeless(MAX_ORACLE_BOUND))

    def test_refuses_above_the_cap(self, search):
        with pytest.raises(OracleBoundError) as exc:
            search(edgeless(MAX_ORACLE_BOUND + 1))
        assert (exc.value.n, exc.value.bound) == (MAX_ORACLE_BOUND + 1, MAX_ORACLE_BOUND)

    def test_takes_the_graph_only(self, search):
        assert list(inspect.signature(search).parameters) == ["g"]


class TestAdjacencyMasks:
    """One mask tuple per live graph, held weakly: the searches and the
    checks' set tests all read it."""

    @settings(max_examples=80)
    @given(graphs(max_n=12))
    def test_masks_are_the_bits_of_adj(self, g):
        masks = adjacency_masks(g)
        assert len(masks) == g.n
        for v, mask in enumerate(masks):
            assert [w for w in range(g.n) if mask >> w & 1] == list(g.adj[v])
            assert mask >> g.n == 0
        assert adjacency_masks(g) is masks

    def test_dropped_graphs_leave_no_masks_behind(self):
        # Built, analyzed and dropped in turn, the graphs reuse each other's
        # ids and often share n; each must still read its own masks. Each
        # graph dies at its del, with no collection in between.
        seen, reused = set(), 0
        for trial in range(60):
            g = gnp(2 + trial % 7, 0.5, trial)
            assert analyze(g).ok
            assert adjacency_masks(g) == tuple(map(vertex_mask, g.adj))
            reused += id(g) in seen
            seen.add(id(g))
            del g
        assert reused

    def test_cache_keeps_no_graph_alive(self):
        g = gnp(10, 0.4, 3)
        analyze(g)
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None

    def test_analyzed_graphs_die_without_the_collector(self):
        # No reference cycle that analyze leaves behind may reach its graph:
        # with the cyclic collector off, each graph must die at its del.
        specs = list(corpus_specs(200, 4, 12, [0.1, 0.3, 0.5, 0.8], 3030))
        gc.disable()
        try:
            for spec in specs:
                g = generate(spec)
                assert analyze(g, include_checks=True).ok
                ref = weakref.ref(g)
                del g
                assert ref() is None, spec
            g = gnp(MAX_ORACLE_BOUND + 40, 0.05, 3)
            analyze(g)
            ref = weakref.ref(g)
            del g
            assert ref() is None
        finally:
            gc.enable()


class TestMuExact:
    def test_fixtures(self, g1, gf, k3):
        assert mu_exact(g1) == 3
        assert mu_exact(k3) == 1
        assert mu_exact(gf) == 4

    def test_k0(self, k0):
        assert mu_exact(k0) == 0

    def test_bound_refusal(self):
        with pytest.raises(OracleBoundError):
            mu_exact(edgeless(MAX_ORACLE_BOUND + 1))

    @settings(max_examples=150)
    @given(graphs())
    def test_matches_networkx(self, g):
        assert mu_exact(g) == networkx_mu(g)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.9])
    def test_matches_networkx_on_gnp_at_20(self, p):
        for seed in range(3):
            g = gnp(20, p, seed)
            assert mu_exact(g) == networkx_mu(g)

    @pytest.mark.parametrize("g", list(MU_SHAPES.values()), ids=list(MU_SHAPES))
    def test_matches_networkx_on_shapes(self, g):
        assert mu_exact(g) == networkx_mu(g)

    def test_cap_ends_the_search_of_a_clique(self):
        # K_19 has k = 19 vertices with a neighbor: its first branch reaches
        # floor(19/2) = 9 and stops, and so on down, one node per level. A cap
        # of ceil(k/2) is never reached on an odd clique and searches on
        # through about 5 * 10^4 nodes, with the same answer.
        g = MU_SHAPES["K19+K1"]
        calls = search_nodes(mu_exact, g)
        assert calls <= g.n, calls


def networkx_mu(g):
    """Maximum-matching size by networkx, independent of the oracle and the blossom."""
    nx = pytest.importorskip("networkx")
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges())
    return len(nx.max_weight_matching(ng, maxcardinality=True))


def search_nodes(fn, g):
    """Run fn(g) and count the calls of its inner search function `rec`."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "rec":
            calls += 1

    sys.setprofile(profile)
    try:
        fn(g)
    finally:
        sys.setprofile(None)
    return calls


def per_mask_reference(g, independent_only):
    """The scan as a per-mask loop: N(X) rebuilt bit by bit for each of the 2^n masks."""
    adj = [sum(1 << u for u in nbrs) for nbrs in g.adj]
    best = 0
    for mask in range(1 << g.n):
        nbrs = 0
        size = 0
        a = mask
        while a:
            b = a & -a
            v = b.bit_length() - 1
            a ^= b
            nbrs |= adj[v]
            size += 1
        if independent_only and (nbrs & mask):
            continue
        d = size - nbrs.bit_count()
        if d > best:
            best = d
    return best


def family_reference(g):
    """Omega(G) and the critical family by a per-mask loop over all 2^n masks,
    each as a sorted list of masks."""
    adj = [sum(1 << u for u in nbrs) for nbrs in g.adj]
    independent = []
    for mask in range(1 << g.n):
        nbrs = 0
        for v in range(g.n):
            if mask >> v & 1:
                nbrs |= adj[v]
        if not nbrs & mask:
            independent.append((mask, mask.bit_count() - nbrs.bit_count()))

    alpha = max(s.bit_count() for s, _ in independent)
    d = max(d_s for _, d_s in independent)
    omega = [s for s, _ in independent if s.bit_count() == alpha]
    critical = [s for s, d_s in independent if d_s == d]
    top = max(s.bit_count() for s in critical)
    return omega, d, critical, [s for s in critical if s.bit_count() == top]


def assert_families_complete(g):
    omega, d, critical, maximum = family_reference(g)
    fam = critical_family(g)
    assert sorted(independence_profile(g).omega_family) == omega
    assert sorted(fam.all_critical_independent) == critical
    assert sorted(fam.maximum_critical_independent) == maximum
    # Three separate computations of d(G); the scan's two maxima agree by the reduction.
    assert fam.d == max_independent_difference(g) == d
    assert max_difference_exhaustive(g) == (d, d)


@settings(max_examples=60)
@given(graphs(max_n=12))
def test_families_match_per_mask_reference(g):
    assert_families_complete(g)


@pytest.mark.parametrize(
    "g",
    [gnp(16, 0.1, 5), gnp(16, 0.2, 7), gnp(16, 0.6, 3), gnp(16, 0.9, 1)],
    ids=["p0.1", "p0.2", "p0.6", "p0.9"],
)
def test_families_match_per_mask_reference_at_16(g):
    assert_families_complete(g)


class TestSubsetScans:
    def test_matches_branch_and_bound(self):
        for seed in range(20):
            g = gnp(9, 0.35, seed)
            assert max_difference_exhaustive(g)[1] == max_independent_difference(g)

    def test_max_over_all_subsets_equals_independent_only(self):
        for seed in range(20):
            g = gnp(10, 0.3, seed)
            over_all, over_independent = max_difference_exhaustive(g)
            assert over_all == over_independent

    @settings(max_examples=80)
    @given(graphs(max_n=12))
    def test_matches_per_mask_reference(self, g):
        assert max_difference_exhaustive(g) == (per_mask_reference(g, False), per_mask_reference(g, True))

    @pytest.mark.parametrize(
        "g",
        [edgeless(0), edgeless(1), gnp(16, 0.0, 3), gnp(16, 0.5, 3), complete(16), complete_bipartite(1, 15)],
        ids=["n0", "n1", "n16-p0.0", "n16-p0.5", "K16", "K1,15"],
    )
    def test_explicit_sizes_match_per_mask_reference(self, g):
        assert max_difference_exhaustive(g) == (per_mask_reference(g, False), per_mask_reference(g, True))

    @pytest.mark.parametrize("n", range(17, MAX_SUBSET_SCAN_BOUND + 1))
    def test_beyond_per_mask_reference_matches_oracle_and_fast_path(self, n):
        # 2^n masks are too many for per_mask_reference here; the
        # branch-and-bound oracle and the polynomial path judge instead.
        for g in (gnp(n, 0.15, n), gnp(n, 0.5, n), complete_bipartite(n // 3, n - n // 3)):
            d = max_independent_difference(g)
            assert d == critical_difference(g)
            assert max_difference_exhaustive(g) == (d, d)

    @pytest.mark.parametrize(
        "g",
        [edgeless(MAX_SUBSET_SCAN_BOUND), gnp(MAX_SUBSET_SCAN_BOUND, 0.5, 3)],
        ids=["edgeless", "p0.5"],
    )
    def test_peak_memory_at_default_bound(self, g):
        tracemalloc.start()
        try:
            max_difference_exhaustive(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One build of the planes, measured 4.0-4.3 MiB at n = 20: the n member
        # planes, the counter and a few working planes of 2^n bits each.
        assert peak < 5 * 2**20

    def test_bound_refusal(self):
        with pytest.raises(OracleBoundError):
            max_difference_exhaustive(edgeless(MAX_SUBSET_SCAN_BOUND + 1))


def assert_planes_read_every_subset(g):
    """Decode the scan's planes at every bit X and compare with X itself."""
    counter, full, independent = _subset_planes(g)
    assert full == (1 << (1 << g.n)) - 1
    adj = [sum(1 << u for u in nbrs) for nbrs in g.adj]
    for mask in range(1 << g.n):
        members = [v for v in range(g.n) if mask >> v & 1]
        nbrs = 0
        for v in members:
            nbrs |= adj[v]
        s = sum((plane >> mask & 1) << i for i, plane in enumerate(counter))
        assert s == len(members) + g.n - nbrs.bit_count(), (mask, s)
        assert bool(independent >> mask & 1) == is_independent(g, members), mask
    assert independent >> (1 << g.n) == 0
    assert all(plane >> (1 << g.n) == 0 for plane in counter)


class TestSubsetPlanes:
    """The scan's planes, bit by bit: the maxima alone cannot see a broken
    independence plane, since the max over all subsets equals the max over
    independent ones."""

    @settings(max_examples=60)
    @given(graphs(max_n=10))
    def test_every_subset_of_random_graphs(self, g):
        assert_planes_read_every_subset(g)

    @pytest.mark.parametrize("n", range(13))
    def test_every_subset_of_complete_star_and_edgeless(self, n):
        star = complete_bipartite(1, n - 1) if n else edgeless(0)
        for g in (complete(n), star, edgeless(n)):
            assert_planes_read_every_subset(g)


@settings(max_examples=60)
@given(graphs(max_n=10))
def test_family_members_are_critical_independent(g):
    fam = critical_family(g)
    for s in fam.all_critical_independent:
        assert is_independent(g, mask_members(s))
        assert difference(g, mask_members(s)) == fam.d
    sizes = {s.bit_count() for s in fam.maximum_critical_independent}
    assert len(sizes) <= 1
    if fam.all_critical_independent:
        assert max(s.bit_count() for s in fam.all_critical_independent) == max(sizes, default=0)


@settings(max_examples=40)
@given(graphs(max_n=9))
def test_families_hold_int_masks(g):
    # A frozenset-style read of a family (len, <=, `in`) must fail loudly.
    prof = independence_profile(g)
    fam = critical_family(g)
    for family in (prof.omega_family, fam.all_critical_independent, fam.maximum_critical_independent):
        assert type(family) is tuple and family
        for s in family:
            assert type(s) is int and 0 <= s < 1 << g.n


@st.composite
def mask_families(draw):
    n = draw(st.integers(0, 12))
    return n, draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))


@settings(max_examples=80)
@given(mask_families())
def test_down_closure_is_every_subset_of_a_member(n_family):
    n, family = n_family
    plane = subset_plane(n, family)
    assert plane == sum(1 << x for x in set(family))
    closed = down_closure(plane)
    assert closed >> (1 << n) == 0
    for x in range(1 << n):
        assert closed >> x & 1 == any(x & ~t == 0 for t in family)


@settings(max_examples=60)
@given(graphs(max_n=10))
def test_family_summaries(g):
    fam = critical_family(g)
    assert fam.ker <= fam.nucleus
    if fam.d == 0:
        assert 0 in fam.all_critical_independent
        assert fam.ker == frozenset()
    # Each critical independent set sits inside some maximum one.
    for s in fam.all_critical_independent:
        assert any(s & ~t == 0 for t in fam.maximum_critical_independent)


@settings(max_examples=60)
@given(graphs(max_n=10))
def test_critical_sets_inside_maximum_independent_sets(g):
    prof = independence_profile(g)
    fam = critical_family(g)
    for s in fam.all_critical_independent:
        assert any(s & ~t == 0 for t in prof.omega_family)
    assert fam.diadem <= prof.corona


@settings(max_examples=40)
@given(graphs(max_n=9))
def test_omega_members_all_maximum(g):
    prof = independence_profile(g)
    for s in prof.omega_family:
        assert s.bit_count() == prof.alpha
        assert is_independent(g, mask_members(s))
    if prof.omega_family:
        sets = [mask_members(s) for s in prof.omega_family]
        assert prof.core == frozenset.intersection(*sets)
        assert prof.corona == frozenset.union(*sets)


def test_core_nucleus_containment_goes_both_ways(g2, gf):
    """No containment theorem between nucleus and core: witnesses both ways."""
    fam2, prof2 = critical_family(g2), independence_profile(g2)
    famf, proff = critical_family(gf), independence_profile(gf)
    assert prof2.core < fam2.nucleus          # core strictly inside nucleus
    assert famf.nucleus < proff.core          # nucleus strictly inside core
    assert not fam2.nucleus <= prof2.core
    assert not proff.core <= famf.nucleus
