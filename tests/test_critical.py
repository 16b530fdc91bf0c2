import gc
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings

from critind import (
    analyze,
    GeneratorSpec,
    Graph,
    critical_difference,
    critical_family,
    decompose,
    diadem,
    difference,
    extends_to_critical_independent,
    find_critical_independent_set,
    generate,
    gnp,
    hopcroft_karp,
    independence_profile,
    induced_subgraph,
    is_independent,
    label_set,
    max_critical_independent_set,
    max_difference_exhaustive,
    mu_exact,
    neighborhood,
)
from critind import critical
from critind.critical import bipartite_double
from critind.matching import max_matching_bipartite, max_matching_general, min_vertex_cover_bipartite
from reference import forced_difference
from strategies import (
    certified_mu,
    complete_bipartite,
    graphs,
    graphs_with_pendants,
    mate_size,
    path,
    permuted,
    random_pendants,
    sparse_graph,
    vertex_mask,
)


def edgeless(n):
    return Graph([f"v{i}" for i in range(n)], [])


def konig_reference(g):
    """(cover, S): a minimum vertex cover of B(G), built on the double, and
    the originals it leaves out minus their neighbourhood."""
    double = bipartite_double(g)
    cover = min_vertex_cover_bipartite(double, range(g.n), max_matching_bipartite(double, range(g.n)))
    x = frozenset(u for u in range(g.n) if u not in cover)
    return cover, x - neighborhood(g, x)


def successors(g):
    """(succ, forbidden) over the structure's matching, rebuilt here from
    right_match and adj: succ[u] lists the matched partners of u's mirrored
    neighbours, () when u is forbidden, one with an unmatched mirrored
    neighbour."""
    s = critical._structure(g)
    forbidden = [any(s.right_match[w] == -1 for w in nbrs) for nbrs in s.adj]
    succ = [() if f else tuple(s.right_match[w] for w in nbrs) for f, nbrs in zip(forbidden, s.adj)]
    return succ, forbidden


def blocked_reference(g, succ, forbidden):
    """blocked[u]: u's succ-closure meets a forbidden vertex, found by a
    search from the forbidden vertices over the reversed succ digraph."""
    rev = [[] for _ in range(g.n)]
    for u in range(g.n):
        for x in succ[u]:
            rev[x].append(u)
    blocked = forbidden[:]
    stack = [u for u in range(g.n) if blocked[u]]
    while stack:
        x = stack.pop()
        for u in rev[x]:
            if not blocked[u]:
                blocked[u] = True
                stack.append(u)
    return blocked


def free_digraph(g):
    """(free, digraph): the vertices in neither X_min nor blocked_reference's
    blocked set, and succ restricted to them, built with networkx."""
    nx = pytest.importorskip("networkx")
    s = critical._structure(g)
    succ, forbidden = successors(g)
    blocked = blocked_reference(g, succ, forbidden)
    free = [u for u in range(g.n) if not blocked[u] and not s.in_xmin[u]]
    digraph = nx.DiGraph()
    digraph.add_nodes_from(free)
    keep = set(free)
    digraph.add_edges_from((u, x) for u in free for x in succ[u] if x in keep)
    return free, digraph


def assert_closures_mark_blocked(g, succ, forbidden):
    """Every blocked and X_min vertex has comp 0, the free vertices use
    exactly the component ids 1 .. k, closures[0] is 0, and the classes of
    comp on the free vertices are the strongly connected components of succ
    restricted to them."""
    nx = pytest.importorskip("networkx")
    s = critical._structure(g)
    comp, closures = s._closures()
    blocked = blocked_reference(g, succ, forbidden)
    assert all(comp[u] == 0 for u in range(g.n) if blocked[u] or s.in_xmin[u])
    # Dulmage-Mendelsohn on B(G): the blocked vertices are exactly N(X_min).
    assert blocked == [not s.x_min.isdisjoint(g.adj[u]) for u in range(g.n)]
    free, digraph = free_digraph(g)
    assert {comp[u] for u in free} == set(range(1, len(closures)))
    assert closures[0] == 0
    classes = {}
    for u in free:
        classes.setdefault(comp[u], set()).add(u)
    assert sorted(map(sorted, classes.values())) == sorted(
        map(sorted, nx.strongly_connected_components(digraph)))
    return comp, closures


def reach_reference(g, comp, succ):
    """reach[v]: the free vertices v reaches over succ minus X_min, as a
    bitset of their component ids. Least-fixpoint iteration of R(v) =
    {comp v} + the R(x) of v's free successors, from below, shares nothing
    with the Tarjan walk and its folds; a DFS per vertex would take seconds
    on the larger graphs here."""
    s = critical._structure(g)
    free = [v for v in range(g.n) if comp[v]]
    outs = {v: [x for x in succ[v] if not s.in_xmin[x]] for v in free}
    reach = {v: 1 << comp[v] for v in free}
    changed = True
    while changed:
        changed = False
        for v in reversed(free):
            r = reach[v]
            for x in outs[v]:
                r |= reach[x]
            if r != reach[v]:
                reach[v] = r
                changed = True
    return reach


def assert_closures_are_reachability(g):
    succ, forbidden = successors(g)
    comp, closures = assert_closures_mark_blocked(g, succ, forbidden)
    for v, r in reach_reference(g, comp, succ).items():
        assert closures[comp[v]] == r, v


def scans_reference(g):
    """(I, diadem) by the scans' definition over all n vertices: v passes
    when no neighbour lies in X_min or has its component's bit in the tested
    bits."""
    s = critical._structure(g)
    comp, closures = s._closures()

    def nbrs_miss(v, bits):
        return not any(s.in_xmin[w] or comp[w] and bits >> comp[w] & 1 for w in g.adj[v])

    x_bits = 0
    chosen = []
    for v in range(g.n):
        reach = x_bits | closures[comp[v]]
        if nbrs_miss(v, reach):
            x_bits = reach
            chosen.append(v)
    return frozenset(chosen), frozenset(v for v in range(g.n) if nbrs_miss(v, closures[comp[v]]))


def networkx_d(g):
    """n - mu(B(G)), with the matching of the double computed by networkx."""
    nx = pytest.importorskip("networkx")
    b = nx.Graph()
    b.add_nodes_from(range(2 * g.n))
    b.add_edges_from((u, g.n + v) for u in range(g.n) for v in g.adj[u])
    return g.n - len(nx.bipartite.hopcroft_karp_matching(b, range(g.n))) // 2


class TestBipartiteDouble:
    def test_k2(self):
        g = Graph(["a", "b"], [(0, 1)])
        double = bipartite_double(g)
        # 2n vertices and 2m edges: the mirror pair of every host edge.
        assert double.n == 4
        assert double.m == 2
        assert double.edges() == [(0, 3), (1, 2)]

    def test_edgeless(self):
        double = bipartite_double(edgeless(3))
        assert double.n == 6 and double.m == 0

    def test_g1_counts(self, g1):
        double = bipartite_double(g1)
        assert double.n == 14 and double.m == 14

    def test_no_edges_within_sides(self, gf):
        double = bipartite_double(gf)
        for u, v in double.edges():
            assert (u < gf.n) != (v < gf.n)

    def test_label_collision_resolved(self):
        g = Graph(["a", "a'"], [(0, 1)])
        double = bipartite_double(g)
        assert len(set(double.labels)) == 4


class TestCriticalDifference:
    def test_fixtures(self, g1, g2, gf, k3):
        assert critical_difference(gf) == 1
        assert critical_difference(g1) == 1
        assert critical_difference(g2) == 1
        assert critical_difference(k3) == 0

    def test_edgeless(self):
        assert critical_difference(edgeless(5)) == 5

    def test_k0(self, k0):
        assert critical_difference(k0) == 0


class TestFindCriticalIndependentSet:
    def test_gf(self, gf):
        s = find_critical_independent_set(gf)
        assert is_independent(gf, s)
        assert difference(gf, s) == 1

    def test_k3_empty(self, k3):
        assert find_critical_independent_set(k3) == frozenset()

    def test_edgeless_everything(self):
        g = edgeless(3)
        assert find_critical_independent_set(g) == frozenset(range(3))


class TestForcedDifference:
    def test_gf_force_a(self, gf):
        assert forced_difference(gf, force_in=gf.indices("a")) == 1

    def test_empty_constraints_reduce_to_d(self, g1, g2, gf):
        for g in (g1, g2, gf):
            assert forced_difference(g) == critical_difference(g)

    def test_g2_force_j(self, g2):
        # Over all supersets of {j}: X = V \ {e} attains d = 1 (own brute
        # force; see test_matches_brute_force for the oracle).
        assert forced_difference(g2, force_in=g2.indices("j")) == 1

    def test_g2_force_j_out_neighbors(self, g2):
        assert forced_difference(g2, g2.indices("j"), g2.indices("hi")) == 0

    def test_overlap_rejected(self, g1):
        with pytest.raises(ValueError):
            forced_difference(g1, g1.indices("a"), g1.indices("ab"))

    def test_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 8)
            g = gnp(n, rng.choice([0.2, 0.4, 0.6]), rng.getrandbits(32))
            force_in = frozenset(rng.sample(range(n), rng.randint(0, min(2, n))))
            rest = [v for v in range(n) if v not in force_in]
            force_out = frozenset(rng.sample(rest, rng.randint(0, min(2, len(rest)))))
            got = forced_difference(g, force_in, force_out)
            want = max(
                difference(g, s)
                for mask in range(1 << n)
                for s in [frozenset(v for v in range(n) if mask >> v & 1)]
                if force_in <= s and not (s & force_out)
            )
            assert got == want

    @pytest.mark.parametrize("n", [2000, 5000])
    def test_no_constraints_equal_d_beyond_oracle_bound(self, n):
        # An explicit double judges the index lists: the Konig cover of the
        # double built as a Graph, and networkx's matching of its own copy.
        g = sparse_graph(n, 2.7, seed=n)
        cover, _ = konig_reference(g)
        assert forced_difference(g) == n - len(cover) == networkx_d(g)

    def test_pinning_a_vertex_agrees_with_extends_beyond_oracle_bound(self):
        g = sparse_graph(2000, 2.7, seed=31)
        d = critical_difference(g)
        got = set()
        for v in random.Random(31).sample(range(g.n), 40):
            pinned = forced_difference(g, [v], g.adj[v]) == d
            assert pinned == extends_to_critical_independent(g, [v])
            got.add(pinned)
        assert got == {True, False}

    def test_builds_no_graph(self, monkeypatch):
        g = sparse_graph(600, 2.7, seed=7)
        d = critical_difference(g)

        def refuse(*args, **kwargs):
            raise AssertionError("forced_difference built a Graph")

        monkeypatch.setattr(Graph, "__init__", refuse)
        assert forced_difference(g) == d
        assert forced_difference(g, [0], g.adj[0]) <= d
        assert forced_difference(g, force_out=range(10)) <= d

    def test_force_in_monotone(self):
        rng = random.Random(6)
        for _ in range(40):
            g = gnp(rng.randint(1, 9), 0.4, rng.getrandbits(32))
            v = rng.randrange(g.n)
            base = forced_difference(g)
            narrowed = forced_difference(g, force_in=[v])
            assert narrowed <= base


class TestExtends:
    def test_g2_examples(self, g2):
        assert extends_to_critical_independent(g2, g2.indices("c"))
        assert not extends_to_critical_independent(g2, g2.indices("j"))
        assert extends_to_critical_independent(g2, [])

    def test_dependent_set_never_extends(self, g1):
        assert not extends_to_critical_independent(g1, g1.indices("fg"))

    def test_contract_against_forced_difference(self):
        rng = random.Random(11)
        for _ in range(80):
            n = rng.randint(1, 9)
            g = gnp(n, rng.choice([0.2, 0.5]), rng.getrandbits(32))
            j = frozenset(rng.sample(range(n), rng.randint(0, min(4, n))))
            via_forced = is_independent(g, j) and forced_difference(
                g, j, neighborhood(g, j)
            ) == critical_difference(g)
            assert extends_to_critical_independent(g, j) == via_forced

    def test_true_gives_witness(self):
        # Whenever extends holds, some critical independent superset exists.
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(1, 8)
            g = gnp(n, 0.4, rng.getrandbits(32))
            fam = critical_family(g)
            j = frozenset(rng.sample(range(n), rng.randint(0, min(3, n))))
            expected = any(vertex_mask(j) & ~s == 0 for s in fam.all_critical_independent)
            assert extends_to_critical_independent(g, j) == expected


class TestMaxCriticalIndependentSet:
    def test_gf_unique(self, gf):
        assert label_set(gf, max_critical_independent_set(gf)) == ["a", "b", "c"]

    def test_g2_size_and_validity(self, g2):
        i_set = max_critical_independent_set(g2)
        assert len(i_set) == 4
        assert is_independent(g2, i_set)
        assert difference(g2, i_set) == 1
        fam = critical_family(g2)
        assert vertex_mask(i_set) in fam.maximum_critical_independent

    def test_k3(self, k3):
        assert max_critical_independent_set(k3) == frozenset()

    def test_deterministic(self, g2):
        assert max_critical_independent_set(g2) == max_critical_independent_set(g2)


class TestDiadem:
    def test_fixtures(self, g1, g2, gf):
        assert label_set(g1, diadem(g1)) == ["a", "b", "c", "d", "f"]
        assert label_set(g2, diadem(g2)) == ["a", "b", "c", "d", "f"]
        assert label_set(gf, diadem(gf)) == ["a", "b", "c"]

    def test_k3(self, k3):
        assert diadem(k3) == frozenset()


class TestDecompose:
    def test_gf(self, gf):
        dec = decompose(gf)
        assert label_set(gf, dec.X) == ["a", "b", "c", "d", "e"]
        assert label_set(gf, dec.Xc) == ["f", "g", "h", "i", "j"]
        assert dec.X == dec.I | neighborhood(gf, dec.I)

    def test_k3(self, k3):
        dec = decompose(k3)
        assert dec.X == frozenset()
        assert dec.Xc == frozenset(range(3))

    def test_g1_ke_has_empty_complement(self, g1):
        dec = decompose(g1)
        assert dec.X == frozenset(range(g1.n))
        assert dec.Xc == frozenset()

    def test_k0(self, k0):
        dec = decompose(k0)
        assert dec.I == dec.X == dec.Xc == frozenset()

    @pytest.mark.parametrize("scale", ["oracle", "n300"])
    def test_answers_invariant_under_vertex_order(self, scale):
        # The diadem, X and |I| are label-invariant; I itself depends on the
        # scan order.
        rng = random.Random(21)
        for i in range(30 if scale == "oracle" else 6):
            if scale == "oracle":
                g = gnp(rng.randint(1, 10), rng.choice([0.2, 0.4, 0.7]), rng.getrandbits(32))
            else:
                g = sparse_graph(300, 1.5 + 0.7 * i, seed=i)
            h = permuted(g, rng)
            dec_g, dec_h = decompose(g), decompose(h)
            assert set(label_set(g, dec_g.X)) == set(label_set(h, dec_h.X))
            assert len(dec_g.I) == len(dec_h.I)
            assert set(label_set(g, diadem(g))) == set(label_set(h, diadem(h)))


@pytest.mark.parametrize(("n", "c", "pendants"), [(700, 2, 300), (600, 3, 400), (800, 4, 250), (500, 1, 500)])
def test_answers_invariant_under_vertex_order_with_pendants(n, c, pendants):
    # The matching seed peels degree-1 vertices in an order that follows the
    # vertex indices; no answer may.
    rng = random.Random(n + pendants)
    g = random_pendants(sparse_graph(n, c, seed=n * c), pendants, rng)
    h = permuted(g, rng)
    assert critical.matching_number(g) == critical.matching_number(h)
    assert critical_difference(g) == critical_difference(h)
    assert label_set(g, find_critical_independent_set(g)) == label_set(h, find_critical_independent_set(h))
    assert label_set(g, diadem(g)) == label_set(h, diadem(h))


@pytest.mark.parametrize(("n", "c"), [(200, 2), (500, 3), (800, 4), (1000, 5), (1500, 2), (1500, 3)])
def test_scans_match_closure_walk_beyond_oracle_bound(n, c):
    # Past the oracle bound, the bitset scans are checked against the
    # per-set closure walk behind extends_to_critical_independent.
    g = sparse_graph(n, c, seed=n + c)
    assert_closures_mark_blocked(g, *successors(g))
    assert diadem(g) == frozenset(
        v for v in range(n) if extends_to_critical_independent(g, [v])
    )
    chosen: list[int] = []
    for v in range(n):
        if extends_to_critical_independent(g, chosen + [v]):
            chosen.append(v)
    assert max_critical_independent_set(g) == frozenset(chosen)


FOLD_GRAPHS = [(n, c) for n in (300, 1000, 3000) for c in (1.5, 2, 2.7, 4)]


@pytest.mark.parametrize(("n", "c"), FOLD_GRAPHS)
def test_closures_are_reachability_beyond_oracle_bound(n, c):
    # The closure ORs are folded into the Tarjan walk; each closure must
    # still be exactly what its vertex reaches.
    assert_closures_are_reachability(sparse_graph(n, c, seed=n + int(10 * c)))


@settings(max_examples=60, deadline=None)
@given(graphs_with_pendants(max_n=16, max_pendants=24))
def test_closures_are_reachability_with_pendants(g):
    assert_closures_are_reachability(g)


@pytest.mark.parametrize(("n", "c"), FOLD_GRAPHS)
def test_one_scan_matches_full_scans_beyond_oracle_bound(n, c):
    # The one scan visits only free vertices and tests the greedy only on
    # diadem members.
    g = sparse_graph(n, c, seed=n + int(10 * c))
    assert (max_critical_independent_set(g), diadem(g)) == scans_reference(g)


@settings(max_examples=60, deadline=None)
@given(graphs_with_pendants(max_n=16, max_pendants=24))
def test_one_scan_matches_full_scans_with_pendants(g):
    assert (max_critical_independent_set(g), diadem(g)) == scans_reference(g)


def pivot_split(g):
    """(free, F, S) by networkx: F is what the lowest free vertex p reaches
    over succ among the free vertices, and S the part of F that reaches p,
    p's strongly connected component."""
    nx = pytest.importorskip("networkx")
    free, digraph = free_digraph(g)
    if not free:
        return free, set(), set()
    p = free[0]
    f = nx.descendants(digraph, p) | {p}
    return free, f, f & (nx.ancestors(digraph, p) | {p})


def source_first(g):
    """g with vertices 0 and v swapped, v lying in the one source component
    of the free part's condensation, so that the lowest free vertex reaches
    every free vertex. The components and their order come from the
    Dulmage-Mendelsohn split of B(G), the same for every maximum matching."""
    nx = pytest.importorskip("networkx")
    _, digraph = free_digraph(g)
    dag = nx.condensation(digraph)
    (src,) = [c for c in dag if dag.in_degree(c) == 0]
    v = min(dag.nodes[src]["members"])
    swap = {0: v, v: 0}
    order = [swap.get(u, u) for u in range(g.n)]
    return Graph([g.labels[u] for u in order], [(order[u], order[w]) for u, w in g.edges()])


def one_component(free, f, s):
    return len(free) > 1 and s == set(free)


def reaches_all_not_component(free, f, s):
    return f == set(free) and s != f


def rest_beside_large_component(free, f, s):
    return f != set(free) and bool(f - s) and len(s) > len(f - s)


def pivot_in_small_sink(free, f, s):
    return f == s and len(s) <= 2 < len(free)


def no_free(free, f, s):
    return not free


def two_free(free, f, s):
    return len(free) == 2


PIVOT_CASES = [
    ("one-component-dense", lambda: sparse_graph(400, 60, seed=1), one_component),
    ("one-component-gnp", lambda: gnp(300, 0.1, 4), one_component),
    ("reaches-all-12", lambda: sparse_graph(12, 3, seed=9), reaches_all_not_component),
    ("reaches-all-source", lambda: source_first(sparse_graph(200, 6, seed=3)), reaches_all_not_component),
    ("rest-beside-large-100", lambda: sparse_graph(100, 6, seed=11), rest_beside_large_component),
    ("rest-beside-large-200", lambda: sparse_graph(200, 3, seed=9), rest_beside_large_component),
    ("small-sink-400", lambda: sparse_graph(400, 1.5, seed=8), pivot_in_small_sink),
    ("small-sink-12", lambda: sparse_graph(12, 3, seed=0), pivot_in_small_sink),
    ("no-free-k0", lambda: edgeless(0), no_free),
    ("no-free-edgeless", lambda: edgeless(5), no_free),
    ("no-free-star", lambda: complete_bipartite(1, 4), no_free),
    ("two-free-k2", lambda: path(2), two_free),
]


@pytest.mark.parametrize(("build", "case"), [c[1:] for c in PIVOT_CASES], ids=[c[0] for c in PIVOT_CASES])
def test_pivot_step_cases(build, case):
    # The walk takes the lowest free vertex's component as the part of its
    # forward reach F that reaches it back, S, after walking F - S; each
    # graph here must really show its case, and the closures and scans must
    # match the references that share nothing with the walk.
    g = build()
    assert case(*pivot_split(g))
    assert_closures_are_reachability(g)
    assert (max_critical_independent_set(g), diadem(g)) == scans_reference(g)


@settings(max_examples=100, deadline=None)
@given(graphs_with_pendants(max_n=12, max_pendants=8))
def test_never_one_free_vertex(g):
    # The free vertices are C_L of the Dulmage-Mendelsohn split of B(G),
    # perfectly matched to C_R, their mirrors: a free u holds the mirror of
    # a free neighbour, so the free part is empty or has two vertices or
    # more, and the pivot step's one-vertex case cannot arise.
    assert len(free_digraph(g)[0]) != 1


def test_structure_keeps_answers_only():
    # The closure bitsets die with the scan, and extends maps the matching
    # over adj as it walks: nothing beyond the matching, X_min and the
    # answers stays cached, before or after extends.
    g = sparse_graph(600, 2.7, seed=23)
    analyze(g)
    s = critical._structure(g)
    kept = {"n", "adj", "mu", "d", "left_match", "right_match", "in_xmin", "x_min", "_scans"}
    assert set(vars(s)) == kept
    d = critical_difference(g)
    rng = random.Random(23)
    for v in rng.sample(range(g.n), 12):
        j = frozenset([v])
        via_forced = forced_difference(g, j, neighborhood(g, j)) == d
        assert extends_to_critical_independent(g, j) == via_forced
    assert set(vars(s)) == kept
    assert diadem(g) == frozenset(v for v in range(g.n) if extends_to_critical_independent(g, [v]))


def closure_walk_scratch(g):
    """(comp, closures, bytes): the closure walk's answers and the peak of
    its scratch, what it allocated beyond comp and closures."""
    s = critical._CriticalStructure(g)
    tracemalloc.start()
    try:
        comp, closures = s._closures()  # kept alive, so held counts them
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return comp, closures, peak - held


def test_closure_walk_peak_memory():
    # Each fold clears the acc it read, so only the frames on the DFS path
    # hold one. Beside comp and closures, the walk's scratch is low and acc
    # (8 bytes a slot, plus 28 per DFS number past the small-int cache), the
    # stack and the frames, and the pivot step's mark bytearray (1 byte a
    # slot) and its lists of F, S and F - S (8 a slot, plus growth slack).
    def pivot_component(comp):
        return comp.count(next(c for c in comp if c))

    # The pivot is a singleton, so the giant component goes through the
    # DFS: 0.88 MB of scratch over 0.88 MB held. A walk that kept every acc
    # took 1.75 MB.
    g = sparse_graph(12000, 4, seed=12)
    comp, _, scratch = closure_walk_scratch(g)
    assert pivot_component(comp) == 1
    assert scratch <= 90 * g.n
    # The pivot step numbers the giant component, 9248 vertices, without the
    # DFS: 0.39 MB over 0.61 MB held. A walk that kept every acc took 0.65.
    g = sparse_graph(12000, 4, seed=5)
    comp, _, scratch = closure_walk_scratch(g)
    assert pivot_component(comp) > g.n // 2
    assert scratch <= 45 * g.n
    # Dense: every vertex is free and one component, S, so the DFS numbers
    # no vertex. The scratch is low, acc, mark, the forward and backward
    # lists and an empty F - S: 34 bytes a vertex. The Tarjan walk over the
    # same graph took 175.
    g = sparse_graph(2000, 60, seed=5)
    comp, closures, scratch = closure_walk_scratch(g)
    assert closures == [0, 2] and comp == [1] * g.n
    assert scratch <= 40 * g.n


@pytest.mark.parametrize(
    "spec",
    [GeneratorSpec("gnp", n=300, p=0.006, seed=s) for s in (1, 2, 3)]
    + [GeneratorSpec("bipartite_gnp", parts=(100, 200), p=0.01, seed=s) for s in (1, 2, 3)]
    + [GeneratorSpec("disjoint_union", parts=(150, 150), p=0.02, seed=s) for s in (1, 2, 3)],
    ids=str,
)
def test_closures_mark_blocked_beyond_oracle_bound(spec):
    # The corpus families at n = 300; each graph here has blocked vertices.
    g = generate(spec)
    succ, forbidden = successors(g)
    assert_closures_mark_blocked(g, succ, forbidden)
    assert any(blocked_reference(g, succ, forbidden))


@settings(max_examples=80)
@given(graphs(max_n=10))
def test_closures_mark_blocked(g):
    assert_closures_mark_blocked(g, *successors(g))


@pytest.mark.parametrize(("n", "c"), [(200, 2), (500, 3), (800, 4), (1000, 5), (1500, 2), (1500, 3)])
def test_find_critical_matches_konig_cover_beyond_oracle_bound(n, c):
    # The Konig cover of B(G) certifies d; its uncovered originals are X_min.
    g = sparse_graph(n, c, seed=n * c)
    s = find_critical_independent_set(g)
    cover, reference = konig_reference(g)
    assert s == reference
    assert len(cover) == n - critical_difference(g)
    assert is_independent(g, s) and difference(g, s) == critical_difference(g)


@pytest.mark.parametrize(("n", "c"), [(500, 2), (1000, 3), (2000, 4), (3000, 5), (3000, 2)])
def test_d_matches_networkx_beyond_oracle_bound(n, c):
    g = sparse_graph(n, c, seed=7 * n + c)
    assert critical_difference(g) == networkx_d(g)


@pytest.mark.parametrize(("n", "c"), [(n, c) for n in (300, 1000, 3000) for c in (1.5, 2, 2.7)])
def test_d_from_core_roots_matches_networkx_beyond_oracle_bound(n, c):
    # Hopcroft-Karp starts only from the blossom's roots. Each graph here
    # has unmatched vertices with neighbours that are no root.
    g = sparse_graph(n, c, seed=19 * n + int(10 * c))
    mate, roots = critical.blossom(g.adj)
    assert any(mate[v] == -1 and v not in roots and g.adj[v] for v in range(n))
    assert critical_difference(g) == networkx_d(g)


@settings(max_examples=40, deadline=None)
@given(graphs_with_pendants(max_n=16, max_pendants=24))
def test_d_with_pendants_matches_networkx(g):
    assert critical_difference(g) == networkx_d(g)


@pytest.mark.parametrize(("n", "c"), [(200, 2), (500, 3), (800, 4), (1000, 5), (1500, 2), (1500, 5)])
def test_warm_start_matches_cold_matchings_beyond_oracle_bound(n, c):
    # The structure's HK starts from the doubled blossom matching; a cold HK
    # and the public blossom wrapper check both numbers it yields.
    g = sparse_graph(n, c, seed=13 * n + c)
    cold_left, _ = hopcroft_karp(g.adj, n)
    mu = critical.matching_number(g)
    assert critical_difference(g) == n - sum(j != -1 for j in cold_left)
    assert mu == mate_size(max_matching_general(g))
    assert n - critical_difference(g) >= 2 * mu


def odd_cycles_with_tails(length, copies, tail):
    """`copies` disjoint cycles of odd `length`, each with a path of `tail`
    vertices hung on cycle vertex 0. The path's far end has degree 1, so the
    Karp-Sipser peel runs before any blossom search."""
    size = length + tail
    labels, edges = [], []
    for k in range(copies):
        base = k * size
        labels += [f"c{k}_{i}" for i in range(size)]
        edges += [(base + i, base + (i + 1) % length) for i in range(length)]
        path = [base] + list(range(base + length, base + size))
        edges += list(zip(path, path[1:]))
    return Graph(labels, edges)


@pytest.mark.parametrize(("length", "copies"), [(3, 2), (5, 2), (3, 20), (5, 20)])
def test_mu_below_fractional_bound_with_tails(length, copies):
    # B(G) matches every copy perfectly, so d = 0, but each odd cycle leaves
    # a vertex of its copy unmatched in G: mu < floor((n - d) / 2), and a
    # search budget taken from that bound must not stop early. A tail of one
    # vertex makes each copy even and the bound tight again.
    nx = pytest.importorskip("networkx")

    def reference_mu(g):
        if g.n <= 20:
            return mu_exact(g)
        ng = nx.Graph()
        ng.add_nodes_from(range(g.n))
        ng.add_edges_from(g.edges())
        return len(nx.max_weight_matching(ng, maxcardinality=True))

    g = odd_cycles_with_tails(length, copies, 2)
    d, mu = critical_difference(g), critical.matching_number(g)
    assert d == 0 and mu == copies * (length + 1) // 2 == reference_mu(g)
    assert mu < (g.n - d) // 2
    tight = odd_cycles_with_tails(length, copies, 1)
    mu = critical.matching_number(tight)
    assert mu == (tight.n - critical_difference(tight)) // 2 == reference_mu(tight)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_d_matches_networkx_on_dense_graphs(seed):
    g = gnp(300, 0.3, seed)
    assert critical_difference(g) == networkx_d(g)


@pytest.mark.parametrize(("a", "b"), [(5, 9), (30, 60)])
def test_complete_bipartite_unbalanced(a, b):
    # K_{a,b} with a < b: the a-side is matched and covers every edge, and
    # the b-side, all independent, beats its neighbourhood by b - a.
    g = complete_bipartite(a, b)
    b_side = frozenset(range(a, a + b))
    assert certified_mu(g, max_matching_general(g)) == a
    mate = max_matching_bipartite(g, range(a))
    assert mate_size(mate) == a
    assert min_vertex_cover_bipartite(g, range(a), mate) == frozenset(range(a))
    assert critical_difference(g) == b - a
    assert max_critical_independent_set(g) == find_critical_independent_set(g) == diadem(g) == b_side


@pytest.mark.parametrize("n", [*range(1, 12), 20000, 20001])
def test_path_family(n):
    # P_n: d = n mod 2, mu = floor(n/2), a maximum critical independent set
    # has ceil(n/2) vertices, and the diadem is V for even n and the
    # even-index vertices for odd n. The oracle judges n <= 11.
    g = path(n)
    want = frozenset(range(0, n, 1 + n % 2))
    assert critical_difference(g) == n % 2
    assert critical.matching_number(g) == n // 2
    assert len(max_critical_independent_set(g)) == (n + 1) // 2
    assert diadem(g) == want
    if n <= 11:
        fam = critical_family(g)
        assert (fam.d, mu_exact(g), fam.diadem) == (n % 2, n // 2, want)
        assert max(map(int.bit_count, fam.maximum_critical_independent)) == (n + 1) // 2


@pytest.mark.parametrize("n", [20000, 20001])
def test_path_with_triangle_beyond_oracle_bound(n):
    # P_n plus the edge 0-2: not bipartite, so the scans do real closure work.
    g = Graph([f"v{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)] + [(0, 2)])
    d = critical_difference(g)
    assert forced_difference(g) == d
    assert certified_mu(g, max_matching_general(g)) == critical.matching_number(g) == n // 2
    dia = diadem(g)
    got = set()
    for v in random.Random(n).sample(range(n), 40):
        assert (v in dia) == extends_to_critical_independent(g, [v])
        got.add(v in dia)
    assert got == {True, False}


def test_structure_cache_frees_dropped_graphs(monkeypatch):
    # decompose and diadem share one structure, kept on g, and g dies at its
    # del with the cyclic collector off, while its structure is still held.
    built = []

    class Counted(critical._CriticalStructure):
        def __init__(self, g):
            built.append(g.n)
            super().__init__(g)

    monkeypatch.setattr(critical, "_CriticalStructure", Counted)
    g = sparse_graph(50, 2, seed=1)
    decompose(g)
    diadem(g)
    structure = critical._structure(g)
    assert critical._structure(g) is structure
    assert built == [50]
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()


@settings(max_examples=80)
@given(graphs(max_n=10))
def test_reduction_identity(g):
    d = critical_difference(g)
    assert max_difference_exhaustive(g) == (d, d)
    assert d >= 0


@settings(max_examples=80)
@given(graphs(max_n=10))
def test_find_critical_postcondition(g):
    s = find_critical_independent_set(g)
    assert is_independent(g, s)
    assert difference(g, s) == critical_difference(g)
    cover, reference = konig_reference(g)
    assert s == reference
    assert len(cover) == g.n - critical_difference(g)
    assert s == critical_family(g).ker


@settings(max_examples=80)
@given(graphs(max_n=10))
def test_greedy_matches_oracle_size(g):
    fam = critical_family(g)
    i_set = max_critical_independent_set(g)
    assert is_independent(g, i_set)
    assert difference(g, i_set) == fam.d
    assert len(i_set) == max(map(int.bit_count, fam.maximum_critical_independent), default=0)


@settings(max_examples=80)
@given(graphs(max_n=10))
def test_diadem_matches_oracle(g):
    assert diadem(g) == critical_family(g).diadem


@settings(max_examples=60)
@given(graphs(max_n=10))
def test_decomposition_properties(g):
    dec = decompose(g)
    assert dec.X == dec.I | neighborhood(g, dec.I)
    assert dec.Xc == frozenset(range(g.n)) - dec.X
    gx, _ = induced_subgraph(g, dec.X)
    gxc, _ = induced_subgraph(g, dec.Xc)
    # alpha is additive across the split.
    assert (
        independence_profile(g).alpha
        == independence_profile(gx).alpha + independence_profile(gxc).alpha
    )
    # The X side is Konig-Egervary; the complement has no positive difference.
    assert independence_profile(gx).alpha + mate_size(max_matching_general(gx)) == gx.n
    assert max_difference_exhaustive(gxc) == (0, 0)


@settings(max_examples=60)
@given(graphs(max_n=10))
def test_diadem_neighborhood_tiles_x(g):
    dia = diadem(g)
    assert dia | neighborhood(g, dia) == decompose(g).X
