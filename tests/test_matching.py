import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critind import (
    Graph,
    bipartite_gnp,
    hopcroft_karp,
    mu_exact,
)
from critind import matching
from critind.critical import bipartite_double
from critind.matching import max_matching_bipartite, max_matching_general, min_vertex_cover_bipartite
from reference import forced_difference, has_augmenting_path
from strategies import (
    bipartite_graphs,
    certified_mu,
    graphs,
    graphs_with_pendants,
    mate_size,
    path,
    permuted,
    random_pendants,
    sparse_graph,
    two_choice_bipartite,
)


def cycle(n):
    return Graph([f"c{i}" for i in range(n)], [(i, (i + 1) % n) for i in range(n)])


def clique(n):
    return Graph([f"k{i}" for i in range(n)], [(i, j) for i in range(n) for j in range(i + 1, n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph([f"p{i}" for i in range(10)], outer + inner + spokes)


def two_triangles_bridge():
    return Graph(list("abcdef"), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])


def mate_of(n, pairs):
    """The mate list over n vertices of the matching with these index pairs."""
    mate = [-1] * n
    for u, v in pairs:
        mate[u] = v
        mate[v] = u
    return mate


def without(mate, u):
    """A copy of mate with u's matching edge taken out."""
    smaller = list(mate)
    smaller[u] = smaller[mate[u]] = -1
    return smaller


def nested_blossom():
    """From the unmatched root r under the matching ab, cd, ef, the search
    contracts the triangle bcd and then the 5-cycle r-a-(bcd)-e-f, which
    contains it; the augmenting path r-f-e-d-c-t leaves through c, an odd
    vertex of the inner blossom."""
    g = Graph.from_label_edges(
        list("rabcdeft"),
        [("r", "a"), ("a", "b"), ("b", "c"), ("c", "d"), ("b", "d"),
         ("d", "e"), ("e", "f"), ("f", "r"), ("c", "t")],
    )
    return g, mate_of(g.n, [(g.index_of(x), g.index_of(y)) for x, y in ("ab", "cd", "ef")])


def twin_nested_blossoms():
    """Two copies of the nested-blossom gadget without t, joined by a-a'.
    The greedy matching ab, cd, ef, a'b', c'd', e'f' leaves r and u free; the
    augmenting path r-f-e-d-c-b-a-a'-b'-c'-d'-e'-f'-u passes through both
    triangles. A contraction whose walk enters an earlier blossom away from
    its base must walk on to that base; a search that stops inside the
    blossom misses the path and reports 6 instead of 7."""
    g = Graph.from_label_edges(
        ["a", "b", "c", "d", "e", "f", "a'", "b'", "c'", "d'", "e'", "f'", "r", "u"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("b", "d"), ("d", "e"), ("e", "f"), ("f", "r"), ("r", "a"),
         ("a'", "b'"), ("b'", "c'"), ("c'", "d'"), ("b'", "d'"), ("d'", "e'"), ("e'", "f'"), ("f'", "u"),
         ("u", "a'"), ("a", "a'")],
    )
    pairs = [("a", "b"), ("c", "d"), ("e", "f"), ("a'", "b'"), ("c'", "d'"), ("e'", "f'")]
    return g, mate_of(g.n, [(g.index_of(x), g.index_of(y)) for x, y in pairs])


def disjoint_union_of(parts):
    labels, edges = [], []
    for k, part in enumerate(parts):
        offset = len(labels)
        labels += [f"g{k}_{label}" for label in part.labels]
        edges += [(offset + u, offset + v) for u, v in part.edges()]
    return Graph(labels, edges)


class TestMatchingType:
    """A matching is a mate list: mate[v] is v's partner, or -1. Both entry
    points that take one refuse a list that is not a matching of g."""

    @staticmethod
    def assert_rejected(mate, message):
        g = path(4)
        with pytest.raises(ValueError, match=message):
            has_augmenting_path(g, mate)
        with pytest.raises(ValueError, match=message):
            min_vertex_cover_bipartite(g, [0, 2], mate)

    def test_rejects_non_edge(self):
        self.assert_rejected([3, -1, -1, 0], "not a matching edge")  # 0-3 is no edge

    def test_rejects_incident_edges(self):
        # 0-1 and 1-2 share 1: the list can only say so asymmetrically.
        self.assert_rejected([1, 2, 1, -1], "not a matching edge")

    def test_rejects_asymmetric_entry(self):
        self.assert_rejected([1, -1, -1, -1], "not a matching edge")

    @pytest.mark.parametrize("partner", [4, -2])
    def test_rejects_out_of_range_entry(self, partner):
        self.assert_rejected([-1, -1, -1, partner], "not a matching edge")

    @pytest.mark.parametrize("mate", [[-1, -1, -1], [-1] * 5, []])
    def test_rejects_wrong_length(self, mate):
        self.assert_rejected(mate, "length")


class TestBipartiteMatching:
    def test_double_of_g1(self, g1):
        assert mate_size(max_matching_bipartite(bipartite_double(g1), range(g1.n))) == 6

    def test_star(self):
        g = Graph(["c", "l1", "l2", "l3"], [(0, 1), (0, 2), (0, 3)])
        assert max_matching_bipartite(g, [0]) == [1, 0, -1, -1]
        assert max_matching_bipartite(g, [1, 2, 3]) == [1, 0, -1, -1]

    def test_edgeless(self):
        g = Graph(["a", "b", "c"], [])
        assert max_matching_bipartite(g, [0, 1]) == [-1, -1, -1]

    def test_invalid_partition_internal_edge(self):
        g = path(3)
        with pytest.raises(ValueError, match="edge inside one side"):
            max_matching_bipartite(g, [0, 1])

    def test_deterministic(self):
        g = bipartite_gnp(6, 6, 0.5, seed=3)
        assert max_matching_bipartite(g, range(6)) == max_matching_bipartite(g, range(6))

    def test_searches_from_the_given_side(self):
        # A 6-cycle: Hopcroft-Karp from {0, 1, 2} and from {3, 4, 5} ends at
        # its two different perfect matchings.
        g = Graph([f"v{i}" for i in range(6)], [(0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)])
        assert max_matching_bipartite(g, [0, 1, 2]) == [4, 5, 3, 2, 0, 1]
        assert max_matching_bipartite(g, [3, 4, 5]) == [5, 3, 4, 1, 2, 0]


class TestHopcroftKarpKernel:
    def test_empty_adj(self):
        assert hopcroft_karp([], 0) == ([], [])
        assert hopcroft_karp([], 3) == ([], [-1, -1, -1])

    def test_no_right_side(self):
        assert hopcroft_karp([[], []], 0) == ([-1, -1], [])

    def test_star(self):
        # Centre on the left: it takes its first leaf.
        assert hopcroft_karp([[0, 1, 2]], 3) == ([0], [0, -1, -1])
        # Centre on the right: the first leaf takes it.
        assert hopcroft_karp([[0], [0], [0]], 1) == ([0, -1, -1], [0])

    def test_roots_limit_the_phases(self):
        # Left 0 is free but no root, so it stays free and left 1 takes the
        # right vertex they share; with no root at all nothing is matched.
        assert hopcroft_karp([[0], [0]], 1, None, [1]) == ([-1, 0], [1])
        assert hopcroft_karp([[0], [0]], 1, None, []) == ([-1, -1], [-1])

    def test_k33_perfect(self):
        match_left, match_right = hopcroft_karp([[0, 1, 2]] * 3, 3)
        assert sorted(match_left) == sorted(match_right) == [0, 1, 2]
        assert all(match_right[j] == u for u, j in enumerate(match_left))


class TestKonigCover:
    def test_path(self):
        g = Graph(["a", "b", "c"], [(0, 1), (1, 2)])
        assert min_vertex_cover_bipartite(g, [0, 2], [1, 0, -1]) == {1}

    def test_c4_perfect_matching(self):
        g = cycle(4)
        cover = min_vertex_cover_bipartite(g, [0, 2], max_matching_bipartite(g, [0, 2]))
        assert len(cover) == 2

    def test_double_of_gf(self, gf):
        double = bipartite_double(gf)
        mate = max_matching_bipartite(double, range(gf.n))
        cover = min_vertex_cover_bipartite(double, range(gf.n), mate)
        assert mate_size(mate) == 9
        assert len(cover) == 9

    def test_detects_non_maximum_matching(self):
        g = Graph(["a", "b", "c", "d"], [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="not maximum"):
            min_vertex_cover_bipartite(g, [0, 2], [1, 0, -1, -1])


class TestGeneralMatching:
    def test_fixtures(self, g1, g2, gf, k3):
        assert mate_size(max_matching_general(g1)) == 3
        assert mate_size(max_matching_general(g2)) == 4
        assert mate_size(max_matching_general(gf)) == 4
        assert mate_size(max_matching_general(k3)) == 1

    def test_odd_cycles(self):
        assert mate_size(max_matching_general(cycle(5))) == 2
        assert mate_size(max_matching_general(cycle(7))) == 3

    def test_petersen(self):
        assert mate_size(max_matching_general(petersen())) == 5

    def test_two_triangles_bridge(self):
        # Blossoms on both sides of a bridge; perfect matching exists.
        assert mate_size(max_matching_general(two_triangles_bridge())) == 3

    def test_nested_blossom(self):
        g, m = nested_blossom()
        assert has_augmenting_path(g, m)
        assert mate_size(max_matching_general(g)) == mu_exact(g) == 4

    def test_twin_nested_blossoms(self):
        g, m = twin_nested_blossoms()
        assert has_augmenting_path(g, m)
        assert mate_size(max_matching_general(g)) == mu_exact(g) == 7

    def test_k0(self, k0):
        assert max_matching_general(k0) == []


class TestAugmentingPath:
    def test_maximum_has_none(self, g1, g2, gf, k3):
        for g in (g1, g2, gf, k3):
            m = max_matching_general(g)
            assert not has_augmenting_path(g, m)

    def test_path_with_middle_edge(self):
        assert has_augmenting_path(path(4), [-1, 2, 1, -1])

    def test_leaves_the_callers_list_unchanged(self):
        # The search that succeeds here flips 0-1-2-3 into the list it runs on.
        mate = [-1, 2, 1, -1]
        assert has_augmenting_path(path(4), mate)
        assert mate == [-1, 2, 1, -1]

    def test_g2_with_submaximal_matching(self, g2):
        pairs = [(g2.index_of(x), g2.index_of(y)) for x, y in ("ae", "cf", "dg")]
        assert has_augmenting_path(g2, mate_of(g2.n, pairs))

    def test_empty_matching_on_edgeless(self):
        assert not has_augmenting_path(Graph(["a", "b"], []), [-1, -1])


@settings(max_examples=80)
@given(graphs(max_n=10))
def test_blossom_matches_oracle(g):
    mate = max_matching_general(g)
    assert mate_size(mate) == mu_exact(g)
    assert not has_augmenting_path(g, mate)


@settings(max_examples=60)
@given(graphs(max_n=10))
def test_submaximal_matching_has_augmenting_path(g):
    mate = max_matching_general(g)
    matched = [v for v in range(g.n) if mate[v] != -1]
    if not matched:
        return
    assert has_augmenting_path(g, without(mate, matched[0]))


STRUCTURED = [cycle(3), cycle(5), cycle(7), petersen(), two_triangles_bridge(), nested_blossom()[0],
              twin_nested_blossoms()[0]]


@settings(max_examples=40)
@given(
    st.lists(graphs(max_n=10), min_size=6, max_size=10).flatmap(lambda r: st.permutations(r + STRUCTURED)),
    st.randoms(use_true_random=False),
)
def test_no_state_leaks_between_searches(parts, rnd):
    # Every search of one call shares the same scratch arrays; a vertex left
    # dirty by one search would corrupt a later one.
    g = disjoint_union_of(parts)
    mu = sum(mu_exact(part) for part in parts)
    mate = max_matching_general(g)
    assert mate_size(mate) == mu
    assert not has_augmenting_path(g, mate)
    for u in range(g.n):
        if mate[u] > u:
            assert has_augmenting_path(g, without(mate, u))
    # A maximal matching drawn in random edge order is often not maximum, and
    # its searches that fail run before the one that must succeed.
    edges = g.edges()
    rnd.shuffle(edges)
    maximal = [-1] * g.n
    for u, v in edges:
        if maximal[u] == maximal[v] == -1:
            maximal[u] = v
            maximal[v] = u
    assert has_augmenting_path(g, maximal) == (mate_size(maximal) < mu)


@pytest.mark.parametrize(("n", "c"), [(200, 2), (500, 3), (1000, 4), (1500, 5), (1500, 2)])
def test_mu_matches_networkx_beyond_oracle_bound(n, c):
    nx = pytest.importorskip("networkx")
    g = sparse_graph(n, c, seed=11 * n + c)
    ng = nx.Graph()
    ng.add_nodes_from(range(n))
    ng.add_edges_from(g.edges())
    assert mate_size(max_matching_general(g)) == len(nx.max_weight_matching(ng, maxcardinality=True))


def networkx_mu(g):
    nx = pytest.importorskip("networkx")
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges())
    return len(nx.max_weight_matching(ng, maxcardinality=True))


def assert_maximum(g):
    """Returns mu(G) after checking the blossom: by certificate where the
    bound floor((n - d) / 2) is reached, else against networkx."""
    mate = max_matching_general(g)
    if certified_mu(g, mate) is None:
        assert mate_size(mate) == networkx_mu(g)
    assert not has_augmenting_path(g, mate)
    return mate_size(mate)


def greedy_reference(adj):
    """Each unmatched vertex in index order takes its first unmatched neighbour."""
    mate = [-1] * len(adj)
    for v in range(len(adj)):
        if mate[v] == -1:
            for u in adj[v]:
                if mate[u] == -1:
                    mate[v], mate[u] = u, v
                    break
    return mate


def assert_peel_is_maximum(g):
    # On a forest every nonempty remainder has a leaf, so the seed never
    # falls back to a greedy pick and needs no search.
    mate, _ = matching._seed(g.adj)
    matching._validate_mate(g, mate)
    assert mate.count(-1) == g.n - 2 * assert_maximum(g)


def random_forest(n, rng):
    """Each vertex joins a uniform earlier one, or starts a new tree."""
    g = Graph([f"v{i}" for i in range(n)], [(rng.randrange(i), i) for i in range(1, n) if rng.random() < 0.9])
    return permuted(g, rng)


def caterpillar(spine, legs, rng):
    """A path of `spine` vertices, each with up to `legs` leaves."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i in range(spine):
        for _ in range(rng.randint(0, legs)):
            edges.append((i, n))
            n += 1
    return Graph([f"v{i}" for i in range(n)], edges)


def clique_with_tail(k, tail):
    """K_k on 0..k-1, a path of `tail` vertices hung on clique vertex 0 whose
    far end closes into a triangle, and a separate edge. Only that edge has
    degree-1 vertices at the start. Once the greedy pick has matched vertex
    0, the tail's first vertex has one unmatched neighbour left, and the peel
    runs down the tail."""
    clique = [(i, j) for i in range(k) for j in range(i + 1, k)]
    path = [(0, k)] + [(k + i, k + i + 1) for i in range(tail - 1)]
    end = k + tail - 1
    n = end + 3
    return Graph([f"v{i}" for i in range(n)], clique + path + [(end - 2, end), (n - 2, n - 1)])


def min_degree_two(n, c, seed):
    """sparse_graph plus a cycle through all its vertices in random order."""
    g = sparse_graph(n, c, seed)
    order = list(range(n))
    random.Random(seed).shuffle(order)
    ring = {(min(u, v), max(u, v)) for u, v in zip(order, order[1:] + order[:1])}
    return Graph(g.labels, sorted(set(g.edges()) | ring))


class TestKarpSipserSeed:
    @pytest.mark.parametrize("n", [2, 30, 300, 1000])
    def test_peel_alone_is_maximum_on_forests(self, n):
        rng = random.Random(n)
        for _ in range(3):
            assert_peel_is_maximum(random_forest(n, rng))

    @pytest.mark.parametrize(("spine", "legs"), [(1, 3), (2, 1), (7, 2), (40, 3), (500, 2)])
    def test_peel_alone_is_maximum_on_caterpillars(self, spine, legs):
        g = caterpillar(spine, legs, random.Random(spine * legs))
        assert_peel_is_maximum(g)
        assert_peel_is_maximum(permuted(g, random.Random(spine)))

    @pytest.mark.parametrize("core", [cycle(5), petersen(), nested_blossom()[0]], ids=["c5", "petersen", "nested"])
    @pytest.mark.parametrize("seed", range(6))
    def test_blossoms_with_pendant_paths(self, core, seed):
        rng = random.Random(seed)
        g = random_pendants(core, rng.randint(1, 3 * core.n), rng)
        assert 1 in map(len, g.adj)
        assert_maximum(g)
        assert_maximum(permuted(g, rng))

    @pytest.mark.parametrize(("k", "tail"), [(3, 4), (4, 5), (5, 6), (6, 9), (7, 40), (8, 41)])
    def test_clique_with_long_tail(self, k, tail):
        g = clique_with_tail(k, tail)
        assert [v for v in range(g.n) if len(g.adj[v]) == 1] == [g.n - 2, g.n - 1]
        assert_maximum(g)

    @pytest.mark.parametrize(
        "edges",
        [[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], [(1, 5), (2, 3), (2, 4), (2, 6), (3, 4), (3, 6)]],
        ids=["diamond", "edge-and-diamond"],
    )
    def test_greedy_pick_that_costs_an_edge(self, edges, monkeypatch):
        # The one greedy pick takes a diamond's middle edge and strands both
        # tips, so the seed is one edge short. Exactly one search runs: it
        # starts with both tips waiting and succeeds, which leaves none.
        g = Graph([f"v{i}" for i in range(max(map(max, edges)) + 1)], edges)
        seed, _ = matching._seed(g.adj)
        assert seed.count(-1) == g.n - 2 * (mu_exact(g) - 1)
        _, built, searches = TestWaitingRoots.run(g, monkeypatch)
        assert built == 1
        assert [(waiting, end != -1) for _, waiting, end in searches] == [(2, True)]
        assert_maximum(g)

    @pytest.mark.parametrize(
        "g",
        [cycle(5), cycle(8), petersen(), two_triangles_bridge(),
         Graph([f"k{i}" for i in range(6)], [(i, j) for i in range(6) for j in range(i + 1, 6)]),
         min_degree_two(200, 1, 3), min_degree_two(1000, 3, 4)],
        ids=["c5", "c8", "petersen", "bridge", "k6", "ring200", "ring1000"],
    )
    def test_no_degree_one_vertex_takes_the_greedy_seed(self, g):
        assert 1 not in map(len, g.adj)
        assert matching._seed(g.adj)[0] == greedy_reference(g.adj)
        assert_maximum(g)


def skipped_roots(g):
    """The vertices with a neighbour that the blossom leaves unmatched and
    leaves out of its roots: no search and no Hopcroft-Karp phase starts
    there, and only the proofs in matching.blossom and
    critical._CriticalStructure say that none needs to."""
    mate, roots = matching.blossom(g.adj)
    rooted = set(roots)
    return [v for v in range(g.n) if mate[v] == -1 and v not in rooted and g.adj[v]]


CORE_GRAPHS = [(n, c) for n in (300, 1000, 3000) for c in (1.5, 2, 2.7)]


@pytest.mark.parametrize(("n", "c"), CORE_GRAPHS)
def test_core_search_is_maximum_beyond_oracle_bound(n, c):
    g = sparse_graph(n, c, seed=19 * n + int(10 * c))
    assert_maximum(g)
    assert skipped_roots(g)


@settings(max_examples=40, deadline=None)
@given(graphs_with_pendants(max_n=16, max_pendants=24))
def test_core_search_with_pendants_beyond_oracle_bound(g):
    assert_maximum(g)


class TestNoGreedyPick:
    """A seed that makes no greedy pick is maximum: no search is built, no
    root is left, and Hopcroft-Karp given no root hands its start back."""

    @staticmethod
    def check(g, monkeypatch):
        assert matching._seed(g.adj)[1] == []
        mu = assert_maximum(g)
        built = []
        augmenter = matching._augmenter

        def counted(adj, match):
            built.append(adj)
            return augmenter(adj, match)

        monkeypatch.setattr(matching, "_augmenter", counted)
        mate, roots = matching.blossom(g.adj)
        assert built == []
        assert roots == []
        assert mate.count(-1) == g.n - 2 * mu
        initial = (mate, mate[:])
        before = (mate[:], mate[:])
        match_left, match_right = hopcroft_karp(g.adj, g.n, initial, [])
        assert match_left is initial[0] and match_right is initial[1]
        assert (match_left, match_right) == before

    @pytest.mark.parametrize("n", [2, 30, 300, 1000])
    def test_forests(self, n, monkeypatch):
        rng = random.Random(n + 1)
        for _ in range(3):
            self.check(random_forest(n, rng), monkeypatch)

    @pytest.mark.parametrize(("spine", "legs"), [(1, 3), (7, 2), (500, 2)])
    def test_caterpillars(self, spine, legs, monkeypatch):
        self.check(caterpillar(spine, legs, random.Random(spine + legs)), monkeypatch)

    @pytest.mark.parametrize(("n", "seed"), [(300, 0), (1000, 0), (3000, 0)])
    def test_sparse_seeds_without_a_pick(self, n, seed, monkeypatch):
        self.check(sparse_graph(n, 2, seed), monkeypatch)


def blossom_searching_every_root(adj):
    """The blossom loop with no stop rule: a search from every core vertex
    still unmatched when its turn comes."""
    mate, core = matching._seed(adj)
    augment = matching._augmenter(adj, mate)
    for v in core:
        if mate[v] == -1:
            augment(v)
    return mate, [v for v in core if mate[v] == -1]


@settings(max_examples=80, deadline=None)
@given(graphs_with_pendants(max_n=12, max_pendants=12))
def test_blossom_equals_searching_every_root(g):
    # Stopping with one root waiting skips only a search that would fail,
    # and a failed search writes nothing: the output is bit for bit the same.
    assert matching.blossom(g.adj) == blossom_searching_every_root(g.adj)


@pytest.mark.parametrize("c", [2, 4, 8])
@pytest.mark.parametrize("n", [2500, 20000])
def test_blossom_equals_searching_every_root_beyond_oracle_bound(n, c):
    g = sparse_graph(n, c, seed=n + c)
    assert matching.blossom(g.adj) == blossom_searching_every_root(g.adj)


class TestWaitingRoots:
    """The searches stop once fewer than two roots are waiting: unmatched
    vertices of the seed's core not yet searched from."""

    @staticmethod
    def run(g, monkeypatch):
        """The mate list of matching.blossom on g, the number of augmenters
        it built, and per search its root, the roots waiting when it started
        (itself included) and the end it matched, -1 when it failed."""
        seed, core = matching._seed(g.adj)
        unmatched = [v for v in core if seed[v] == -1]
        built, searches = [], []
        augmenter = matching._augmenter

        def counted(adj, match):
            built.append(adj)
            augment = augmenter(adj, match)

            def logged(root):
                searched = {r for r, _, _ in searches}
                waiting = sum(match[v] == -1 and v not in searched for v in unmatched)
                end = augment(root)
                searches.append((root, waiting, end))
                return end

            return logged

        monkeypatch.setattr(matching, "_augmenter", counted)
        mate, _ = matching.blossom(g.adj)
        return mate, len(built), searches

    @pytest.mark.parametrize("g", [cycle(3), cycle(5), clique(5)], ids=["k3", "c5", "k5"])
    def test_one_root_left_starts_no_search(self, g, monkeypatch):
        mate, built, searches = self.run(g, monkeypatch)
        assert (built, searches) == (1, [])
        assert mate_size(mate) == mu_exact(g)

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_disjoint_triangles(self, k, monkeypatch):
        g = disjoint_union_of([cycle(3)] * k)
        mate, built, searches = self.run(g, monkeypatch)
        assert built == 1
        assert [(waiting, end) for _, waiting, end in searches] == [(w, -1) for w in range(k, 1, -1)]
        assert mate_size(mate) == k == networkx_mu(g)

    @pytest.mark.parametrize("seed", range(6))
    def test_every_search_starts_with_two_waiting(self, seed, monkeypatch):
        g = sparse_graph(2500, 4, seed)
        mate, built, searches = self.run(g, monkeypatch)
        assert built == 1
        assert all(waiting >= 2 for _, waiting, _ in searches)
        # networkx still judges seed 0, a cross-check of the blossom at this n.
        if certified_mu(g, mate) is None or seed == 0:
            assert mate_size(mate) == networkx_mu(g)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("a", [100, 500])
def test_two_choice_bipartite_beyond_oracle_bound(a, seed):
    # Every search from the seed's core fails here, each over much of the
    # graph. B(G) of a bipartite G is two copies of G, so d = n - 2 mu, and
    # the certificate always reaches its bound; forced_difference reads d
    # again from its own Hopcroft-Karp.
    g = two_choice_bipartite(a, seed)
    mate, _ = matching.blossom(g.adj)
    mu = certified_mu(g, mate)
    assert mu is not None
    assert forced_difference(g) == g.n - 2 * mu


@settings(max_examples=80)
@given(graphs_with_pendants(max_n=10))
def test_blossom_with_pendants_matches_oracle(g):
    mate = max_matching_general(g)
    assert mate_size(mate) == mu_exact(g)
    assert not has_augmenting_path(g, mate)


@settings(max_examples=80)
@given(bipartite_graphs(max_side=5))
def test_konig_on_random_bipartite(data):
    g, left, right = data
    mate = max_matching_bipartite(g, left)
    assert mate_size(mate) == mu_exact(g)
    cover = min_vertex_cover_bipartite(g, left, mate)
    assert len(cover) == mate_size(mate)
    for u, v in g.edges():
        assert u in cover or v in cover
    # The kernel on the same graph, right side renumbered from 0, run from
    # the left: the wrapper returns its very matching.
    nl = len(left)
    match_left, match_right = hopcroft_karp([[w - nl for w in g.adj[u]] for u in range(nl)], len(right))
    assert all(match_right[j] == u for u, j in enumerate(match_left) if j != -1)
    assert all(match_left[u] == j for j, u in enumerate(match_right) if u != -1)
    assert all(g.has_edge(u, nl + j) for u, j in enumerate(match_left) if j != -1)
    assert mate[:nl] == [-1 if j == -1 else nl + j for j in match_left]


def check_warm_start(adj, n_right, rnd):
    """HK started from a random maximal matching ends at the cold size."""
    pairs = [(u, w) for u in range(len(adj)) for w in adj[u]]
    rnd.shuffle(pairs)
    initial = ([-1] * len(adj), [-1] * n_right)
    for u, w in pairs:
        if initial[0][u] == -1 and initial[1][w] == -1:
            initial[0][u] = w
            initial[1][w] = u
    cold_left, _ = hopcroft_karp(adj, n_right)
    # roots=None starts from every left index; naming every free one instead
    # must give the very same matching.
    rooted = ([side[:] for side in initial], [u for u, j in enumerate(initial[0]) if j == -1])
    match_left, match_right = hopcroft_karp(adj, n_right, initial)
    assert all(match_right[j] == u for u, j in enumerate(match_left) if j != -1)
    assert all(match_left[u] == j for j, u in enumerate(match_right) if u != -1)
    assert all(j in adj[u] for u, j in enumerate(match_left) if j != -1)
    assert sum(j != -1 for j in match_left) == sum(j != -1 for j in cold_left)
    assert hopcroft_karp(adj, n_right, *rooted) == (match_left, match_right)


@settings(max_examples=80)
@given(bipartite_graphs(max_side=6), st.randoms(use_true_random=False))
def test_warm_started_hopcroft_karp_on_random_bipartite(data, rnd):
    g, left, right = data
    nl = len(left)
    check_warm_start([[w - nl for w in g.adj[u]] for u in range(nl)], len(right), rnd)


@pytest.mark.parametrize(("n", "c"), [(200, 2), (1000, 3), (1500, 5)])
def test_warm_started_hopcroft_karp_beyond_oracle_bound(n, c):
    # The host adjacency read as B(G), as the critical structure runs it.
    g = sparse_graph(n, c, seed=17 * n + c)
    check_warm_start(g.adj, n, random.Random(n + c))
