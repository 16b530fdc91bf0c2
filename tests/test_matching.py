import pytest
from hypothesis import given, settings

from critind import (
    BipartitePartition,
    Graph,
    Matching,
    bipartite_double,
    bipartite_gnp,
    has_augmenting_path,
    hopcroft_karp,
    max_matching_bipartite,
    max_matching_general,
    min_vertex_cover_bipartite,
    mu_exact,
)
from strategies import bipartite_graphs, graphs


def path_graph(labels):
    return Graph(list(labels), [(i, i + 1) for i in range(len(labels) - 1)])


def cycle(n):
    return Graph([f"c{i}" for i in range(n)], [(i, (i + 1) % n) for i in range(n)])


class TestMatchingType:
    def test_rejects_non_edge(self, g1):
        with pytest.raises(ValueError):
            Matching(g1, [(0, 1)])  # a-b is not an edge of G1

    def test_rejects_incident_edges(self):
        g = path_graph("abc")
        with pytest.raises(ValueError):
            Matching(g, [(0, 1), (1, 2)])

    def test_saturation_queries(self):
        g = path_graph("abcd")
        m = Matching(g, [(1, 2)])
        assert m.size == 1
        assert m.saturated == {1, 2}
        assert m.partner(1) == 2 and m.partner(0) == -1
        assert m.is_saturated(2) and not m.is_saturated(3)
        assert m.sorted_edges() == [(1, 2)]


class TestBipartiteMatching:
    def test_double_of_g1(self, g1):
        dbl = bipartite_double(g1)
        m = max_matching_bipartite(dbl.double, dbl.parts)
        assert m.size == 6

    def test_star(self):
        g = Graph(["c", "l1", "l2", "l3"], [(0, 1), (0, 2), (0, 3)])
        parts = BipartitePartition(frozenset([0]), frozenset([1, 2, 3]))
        assert max_matching_bipartite(g, parts).size == 1

    def test_edgeless(self):
        g = Graph(["a", "b", "c"], [])
        parts = BipartitePartition(frozenset([0, 1]), frozenset([2]))
        assert max_matching_bipartite(g, parts).size == 0

    def test_invalid_partition_overlap(self, g1):
        parts = BipartitePartition(frozenset([0, 1]), frozenset(range(1, g1.n)))
        with pytest.raises(ValueError):
            max_matching_bipartite(g1, parts)

    def test_invalid_partition_not_covering(self):
        g = Graph(["a", "b", "c"], [])
        parts = BipartitePartition(frozenset([0]), frozenset([1]))
        with pytest.raises(ValueError):
            max_matching_bipartite(g, parts)

    def test_invalid_partition_internal_edge(self):
        g = path_graph("abc")
        parts = BipartitePartition(frozenset([0, 1]), frozenset([2]))
        with pytest.raises(ValueError):
            max_matching_bipartite(g, parts)

    def test_deterministic(self):
        g = bipartite_gnp(6, 6, 0.5, seed=3)
        parts = BipartitePartition(frozenset(range(6)), frozenset(range(6, 12)))
        assert max_matching_bipartite(g, parts).sorted_edges() == max_matching_bipartite(g, parts).sorted_edges()


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

    def test_k33_perfect(self):
        match_left, match_right = hopcroft_karp([[0, 1, 2]] * 3, 3)
        assert sorted(match_left) == sorted(match_right) == [0, 1, 2]
        assert all(match_right[j] == u for u, j in enumerate(match_left))


class TestKonigCover:
    def test_path(self):
        g = Graph(["a", "b", "c"], [(0, 1), (1, 2)])
        parts = BipartitePartition(frozenset([0, 2]), frozenset([1]))
        m = Matching(g, [(0, 1)])
        assert min_vertex_cover_bipartite(g, parts, m) == {1}

    def test_c4_perfect_matching(self):
        g = cycle(4)
        parts = BipartitePartition(frozenset([0, 2]), frozenset([1, 3]))
        m = max_matching_bipartite(g, parts)
        cover = min_vertex_cover_bipartite(g, parts, m)
        assert len(cover) == 2

    def test_double_of_gf(self, gf):
        dbl = bipartite_double(gf)
        m = max_matching_bipartite(dbl.double, dbl.parts)
        cover = min_vertex_cover_bipartite(dbl.double, dbl.parts, m)
        assert m.size == 9
        assert len(cover) == 9

    def test_detects_non_maximum_matching(self):
        g = Graph(["a", "b", "c", "d"], [(0, 1), (2, 3)])
        parts = BipartitePartition(frozenset([0, 2]), frozenset([1, 3]))
        undersized = Matching(g, [(0, 1)])
        with pytest.raises(ValueError, match="not maximum"):
            min_vertex_cover_bipartite(g, parts, undersized)


class TestGeneralMatching:
    def test_fixtures(self, g1, g2, gf, k3):
        assert max_matching_general(g1).size == 3
        assert max_matching_general(g2).size == 4
        assert max_matching_general(gf).size == 4
        assert max_matching_general(k3).size == 1

    def test_odd_cycles(self):
        assert max_matching_general(cycle(5)).size == 2
        assert max_matching_general(cycle(7)).size == 3

    def test_petersen(self):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        g = Graph([f"p{i}" for i in range(10)], outer + inner + spokes)
        assert max_matching_general(g).size == 5

    def test_two_triangles_bridge(self):
        # Blossoms on both sides of a bridge; perfect matching exists.
        g = Graph(
            list("abcdef"),
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
        )
        assert max_matching_general(g).size == 3

    def test_k0(self, k0):
        assert max_matching_general(k0).size == 0


class TestAugmentingPath:
    def test_maximum_has_none(self, g1, g2, gf, k3):
        for g in (g1, g2, gf, k3):
            m = max_matching_general(g)
            assert not has_augmenting_path(g, m)

    def test_path_with_middle_edge(self):
        g = path_graph("abcd")
        m = Matching(g, [(1, 2)])
        assert has_augmenting_path(g, m)

    def test_g2_with_submaximal_matching(self, g2):
        edges = [
            (g2.index_of("a"), g2.index_of("e")),
            (g2.index_of("c"), g2.index_of("f")),
            (g2.index_of("d"), g2.index_of("g")),
        ]
        m = Matching(g2, edges)
        assert has_augmenting_path(g2, m)

    def test_empty_matching_on_edgeless(self):
        g = Graph(["a", "b"], [])
        assert not has_augmenting_path(g, Matching(g, []))


@settings(max_examples=80)
@given(graphs(max_n=10))
def test_blossom_matches_oracle(g):
    m = max_matching_general(g)
    assert m.size == mu_exact(g)
    assert not has_augmenting_path(g, m)


@settings(max_examples=60)
@given(graphs(max_n=10))
def test_submaximal_matching_has_augmenting_path(g):
    m = max_matching_general(g)
    if not m.edges:
        return
    smaller = Matching(g, sorted(m.edges)[1:])
    assert has_augmenting_path(g, smaller)


@settings(max_examples=80)
@given(bipartite_graphs(max_side=5))
def test_konig_on_random_bipartite(data):
    g, left, right = data
    parts = BipartitePartition(left, right)
    m = max_matching_bipartite(g, parts)
    assert m.size == mu_exact(g)
    cover = min_vertex_cover_bipartite(g, parts, m)
    assert len(cover) == m.size
    for u, v in g.edges():
        assert u in cover or v in cover
    # The kernel on the same graph, right side renumbered from 0.
    nl = len(left)
    match_left, match_right = hopcroft_karp([[w - nl for w in g.adj[u]] for u in range(nl)], len(right))
    assert all(match_right[j] == u for u, j in enumerate(match_left) if j != -1)
    assert all(match_left[u] == j for j, u in enumerate(match_right) if u != -1)
    assert all(g.has_edge(u, nl + j) for u, j in enumerate(match_left) if j != -1)
    assert sum(j != -1 for j in match_left) == m.size
