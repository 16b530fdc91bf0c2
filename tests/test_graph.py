import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critind import (
    GeneratorSpec,
    Graph,
    ParseError,
    bipartite_gnp,
    difference,
    disjoint_union,
    fixture,
    generate,
    gnp,
    induced_subgraph,
    is_independent,
    label_set,
    neighborhood,
    parse_graph,
    to_edge_list,
)
from strategies import graphs

G1_TEXT = "7 7\na e\nb e\nc e\nc f\nc g\nd g\nf g"


class TestParseEdgeList:
    def test_g1_from_text(self):
        g = parse_graph(G1_TEXT)
        assert g.n == 7
        assert g.m == 7
        # Labels appear in first-appearance order.
        assert g.labels == ("a", "e", "b", "c", "f", "g", "d")

    def test_isolated_vertex_declaration(self):
        g = parse_graph("1 0\nz")
        assert g.n == 1
        assert g.m == 0
        assert g.labels == ("z",)

    def test_duplicate_edge_collapses(self):
        g = parse_graph("2 2\na b\nb a")
        assert g.n == 2
        assert g.m == 1

    def test_empty_graph(self):
        g = parse_graph("0 0")
        assert g.n == 0
        assert g.m == 0

    def test_comments_and_blank_lines(self):
        g = parse_graph("# hi\n\n2 1  # counts\na b # edge\n")
        assert (g.n, g.m) == (2, 1)

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            parse_graph("nope")
        with pytest.raises(ParseError):
            parse_graph("2")
        with pytest.raises(ParseError):
            parse_graph("-1 0")

    def test_self_loop_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("2 2\na b\na a")

    def test_label_beyond_declared_count(self):
        with pytest.raises(ParseError, match="unknown label"):
            parse_graph("2 2\na b\na c")

    def test_vertex_count_mismatch(self):
        with pytest.raises(ParseError, match="vertices"):
            parse_graph("3 1\na b")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError, match="edges"):
            parse_graph("2 2\na b")

    def test_too_many_tokens(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("3 1\na b c")


class TestParseDimacs:
    def test_basic(self):
        g = parse_graph("c comment\np edge 3 2\ne 1 2\ne 2 3", format="dimacs")
        assert g.labels == ("1", "2", "3")
        assert g.m == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_index_out_of_range(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("p edge 2 1\ne 1 3", format="dimacs")

    def test_self_loop(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_graph("p edge 2 1\ne 2 2", format="dimacs")

    def test_edge_before_header(self):
        with pytest.raises(ParseError):
            parse_graph("e 1 2\np edge 2 1", format="dimacs")

    def test_unknown_line(self):
        with pytest.raises(ParseError):
            parse_graph("p edge 2 1\nq 1 2", format="dimacs")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_graph("0 0", format="csv")


class TestGraphConstruction:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            Graph(["a", "a"], [])

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Graph(["a b"], [])
        with pytest.raises(ValueError):
            Graph([""], [])

    @settings(max_examples=300)
    @given(
        st.text()
        | st.text(st.sampled_from([chr(c) for c in range(0x3001) if chr(c).isspace()] + ["a", "#"]))
    )
    def test_label_check_matches_per_character_whitespace_test(self, name):
        # The reference is the per-character test the constructor once ran.
        bad = not name or any(ch.isspace() for ch in name) or "#" in name
        try:
            Graph([name], [])
        except ValueError:
            assert bad
        else:
            assert not bad

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(["a", "b"], [(0, 0)])

    def test_adjacency_symmetric_and_deduplicated(self):
        g = Graph(["a", "b"], [(0, 1), (1, 0)])
        assert g.m == 1
        assert g.adj[0] == (1,) and g.adj[1] == (0,)


class TestSetPrimitives:
    def test_neighborhood_g1(self, g1):
        assert neighborhood(g1, g1.indices("ab")) == g1.indices("e")

    def test_neighborhood_empty(self, g1):
        assert neighborhood(g1, []) == frozenset()

    def test_neighborhood_gf(self, gf):
        assert neighborhood(gf, gf.indices("abc")) == gf.indices("de")

    def test_neighborhood_out_of_range(self, g1):
        with pytest.raises(IndexError):
            neighborhood(g1, [99])

    def test_difference(self, gf, g2):
        assert difference(gf, gf.indices("abc")) == 1
        assert difference(gf, []) == 0
        assert difference(g2, g2.indices("abcd")) == 1

    def test_difference_negative(self, k3):
        assert difference(k3, [0]) == -1

    def test_is_independent(self, g1):
        assert is_independent(g1, g1.indices("abdf"))
        assert not is_independent(g1, g1.indices("fg"))
        assert is_independent(g1, [])

    def test_induced_gf_xc(self, gf):
        sub, back = induced_subgraph(gf, gf.indices("fghij"))
        assert sub.n == 5
        assert sub.m == 8
        assert [gf.labels[v] for v in back] == sorted("fghij")

    def test_induced_full_is_identity(self, g1):
        sub, back = induced_subgraph(g1, range(g1.n))
        assert sub.n == g1.n and sub.m == g1.m
        assert back == tuple(range(g1.n))

    def test_induced_empty_is_k0(self, g1):
        sub, _ = induced_subgraph(g1, [])
        assert sub.n == 0 and sub.m == 0

    def test_label_set_sorted(self, g1):
        assert label_set(g1, g1.indices("gcb")) == ["b", "c", "g"]


@settings(max_examples=60)
@given(graphs(max_n=14))
def test_induced_subgraph_exhaustive_pair_scan(g):
    keep = frozenset(v for v in range(g.n) if v % 2 == 0)
    sub, back = induced_subgraph(g, keep)
    for i in range(sub.n):
        for j in range(i + 1, sub.n):
            assert sub.has_edge(i, j) == g.has_edge(back[i], back[j])


@settings(max_examples=60)
@given(graphs(max_n=12))
def test_difference_matches_definition(g):
    rng = random.Random(g.n * 31 + g.m)
    s = frozenset(v for v in range(g.n) if rng.random() < 0.5)
    assert difference(g, s) == len(s) - len(neighborhood(g, s))


@settings(max_examples=60)
@given(graphs(max_n=12))
def test_edge_list_round_trip(g):
    back = parse_graph(to_edge_list(g))
    assert set(back.labels) == set(g.labels)
    original = {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges()}
    reparsed = {frozenset((back.labels[u], back.labels[v])) for u, v in back.edges()}
    assert original == reparsed


class TestGenerators:
    def test_fixture_g2(self):
        g = generate(GeneratorSpec("fixture", fixture="G2"))
        assert g.n == 10 and g.m == 11

    def test_fixture_unknown(self):
        with pytest.raises(ValueError):
            fixture("G9")

    def test_gnp_zero_probability(self):
        g = gnp(5, 0.0, seed=1)
        assert g.n == 5 and g.m == 0

    def test_gnp_full_probability(self):
        g = gnp(5, 1.0, seed=1)
        assert g.m == 10

    def test_gnp_deterministic(self):
        a = gnp(20, 0.3, seed=7)
        b = gnp(20, 0.3, seed=7)
        assert a.edges() == b.edges()

    def test_gnp_seed_changes_graph(self):
        a = gnp(20, 0.5, seed=1)
        b = gnp(20, 0.5, seed=2)
        assert a.edges() != b.edges()

    def test_gnp_invalid_probability(self):
        with pytest.raises(ValueError):
            gnp(5, 1.5, seed=1)
        with pytest.raises(ValueError):
            gnp(-1, 0.5, seed=1)

    def test_bipartite_complete(self):
        g = bipartite_gnp(3, 3, 1.0, seed=1)
        assert g.n == 6 and g.m == 9

    def test_disjoint_union_sizes(self):
        g = disjoint_union([3, 4], 1.0, seed=1)
        assert g.n == 7
        assert g.m == 3 + 6  # two cliques

    def test_generate_spec_determinism(self):
        spec = GeneratorSpec("disjoint_union", parts=(4, 5), p=0.4, seed=11)
        assert generate(spec).edges() == generate(spec).edges()

    def test_generate_bad_kind(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec("ladder", n=3))
