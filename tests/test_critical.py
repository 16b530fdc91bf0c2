import gc
import random

import pytest
from hypothesis import given, settings

from critind import (
    ForcingConstraints,
    Graph,
    bipartite_double,
    critical_difference,
    critical_family,
    decompose,
    diadem,
    difference,
    extends_to_critical_independent,
    find_critical_independent_set,
    forced_difference,
    gnp,
    independence_profile,
    induced_subgraph,
    is_independent,
    label_set,
    max_critical_independent_set,
    max_difference_exhaustive,
    max_matching_bipartite,
    max_matching_general,
    min_vertex_cover_bipartite,
    neighborhood,
)
from critind import critical
from strategies import graphs, permuted, sparse_graph


def edgeless(n):
    return Graph([f"v{i}" for i in range(n)], [])


def konig_reference(g):
    """(cover, S): a minimum vertex cover of B(G), built on the double, and
    the originals it leaves out minus their neighbourhood."""
    dbl = bipartite_double(g)
    m = max_matching_bipartite(dbl.double, dbl.parts)
    cover = min_vertex_cover_bipartite(dbl.double, dbl.parts, m)
    x = frozenset(u for u in range(g.n) if u not in cover)
    return cover, x - neighborhood(g, x)


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
        dbl = bipartite_double(g)
        # 2n vertices and 2m edges: the mirror pair of every host edge.
        assert dbl.double.n == 4
        assert dbl.double.m == 2
        assert dbl.double.edges() == [(0, 3), (1, 2)]

    def test_edgeless(self):
        dbl = bipartite_double(edgeless(3))
        assert dbl.double.n == 6 and dbl.double.m == 0

    def test_g1_counts(self, g1):
        dbl = bipartite_double(g1)
        assert dbl.double.n == 14 and dbl.double.m == 14

    def test_no_edges_within_sides(self, gf):
        dbl = bipartite_double(gf)
        for u, v in dbl.double.edges():
            assert (u in dbl.parts.left) != (v in dbl.parts.left)

    def test_label_collision_resolved(self):
        g = Graph(["a", "a'"], [(0, 1)])
        dbl = bipartite_double(g)
        assert len(set(dbl.double.labels)) == 4


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
        assert forced_difference(gf, ForcingConstraints(force_in=gf.indices("a"))) == 1

    def test_empty_constraints_reduce_to_d(self, g1, g2, gf):
        for g in (g1, g2, gf):
            assert forced_difference(g, ForcingConstraints()) == critical_difference(g)

    def test_g2_force_j(self, g2):
        # Over all supersets of {j}: X = V \ {e} attains d = 1 (own brute
        # force; see test_matches_brute_force for the oracle).
        assert forced_difference(g2, ForcingConstraints(force_in=g2.indices("j"))) == 1

    def test_g2_force_j_out_neighbors(self, g2):
        c = ForcingConstraints(force_in=g2.indices("j"), force_out=g2.indices("hi"))
        assert forced_difference(g2, c) == 0

    def test_overlap_rejected(self, g1):
        with pytest.raises(ValueError):
            forced_difference(g1, ForcingConstraints(g1.indices("a"), g1.indices("ab")))

    def test_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 8)
            g = gnp(n, rng.choice([0.2, 0.4, 0.6]), rng.getrandbits(32))
            force_in = frozenset(rng.sample(range(n), rng.randint(0, min(2, n))))
            rest = [v for v in range(n) if v not in force_in]
            force_out = frozenset(rng.sample(rest, rng.randint(0, min(2, len(rest)))))
            got = forced_difference(g, ForcingConstraints(force_in, force_out))
            want = max(
                difference(g, s)
                for mask in range(1 << n)
                for s in [frozenset(v for v in range(n) if mask >> v & 1)]
                if force_in <= s and not (s & force_out)
            )
            assert got == want

    def test_force_in_monotone(self):
        rng = random.Random(6)
        for _ in range(40):
            g = gnp(rng.randint(1, 9), 0.4, rng.getrandbits(32))
            v = rng.randrange(g.n)
            base = forced_difference(g, ForcingConstraints())
            narrowed = forced_difference(g, ForcingConstraints(force_in=frozenset([v])))
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
                g, ForcingConstraints(j, neighborhood(g, j))
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
            expected = any(j <= s for s in fam.all_critical_independent)
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
        assert i_set in fam.maximum_critical_independent

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


@pytest.mark.parametrize(("n", "c"), [(200, 2), (500, 3), (800, 4), (1000, 5), (1500, 2), (1500, 3)])
def test_scans_match_closure_walk_beyond_oracle_bound(n, c):
    # Past the oracle bound, the bitset scans are checked against the
    # per-set closure walk behind extends_to_critical_independent.
    g = sparse_graph(n, c, seed=n + c)
    assert diadem(g) == frozenset(
        v for v in range(n) if extends_to_critical_independent(g, [v])
    )
    chosen: list[int] = []
    for v in range(n):
        if extends_to_critical_independent(g, chosen + [v]):
            chosen.append(v)
    assert max_critical_independent_set(g) == frozenset(chosen)


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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_d_matches_networkx_on_dense_graphs(seed):
    g = gnp(300, 0.3, seed)
    assert critical_difference(g) == networkx_d(g)


def test_structure_cache_frees_dropped_graphs():
    critical._structures.clear()
    g = sparse_graph(50, 2, seed=1)
    decompose(g)
    diadem(g)
    assert len(critical._structures) == 1
    del g
    gc.collect()
    assert len(critical._structures) == 0


@settings(max_examples=80)
@given(graphs(max_n=10))
def test_reduction_identity(g):
    d = critical_difference(g)
    assert d == max_difference_exhaustive(g, independent_only=False)
    assert d == max_difference_exhaustive(g, independent_only=True)
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


@settings(max_examples=80)
@given(graphs(max_n=10))
def test_greedy_matches_oracle_size(g):
    fam = critical_family(g)
    i_set = max_critical_independent_set(g)
    assert is_independent(g, i_set)
    assert difference(g, i_set) == fam.d
    assert len(i_set) == max((len(s) for s in fam.maximum_critical_independent), default=0)


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
    assert independence_profile(gx).alpha + max_matching_general(gx).size == gx.n
    assert max_difference_exhaustive(gxc, independent_only=True) == 0


@settings(max_examples=60)
@given(graphs(max_n=10))
def test_diadem_neighborhood_tiles_x(g):
    dia = diadem(g)
    assert dia | neighborhood(g, dia) == decompose(g).X
