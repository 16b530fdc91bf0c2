import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critind import (
    MAX_ORACLE_BOUND,
    AnalysisReport,
    Decomposition,
    Graph,
    OracleBoundError,
    TheoremCheckResult,
    analyze,
    bipartite_gnp,
    difference,
    fixture,
    generate,
    gnp,
    is_independent,
    label_set,
    neighborhood,
)
from critind import analysis, critical, matching, oracle
from critind.cli import corpus_specs
from strategies import graphs, mask_members, permuted, sparse_graph, vertex_mask

EXPECTED_CHECK_IDS = [
    "B", "C", "K", "L1", "L2", "L4", "L4-matching",
    "T1", "T2", "T3", "T4", "T5", "T7",
]


class TestVerdicts:
    def test_g1_all_true(self, g1):
        v = analyze(g1).verdicts
        assert v.by_definition and v.by_all_mis_critical
        assert v.by_diadem_corona and v.by_counting
        assert v.agree and v.is_ke

    def test_g2_all_false(self, g2):
        v = analyze(g2).verdicts
        assert not (v.by_definition or v.by_all_mis_critical or v.by_diadem_corona or v.by_counting)
        assert v.agree and not v.is_ke

    def test_k0_all_true(self, k0):
        v = analyze(k0).verdicts
        assert v.agree and v.is_ke

    def test_bound_refusal(self):
        with pytest.raises(OracleBoundError):
            analyze(gnp(25, 0.2, 1), require_oracle=True)
        assert analyze(gnp(25, 0.2, 1)).verdicts is None

    @settings(max_examples=30)
    @given(graphs(max_n=9))
    def test_all_four_agree(self, g):
        assert analyze(g, include_checks=False).verdicts.agree

    def test_bipartite_always_ke(self):
        for seed in range(10):
            g = bipartite_gnp(4, 5, 0.5, seed)
            assert analyze(g, include_checks=False).verdicts.is_ke


class TestVerifyTheorems:
    def test_check_ids(self, g1):
        checks = analyze(g1).checks
        assert [c.id for c in checks] == EXPECTED_CHECK_IDS

    def test_g2_all_hold_with_vacuous_ke_checks(self, g2):
        by_id = {c.id: c for c in analyze(g2).checks}
        assert all(c.holds for c in by_id.values())
        assert not by_id["T4"].applicable
        assert not by_id["T5"].applicable
        assert "not applicable" in by_id["T4"].detail["reason"]
        # Strict instance of the counting bound: 8 < 10.
        assert by_id["T7"].detail["nucleus_plus_diadem"] == 8
        assert by_id["T7"].detail["two_alpha"] == 10

    def test_g1_tight_counting(self, g1):
        by_id = {c.id: c for c in analyze(g1).checks}
        assert by_id["T5"].applicable and by_id["T5"].holds
        assert by_id["T5"].detail["nucleus_plus_diadem"] == 8
        assert by_id["T5"].detail["two_alpha"] == 8

    def test_gf_corollary_chain_values(self, gf):
        by_id = {c.id: c for c in analyze(gf).checks}
        assert by_id["C"].holds
        assert by_id["C"].detail["nucleus_plus_diadem"] == 6
        assert by_id["C"].detail["two_alpha"] == 10
        assert by_id["C"].detail["core_plus_corona"] == 10

    def test_g2_l4_matching_witness(self, g2):
        by_id = {c.id: c for c in analyze(g2).checks}
        assert by_id["L4-matching"].holds
        # nucleus(G) \ nucleus(G[X]) = {d} saturates into diadem(G[X]) \ diadem(G) = {g}.
        assert by_id["L4-matching"].detail["A"] == g2.indices("d")
        assert by_id["L4-matching"].detail["target"] == g2.indices("g")
        assert by_id["L4-matching"].detail["saturated"] == 1

    def test_k0_all_hold(self, k0):
        checks = analyze(k0).checks
        assert all(c.holds for c in checks)

    @settings(max_examples=40)
    @given(graphs(max_n=9))
    def test_every_check_holds(self, g):
        assert all(c.holds for c in analyze(g).checks)


@settings(max_examples=40)
@given(graphs(max_n=9))
def test_fast_oracle_consistency_holds(g):
    assert all(c.holds for c in analyze(g).consistency)


class TestAnalyze:
    def test_g1_report(self, g1):
        r = analyze(g1)
        assert label_set(g1, r.ker) == ["a", "b"]
        assert label_set(g1, r.nucleus) == ["a", "b", "d"]
        assert label_set(g1, r.core) == ["a", "b", "d"]
        assert label_set(g1, r.diadem) == ["a", "b", "c", "d", "f"]
        assert label_set(g1, r.corona) == ["a", "b", "c", "d", "f"]
        assert r.verdicts.is_ke and r.verdicts.agree
        assert r.ok

    def test_gf_report(self, gf):
        r = analyze(gf)
        assert label_set(gf, r.nucleus) == ["a", "b", "c"]
        assert label_set(gf, r.core) == ["a", "b", "c", "h"]
        assert r.alpha == 5 and r.mu == 4 and r.d == 1

    def test_skip_checks(self, g1):
        r = analyze(g1, include_checks=False)
        assert r.checks is None and r.consistency is None
        assert r.verdicts is not None
        assert r.ok  # verdict agreement is still enforced

    def test_oracle_skipped_beyond_bound(self, gf):
        r = analyze(gf, oracle_bound=5)
        assert not r.oracle_applied
        assert r.alpha is None and r.verdicts is None and r.checks is None
        assert r.d == 1 and len(r.decomposition.I) == 3
        assert r.ok

    def test_require_oracle_raises(self, gf):
        with pytest.raises(OracleBoundError):
            analyze(gf, oracle_bound=5, require_oracle=True)

    def test_require_oracle_refuses_before_any_work(self):
        g = sparse_graph(5000, 4, seed=3)
        with pytest.raises(OracleBoundError):
            analyze(g, require_oracle=True)
        assert not g._derived

    def test_oracle_bound_above_cap_refused_before_any_work(self):
        g = gnp(8, 0.5, seed=7)
        with pytest.raises(ValueError, match=f"at most {MAX_ORACLE_BOUND}"):
            analyze(g, oracle_bound=MAX_ORACLE_BOUND + 1)
        assert not g._derived

    def test_json_shape_full(self, g1):
        doc = analyze(g1).to_json_dict()
        json.dumps(doc)  # must be serializable
        assert doc["graph"] == {"n": 7, "m": 7}
        assert doc["alpha"] == 4
        assert doc["verdicts"]["agree"] is True
        assert doc["ke"] is True
        assert doc["decomposition"]["Xc"] == []
        assert [c["id"] for c in doc["checks"]] == EXPECTED_CHECK_IDS
        assert doc["ok"] is True
        assert set(doc["timings"]) == {"polynomial", "oracle", "checks"}

    def test_json_shape_skipped(self, gf):
        doc = analyze(gf, oracle_bound=5).to_json_dict()
        json.dumps(doc)
        assert doc["oracle"] == {"applied": False, "bound": 5}
        assert doc["alpha"] == {"skipped": True}
        assert doc["core"] == {"skipped": True}
        assert doc["verdicts"] == {"skipped": True}
        assert doc["checks"] == {"skipped": True}
        assert doc["ke"] == {"skipped": True}
        assert doc["diadem"] == ["a", "b", "c"]

    def test_text_digest(self, gf):
        text = analyze(gf).to_text()
        assert "nucleus {a,b,c}" in text
        assert "core {a,b,c,h}" in text
        assert "ke false" in text
        assert "ok true" in text

    def test_text_digest_skipped(self, gf):
        text = analyze(gf, oracle_bound=5).to_text()
        assert "alpha skipped" in text
        assert "verdicts skipped" in text

    def test_failed_check_breaks_ok(self, g1):
        r = analyze(g1)
        r.checks = list(r.checks) + [
            TheoremCheckResult("FAKE", holds=False, detail={})
        ]
        assert not r.ok
        assert "FAILED FAKE" in r.to_text()

    def test_verdict_disagreement_breaks_ok(self, g1):
        r = analyze(g1)
        r.verdicts = dataclasses.replace(r.verdicts, by_counting=not r.verdicts.by_counting)
        assert r.failures == ["verdict-agreement"]
        assert not r.ok
        assert "ok false" in r.to_text()

    def test_report_without_oracle_is_ok(self, g1):
        r = AnalysisReport(
            graph=g1,
            d=1,
            mu=3,
            decomposition=Decomposition(frozenset(), frozenset(), frozenset(range(7))),
            diadem=frozenset(),
            oracle_applied=False,
            oracle_bound=0,
        )
        assert r.ok


def test_analyze_disconnected_mixed():
    # A graph with both a KE component and an odd-cycle component.
    g = Graph(
        ["a", "b", "x", "y", "z"],
        [(0, 1), (2, 3), (3, 4), (2, 4)],
    )
    r = analyze(g)
    assert r.ok
    assert not r.verdicts.is_ke  # triangle component breaks KE
    assert label_set(g, r.decomposition.X) == ["a", "b"]
    assert label_set(g, r.decomposition.Xc) == ["x", "y", "z"]


def test_analyze_runs_one_matching_and_builds_no_double(monkeypatch):
    # Every answer comes from the one blossom and the one Hopcroft-Karp
    # behind the cached structure, the latter seeded with the doubled
    # blossom matching; the double and the Konig cover are cross-checks only.
    # The checks run the matching kernels on index lists, so no Graph of
    # analysis.py's own is built and no reference wrapper runs.
    def refuse(*args, **kwargs):
        raise AssertionError("production path reached a cross-check")

    for name in ("bipartite_double", "max_matching_bipartite", "min_vertex_cover_bipartite"):
        monkeypatch.setattr(critical, name, refuse)
    for name in ("max_matching_general", "max_matching_bipartite"):
        monkeypatch.setattr(matching, name, refuse)
    monkeypatch.setattr(analysis, "Graph", refuse)
    calls = []
    mates = []
    kernel = critical.hopcroft_karp
    blossom = critical.blossom

    def counted(*args):
        calls.append([side[:] for side in args[2]] if len(args) > 2 else None)
        return kernel(*args)

    def counted_blossom(adj):
        mate, roots = blossom(adj)
        mates.append(mate[:])
        return mate, roots

    monkeypatch.setattr(critical, "hopcroft_karp", counted)
    monkeypatch.setattr(critical, "blossom", counted_blossom)
    inputs = [fixture(name) for name in ("G1", "G2", "GF")]
    inputs += [generate(spec) for spec in corpus_specs(50, 0, 12, [0.1, 0.3, 0.5, 0.8], 20260809)]
    for g in inputs:
        calls.clear()
        mates.clear()
        assert analyze(g, include_checks=True).ok
        assert len(calls) == 1
        assert len(mates) == 1
        assert calls[0] == [mates[0], mates[0]]


@pytest.mark.parametrize(
    "g, x_size, profile_sizes, family_sizes, blossom_sizes",
    [
        # X = V: G[X] is G, and G[Xc] is empty; mu(G[X]) is the report's mu.
        (Graph([f"v{i}" for i in range(6)], [(0, 1), (2, 3), (4, 5)]), 6, [6, 0], [6], []),
        # X empty: G[Xc] is G, and G[X] is empty.
        (Graph(["x", "y", "z"], [(0, 1), (1, 2), (0, 2)]), 0, [3, 0], [3, 0], [0]),
        # Proper splits: G[X] and G[Xc] are graphs of their own. No nonempty
        # independent set of G[Xc] has difference >= 0, so each of its
        # vertices has two neighbors in it: Xc has at least 3 vertices, as
        # the triangle beside an edge has.
        (fixture("GF"), 5, [10, 5, 5], [10, 5], [5]),
        (
            Graph(["a", "b", "x", "y", "z"], [(0, 1), (2, 3), (3, 4), (2, 4)]),
            2, [5, 3, 2], [5, 2], [2],
        ),
    ],
    ids=["x-is-v", "x-is-empty", "proper-split", "smallest-xc"],
)
def test_oracle_runs_once_per_distinct_graph(
    monkeypatch, g, x_size, profile_sizes, family_sizes, blossom_sizes
):
    sizes = {"independence_profile": [], "critical_family": []}
    for name, seen in sizes.items():
        search = getattr(oracle, name)

        def counted(h, search=search, seen=seen):
            seen.append(h.n)
            return search(h)

        monkeypatch.setattr(oracle, name, counted)
    # analysis calls matching.blossom through the module; the polynomial
    # layer holds its own reference, so only the checks' calls land here.
    blossom_seen = []
    blossom = matching.blossom

    def counted_blossom(adj):
        blossom_seen.append(len(adj))
        return blossom(adj)

    monkeypatch.setattr(matching, "blossom", counted_blossom)
    report = analyze(g, include_checks=True)
    assert report.ok
    assert len(report.decomposition.X) == x_size
    assert sorted(sizes["independence_profile"], reverse=True) == profile_sizes
    assert sorted(sizes["critical_family"], reverse=True) == family_sizes
    assert blossom_seen == blossom_sizes


@pytest.mark.parametrize(
    "g, builds",
    [
        (Graph([f"v{i}" for i in range(6)], [(0, 1), (2, 3), (4, 5)]), [6, 0]),
        (Graph(["x", "y", "z"], [(0, 1), (1, 2), (0, 2)]), [3, 0]),
        (fixture("GF"), [10, 5, 5]),
        (Graph(["a", "b", "x", "y", "z"], [(0, 1), (2, 3), (3, 4), (2, 4)]), [5, 3, 2]),
    ],
    ids=["x-is-v", "x-is-empty", "proper-split", "smallest-xc"],
)
def test_checked_analyze_builds_masks_once_per_distinct_graph(monkeypatch, g, builds):
    # The cases of test_oracle_runs_once_per_distinct_graph: G, and G[X] and
    # G[Xc] where they are not G. Each distinct (graph, masks) pair a call
    # returns is one build; the calls list keeps both alive, so no id is reused.
    calls = []
    real = oracle.adjacency_masks

    def counted(h):
        masks = real(h)
        calls.append((h, masks))
        return masks

    monkeypatch.setattr(oracle, "adjacency_masks", counted)
    assert analyze(g, include_checks=True).ok
    built = {(id(h), id(masks)): h.n for h, masks in calls}
    assert sorted(built.values(), reverse=True) == builds


@settings(max_examples=100)
@given(graphs(max_n=10), st.data())
def test_mask_set_tests_match_the_graph_functions(g, data):
    # The set tests behind L1, T2, EQ-mcis-valid and EQ-find-critical.
    adj = oracle.adjacency_masks(g)
    for m in data.draw(st.lists(st.integers(0, (1 << g.n) - 1), min_size=1, max_size=8)):
        s = mask_members(m)
        assert oracle.vertex_mask(s) == m
        nb = neighborhood(g, s)
        assert analysis._nbr_mask(adj, m) == vertex_mask(nb)
        assert analysis._closed_nbr_mask(adj, m) == vertex_mask(s | nb)
        d = difference(g, s)
        assert analysis._is_critical_witness(adj, m, d) == is_independent(g, s)
        assert not analysis._is_critical_witness(adj, m, d + 1)
        assert not analysis._is_critical_witness(adj, m, d - 1)


def _containers(value):
    """Every list and dict inside a JSON document, outermost first."""
    if isinstance(value, (dict, list)):
        yield value
        for item in value.values() if isinstance(value, dict) else value:
            yield from _containers(item)


def test_checked_analyze_renders_no_labels(monkeypatch):
    rendered = []

    def counted(g, s):
        rendered.append(frozenset(s))
        return label_set(g, s)

    monkeypatch.setattr(analysis, "label_set", counted)
    inputs = [fixture(name) for name in ("G1", "G2", "GF")]
    inputs += [generate(spec) for spec in corpus_specs(200, 0, 12, [0.1, 0.3, 0.5, 0.8], 20261020)]
    for g in inputs:
        rendered.clear()
        report = analyze(g, include_checks=True)
        assert report.ok
        assert rendered == [], "a checked analyze renders no labels"
        # Serializing renders through analysis.label_set and hands out fresh
        # lists and dicts, timings included: changing one changes no later
        # report.
        doc = report.to_json_dict()
        assert rendered, "to_json_dict renders its vertex sets through analysis.label_set"
        before, text, timings = json.dumps(doc), report.to_text(), dict(report.timings)
        for found in list(_containers(doc)):
            if isinstance(found, dict):
                found["changed"] = 1.0
            else:
                found.append("changed")
        assert json.dumps(report.to_json_dict()) == before
        assert report.to_text() == text
        assert report.timings == timings


# Labels that JSON must escape, or that are not ASCII.
_AWKWARD_LABELS = st.text(st.sampled_from('"\\éß中😀Ωa0'), min_size=1, max_size=3)


@settings(max_examples=60)
@given(graphs(max_n=10), st.data())
def test_check_details_render_frozensets_alone(g, data):
    labels = data.draw(st.lists(_AWKWARD_LABELS, min_size=g.n, max_size=g.n, unique=True))
    h = permuted(Graph(labels, g.edges()), data.draw(st.randoms(use_true_random=False)))
    report = analyze(h)
    doc = report.to_json_dict()
    loaded = json.loads(json.dumps(doc, indent=2))
    for key in ("checks", "consistency"):
        group = getattr(report, key)
        assert len(doc[key]) == len(loaded[key]) == len(group)
        for c, got, back in zip(group, doc[key], loaded[key]):
            assert list(got) == ["id", "holds", "applicable", "detail"]
            assert (got["id"], got["holds"], got["applicable"]) == (c.id, c.holds, c.applicable)
            assert list(got["detail"]) == list(c.detail)
            for name, value in c.detail.items():
                if isinstance(value, frozenset):
                    assert got["detail"][name] == label_set(h, value)
                    assert h.indices(back["detail"][name]) == value
                else:
                    # A vertex set is never held rendered or as a mutable set.
                    assert not isinstance(value, (list, set))
                    assert got["detail"][name] is value


@st.composite
def _beside_g2(draw):
    """A small graph beside a copy of G2, whose L4 witness is nonempty, with
    the vertex order shuffled."""
    g = draw(graphs(max_n=6))
    g2 = fixture("G2")
    labels = list(g.labels) + ["g2" + label for label in g2.labels]
    edges = g.edges() + [(g.n + u, g.n + v) for u, v in g2.edges()]
    return permuted(Graph(labels, edges), draw(st.randoms(use_true_random=False)))


@settings(max_examples=60)
@given(graphs(max_n=10) | _beside_g2())
def test_l4_matching_witness_pairs_are_edges_from_a_to_target(g):
    # The witness comes straight from hopcroft_karp on index lists, which
    # nothing validates, so check each pair against G here.
    # A and target are index sets; the matching holds label pairs.
    detail = {c.id: c for c in analyze(g).checks}["L4-matching"].detail
    a_side, target = detail["A"], detail["target"]
    ends = [g.index_of(v) for pair in detail["matching"] for v in pair]
    assert len(ends) == len(set(ends)) == 2 * detail["saturated"]
    for x, y in zip(ends[::2], ends[1::2]):
        u, w = (x, y) if x in a_side else (y, x)
        assert u in a_side and w in target
        assert g.has_edge(u, w)
