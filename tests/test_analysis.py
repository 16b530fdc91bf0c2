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
    fixture,
    generate,
    gnp,
    label_set,
)
from critind import analysis, critical, matching
from critind.cli import corpus_specs
from strategies import graphs, permuted, sparse_graph

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
        assert by_id["L4-matching"].detail["A"] == ["d"]
        assert by_id["L4-matching"].detail["target"] == ["g"]
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
        assert g not in critical._structures

    def test_oracle_bound_above_cap_refused_before_any_work(self):
        g = gnp(8, 0.5, seed=7)
        with pytest.raises(ValueError, match=f"at most {MAX_ORACLE_BOUND}"):
            analyze(g, oracle_bound=MAX_ORACLE_BOUND + 1)
        assert g not in critical._structures

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
    detail = {c.id: c for c in analyze(g).checks}["L4-matching"].detail
    a_side, target = set(detail["A"]), set(detail["target"])
    ends = [v for pair in detail["matching"] for v in pair]
    assert len(ends) == len(set(ends)) == 2 * detail["saturated"]
    for x, y in detail["matching"]:
        u, w = (x, y) if x in a_side else (y, x)
        assert u in a_side and w in target
        assert g.has_edge(g.index_of(u), g.index_of(w))
