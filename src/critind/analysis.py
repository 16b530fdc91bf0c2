"""Konig-Egervary verdicts, whole-theorem verification, and report assembly.

The verdict is rendered four provably equivalent ways; a disagreement anywhere
is an implementation bug and is surfaced as a failed report, never swallowed.
Checks that need exponential enumeration run only within the oracle bound and
are otherwise reported as skipped, explicitly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from . import critical, matching, oracle
from .graph import Graph, difference, induced_subgraph, is_independent, label_set, neighborhood
from .oracle import DEFAULT_ORACLE_BOUND, CriticalFamily, IndependenceProfile

__all__ = [
    "KEVerdicts",
    "TheoremCheckResult",
    "AnalysisReport",
    "ke_verdicts",
    "verify_theorems",
    "fast_oracle_consistency",
    "analyze",
]


@dataclass(frozen=True)
class KEVerdicts:
    """The Konig-Egervary property decided four equivalent ways."""

    by_definition: bool          # alpha + mu == n
    by_all_mis_critical: bool    # every maximum independent set is critical
    by_diadem_corona: bool       # diadem == corona
    by_counting: bool            # |diadem| + |nucleus| == 2 alpha

    @property
    def agree(self) -> bool:
        return (
            self.by_definition
            == self.by_all_mis_critical
            == self.by_diadem_corona
            == self.by_counting
        )

    @property
    def is_ke(self) -> bool:
        return self.by_definition

    def to_json(self) -> dict[str, bool]:
        return {
            "by_definition": self.by_definition,
            "by_all_mis_critical": self.by_all_mis_critical,
            "by_diadem_corona": self.by_diadem_corona,
            "by_counting": self.by_counting,
            "agree": self.agree,
        }


@dataclass(frozen=True)
class TheoremCheckResult:
    """Outcome of one theorem/lemma check on a concrete graph."""

    id: str
    holds: bool
    applicable: bool = True
    detail: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "holds": self.holds,
            "applicable": self.applicable,
            "detail": self.detail,
        }


def _oracle_pieces(
    g: Graph, bound: int
) -> tuple[IndependenceProfile, CriticalFamily, int]:
    prof = oracle.independence_profile(g, bound)
    fam = oracle.critical_family(g, bound)
    mu = critical.matching_number(g)
    return prof, fam, mu


def ke_verdicts(g: Graph, bound: int = DEFAULT_ORACLE_BOUND) -> KEVerdicts:
    """All four verdicts; raises OracleBoundError beyond the oracle bound."""
    prof, fam, mu = _oracle_pieces(g, bound)
    return _verdicts_from(g, prof, fam, mu)


def _verdicts_from(
    g: Graph, prof: IndependenceProfile, fam: CriticalFamily, mu: int
) -> KEVerdicts:
    d = fam.d
    return KEVerdicts(
        by_definition=prof.alpha + mu == g.n,
        by_all_mis_critical=all(difference(g, s) == d for s in prof.omega_family),
        by_diadem_corona=fam.diadem == prof.corona,
        by_counting=len(fam.diadem) + len(fam.nucleus) == 2 * prof.alpha,
    )


def verify_theorems(g: Graph, bound: int = DEFAULT_ORACLE_BOUND) -> list[TheoremCheckResult]:
    """Run every theorem/lemma check on g; every holds flag must be true."""
    prof, fam, mu = _oracle_pieces(g, bound)
    decomp = critical.decompose(g)
    return _run_checks(g, prof, fam, mu, decomp, bound)


def _run_checks(
    g: Graph,
    prof: IndependenceProfile,
    fam: CriticalFamily,
    mu: int,
    decomp: critical.Decomposition,
    bound: int,
) -> list[TheoremCheckResult]:
    checks: list[TheoremCheckResult] = []
    d = fam.d
    alpha = prof.alpha
    ke = alpha + mu == g.n
    x, xc = decomp.X, decomp.Xc

    gx, back_x = induced_subgraph(g, x)
    gxc, _ = induced_subgraph(g, xc)
    prof_x = oracle.independence_profile(gx, bound)
    fam_x = oracle.critical_family(gx, bound)
    prof_xc = oracle.independence_profile(gxc, bound)
    mu_x = matching.max_matching_general(gx).size

    def lift(s: frozenset[int]) -> frozenset[int]:
        return frozenset(back_x[i] for i in s)

    nucleus_x = lift(fam_x.nucleus)
    diadem_x = lift(fam_x.diadem)

    # T1: KE iff every maximum independent set is critical.
    all_mis_critical = all(difference(g, s) == d for s in prof.omega_family)
    checks.append(
        TheoremCheckResult(
            "T1",
            ke == all_mis_critical,
            detail={"ke": ke, "all_mis_critical": all_mis_critical},
        )
    )

    # T2: the four decomposition properties of X.
    t2_i = alpha == prof_x.alpha + prof_xc.alpha
    t2_ii = prof_x.alpha + mu_x == gx.n
    t2_iii = oracle.max_independent_difference(gxc, bound) == 0
    t2_iv = all((s | neighborhood(g, s)) == x for s in fam.maximum_critical_independent)
    checks.append(
        TheoremCheckResult(
            "T2",
            t2_i and t2_ii and t2_iii and t2_iv,
            detail={
                "alpha_additive": t2_i,
                "gx_is_ke": t2_ii,
                "xc_no_positive_difference": t2_iii,
                "x_unique_over_all_witnesses": t2_iv,
                "X": label_set(g, x),
            },
        )
    )

    # T3: each critical independent set lies in some maximum one.
    t3 = all(
        any(s <= t for t in fam.maximum_critical_independent)
        for s in fam.all_critical_independent
    )
    checks.append(
        TheoremCheckResult(
            "T3", t3, detail={"critical_sets": len(fam.all_critical_independent)}
        )
    )

    # T4 (KE only): diadem == corona and |ker| + |diadem| <= 2 alpha.
    if ke:
        t4 = fam.diadem == prof.corona and len(fam.ker) + len(fam.diadem) <= 2 * alpha
        checks.append(
            TheoremCheckResult(
                "T4",
                t4,
                detail={
                    "diadem": label_set(g, fam.diadem),
                    "corona": label_set(g, prof.corona),
                    "ker_plus_diadem": len(fam.ker) + len(fam.diadem),
                    "two_alpha": 2 * alpha,
                },
            )
        )
    else:
        checks.append(
            TheoremCheckResult("T4", True, applicable=False, detail={"reason": "not applicable: non-KE"})
        )

    # T5 (KE only): |nucleus| + |diadem| == 2 alpha.
    counting = len(fam.nucleus) + len(fam.diadem)
    if ke:
        checks.append(
            TheoremCheckResult(
                "T5",
                counting == 2 * alpha,
                detail={"nucleus_plus_diadem": counting, "two_alpha": 2 * alpha},
            )
        )
    else:
        checks.append(
            TheoremCheckResult("T5", True, applicable=False, detail={"reason": "not applicable: non-KE"})
        )

    # T7: |nucleus| + |diadem| <= 2 alpha, for every graph.
    checks.append(
        TheoremCheckResult(
            "T7",
            counting <= 2 * alpha,
            detail={"nucleus_plus_diadem": counting, "two_alpha": 2 * alpha},
        )
    )

    # C: the full corollary chain through core and corona.
    chain_hi = len(prof.core) + len(prof.corona)
    checks.append(
        TheoremCheckResult(
            "C",
            counting <= 2 * alpha <= chain_hi,
            detail={
                "nucleus_plus_diadem": counting,
                "two_alpha": 2 * alpha,
                "core_plus_corona": chain_hi,
            },
        )
    )

    # L1: diadem and its neighborhood tile X exactly.
    checks.append(
        TheoremCheckResult(
            "L1",
            (fam.diadem | neighborhood(g, fam.diadem)) == x,
            detail={"diadem": label_set(g, fam.diadem), "X": label_set(g, x)},
        )
    )

    # L2: diadem(G) within diadem(G[X]); nucleus(G[X]) within nucleus(G).
    checks.append(
        TheoremCheckResult(
            "L2",
            fam.diadem <= diadem_x and nucleus_x <= fam.nucleus,
            detail={
                "diadem_gx": label_set(g, diadem_x),
                "nucleus_gx": label_set(g, nucleus_x),
            },
        )
    )

    # L4: the nucleus+diadem count never shrinks when passing to G[X].
    counting_x = len(fam_x.nucleus) + len(fam_x.diadem)
    checks.append(
        TheoremCheckResult(
            "L4",
            counting <= counting_x,
            detail={"in_g": counting, "in_gx": counting_x},
        )
    )

    # L4-matching: nucleus(G) \ nucleus(G[X]) admits a saturating matching
    # into diadem(G[X]) \ diadem(G).
    a_side = fam.nucleus - nucleus_x
    b_side = diadem_x - fam.diadem
    witness: list[list[str]] = []
    if a_side:
        verts = sorted(a_side | b_side)
        pos = {v: i for i, v in enumerate(verts)}
        cross = [
            (pos[u], pos[w])
            for u in a_side
            for w in g.adj[u]
            if w in b_side
        ]
        sub = Graph([g.labels[v] for v in verts], cross)
        parts = matching.BipartitePartition(
            frozenset(pos[v] for v in a_side), frozenset(pos[v] for v in b_side)
        )
        mm = matching.max_matching_bipartite(sub, parts)
        witness = sorted(sorted((sub.labels[u], sub.labels[v])) for u, v in mm.edges)
        sat = mm.size
        l4m = sat == len(a_side)
    else:
        sat = 0
        l4m = True
    checks.append(
        TheoremCheckResult(
            "L4-matching",
            l4m,
            detail={
                "A": label_set(g, a_side),
                "target": label_set(g, b_side),
                "saturated": sat,
                "matching": witness,
            },
        )
    )

    # K: ker within nucleus.
    checks.append(
        TheoremCheckResult(
            "K",
            fam.ker <= fam.nucleus,
            detail={"ker": label_set(g, fam.ker), "nucleus": label_set(g, fam.nucleus)},
        )
    )

    # B: diadem within corona.
    checks.append(
        TheoremCheckResult(
            "B",
            fam.diadem <= prof.corona,
            detail={"diadem": label_set(g, fam.diadem), "corona": label_set(g, prof.corona)},
        )
    )

    checks.sort(key=lambda c: c.id)
    return checks


def fast_oracle_consistency(
    g: Graph, bound: int = DEFAULT_ORACLE_BOUND
) -> list[TheoremCheckResult]:
    """Cross-check every polynomial path against the exhaustive oracle."""
    prof, fam, mu = _oracle_pieces(g, bound)
    return _run_consistency(g, prof, fam, mu, bound)


def _run_consistency(
    g: Graph, prof: IndependenceProfile, fam: CriticalFamily, mu: int, bound: int
) -> list[TheoremCheckResult]:
    checks: list[TheoremCheckResult] = []
    d_fast = critical.critical_difference(g)

    checks.append(
        TheoremCheckResult(
            "EQ-d",
            d_fast == fam.d,
            detail={"fast": d_fast, "oracle": fam.d},
        )
    )

    if g.n <= oracle.DEFAULT_SUBSET_SCAN_BOUND:
        over_all = oracle.max_difference_exhaustive(g, independent_only=False)
        over_ind = oracle.max_difference_exhaustive(g, independent_only=True)
        checks.append(
            TheoremCheckResult(
                "EQ-d-subsets",
                d_fast == over_all == over_ind,
                detail={"fast": d_fast, "all_subsets": over_all, "independent_subsets": over_ind},
            )
        )
    else:
        checks.append(
            TheoremCheckResult(
                "EQ-d-subsets", True, applicable=False, detail={"reason": "beyond subset-scan bound"}
            )
        )

    i_fast = critical.max_critical_independent_set(g)
    oracle_max = max((len(s) for s in fam.maximum_critical_independent), default=0)
    checks.append(
        TheoremCheckResult(
            "EQ-mcis-size",
            len(i_fast) == oracle_max,
            detail={"fast": len(i_fast), "oracle": oracle_max},
        )
    )
    checks.append(
        TheoremCheckResult(
            "EQ-mcis-valid",
            is_independent(g, i_fast) and difference(g, i_fast) == fam.d,
            detail={"I": label_set(g, i_fast)},
        )
    )

    s_found = critical.find_critical_independent_set(g)
    checks.append(
        TheoremCheckResult(
            "EQ-find-critical",
            is_independent(g, s_found) and difference(g, s_found) == fam.d,
            detail={"S": label_set(g, s_found)},
        )
    )

    diadem_fast = critical.diadem(g)
    checks.append(
        TheoremCheckResult(
            "EQ-diadem",
            diadem_fast == fam.diadem,
            detail={"fast": label_set(g, diadem_fast), "oracle": label_set(g, fam.diadem)},
        )
    )

    mu_oracle = oracle.mu_exact(g, bound)
    checks.append(
        TheoremCheckResult(
            "EQ-mu",
            mu == mu_oracle,
            detail={"blossom": mu, "oracle": mu_oracle},
        )
    )

    checks.sort(key=lambda c: c.id)
    return checks


@dataclass
class AnalysisReport:
    """Everything computed for one graph, JSON-serializable."""

    graph: Graph
    d: int
    mu: int
    decomposition: critical.Decomposition
    diadem: frozenset[int]
    oracle_applied: bool
    oracle_bound: int
    alpha: int | None = None
    core: frozenset[int] | None = None
    corona: frozenset[int] | None = None
    ker: frozenset[int] | None = None
    nucleus: frozenset[int] | None = None
    verdicts: KEVerdicts | None = None
    checks: list[TheoremCheckResult] | None = None
    consistency: list[TheoremCheckResult] | None = None
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """False only on an internal inconsistency, which is always a bug."""
        if not self.oracle_applied:
            return True
        assert self.verdicts is not None
        good = self.verdicts.agree
        for group in (self.checks, self.consistency):
            if group:
                good = good and all(c.holds for c in group)
        return good

    def _set(self, s: frozenset[int] | None) -> Any:
        if s is None:
            return {"skipped": True}
        return label_set(self.graph, s)

    def to_json_dict(self) -> dict[str, Any]:
        g = self.graph
        out: dict[str, Any] = {
            "graph": {"n": g.n, "m": g.m},
            "d": self.d,
            "mu": self.mu,
            "decomposition": {
                "I": label_set(g, self.decomposition.I),
                "X": label_set(g, self.decomposition.X),
                "Xc": label_set(g, self.decomposition.Xc),
            },
            "diadem": label_set(g, self.diadem),
            "oracle": {"applied": self.oracle_applied, "bound": self.oracle_bound},
            "alpha": self.alpha if self.alpha is not None else {"skipped": True},
            "core": self._set(self.core),
            "corona": self._set(self.corona),
            "ker": self._set(self.ker),
            "nucleus": self._set(self.nucleus),
            "verdicts": self.verdicts.to_json() if self.verdicts else {"skipped": True},
            "checks": (
                [c.to_json() for c in self.checks]
                if self.checks is not None
                else {"skipped": True}
            ),
            "consistency": (
                [c.to_json() for c in self.consistency]
                if self.consistency is not None
                else {"skipped": True}
            ),
            "ke": self.verdicts.is_ke if self.verdicts else {"skipped": True},
            "ok": self.ok,
            "timings": self.timings,
        }
        return out

    def to_text(self) -> str:
        g = self.graph

        def fmt(s: frozenset[int] | None) -> str:
            if s is None:
                return "skipped"
            return "{" + ",".join(label_set(g, s)) + "}"

        lines = [
            f"graph n={g.n} m={g.m}",
            f"d {self.d}",
            f"mu {self.mu}",
            f"I {fmt(self.decomposition.I)}",
            f"X {fmt(self.decomposition.X)}",
            f"Xc {fmt(self.decomposition.Xc)}",
            f"diadem {fmt(self.diadem)}",
            f"alpha {self.alpha if self.alpha is not None else 'skipped'}",
            f"core {fmt(self.core)}",
            f"corona {fmt(self.corona)}",
            f"ker {fmt(self.ker)}",
            f"nucleus {fmt(self.nucleus)}",
        ]
        if self.verdicts is not None:
            v = self.verdicts
            lines.append(
                "verdicts"
                f" by_definition={str(v.by_definition).lower()}"
                f" by_all_mis_critical={str(v.by_all_mis_critical).lower()}"
                f" by_diadem_corona={str(v.by_diadem_corona).lower()}"
                f" by_counting={str(v.by_counting).lower()}"
            )
            lines.append(f"ke {str(v.is_ke).lower()}")
        else:
            lines.append("verdicts skipped")
            lines.append("ke skipped")
        for name, group in (("checks", self.checks), ("consistency", self.consistency)):
            if group is None:
                lines.append(f"{name} skipped")
                continue
            applicable = [c for c in group if c.applicable]
            vacuous = len(group) - len(applicable)
            bad = [c.id for c in applicable if not c.holds]
            if bad:
                lines.append(f"{name} FAILED {','.join(bad)}")
            else:
                line = f"{name} {len(applicable)}/{len(applicable)} hold"
                if vacuous:
                    line += f" ({vacuous} not applicable)"
                lines.append(line)
        lines.append(f"ok {str(self.ok).lower()}")
        return "\n".join(lines) + "\n"


def analyze(
    g: Graph,
    oracle_bound: int = DEFAULT_ORACLE_BOUND,
    include_checks: bool = True,
    require_oracle: bool = False,
) -> AnalysisReport:
    """Assemble the full profile of g.

    Beyond the oracle bound only the polynomial fields are filled and the
    oracle-backed ones are marked skipped, unless require_oracle is set, in
    which case the refusal propagates as OracleBoundError.
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    decomp = critical.decompose(g)
    d = critical.critical_difference(g)
    diadem_fast = critical.diadem(g)
    mu = critical.matching_number(g)
    timings["polynomial"] = time.perf_counter() - t0

    use_oracle = g.n <= oracle_bound
    if require_oracle and not use_oracle:
        raise oracle.OracleBoundError(g.n, oracle_bound, "analyze")

    report = AnalysisReport(
        graph=g,
        d=d,
        mu=mu,
        decomposition=decomp,
        diadem=diadem_fast,
        oracle_applied=use_oracle,
        oracle_bound=oracle_bound,
        timings=timings,
    )
    if not use_oracle:
        return report

    t1 = time.perf_counter()
    prof = oracle.independence_profile(g, oracle_bound)
    fam = oracle.critical_family(g, oracle_bound)
    report.alpha = prof.alpha
    report.core = prof.core
    report.corona = prof.corona
    report.ker = fam.ker
    report.nucleus = fam.nucleus
    report.verdicts = _verdicts_from(g, prof, fam, mu)
    timings["oracle"] = time.perf_counter() - t1

    if include_checks:
        t2 = time.perf_counter()
        report.checks = _run_checks(g, prof, fam, mu, decomp, oracle_bound)
        report.consistency = _run_consistency(g, prof, fam, mu, oracle_bound)
        timings["checks"] = time.perf_counter() - t2
    return report
