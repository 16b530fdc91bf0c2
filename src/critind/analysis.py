"""Konig-Egervary verdicts, whole-theorem verification, and report assembly.

analyze is the one entry point. It computes each polynomial answer once
(d, mu, I, X and the diadem, from the critical structure G keeps once built),
then, within the oracle bound, the oracle's profile and critical family, the
four Konig-Egervary verdicts, and the theorem and consistency checks. The
checks read those answers from the report rather than recomputing them. They
run the oracle's profile and family again only on a G[X] or G[Xc] that is
neither G itself nor empty, since G[empty]'s are computed once, at import;
T2's own max_independent_difference search runs on every G[Xc]. Blossom runs
for mu(G[X]) only on a proper split (on X = V it is the report's mu).
augment_bipartite finds the L4 witness on index lists. The all-MIS verdict and
the set tests of T2, L1, EQ-mcis-valid and EQ-find-critical (independence,
d(S) and S + N(S)) run on G's adjacency masks, which oracle.adjacency_masks
builds once and G keeps. Check details, like the report's own fields, hold
vertex sets as frozensets of indices; to_json_dict alone renders them into
labels. Check records are plain slotted dataclasses. The verdict is rendered
four provably equivalent ways; a disagreement anywhere is an implementation
bug and is surfaced as a failed report, never swallowed. Beyond the oracle
bound the oracle-backed fields are reported as skipped, explicitly.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

from . import critical, matching, oracle
from .graph import Graph, induced_subgraph, label_set
from .oracle import DEFAULT_ORACLE_BOUND, MAX_ORACLE_BOUND, CriticalFamily, IndependenceProfile

__all__ = [
    "KEVerdicts",
    "TheoremCheckResult",
    "AnalysisReport",
    "analyze",
]


# The report's one marker for a field the oracle bound left unfilled.
_SKIPPED = {"skipped": True}

# The text report's lines after the graph line, in order.
_TEXT_FIELDS = (
    "d", "mu", "I", "X", "Xc", "diadem", "alpha", "core", "corona", "ker", "nucleus",
    "verdicts", "ke", "checks", "consistency", "ok",
)


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
        return {**asdict(self), "agree": self.agree}


@dataclass(slots=True)
class TheoremCheckResult:
    """Outcome of one theorem/lemma check on a concrete graph."""

    id: str
    holds: bool
    applicable: bool = True
    detail: dict[str, Any] = field(default_factory=dict)


# G[empty]'s oracle answers: the checks take them where X or Xc is empty.
_EMPTY = Graph((), ())
_EMPTY_PROF = oracle.independence_profile(_EMPTY)
_EMPTY_FAM = oracle.critical_family(_EMPTY)


def _result(id: str, holds: bool, **detail: Any) -> TheoremCheckResult:
    """A check that applies; detail keeps the keyword order."""
    return TheoremCheckResult(id, holds, detail=detail)


def _not_applicable(id: str, reason: str) -> TheoremCheckResult:
    return TheoremCheckResult(id, True, applicable=False, detail={"reason": reason})


def _nbr_mask(adj: tuple[int, ...], s: int) -> int:
    """N(S) as a mask, for S a mask over the adjacency masks adj."""
    out = 0
    while s:
        b = s & -s
        out |= adj[b.bit_length() - 1]
        s ^= b
    return out


def _closed_nbr_mask(adj: tuple[int, ...], s: int) -> int:
    """S + N(S) as a mask."""
    return s | _nbr_mask(adj, s)


def _is_critical_witness(adj: tuple[int, ...], s: int, d: int) -> bool:
    """True iff the mask S is independent and d(S) = d."""
    nb = _nbr_mask(adj, s)
    return not s & nb and s.bit_count() - nb.bit_count() == d


def _run_checks(
    report: AnalysisReport,
    prof: IndependenceProfile,
    fam: CriticalFamily,
    adj: tuple[int, ...],
) -> list[TheoremCheckResult]:
    checks: list[TheoremCheckResult] = []
    g = report.graph
    verdicts = report.verdicts
    assert verdicts is not None
    alpha = prof.alpha
    two_alpha = 2 * alpha
    ke = verdicts.is_ke
    x, xc = report.decomposition.X, report.decomposition.Xc

    # G[V] is G: same labels, index order and adjacency, so the deterministic
    # oracle's answers and mu there are the ones already computed for G.
    # G[empty] is _EMPTY, with mu 0 and an empty nucleus and diadem.
    if len(x) == g.n:
        prof_x, fam_x, mu_x = prof, fam, report.mu
        nucleus_x, diadem_x = fam.nucleus, fam.diadem
    elif x:
        gx, back_x = induced_subgraph(g, x)
        prof_x = oracle.independence_profile(gx)
        fam_x = oracle.critical_family(gx)
        mu_x = (gx.n - matching.blossom(gx.adj)[0].count(-1)) // 2
        nucleus_x = frozenset(back_x[i] for i in fam_x.nucleus)
        diadem_x = frozenset(back_x[i] for i in fam_x.diadem)
    else:
        prof_x, fam_x, mu_x = _EMPTY_PROF, _EMPTY_FAM, 0
        nucleus_x, diadem_x = fam_x.nucleus, fam_x.diadem
    if len(xc) == g.n:
        gxc, prof_xc = g, prof
    elif xc:
        gxc, _ = induced_subgraph(g, xc)
        prof_xc = oracle.independence_profile(gxc)
    else:
        gxc, prof_xc = _EMPTY, _EMPTY_PROF
    counting = len(fam.nucleus) + len(fam.diadem)

    # T1: KE iff every maximum independent set is critical.
    all_mis_critical = verdicts.by_all_mis_critical
    checks.append(_result("T1", ke == all_mis_critical, ke=ke, all_mis_critical=all_mis_critical))

    # T2: the four decomposition properties of X.
    t2_i = alpha == prof_x.alpha + prof_xc.alpha
    t2_ii = prof_x.alpha + mu_x == len(x)
    t2_iii = oracle.max_independent_difference(gxc) == 0
    x_mask = oracle.vertex_mask(x)
    t2_iv = all(_closed_nbr_mask(adj, s) == x_mask for s in fam.maximum_critical_independent)
    checks.append(
        _result(
            "T2",
            t2_i and t2_ii and t2_iii and t2_iv,
            alpha_additive=t2_i,
            gx_is_ke=t2_ii,
            xc_no_positive_difference=t2_iii,
            x_unique_over_all_witnesses=t2_iv,
            X=x,
        )
    )

    # T3: each critical independent set lies in some maximum one, that is, the
    # plane of critical sets lies inside the down-closure of the maximum ones.
    below_maximum = oracle.down_closure(oracle.subset_plane(g.n, fam.maximum_critical_independent))
    t3 = oracle.subset_plane(g.n, fam.all_critical_independent) & ~below_maximum == 0
    checks.append(_result("T3", t3, critical_sets=len(fam.all_critical_independent)))

    # T4 (KE only): diadem == corona and |ker| + |diadem| <= 2 alpha.
    # T5 (KE only): |nucleus| + |diadem| == 2 alpha.
    # The verdicts already hold both equalities.
    if ke:
        ker_plus_diadem = len(fam.ker) + len(fam.diadem)
        checks.append(
            _result(
                "T4",
                verdicts.by_diadem_corona and ker_plus_diadem <= two_alpha,
                diadem=fam.diadem,
                corona=prof.corona,
                ker_plus_diadem=ker_plus_diadem,
                two_alpha=two_alpha,
            )
        )
        checks.append(
            _result("T5", verdicts.by_counting, nucleus_plus_diadem=counting, two_alpha=two_alpha)
        )
    else:
        checks += [_not_applicable(c, "not applicable: non-KE") for c in ("T4", "T5")]

    # T7: |nucleus| + |diadem| <= 2 alpha, for every graph.
    checks.append(
        _result("T7", counting <= two_alpha, nucleus_plus_diadem=counting, two_alpha=two_alpha)
    )

    # C: the full corollary chain through core and corona.
    chain_hi = len(prof.core) + len(prof.corona)
    checks.append(
        _result(
            "C",
            counting <= two_alpha <= chain_hi,
            nucleus_plus_diadem=counting,
            two_alpha=two_alpha,
            core_plus_corona=chain_hi,
        )
    )

    # L1: diadem and its neighborhood tile X exactly.
    checks.append(
        _result(
            "L1",
            _closed_nbr_mask(adj, oracle.vertex_mask(fam.diadem)) == x_mask,
            diadem=fam.diadem,
            X=x,
        )
    )

    # L2: diadem(G) within diadem(G[X]); nucleus(G[X]) within nucleus(G).
    checks.append(
        _result(
            "L2",
            fam.diadem <= diadem_x and nucleus_x <= fam.nucleus,
            diadem_gx=diadem_x,
            nucleus_gx=nucleus_x,
        )
    )

    # L4: the nucleus+diadem count never shrinks when passing to G[X].
    counting_x = len(fam_x.nucleus) + len(fam_x.diadem)
    checks.append(_result("L4", counting <= counting_x, in_g=counting, in_gx=counting_x))

    # L4-matching: nucleus(G) \ nucleus(G[X]) admits a saturating matching
    # into diadem(G[X]) \ diadem(G). Both sides are numbered in index order.
    a_side = fam.nucleus - nucleus_x
    b_side = diadem_x - fam.diadem
    left = sorted(a_side)
    right = sorted(b_side)
    col = {w: j for j, w in enumerate(right)}
    match_left, _ = matching.augment_bipartite(
        [[col[w] for w in g.adj[u] if w in col] for u in left], len(right)
    )
    pairs = [(g.labels[u], g.labels[right[j]]) for u, j in zip(left, match_left) if j != -1]
    checks.append(
        _result(
            "L4-matching",
            len(pairs) == len(a_side),
            A=a_side,
            target=b_side,
            saturated=len(pairs),
            # Label pairs, as tuples: a serialized report shares them.
            matching=tuple(sorted(tuple(sorted(pair)) for pair in pairs)),
        )
    )

    # K: ker within nucleus.
    checks.append(_result("K", fam.ker <= fam.nucleus, ker=fam.ker, nucleus=fam.nucleus))

    # B: diadem within corona.
    checks.append(_result("B", fam.diadem <= prof.corona, diadem=fam.diadem, corona=prof.corona))

    checks.sort(key=lambda c: c.id)
    return checks


def _run_consistency(
    report: AnalysisReport,
    fam: CriticalFamily,
    adj: tuple[int, ...],
) -> list[TheoremCheckResult]:
    checks: list[TheoremCheckResult] = []
    g = report.graph
    d_fast = report.d

    checks.append(_result("EQ-d", d_fast == fam.d, fast=d_fast, oracle=fam.d))

    if g.n <= oracle.MAX_SUBSET_SCAN_BOUND:
        over_all, over_ind = oracle.max_difference_exhaustive(g)
        checks.append(
            _result(
                "EQ-d-subsets",
                d_fast == over_all == over_ind,
                fast=d_fast,
                all_subsets=over_all,
                independent_subsets=over_ind,
            )
        )
    else:
        checks.append(_not_applicable("EQ-d-subsets", "beyond subset-scan bound"))

    i_fast = report.decomposition.I
    oracle_max = max(map(int.bit_count, fam.maximum_critical_independent), default=0)
    checks.append(
        _result("EQ-mcis-size", len(i_fast) == oracle_max, fast=len(i_fast), oracle=oracle_max)
    )
    checks.append(
        _result(
            "EQ-mcis-valid",
            _is_critical_witness(adj, oracle.vertex_mask(i_fast), fam.d),
            I=i_fast,
        )
    )

    # find_critical_independent_set returns X_min, which is ker(G).
    s_found = critical.find_critical_independent_set(g)
    checks.append(
        _result(
            "EQ-find-critical",
            _is_critical_witness(adj, oracle.vertex_mask(s_found), fam.d) and s_found == fam.ker,
            S=s_found,
        )
    )

    checks.append(
        _result(
            "EQ-diadem",
            report.diadem == fam.diadem,
            fast=report.diadem,
            oracle=fam.diadem,
        )
    )

    mu_oracle = oracle.mu_exact(g)
    checks.append(_result("EQ-mu", report.mu == mu_oracle, blossom=report.mu, oracle=mu_oracle))

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
    def failures(self) -> list[str]:
        """Ids of the failed checks and consistency checks, plus
        "verdict-agreement" when the verdicts disagree. Each is a bug."""
        groups = (self.checks or [], self.consistency or [])
        bad = [c.id for group in groups for c in group if not c.holds]
        if self.verdicts is not None and not self.verdicts.agree:
            bad.append("verdict-agreement")
        return bad

    @property
    def ok(self) -> bool:
        """False only on an internal inconsistency, which is always a bug."""
        return not self.failures

    def to_json_dict(self) -> dict[str, Any]:
        g = self.graph

        def opt(value: Any, render: Callable[[Any], Any] = lambda v: v) -> Any:
            return dict(_SKIPPED) if value is None else render(value)

        def sets(value: Any) -> Any:
            # Vertex sets, and only they, are frozensets: they render as labels.
            return label_set(g, value) if isinstance(value, frozenset) else value

        def checks(group: list[TheoremCheckResult]) -> list[dict[str, Any]]:
            return [
                {
                    "id": c.id,
                    "holds": c.holds,
                    "applicable": c.applicable,
                    "detail": {k: sets(v) for k, v in c.detail.items()},
                }
                for c in group
            ]

        return {
            "graph": {"n": g.n, "m": g.m},
            "d": self.d,
            "mu": self.mu,
            "decomposition": {
                "I": sets(self.decomposition.I),
                "X": sets(self.decomposition.X),
                "Xc": sets(self.decomposition.Xc),
            },
            "diadem": sets(self.diadem),
            "oracle": {"applied": self.oracle_applied, "bound": self.oracle_bound},
            "alpha": opt(self.alpha),
            "core": opt(self.core, sets),
            "corona": opt(self.corona, sets),
            "ker": opt(self.ker, sets),
            "nucleus": opt(self.nucleus, sets),
            "verdicts": opt(self.verdicts, KEVerdicts.to_json),
            "checks": opt(self.checks, checks),
            "consistency": opt(self.consistency, checks),
            "ke": opt(self.verdicts, lambda v: v.is_ke),
            "ok": self.ok,
            "timings": dict(self.timings),
        }

    def to_text(self) -> str:
        """One line per field of to_json_dict, but oracle and timings: sets as
        {a,b}, check groups as a summary, everything else through json."""
        doc = self.to_json_dict()
        doc.update(doc["decomposition"])
        lines = ["graph n={n} m={m}".format(**doc["graph"])]
        for key in _TEXT_FIELDS:
            value = doc[key]
            if value == _SKIPPED:
                text = "skipped"
            elif key == "verdicts":
                text = " ".join(f"{k}={json.dumps(v)}" for k, v in value.items() if k != "agree")
            elif key in ("checks", "consistency"):
                applicable = [c for c in value if c["applicable"]]
                bad = [c["id"] for c in applicable if not c["holds"]]
                vacuous = len(value) - len(applicable)
                if bad:
                    text = f"FAILED {','.join(bad)}"
                else:
                    text = f"{len(applicable)}/{len(applicable)} hold"
                    if vacuous:
                        text += f" ({vacuous} not applicable)"
            elif isinstance(value, list):
                text = "{" + ",".join(value) + "}"
            else:
                text = json.dumps(value)
            lines.append(f"{key} {text}")
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
    which case analyze raises OracleBoundError before doing any work. An
    oracle_bound above MAX_ORACLE_BOUND raises ValueError, also before any
    work.
    """
    if oracle_bound > MAX_ORACLE_BOUND:
        raise ValueError(f"oracle_bound must be at most {MAX_ORACLE_BOUND}, got {oracle_bound}")
    use_oracle = g.n <= oracle_bound
    if require_oracle and not use_oracle:
        raise oracle.OracleBoundError(g.n, oracle_bound, "analyze")

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    decomp = critical.decompose(g)
    d = critical.critical_difference(g)
    diadem_fast = critical.diadem(g)
    mu = critical.matching_number(g)
    timings["polynomial"] = time.perf_counter() - t0

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
    adj = oracle.adjacency_masks(g)
    prof = oracle.independence_profile(g)
    fam = oracle.critical_family(g)
    report.alpha = prof.alpha
    report.core = prof.core
    report.corona = prof.corona
    report.ker = fam.ker
    report.nucleus = fam.nucleus
    report.verdicts = KEVerdicts(
        by_definition=prof.alpha + mu == g.n,
        by_all_mis_critical=all(
            s.bit_count() - _nbr_mask(adj, s).bit_count() == fam.d for s in prof.omega_family
        ),
        by_diadem_corona=fam.diadem == prof.corona,
        by_counting=len(fam.diadem) + len(fam.nucleus) == 2 * prof.alpha,
    )
    timings["oracle"] = time.perf_counter() - t1

    if include_checks:
        t2 = time.perf_counter()
        report.checks = _run_checks(report, prof, fam, adj)
        report.consistency = _run_consistency(report, fam, adj)
        timings["checks"] = time.perf_counter() - t2
    return report
