"""Critical independent set profiles and Konig-Egervary analysis."""

from .analysis import (
    AnalysisReport,
    KEVerdicts,
    TheoremCheckResult,
    analyze,
)
from .critical import (
    Decomposition,
    bipartite_double,
    critical_difference,
    decompose,
    diadem,
    extends_to_critical_independent,
    find_critical_independent_set,
    forced_difference,
    matching_number,
    max_critical_independent_set,
)
from .graph import (
    FIXTURE_NAMES,
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
from .matching import (
    blossom,
    has_augmenting_path,
    hopcroft_karp,
    max_matching_bipartite,
    max_matching_general,
    min_vertex_cover_bipartite,
)
from .oracle import (
    DEFAULT_ORACLE_BOUND,
    CriticalFamily,
    IndependenceProfile,
    OracleBoundError,
    critical_family,
    independence_profile,
    max_difference_exhaustive,
    max_independent_difference,
    mu_exact,
)

__version__ = "0.1.0"
