"""Object-level link analysis: popularity ranking of typed web objects.

Pipeline: merge multi-source records into deduplicated objects, compute
page PageRank, project it through block-weighted page-object containment
into a web-popularity prior, then power-iterate the PPF-weighted restart
walk over the typed object graph. Propagation factors can be learned
from expert partial rankings, and a Monte Carlo surfer provides an
independent check on the analytic scores.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    FormatError,
    GraphError,
    NonConvergenceWarning,
    PopRankError,
    RecordError,
    SchemaError,
)
from .learning import (
    LearnConfig,
    LearnResult,
    PartialRanking,
    kendall_tau,
    learn_ppf,
    rank_disagreement,
)
from .objects import (
    GraphBuildReport,
    LinkTable,
    ObjectGraph,
    ObjectTable,
    ObjectTypeSchema,
    RecordTable,
    RelationshipType,
    SchemaRegistry,
    build_graph,
    merge_records,
)
from .ranking import (
    LinkStructure,
    PopRankConfig,
    PpfAssignment,
    TransitionStructure,
    build_transition,
    poprank,
    poprank_from_transition,
    ranking_positions,
)
from .simulate import SimConfig, VisitHistogram, simulate, tv_distance
from .webpop import PageGraph, PageObjectMap, RankResult, pagerank, web_popularity

__all__ = [
    "__version__",
    "ConfigError",
    "FormatError",
    "GraphError",
    "NonConvergenceWarning",
    "PopRankError",
    "RecordError",
    "SchemaError",
    "GraphBuildReport",
    "LinkTable",
    "ObjectGraph",
    "ObjectTable",
    "ObjectTypeSchema",
    "RecordTable",
    "RelationshipType",
    "SchemaRegistry",
    "build_graph",
    "merge_records",
    "PageGraph",
    "PageObjectMap",
    "RankResult",
    "pagerank",
    "web_popularity",
    "LinkStructure",
    "PopRankConfig",
    "PpfAssignment",
    "TransitionStructure",
    "build_transition",
    "poprank",
    "poprank_from_transition",
    "ranking_positions",
    "LearnConfig",
    "LearnResult",
    "PartialRanking",
    "kendall_tau",
    "learn_ppf",
    "rank_disagreement",
    "SimConfig",
    "VisitHistogram",
    "simulate",
    "tv_distance",
]
