"""Influence scores for a three-level theorem/paper/field citation graph."""

from .analysis import (
    FieldSeries,
    ImpactMatrix,
    RankingTable,
    RatioSeries,
    category_ratios,
    field_impact,
    field_series,
    impact_asymmetry,
    rank_entities,
)
from .build import (
    BuildError,
    build_field_matrix,
    build_graph,
    paper_edge_weight,
    restrict_graph,
    theorem_edge_weight,
)
from .corpus import parse_corpus, snapshot_filter, write_corpus
from .fields import FIELD_NAMES, FIELDS, FieldId, msc_to_field
from .graph import ThreeLevelGraph
from .records import (
    GraphRecords,
    PaperCitation,
    PaperRecord,
    TheoremCitation,
    TheoremRecord,
    ValidationReport,
    YearMonth,
    validate_records,
)
from .solver import (
    ConvergenceReport,
    DegenerateLevelError,
    EmptyLevelError,
    Hyperparameters,
    NormalizedMatrices,
    ScoreState,
    column_normalize,
    compute_scores,
    has_converged,
    init_state,
    iterate_once,
    normalize_matrices,
)
from .sparsemat import SparseWeightMatrix

__version__ = "0.1.0"

__all__ = [
    "BuildError",
    "ConvergenceReport",
    "DegenerateLevelError",
    "EmptyLevelError",
    "FIELDS",
    "FIELD_NAMES",
    "FieldId",
    "FieldSeries",
    "GraphRecords",
    "Hyperparameters",
    "ImpactMatrix",
    "NormalizedMatrices",
    "PaperCitation",
    "PaperRecord",
    "RankingTable",
    "RatioSeries",
    "ScoreState",
    "SparseWeightMatrix",
    "TheoremCitation",
    "TheoremRecord",
    "ThreeLevelGraph",
    "ValidationReport",
    "YearMonth",
    "build_field_matrix",
    "build_graph",
    "category_ratios",
    "column_normalize",
    "compute_scores",
    "field_impact",
    "field_series",
    "has_converged",
    "impact_asymmetry",
    "init_state",
    "iterate_once",
    "msc_to_field",
    "normalize_matrices",
    "paper_edge_weight",
    "parse_corpus",
    "rank_entities",
    "restrict_graph",
    "snapshot_filter",
    "theorem_edge_weight",
    "validate_records",
    "write_corpus",
]
