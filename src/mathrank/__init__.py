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
from .build import BuildError, build_graph, restrict_graph
from .corpus import parse_corpus, snapshot_filter
from .fields import FIELD_NAMES
from .graph import ThreeLevelGraph
from .records import (
    GraphRecords,
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
    compute_scores,
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
    "FIELD_NAMES",
    "FieldSeries",
    "GraphRecords",
    "Hyperparameters",
    "ImpactMatrix",
    "NormalizedMatrices",
    "RankingTable",
    "RatioSeries",
    "ScoreState",
    "SparseWeightMatrix",
    "ThreeLevelGraph",
    "ValidationReport",
    "YearMonth",
    "build_graph",
    "category_ratios",
    "compute_scores",
    "field_impact",
    "field_series",
    "impact_asymmetry",
    "init_state",
    "iterate_once",
    "normalize_matrices",
    "parse_corpus",
    "rank_entities",
    "restrict_graph",
    "snapshot_filter",
    "validate_records",
]
