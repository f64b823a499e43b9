"""The package's public names: a change to ``mathrank.__all__`` is made on
purpose, here as well."""

import importlib

import pytest

import mathrank

PUBLIC = {
    "BuildError", "ConvergenceReport", "DegenerateLevelError", "EmptyLevelError",
    "FIELD_NAMES", "FieldSeries", "GraphRecords", "Hyperparameters", "ImpactMatrix",
    "NormalizedMatrices", "RankingTable", "RatioSeries", "ScoreState",
    "SparseWeightMatrix", "ThreeLevelGraph", "ValidationReport", "YearMonth",
    "build_graph", "category_ratios", "compute_scores", "field_impact", "field_series",
    "impact_asymmetry", "init_state", "iterate_once", "normalize_matrices",
    "parse_corpus", "rank_entities", "restrict_graph", "snapshot_filter",
    "validate_records",
}


def test_public_names():
    assert set(mathrank.__all__) == PUBLIC
    assert len(mathrank.__all__) == len(PUBLIC)
    namespace = {}
    exec("from mathrank import *", namespace)
    assert PUBLIC <= set(namespace)


def test_record_objects_left_the_package():
    for module in ("mathrank", "mathrank.records"):
        names = vars(importlib.import_module(module))
        for name in ("PaperRecord", "TheoremRecord", "TheoremCitation", "PaperCitation"):
            assert name not in names, (module, name)
    for view in ("papers", "theorems", "theorem_citations", "paper_citations"):
        assert not hasattr(mathrank.GraphRecords, view)
    # GraphRecords is built from codes or from columns, not from objects.
    with pytest.raises(TypeError):
        mathrank.GraphRecords(papers=(), theorems=())
