"""The package's public names, and which of its classes are NamedTuples or
dataclasses: a change to either is made on purpose, here as well."""

import dataclasses
import importlib
import pkgutil

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


def test_records_hold_each_id_once():
    # One records class: the ids are its own code columns.
    assert not hasattr(importlib.import_module("mathrank.records"), "IdCodes")
    fields = {f.name for f in dataclasses.fields(mathrank.GraphRecords)}
    assert "codes" not in fields and not hasattr(mathrank.GraphRecords, "codes")


def test_records_have_no_string_form():
    # Ids become strings only in the reader and where text is written; the
    # tests' ObjectRecords builds and compares records by string columns.
    for name in ("from_columns", "column"):
        assert not hasattr(mathrank.GraphRecords, name)
    assert "__eq__" not in vars(mathrank.GraphRecords)


# Plain results are NamedTuples, with their fields in this order.
RESULT_FIELDS = {
    "analysis.RankingRow": ("rank", "entity_id", "field", "score"),
    "analysis.RankingTable": ("level", "grouped", "rows"),
    "analysis.ImpactMatrix": ("field_indices", "values"),
    "analysis.FieldSeries": ("years", "scores", "status"),
    "analysis.RatioSeries": ("years", "ratios"),
    "corpus.MalformedLine": ("path", "line_number", "reason"),
    "graph.ThreeLevelGraph": (
        "paper_vocab", "theorem_vocab", "paper_code", "theorem_code", "field_indices",
        "t_matrix", "p_matrix", "f_matrix", "theorem_paper", "paper_field"),
    "records.ValidationIssue": ("kind", "detail"),
    "records.ValidationReport": ("issues",),
    "solver.NormalizedMatrices": ("t_norm", "p_norm", "f_norm"),
    "solver.ConvergenceReport": ("converged", "iterations", "residual", "residual_history"),
}
# The classes that do work at construction: they check, convert or freeze
# their values, or cache on the instance.
CHECKED = {"solver.Hyperparameters", "solver.ScoreState", "sparsemat.SparseWeightMatrix",
           "records.GraphRecords"}


@pytest.mark.parametrize("qualified", sorted(RESULT_FIELDS))
def test_results_are_named_tuples(qualified):
    module, name = qualified.split(".")
    cls = getattr(importlib.import_module(f"mathrank.{module}"), name)
    assert issubclass(cls, tuple)
    assert cls._fields == RESULT_FIELDS[qualified]


def test_only_checked_classes_are_dataclasses():
    dataclass_names = set()
    for module in pkgutil.iter_modules(mathrank.__path__):
        namespace = vars(importlib.import_module(f"mathrank.{module.name}"))
        dataclass_names.update(
            f"{module.name}.{name}" for name, value in namespace.items()
            if isinstance(value, type) and value.__module__ == f"mathrank.{module.name}"
            and dataclasses.is_dataclass(value))
    assert dataclass_names == CHECKED
