"""Downstream analyses: rankings, temporal series, cross-field impact."""

from __future__ import annotations

from functools import partial
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .build import _str_order, build_graph, restrict_graph
from .fields import FIELD_NAMES, N_FIELDS
from .graph import ThreeLevelGraph
from .records import GraphRecords
from .solver import (
    DegenerateLevelError,
    EmptyLevelError,
    Hyperparameters,
    NormalizedMatrices,
    ScoreState,
    compute_scores,
)

YEAR_OK = "ok"
YEAR_NOT_CONVERGED = "not_converged"
YEAR_EMPTY = "empty"
YEAR_DEGENERATE = "degenerate"


class RankingRow(NamedTuple):
    rank: int
    entity_id: str
    field: str
    score: float


class RankingTable(NamedTuple):
    level: str
    grouped: bool
    rows: tuple[RankingRow, ...]


def _names(names: Sequence[str], indices: np.ndarray) -> list[str]:
    return list(map(names.__getitem__, indices.tolist()))


def _level_columns(graph: ThreeLevelGraph, state: ScoreState, level: str):
    """One level's scores, each entity's local field index and its label function."""
    if level == "theorem":
        return state.u_t, graph.paper_field[graph.theorem_paper], graph.theorem_labels
    if level == "paper":
        return state.u_p, graph.paper_field, graph.paper_labels
    if level == "field":
        return state.u_f, np.arange(graph.n_fields), partial(_names, graph.field_names)
    raise ValueError(f"unknown level {level!r}")


def _top(scores: np.ndarray, members: np.ndarray, top_k: int,
         label) -> tuple[list[str], list[int]]:
    """Labels and indices of the ``top_k`` members with the highest scores, in
    order of descending score, then label by code point, then index.

    Only the members scoring at least the k-th largest score, every tie at
    the cut included, are labelled and ordered.
    """
    member_scores = scores[members]
    cut = member_scores.size - top_k
    if cut > 0:
        keep = member_scores >= np.partition(member_scores, cut)[cut]
        members, member_scores = members[keep], member_scores[keep]
    labels = label(members)
    # A stable sort of positions gives equal labels their index order.
    order = np.lexsort((_str_order(labels), -member_scores))[:top_k].tolist()
    return [labels[k] for k in order], members[order].tolist()


def ranking_columns(
    graph: ThreeLevelGraph,
    state: ScoreState,
    level: str,
    top_k: int = 10,
    group_by_field: bool = False,
) -> tuple[list[int], list[str], list[str], list[float]]:
    """The rows of ``rank_entities`` as four aligned columns: rank, entity
    id, field name and score."""
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    scores, field_of, label = _level_columns(graph, state, level)
    if group_by_field:
        groups = [np.flatnonzero(field_of == f) for f in range(graph.n_fields)]
    else:
        groups = [np.arange(scores.size)]
    ranks, ids, chosen = [], [], []
    for members in groups:
        labels, top = _top(scores, members, top_k, label)
        ranks.extend(range(1, len(labels) + 1))
        ids.extend(labels)
        chosen.extend(top)
    fields = _names(graph.field_names, field_of[chosen])
    return ranks, ids, fields, scores[chosen].tolist()


def rank_entities(
    graph: ThreeLevelGraph,
    state: ScoreState,
    level: str,
    top_k: int = 10,
    group_by_field: bool = False,
) -> RankingTable:
    """Top entities by score, descending; ties break on the entity id.

    With ``group_by_field`` the table holds up to ``top_k`` rows per field
    (fields in canonical order, rank restarting at 1 within each field).
    """
    columns = ranking_columns(graph, state, level, top_k, group_by_field)
    return RankingTable(level=level, grouped=group_by_field,
                        rows=tuple(map(RankingRow, *columns)))


class ImpactMatrix(NamedTuple):
    """Influence each source (cited) field receives from each target (citing)
    field's papers, weighted by the citers' scores."""

    field_indices: np.ndarray  # canonical indices, aligned with values axes
    values: np.ndarray         # (source field, target field)

    def expand_canonical(self) -> np.ndarray:
        """Embed into the full canonical field set, zeros where unpopulated."""
        full = np.zeros((N_FIELDS, N_FIELDS))
        full[np.ix_(self.field_indices, self.field_indices)] = self.values
        return full


def field_impact(
    graph: ThreeLevelGraph, norm: NormalizedMatrices, u_p: np.ndarray
) -> ImpactMatrix:
    """Sum of normalized citation weight times citer score, per field pair."""
    n = graph.n_fields
    values = np.zeros((n, n))
    pn = norm.p_norm
    src_fields = graph.paper_field[pn.rowidx]   # cited side
    dst_fields = graph.paper_field[pn.colidx]   # citing side
    np.add.at(values, (src_fields, dst_fields), pn.values * u_p[pn.colidx])
    return ImpactMatrix(field_indices=graph.field_indices, values=values)


def impact_asymmetry(
    impact: ImpactMatrix,
) -> list[tuple[str, str, float | None]]:
    """Pairwise ratios impact(f, f') / impact(f', f) for all ordered pairs.

    A zero denominator yields None (undefined) rather than infinity.
    """
    names = [FIELD_NAMES[i] for i in impact.field_indices]
    values = impact.values.tolist()
    return [(names[i], names[j], values[i][j] / values[j][i] if values[j][i] != 0.0 else None)
            for i in range(len(names)) for j in range(len(names)) if i != j]


class FieldSeries(NamedTuple):
    """Yearly field scores on cumulative snapshots; 13 canonical columns.

    ``scores[k]`` is None for years whose snapshot has an empty or
    numerically degenerate level (see ``status``).
    """

    years: tuple[int, ...]
    scores: tuple[np.ndarray | None, ...]
    status: tuple[str, ...]


def field_series(
    records: GraphRecords,
    years: Sequence[int] | Iterable[int],
    hp: Hyperparameters | None = None,
) -> FieldSeries:
    """Solve the cumulative snapshot of every year in ``years``.

    The whole corpus is built once; each year's graph is its restriction to
    the papers first versioned by December of that year, which equals
    building ``snapshot_filter(records, year)``. So a fatal issue anywhere
    in ``records`` (a duplicate or malformed paper, a duplicate theorem, a
    theorem of an unknown paper) raises BuildError before any year is
    solved, whatever ``years`` holds. Dangling and self citations are
    dropped with one warning.
    """
    if hp is None:
        hp = Hyperparameters()
    years = tuple(years)
    if not years:
        raise ValueError("years must be non-empty")
    full_graph = build_graph(records)
    # A paper's code is its row in the papers table.
    paper_year = records.year[full_graph.paper_code]
    scores, status = zip(*(_solve_year(restrict_graph(full_graph, paper_year <= year), hp)
                           for year in years))
    return FieldSeries(years, scores, status)


def _solve_year(graph: ThreeLevelGraph, hp: Hyperparameters) -> tuple[np.ndarray | None, str]:
    """One year's 13 canonical field scores (None if unsolvable) and status."""
    try:
        state, report = compute_scores(graph, hp)
    except EmptyLevelError:
        return None, YEAR_EMPTY
    except DegenerateLevelError:
        # A snapshot can be so sparse that a level's update is all zero
        # (no citations plus perfectly uniform papers); mark the year
        # instead of aborting the whole series.
        return None, YEAR_DEGENERATE
    full = np.zeros(N_FIELDS)
    full[graph.field_indices] = state.u_f
    full.setflags(write=False)
    return full, YEAR_OK if report.converged else YEAR_NOT_CONVERGED


class RatioSeries(NamedTuple):
    """Cumulative share of papers per field, per year (None when no papers)."""

    years: tuple[int, ...]
    ratios: tuple[np.ndarray | None, ...]


def category_ratios(
    records: GraphRecords, years: Sequence[int] | Iterable[int]
) -> RatioSeries:
    """ratio(f, y) = papers in f dated <= Dec y, over all papers dated <= Dec y."""
    years = tuple(years)
    if not years:
        raise ValueError("years must be non-empty")
    paper_fields = records.canonical_field
    bad = np.flatnonzero(paper_fields < 0)
    if bad.size:
        raise ValueError(f"bad subject code {records.msc_primary[bad[0]]!r}")

    def ratios(included: np.ndarray) -> np.ndarray | None:
        if not included.any():
            return None
        r = np.bincount(paper_fields[included], minlength=N_FIELDS) / np.count_nonzero(included)
        r.setflags(write=False)
        return r

    return RatioSeries(years, tuple(ratios(records.year <= year) for year in years))
