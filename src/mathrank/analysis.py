"""Downstream analyses: rankings, temporal series, cross-field impact."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .build import build_graph
from .corpus import snapshot_filter
from .fields import FIELD_NAMES, N_FIELDS, msc_to_field
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


@dataclass(frozen=True)
class RankingRow:
    rank: int
    entity_id: str
    field: str
    score: float


@dataclass(frozen=True)
class RankingTable:
    level: str
    grouped: bool
    rows: tuple[RankingRow, ...]


def _level_entities(graph: ThreeLevelGraph, state: ScoreState, level: str):
    """(entity_id, owning field name, score) triples for one level."""
    names = graph.field_names
    if level == "theorem":
        fields = graph.paper_field[graph.theorem_paper]
        return [
            (graph.theorem_label(i), names[fields[i]], float(state.u_t[i]))
            for i in range(graph.n_theorems)
        ]
    if level == "paper":
        return [
            (graph.paper_ids[i], names[graph.paper_field[i]], float(state.u_p[i]))
            for i in range(graph.n_papers)
        ]
    if level == "field":
        return [(names[i], names[i], float(state.u_f[i])) for i in range(graph.n_fields)]
    raise ValueError(f"unknown level {level!r}")


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
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    entities = _level_entities(graph, state, level)
    entities.sort(key=lambda e: (-e[2], e[0]))
    rows: list[RankingRow] = []
    if group_by_field:
        for field_name in graph.field_names:
            in_field = [e for e in entities if e[1] == field_name][:top_k]
            rows.extend(
                RankingRow(r, eid, fname, score)
                for r, (eid, fname, score) in enumerate(in_field, start=1)
            )
    else:
        rows = [
            RankingRow(r, eid, fname, score)
            for r, (eid, fname, score) in enumerate(entities[:top_k], start=1)
        ]
    return RankingTable(level=level, grouped=group_by_field, rows=tuple(rows))


@dataclass(frozen=True)
class ImpactMatrix:
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
    if pn.nnz:
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
    out: list[tuple[str, str, float | None]] = []
    n = len(names)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            forward = float(impact.values[i, j])
            backward = float(impact.values[j, i])
            ratio = forward / backward if backward != 0.0 else None
            out.append((names[i], names[j], ratio))
    return out


@dataclass(frozen=True)
class FieldSeries:
    """Yearly field scores on cumulative snapshots; 13 canonical columns.

    ``scores[k]`` is None for years whose snapshot has an empty or
    numerically degenerate level (see ``status``).
    """

    years: tuple[int, ...]
    scores: tuple[np.ndarray | None, ...]
    status: tuple[str, ...]
    hyperparameters: Hyperparameters


def field_series(
    records: GraphRecords,
    years: Sequence[int] | Iterable[int],
    hp: Hyperparameters | None = None,
) -> FieldSeries:
    """Snapshot, build, and solve the graph for every year in ``years``."""
    if hp is None:
        hp = Hyperparameters()
    years = tuple(years)
    if not years:
        raise ValueError("years must be non-empty")
    scores: list[np.ndarray | None] = []
    status: list[str] = []
    for year in years:
        snapshot = snapshot_filter(records, year)
        try:
            graph = build_graph(snapshot)
            state, report = compute_scores(graph, hp)
        except EmptyLevelError:
            scores.append(None)
            status.append(YEAR_EMPTY)
            continue
        except DegenerateLevelError:
            # A snapshot can be so sparse that a level's update is all zero
            # (no citations plus perfectly uniform papers); mark the year
            # instead of aborting the whole series.
            scores.append(None)
            status.append(YEAR_DEGENERATE)
            continue
        full = np.zeros(N_FIELDS)
        full[graph.field_indices] = state.u_f
        full.setflags(write=False)
        scores.append(full)
        status.append(YEAR_OK if report.converged else YEAR_NOT_CONVERGED)
    return FieldSeries(years, tuple(scores), tuple(status), hp)


@dataclass(frozen=True)
class RatioSeries:
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
    paper_years = np.array(
        [p.first_version_date.year for p in records.papers], dtype=np.int64)
    paper_fields = np.array(
        [msc_to_field(p.msc_primary).index for p in records.papers], dtype=np.int64)
    ratios: list[np.ndarray | None] = []
    for year in years:
        included = paper_years <= year
        total = int(np.count_nonzero(included))
        if total == 0:
            ratios.append(None)
            continue
        counts = np.bincount(paper_fields[included], minlength=N_FIELDS)
        r = counts / total
        r.setflags(write=False)
        ratios.append(r)
    return RatioSeries(years, tuple(ratios))
