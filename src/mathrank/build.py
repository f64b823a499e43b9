"""Graph assembly: citation edge weights, weight matrices, containment maps."""

from __future__ import annotations

import logging
from itertools import compress

import numpy as np

from .fields import msc_to_field
from .graph import ThreeLevelGraph
from .records import GraphRecords, PaperRecord, TheoremRecord, validate_records
from .sparsemat import SparseWeightMatrix

log = logging.getLogger(__name__)

# Citation weight tiers. A citation within one paper counts least, one
# between papers sharing an author counts a little more, and an independent
# citation counts fully.
SAME_PAPER_WEIGHT = 0.05
SHARED_AUTHOR_WEIGHT = 0.1
INDEPENDENT_WEIGHT = 1.0


class BuildError(ValueError):
    """Records failed validation in a way that prevents assembly."""


def theorem_edge_weight(
    src: TheoremRecord,
    dst: TheoremRecord,
    src_paper: PaperRecord,
    dst_paper: PaperRecord,
    cites: bool,
) -> float:
    """Weight of the theorem-level edge src -> dst (src's proof cites dst)."""
    if not cites:
        return 0.0
    if src.paper_id == dst.paper_id:
        return SAME_PAPER_WEIGHT
    if src_paper.author_ids & dst_paper.author_ids:
        return SHARED_AUTHOR_WEIGHT
    return INDEPENDENT_WEIGHT


def paper_edge_weight(src: PaperRecord, dst: PaperRecord, cites: bool) -> float:
    """Weight of the paper-level edge src -> dst (src cites dst)."""
    if not cites:
        return 0.0
    if src.author_ids & dst.author_ids:
        return SHARED_AUTHOR_WEIGHT
    return INDEPENDENT_WEIGHT


def build_field_matrix(
    paper_field: np.ndarray, n_fields: int, p_matrix: SparseWeightMatrix
) -> SparseWeightMatrix:
    """Count, per ordered field pair, the paper pairs with a positive weight.

    Entry (i, j) is the number of ordered paper pairs (cited in field i,
    citer in field j) connected at the paper level.
    """
    dense = np.zeros((n_fields, n_fields), dtype=np.float64)
    if p_matrix.nnz:
        np.add.at(dense, (paper_field[p_matrix.rowidx], paper_field[p_matrix.colidx]), 1.0)
    rows, cols = np.nonzero(dense)
    return SparseWeightMatrix.from_arrays(
        (n_fields, n_fields), rows, cols, dense[rows, cols])


def build_graph(records: GraphRecords) -> ThreeLevelGraph:
    """Assemble the three-level graph from validated records.

    Record-level violations (duplicates, malformed fields, theorems of
    unknown papers) raise BuildError naming the first offender. Citation
    edges with invalid endpoints are dropped with a warning; duplicate
    citation edges collapse to a single edge.
    """
    report = validate_records(records)
    fatal = report.fatal_issues
    if fatal:
        raise BuildError(f"{fatal[0].kind}: {fatal[0].detail}"
                         + (f" (+{len(fatal) - 1} more)" if len(fatal) > 1 else ""))
    if report.edge_issues:
        log.warning("dropping %d invalid citation edges", len(report.edge_issues))

    papers = sorted(records.papers, key=lambda p: p.paper_id)
    paper_ids = tuple(p.paper_id for p in papers)
    paper_index = {pid: i for i, pid in enumerate(paper_ids)}
    paper_by_id = {p.paper_id: p for p in papers}

    theorems = sorted(records.theorems, key=lambda t: t.key)
    theorem_keys = tuple(t.key for t in theorems)
    theorem_index = {key: i for i, key in enumerate(theorem_keys)}

    n_papers = len(papers)
    n_theorems = len(theorems)

    # Field axis: populated canonical fields, ascending.
    canonical_field = np.array(
        [msc_to_field(p.msc_primary).index for p in papers], dtype=np.int64)
    field_indices = np.unique(canonical_field)
    local_of_canonical = {int(c): i for i, c in enumerate(field_indices)}
    paper_field = np.array(
        [local_of_canonical[int(c)] for c in canonical_field], dtype=np.int64)
    n_fields = int(field_indices.size)

    # Theorem-level matrix: entry (cited, citer).
    t_edges: set[tuple[int, int]] = set()
    for tc in records.theorem_citations:
        src = theorem_index.get(tc.src_key)
        dst = theorem_index.get(tc.dst_key)
        if src is None or dst is None or src == dst:
            continue
        t_edges.add((dst, src))
    t_entries = []
    for dst_i, src_i in sorted(t_edges):
        src_t, dst_t = theorems[src_i], theorems[dst_i]
        w = theorem_edge_weight(
            src_t, dst_t, paper_by_id[src_t.paper_id], paper_by_id[dst_t.paper_id], True)
        t_entries.append((dst_i, src_i, w))
    t_matrix = SparseWeightMatrix.from_entries((n_theorems, n_theorems), t_entries)

    # Paper-level matrix: entry (cited, citer).
    p_edges: set[tuple[int, int]] = set()
    for pc in records.paper_citations:
        src = paper_index.get(pc.src)
        dst = paper_index.get(pc.dst)
        if src is None or dst is None or src == dst:
            continue
        p_edges.add((dst, src))
    p_entries = [
        (dst_i, src_i, paper_edge_weight(papers[src_i], papers[dst_i], True))
        for dst_i, src_i in sorted(p_edges)
    ]
    p_matrix = SparseWeightMatrix.from_entries((n_papers, n_papers), p_entries)

    f_matrix = build_field_matrix(paper_field, n_fields, p_matrix)

    # Containment maps. Theorems are sorted by (paper_id, theorem_id), so each
    # paper's theorems are contiguous.
    theorem_paper = np.array(
        [paper_index[t.paper_id] for t in theorems], dtype=np.int64)
    pt_counts = np.bincount(theorem_paper, minlength=n_papers) if n_theorems else \
        np.zeros(n_papers, dtype=np.int64)
    paper_theorem_ptr = np.zeros(n_papers + 1, dtype=np.int64)
    np.cumsum(pt_counts, out=paper_theorem_ptr[1:])

    for arr in (field_indices, theorem_paper, paper_field, paper_theorem_ptr):
        arr.setflags(write=False)

    return ThreeLevelGraph(
        theorem_keys=theorem_keys,
        paper_ids=paper_ids,
        field_indices=field_indices,
        t_matrix=t_matrix,
        p_matrix=p_matrix,
        f_matrix=f_matrix,
        theorem_paper=theorem_paper,
        paper_field=paper_field,
        paper_theorem_ptr=paper_theorem_ptr,
    )


def _restrict_matrix(
    matrix: SparseWeightMatrix, keep: np.ndarray, new_index: np.ndarray
) -> SparseWeightMatrix:
    """The stored entries whose row and column both survive, reindexed."""
    both = keep[matrix.rowidx] & keep[matrix.colidx]
    n = int(np.count_nonzero(keep))
    return SparseWeightMatrix.from_arrays(
        (n, n), new_index[matrix.rowidx[both]], new_index[matrix.colidx[both]],
        matrix.values[both])


def restrict_graph(graph: ThreeLevelGraph, keep_papers: np.ndarray) -> ThreeLevelGraph:
    """The subgraph induced by the papers where ``keep_papers`` is true.

    ``keep_papers`` is a boolean mask aligned with ``graph.paper_ids``. The
    kept papers' theorems survive, and so do the citations whose endpoints
    both survive. Edge weights depend only on the two endpoints, and a mask
    keeps the (paper_id) and (paper_id, theorem_id) order, so the result
    equals ``build_graph`` of the correspondingly restricted records, array
    for array.
    """
    keep_papers = np.asarray(keep_papers, dtype=bool)
    if keep_papers.shape != (graph.n_papers,):
        raise ValueError("keep_papers must be a boolean mask over the graph's papers")
    keep_theorems = keep_papers[graph.theorem_paper]
    new_paper = np.cumsum(keep_papers) - 1
    new_theorem = np.cumsum(keep_theorems) - 1

    t_matrix = _restrict_matrix(graph.t_matrix, keep_theorems, new_theorem)
    p_matrix = _restrict_matrix(graph.p_matrix, keep_papers, new_paper)

    canonical_field = graph.field_indices[graph.paper_field[keep_papers]]
    field_indices = np.unique(canonical_field)
    paper_field = np.searchsorted(field_indices, canonical_field)
    f_matrix = build_field_matrix(paper_field, int(field_indices.size), p_matrix)

    paper_ids = tuple(compress(graph.paper_ids, keep_papers.tolist()))
    theorem_paper = new_paper[graph.theorem_paper[keep_theorems]]
    paper_theorem_ptr = np.zeros(len(paper_ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(theorem_paper, minlength=len(paper_ids)), out=paper_theorem_ptr[1:])

    for arr in (field_indices, theorem_paper, paper_field, paper_theorem_ptr):
        arr.setflags(write=False)

    return ThreeLevelGraph(
        theorem_keys=tuple(compress(graph.theorem_keys, keep_theorems.tolist())),
        paper_ids=paper_ids,
        field_indices=field_indices,
        t_matrix=t_matrix,
        p_matrix=p_matrix,
        f_matrix=f_matrix,
        theorem_paper=theorem_paper,
        paper_field=paper_field,
        paper_theorem_ptr=paper_theorem_ptr,
    )
