"""Graph assembly: citation edge weights, weight matrices, containment maps."""

from __future__ import annotations

import logging
from functools import partial
from itertools import chain, compress

import numpy as np

from .fields import field_index_column
from .graph import ThreeLevelGraph
from .records import GraphRecords, intern_codes, validate_records
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


def _str_order(strings: tuple[str, ...]) -> np.ndarray:
    """rank[i] is the place of strings[i] in Python string order."""
    rank = np.empty(len(strings), dtype=np.int64)
    rank[sorted(range(len(strings)), key=strings.__getitem__)] = np.arange(len(strings))
    return rank


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending."""
    values = np.sort(values)
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _edges(cited: np.ndarray, citer: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (cited, citer) pairs whose ends are known (>= 0) and differ."""
    ok = (cited >= 0) & (citer >= 0) & (cited != citer)
    pairs = _distinct(cited[ok] * n + citer[ok])
    return pairs // max(n, 1), pairs % max(n, 1)


def _share_author(author_ptr: np.ndarray, authors: np.ndarray, n_authors: int,
                  a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """True where papers a[k] and b[k] have an author in common.

    Paper p's distinct authors are ``authors[author_ptr[p]:author_ptr[p + 1]]``.
    The key ``k * n_authors + author`` is listed for each author of a[k] and
    each of b[k]; a key listed twice is an author they share.
    """
    def listed(papers: np.ndarray) -> np.ndarray:
        count = author_ptr[papers + 1] - author_ptr[papers]
        pair = np.repeat(np.arange(papers.size), count)
        first = np.repeat(author_ptr[papers] - (np.cumsum(count) - count), count)
        return pair * n_authors + authors[first + np.arange(pair.size)]

    keys = np.sort(np.concatenate([listed(a), listed(b)]))
    shared = np.zeros(a.size, dtype=bool)
    shared[keys[1:][keys[1:] == keys[:-1]] // n_authors] = True
    return shared


def _assemble(theorem_keys: tuple[tuple[str, str], ...], paper_ids: tuple[str, ...],
              canonical_field: np.ndarray, theorem_paper: np.ndarray,
              t_matrix: SparseWeightMatrix, p_matrix: SparseWeightMatrix) -> ThreeLevelGraph:
    """The graph of the given parts, paper p lying in canonical field
    ``canonical_field[p]``.

    The field axis is the populated canonical fields, ascending, and the
    field matrix is counted from ``p_matrix``. The index arrays are frozen.
    """
    field_indices = _distinct(canonical_field)
    paper_field = np.searchsorted(field_indices, canonical_field)
    for arr in (field_indices, theorem_paper, paper_field):
        arr.setflags(write=False)
    return ThreeLevelGraph(
        theorem_keys=theorem_keys, paper_ids=paper_ids, field_indices=field_indices,
        t_matrix=t_matrix, p_matrix=p_matrix,
        f_matrix=build_field_matrix(paper_field, int(field_indices.size), p_matrix),
        theorem_paper=theorem_paper, paper_field=paper_field)


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

    codes = records.codes

    # Papers by id. index_of[code] is a paper's place in the graph, -1 for
    # an id no paper record has.
    order = sorted(range(len(records.paper_id)), key=records.paper_id.__getitem__)
    paper_ids = tuple(records.paper_id[i] for i in order)
    n_papers = len(paper_ids)
    index_of = np.full(len(codes.paper_ids), -1, dtype=np.int64)
    index_of[codes.paper[order]] = np.arange(n_papers)

    # Theorems by (paper_id, theorem_id); theorem_of[key code] is a
    # theorem's place in the graph, -1 for a key no theorem record has.
    t_order = np.lexsort((_str_order(codes.theorem_ids)[codes.theorem_id],
                          index_of[codes.theorem_paper]))
    rows = t_order.tolist()
    theorem_keys = tuple(zip(map(records.theorem_paper.__getitem__, rows),
                             map(records.theorem_id.__getitem__, rows)))
    theorem_paper = index_of[codes.theorem_paper[t_order]]
    n_theorems = len(theorem_keys)
    theorem_of = np.full(codes.n_theorem_keys, -1, dtype=np.int64)
    theorem_of[codes.theorem[t_order]] = np.arange(n_theorems)

    # Each paper's distinct authors, grouped by paper.
    vocab: dict[str, int] = {}
    author = intern_codes(vocab, tuple(chain.from_iterable(records.author_ids)))
    n_authors = max(len(vocab), 1)
    holder = np.repeat(index_of[codes.paper], [len(a) for a in records.author_ids])
    paper_author = _distinct(holder * n_authors + author)
    author_ptr = np.zeros(n_papers + 1, dtype=np.int64)
    np.cumsum(np.bincount(paper_author // n_authors, minlength=n_papers), out=author_ptr[1:])
    share_author = partial(_share_author, author_ptr, paper_author % n_authors, n_authors)

    # Theorem-level matrix: entry (cited, citer).
    cited, citer = _edges(theorem_of[codes.tc_dst], theorem_of[codes.tc_src], n_theorems)
    cited_paper, citer_paper = theorem_paper[cited], theorem_paper[citer]
    weight = np.where(cited_paper == citer_paper, SAME_PAPER_WEIGHT,
                      np.where(share_author(citer_paper, cited_paper),
                               SHARED_AUTHOR_WEIGHT, INDEPENDENT_WEIGHT))
    t_matrix = SparseWeightMatrix.from_arrays((n_theorems, n_theorems), cited, citer, weight)

    # Paper-level matrix: entry (cited, citer).
    cited, citer = _edges(index_of[codes.pc_dst], index_of[codes.pc_src], n_papers)
    weight = np.where(share_author(citer, cited), SHARED_AUTHOR_WEIGHT, INDEPENDENT_WEIGHT)
    p_matrix = SparseWeightMatrix.from_arrays((n_papers, n_papers), cited, citer, weight)

    return _assemble(theorem_keys, paper_ids, field_index_column(records.msc_primary)[order],
                     theorem_paper, t_matrix, p_matrix)


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
    keep_papers = np.asarray(keep_papers)
    if keep_papers.dtype != bool or keep_papers.shape != (graph.n_papers,):
        raise ValueError("keep_papers must be a boolean mask over the graph's papers")
    keep_theorems = keep_papers[graph.theorem_paper]
    new_paper = np.cumsum(keep_papers) - 1
    new_theorem = np.cumsum(keep_theorems) - 1
    return _assemble(
        tuple(compress(graph.theorem_keys, keep_theorems.tolist())),
        tuple(compress(graph.paper_ids, keep_papers.tolist())),
        graph.field_indices[graph.paper_field[keep_papers]],
        new_paper[graph.theorem_paper[keep_theorems]],
        _restrict_matrix(graph.t_matrix, keep_theorems, new_theorem),
        _restrict_matrix(graph.p_matrix, keep_papers, new_paper))
