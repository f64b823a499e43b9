"""Graph assembly: citation edge weights, weight matrices, containment maps."""

from __future__ import annotations

import logging
from functools import partial
from itertools import chain
from typing import Sequence

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
    np.add.at(dense, (paper_field[p_matrix.rowidx], paper_field[p_matrix.colidx]), 1.0)
    rows, cols = np.nonzero(dense)
    return SparseWeightMatrix.from_arrays(
        (n_fields, n_fields), rows, cols, dense[rows, cols])


def _str_order(strings: Sequence[str]) -> np.ndarray:
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
    """Distinct (cited, citer) pairs whose ends are known (>= 0) and differ,
    column-major: by citer, then by cited."""
    ok = (cited >= 0) & (citer >= 0) & (cited != citer)
    pairs = _distinct(citer[ok] * n + cited[ok])
    return pairs % max(n, 1), pairs // max(n, 1)


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


def _assemble(vocabs: tuple[tuple[str, ...], tuple[str, ...]], paper_code: np.ndarray,
              theorem_code: np.ndarray, canonical_field: np.ndarray, theorem_paper: np.ndarray,
              t_matrix: SparseWeightMatrix, p_matrix: SparseWeightMatrix) -> ThreeLevelGraph:
    """The graph of the given parts, paper p lying in canonical field
    ``canonical_field[p]``, its ids coded into ``vocabs``.

    The field axis is the populated canonical fields, ascending, and the
    field matrix is counted from ``p_matrix``. The index arrays are frozen.
    """
    field_indices = _distinct(canonical_field)
    paper_field = np.searchsorted(field_indices, canonical_field)
    for arr in (paper_code, theorem_code, field_indices, theorem_paper, paper_field):
        arr.setflags(write=False)
    return ThreeLevelGraph(
        *vocabs, paper_code=paper_code, theorem_code=theorem_code,
        field_indices=field_indices, t_matrix=t_matrix, p_matrix=p_matrix,
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
    keys = codes.keys

    # Papers by id. The papers table holds no id twice, so a paper's code
    # is its row. index_of[code] is a paper's place in the graph, -1 for an
    # id no paper record has.
    paper_code = np.array(sorted(range(codes.n_known_papers), key=codes.paper_ids.__getitem__),
                          dtype=np.int64)
    n_papers = paper_code.size
    index_of = np.full(len(codes.paper_ids), -1, dtype=np.int64)
    index_of[paper_code] = np.arange(n_papers)

    # Theorems by (paper_id, theorem_id); theorem_of[key code] is a
    # theorem's place in the graph, -1 for a key no theorem record has.
    t_order = np.lexsort((_str_order(codes.theorem_ids)[codes.theorem_id],
                          index_of[codes.theorem_paper]))
    theorem_code = codes.theorem_id[t_order]
    theorem_paper = index_of[codes.theorem_paper[t_order]]
    n_theorems = theorem_code.size
    theorem_of = np.full(keys.count, -1, dtype=np.int64)
    theorem_of[keys.theorem[t_order]] = np.arange(n_theorems)

    # Each paper's distinct authors, grouped by paper.
    vocab: dict[str, int] = {}
    author = intern_codes(vocab, tuple(chain.from_iterable(records.author_ids)))
    n_authors = max(len(vocab), 1)
    holder = np.repeat(index_of[codes.paper_id], [len(a) for a in records.author_ids])
    paper_author = _distinct(holder * n_authors + author)
    author_ptr = np.zeros(n_papers + 1, dtype=np.int64)
    np.cumsum(np.bincount(paper_author // n_authors, minlength=n_papers), out=author_ptr[1:])
    share_author = partial(_share_author, author_ptr, paper_author % n_authors, n_authors)

    # Theorem-level matrix: entry (cited, citer).
    cited, citer = _edges(theorem_of[keys.tc_dst], theorem_of[keys.tc_src], n_theorems)
    cited_paper, citer_paper = theorem_paper[cited], theorem_paper[citer]
    weight = np.where(cited_paper == citer_paper, SAME_PAPER_WEIGHT,
                      np.where(share_author(citer_paper, cited_paper),
                               SHARED_AUTHOR_WEIGHT, INDEPENDENT_WEIGHT))
    t_matrix = SparseWeightMatrix((n_theorems, n_theorems), cited, citer, weight)

    # Paper-level matrix: entry (cited, citer).
    cited, citer = _edges(index_of[codes.pc_dst], index_of[codes.pc_src], n_papers)
    weight = np.where(share_author(citer, cited), SHARED_AUTHOR_WEIGHT, INDEPENDENT_WEIGHT)
    p_matrix = SparseWeightMatrix((n_papers, n_papers), cited, citer, weight)

    return _assemble((codes.paper_ids, codes.theorem_ids), paper_code, theorem_code,
                     field_index_column(records.msc_primary)[paper_code],
                     theorem_paper, t_matrix, p_matrix)


def restrict_graph(graph: ThreeLevelGraph, keep_papers: np.ndarray) -> ThreeLevelGraph:
    """The subgraph induced by the papers where ``keep_papers`` is true.

    ``keep_papers`` is a boolean mask over the graph's papers. The kept
    papers' theorems survive, and so do the citations whose endpoints both
    survive. Edge weights depend only on the two endpoints, and a mask keeps
    the (paper_id) and (paper_id, theorem_id) order, so the result equals
    ``build_graph`` of the correspondingly restricted records, label for
    label, and array for array apart from the codes: it shares this graph's
    vocabularies.
    """
    keep_papers = np.asarray(keep_papers)
    if keep_papers.dtype != bool or keep_papers.shape != (graph.n_papers,):
        raise ValueError("keep_papers must be a boolean mask over the graph's papers")
    keep_theorems = keep_papers[graph.theorem_paper]
    new_paper = np.cumsum(keep_papers) - 1
    return _assemble(
        (graph.paper_vocab, graph.theorem_vocab),
        graph.paper_code[keep_papers], graph.theorem_code[keep_theorems],
        graph.field_indices[graph.paper_field[keep_papers]],
        new_paper[graph.theorem_paper[keep_theorems]],
        graph.t_matrix.principal_submatrix(keep_theorems),
        graph.p_matrix.principal_submatrix(keep_papers))
